//! Canned transaction libraries: banking, inventory, reservations.
//!
//! Each library is a factory for [`Transaction`]s of a small set of
//! *types*, with:
//!
//! * forward programs honouring the paper's structural assumptions (no
//!   blind writes, one update per item);
//! * declared inverse (compensating) programs, enabling the Section 6.1
//!   pruning approach;
//! * a [`DeclaredTable`] of type-level semantic relations, pre-verified
//!   offline as Section 5.1 prescribes for canned systems (and
//!   cross-checked against differential execution in this module's tests).

use std::sync::{Arc, OnceLock};

use histmerge_semantics::{CanPrecedePolicy, DeclaredTable};
use histmerge_txn::registry::{TxnTypeId, TypeRegistry};
use histmerge_txn::{
    Expr, Pred, Program, ProgramBuilder, Transaction, TxnId, TxnKind, TxnName, Value, VarId,
};

/// A canned type's template: its forward program, declared inverse and
/// precondition over item slots `VarId::new(0..)` and parameters `p0..`.
/// Every transaction of the type is an instance of it, the inverse and
/// the precondition bound by the same binding as the program.
#[derive(Debug, Clone)]
struct Template {
    program: Arc<Program>,
    inverse: Option<Arc<Program>>,
    precondition: Option<Arc<Pred>>,
    type_id: Option<TxnTypeId>,
}

impl Template {
    fn new(program: Program, type_id: Option<TxnTypeId>) -> Self {
        Template { program: Arc::new(program), inverse: None, precondition: None, type_id }
    }

    fn inverse(mut self, inverse: Program) -> Self {
        self.inverse = Some(Arc::new(inverse));
        self
    }

    fn precondition(mut self, precondition: Pred) -> Self {
        self.precondition = Some(Arc::new(precondition));
        self
    }

    /// The instance binding `items` and `params`, named `name`.
    ///
    /// # Panics
    ///
    /// Panics when the binding makes the program invalid — a transfer
    /// from an account to itself, which updates it twice.
    fn instance(&self, id: TxnId, name: &str, items: &[VarId], params: &[Value]) -> Transaction {
        let mut txn = Transaction::instance(
            id,
            TxnName::new(name),
            TxnKind::Tentative,
            Arc::clone(&self.program),
            items,
            params,
        )
        .expect("canned bindings fit their template");
        if let Some(inverse) = &self.inverse {
            txn = txn.with_inverse(Arc::clone(inverse));
        }
        if let Some(precondition) = &self.precondition {
            txn = txn.with_precondition(Arc::clone(precondition));
        }
        match self.type_id {
            Some(type_id) => txn.with_type(type_id),
            None => txn,
        }
    }
}

/// A template built on its type's first instance, so constructing a
/// library builds no program.
type Lazy = OnceLock<Template>;

/// Item slot `i` of a canned template.
fn s(i: u32) -> VarId {
    VarId::new(i)
}

/// A template program known to be well formed.
fn build(b: ProgramBuilder) -> Program {
    b.build().expect("canned templates are well formed")
}

/// The banking library: accounts are data items holding balances.
///
/// | type | effect | commutes with |
/// |---|---|---|
/// | `deposit` | `bal += amt` | deposit, accrue? no — deposit only |
/// | `withdraw` | `if bal >= amt then bal -= amt` | nothing (guard reads bal) |
/// | `accrue` | `bal *= factor` | accrue |
/// | `audit` | read-only | (not declared: Property 1) |
///
/// # Example
///
/// ```rust
/// use histmerge_workload::canned::Bank;
/// use histmerge_txn::{DbState, Fix, TxnId, VarId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bank = Bank::new();
/// let acct = VarId::new(0);
/// let t = bank.deposit(TxnId::new(0), "dep", acct, 100);
/// let s: DbState = [(acct, 25)].into_iter().collect();
/// assert_eq!(t.execute(&s, &Fix::empty())?.after.get(acct), 125);
/// // Compensation undoes it.
/// let out = t.execute(&s, &Fix::empty())?;
/// assert_eq!(t.compensate(&out.after, &Fix::empty())?.after, s);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Bank {
    registry: TypeRegistry,
    deposit: TxnTypeId,
    withdraw: TxnTypeId,
    accrue: TxnTypeId,
    audit: TxnTypeId,
    templates: [Lazy; 4],
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// Creates the library with a private registry.
    pub fn new() -> Self {
        let mut registry = TypeRegistry::new();
        Self::register_in(&mut registry)
    }

    /// Registers the library's types in a shared registry — required when
    /// mixing several canned libraries in one system, so type ids stay
    /// distinct and their declared tables can be stacked safely.
    pub fn register_in(registry: &mut TypeRegistry) -> Self {
        let deposit = registry.register("bank.deposit");
        let withdraw = registry.register("bank.withdraw");
        let accrue = registry.register("bank.accrue");
        let audit = registry.register("bank.audit");
        Bank {
            registry: registry.clone(),
            deposit,
            withdraw,
            accrue,
            audit,
            templates: Default::default(),
        }
    }

    /// The type registry (for reports).
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// The offline-verified relation table of Section 5.1.
    ///
    /// Deposits on any accounts commute with deposits; accruals commute
    /// with accruals. Withdraws commute with nothing (their guard reads
    /// the balance). The table complements the
    /// [`StaticAnalyzer`](histmerge_semantics::StaticAnalyzer), which
    /// derives the same facts for same-type pairs; declaring them makes
    /// detection O(1) at merge time, as the paper intends for canned
    /// systems.
    pub fn declared_relations(&self) -> DeclaredTable {
        DeclaredTable::new()
            .declare_commuting_pair(self.deposit, self.deposit, CanPrecedePolicy::Always)
            .declare_commuting_pair(self.accrue, self.accrue, CanPrecedePolicy::Always)
    }

    /// `deposit(acct, amt)`: `acct += amt`. Inverse: `acct -= amt`.
    pub fn deposit(&self, id: TxnId, name: &str, acct: VarId, amt: Value) -> Transaction {
        let template = self.templates[0].get_or_init(|| {
            Template::new(
                build(
                    ProgramBuilder::new("bank.deposit")
                        .read(s(0))
                        .update(s(0), Expr::var(s(0)) + Expr::param(0)),
                ),
                Some(self.deposit),
            )
            .inverse(build(
                ProgramBuilder::new("bank.deposit^-1")
                    .read(s(0))
                    .update(s(0), Expr::var(s(0)) - Expr::param(0)),
            ))
        });
        template.instance(id, name, &[acct], &[amt])
    }

    /// `withdraw(acct, amt)`: `if acct >= amt then acct -= amt`.
    /// Inverse: the mirrored conditional (correct under the same fix, or
    /// immediately after the forward run when the guard re-evaluates the
    /// same way; canned systems record the branch — modeled by fixes).
    pub fn withdraw(&self, id: TxnId, name: &str, acct: VarId, amt: Value) -> Transaction {
        let template = self.templates[1].get_or_init(|| {
            Template::new(
                build(ProgramBuilder::new("bank.withdraw").read(s(0)).branch(
                    Expr::var(s(0)).ge(Expr::param(0)),
                    |b| b.update(s(0), Expr::var(s(0)) - Expr::param(0)),
                    |b| b,
                )),
                Some(self.withdraw),
            )
            .inverse(build(ProgramBuilder::new("bank.withdraw^-1").read(s(0)).branch(
                Expr::var(s(0)).ge(Expr::konst(0)),
                |b| b.update(s(0), Expr::var(s(0)) + Expr::param(0)),
                |b| b,
            )))
            .precondition(Expr::var(s(0)).ge(Expr::param(0)))
        });
        template.instance(id, name, &[acct], &[amt])
    }

    /// `transfer(src, dst, amt)`: `if src >= amt then src -= amt, dst += amt`.
    /// No inverse is declared (transfers are pruned via undo).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`: the program would update one item twice.
    pub fn transfer(
        &self,
        id: TxnId,
        name: &str,
        src: VarId,
        dst: VarId,
        amt: Value,
    ) -> Transaction {
        let template = self.templates[2].get_or_init(|| {
            Template::new(
                build(ProgramBuilder::new("bank.transfer").read(s(0)).read(s(1)).branch(
                    Expr::var(s(0)).ge(Expr::param(0)),
                    |b| {
                        b.update(s(0), Expr::var(s(0)) - Expr::param(0))
                            .update(s(1), Expr::var(s(1)) + Expr::param(0))
                    },
                    |b| b,
                )),
                None,
            )
            .precondition(Expr::var(s(0)).ge(Expr::param(0)))
        });
        template.instance(id, name, &[src, dst], &[amt])
    }

    /// `accrue(acct, percent)`: `acct *= (100 + percent) / 100` — modeled
    /// as an integer scale `acct *= factor` to stay in the Scale class.
    pub fn accrue(&self, id: TxnId, name: &str, acct: VarId, factor: Value) -> Transaction {
        let template = self.templates[3].get_or_init(|| {
            Template::new(
                build(
                    ProgramBuilder::new("bank.accrue")
                        .read(s(0))
                        .update(s(0), Expr::var(s(0)) * Expr::param(0)),
                ),
                Some(self.accrue),
            )
        });
        template.instance(id, name, &[acct], &[factor])
    }

    /// `audit(accts)`: read-only sweep. Its length varies per call, so it
    /// is built as a concrete program rather than from a template.
    pub fn audit(&self, id: TxnId, name: &str, accts: &[VarId]) -> Transaction {
        let mut b = ProgramBuilder::new(name);
        for a in accts {
            b = b.read(*a);
        }
        let fwd: Arc<Program> = Arc::new(b.build().expect("audit is well formed"));
        Transaction::new(id, name, TxnKind::Tentative, fwd, vec![]).with_type(self.audit)
    }
}

/// The inventory library: items hold stock counts.
#[derive(Debug, Clone)]
pub struct Inventory {
    registry: TypeRegistry,
    restock: TxnTypeId,
    sell: TxnTypeId,
    cap: TxnTypeId,
    templates: [Lazy; 3],
}

impl Default for Inventory {
    fn default() -> Self {
        Self::new()
    }
}

impl Inventory {
    /// Creates the library with a private registry.
    pub fn new() -> Self {
        let mut registry = TypeRegistry::new();
        Self::register_in(&mut registry)
    }

    /// Registers the library's types in a shared registry (see
    /// [`Bank::register_in`]).
    pub fn register_in(registry: &mut TypeRegistry) -> Self {
        let restock = registry.register("inv.restock");
        let sell = registry.register("inv.sell");
        let cap = registry.register("inv.cap");
        Inventory { registry: registry.clone(), restock, sell, cap, templates: Default::default() }
    }

    /// The type registry.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// Restocks commute with restocks; caps commute with caps.
    pub fn declared_relations(&self) -> DeclaredTable {
        DeclaredTable::new()
            .declare_commuting_pair(self.restock, self.restock, CanPrecedePolicy::Always)
            .declare_commuting_pair(self.cap, self.cap, CanPrecedePolicy::Always)
    }

    /// `restock(item, n)`: `item += n`. Inverse declared.
    pub fn restock(&self, id: TxnId, name: &str, item: VarId, n: Value) -> Transaction {
        let template = self.templates[0].get_or_init(|| {
            Template::new(
                build(
                    ProgramBuilder::new("inv.restock")
                        .read(s(0))
                        .update(s(0), Expr::var(s(0)) + Expr::param(0)),
                ),
                Some(self.restock),
            )
            .inverse(build(
                ProgramBuilder::new("inv.restock^-1")
                    .read(s(0))
                    .update(s(0), Expr::var(s(0)) - Expr::param(0)),
            ))
        });
        template.instance(id, name, &[item], &[n])
    }

    /// `sell(item, n)`: `if item >= n then item -= n`.
    pub fn sell(&self, id: TxnId, name: &str, item: VarId, n: Value) -> Transaction {
        let template = self.templates[1].get_or_init(|| {
            Template::new(
                build(ProgramBuilder::new("inv.sell").read(s(0)).branch(
                    Expr::var(s(0)).ge(Expr::param(0)),
                    |b| b.update(s(0), Expr::var(s(0)) - Expr::param(0)),
                    |b| b,
                )),
                Some(self.sell),
            )
            .precondition(Expr::var(s(0)).ge(Expr::param(0)))
        });
        template.instance(id, name, &[item], &[n])
    }

    /// `cap(item, max)`: `item := min(item, max)` — a shelf-space cap.
    pub fn cap(&self, id: TxnId, name: &str, item: VarId, max: Value) -> Transaction {
        let template = self.templates[2].get_or_init(|| {
            Template::new(
                build(
                    ProgramBuilder::new("inv.cap")
                        .read(s(0))
                        .update(s(0), Expr::var(s(0)).min(Expr::param(0))),
                ),
                Some(self.cap),
            )
        });
        template.instance(id, name, &[item], &[max])
    }
}

/// The promotions library: seasonal price adjustments whose commutativity
/// hinges on *correlated guards* — the history-`H5` pattern of Section 5.1.
///
/// Both transaction types branch on the same `season` item and apply,
/// per branch, operations that commute *within* the branch (`+100`/`-10`
/// when in season, `*2`/`*3` off season). The pair therefore commutes —
/// but no branch-insensitive analysis can see it, and a fix pinning the
/// stayer's `season` read *breaks* it. Exactly the case the paper's
/// canned-system tables ([`CanPrecedePolicy::UnlessFixPinsGuards`]) exist
/// for.
#[derive(Debug, Clone)]
pub struct Promotions {
    registry: TypeRegistry,
    bonus: TxnTypeId,
    rebate: TxnTypeId,
    templates: [Lazy; 2],
}

impl Default for Promotions {
    fn default() -> Self {
        Self::new()
    }
}

impl Promotions {
    /// Creates the library with a private registry.
    pub fn new() -> Self {
        let mut registry = TypeRegistry::new();
        Self::register_in(&mut registry)
    }

    /// Registers the library's types in a shared registry (see
    /// [`Bank::register_in`]).
    pub fn register_in(registry: &mut TypeRegistry) -> Self {
        let bonus = registry.register("promo.bonus");
        let rebate = registry.register("promo.rebate");
        Promotions { registry: registry.clone(), bonus, rebate, templates: Default::default() }
    }

    /// The type registry.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// All pairs among {bonus, rebate} commute through guard correlation;
    /// none survives a fix that pins the stayer's `season` read.
    pub fn declared_relations(&self) -> DeclaredTable {
        DeclaredTable::new()
            .declare_commuting_pair(self.bonus, self.rebate, CanPrecedePolicy::UnlessFixPinsGuards)
            .declare_commuting_pair(self.bonus, self.bonus, CanPrecedePolicy::UnlessFixPinsGuards)
            .declare_commuting_pair(self.rebate, self.rebate, CanPrecedePolicy::UnlessFixPinsGuards)
    }

    /// `bonus(season, price)`: `if season > 200 then price += 100 else
    /// price *= 2`.
    pub fn bonus(&self, id: TxnId, name: &str, season: VarId, price: VarId) -> Transaction {
        let template = self.templates[0].get_or_init(|| {
            Template::new(
                build(ProgramBuilder::new("promo.bonus").read(s(0)).read(s(1)).branch(
                    Expr::var(s(0)).gt(Expr::konst(200)),
                    |b| b.update(s(1), Expr::var(s(1)) + Expr::konst(100)),
                    |b| b.update(s(1), Expr::var(s(1)) * Expr::konst(2)),
                )),
                Some(self.bonus),
            )
        });
        template.instance(id, name, &[season, price], &[])
    }

    /// `rebate(season, price)`: `if season > 200 then price -= 10 else
    /// price *= 3`.
    pub fn rebate(&self, id: TxnId, name: &str, season: VarId, price: VarId) -> Transaction {
        let template = self.templates[1].get_or_init(|| {
            Template::new(
                build(ProgramBuilder::new("promo.rebate").read(s(0)).read(s(1)).branch(
                    Expr::var(s(0)).gt(Expr::konst(200)),
                    |b| b.update(s(1), Expr::var(s(1)) - Expr::konst(10)),
                    |b| b.update(s(1), Expr::var(s(1)) * Expr::konst(3)),
                )),
                Some(self.rebate),
            )
        });
        template.instance(id, name, &[season, price], &[])
    }
}

/// The reservation library: flights hold free-seat counts and booking
/// tallies, and every booking movement declares its compensation — the
/// cancel path is the paper's Section 6.1 compensation-heavy setting,
/// where pruning a tentative reservation means running its declared
/// inverse rather than undo/redo.
#[derive(Debug, Clone)]
pub struct Reservations {
    registry: TypeRegistry,
    reserve: TxnTypeId,
    cancel: TxnTypeId,
    /// The reserve and cancel templates, over slots `(seats, booked)`;
    /// they share the two seat-movement programs.
    templates: OnceLock<[Template; 2]>,
}

impl Default for Reservations {
    fn default() -> Self {
        Self::new()
    }
}

impl Reservations {
    /// Creates the library with a private registry.
    pub fn new() -> Self {
        let mut registry = TypeRegistry::new();
        Self::register_in(&mut registry)
    }

    /// Registers the library's types in a shared registry (see
    /// [`Bank::register_in`]).
    pub fn register_in(registry: &mut TypeRegistry) -> Self {
        let reserve = registry.register("res.reserve");
        let cancel = registry.register("res.cancel");
        Reservations { registry: registry.clone(), reserve, cancel, templates: OnceLock::new() }
    }

    /// The type registry.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// The offline-verified relation table: same-type pairs commute (two
    /// reserves, or two cancels, run the identical guarded movement, so
    /// either order reaches the same state — verified for the library's
    /// var layout, where a flight's `(seats, booked)` pair is private to
    /// the flight). Reserve/cancel pairs are NOT declared: each guards on
    /// the counter the other writes.
    pub fn declared_relations(&self) -> DeclaredTable {
        DeclaredTable::new()
            .declare_commuting_pair(self.reserve, self.reserve, CanPrecedePolicy::Always)
            .declare_commuting_pair(self.cancel, self.cancel, CanPrecedePolicy::Always)
    }

    /// The guarded seat movement shared by both directions: `if guard > 0
    /// then guard -= 1, other += 1`.
    fn movement(name: &str, guard: VarId, other: VarId) -> Arc<Program> {
        Arc::new(build(ProgramBuilder::new(name).read(guard).read(other).branch(
            Expr::var(guard).gt(Expr::konst(0)),
            |b| {
                b.update(guard, Expr::var(guard) - Expr::konst(1))
                    .update(other, Expr::var(other) + Expr::konst(1))
            },
            |b| b,
        )))
    }

    /// The reserve and cancel templates, built on the first booking.
    fn templates(&self) -> &[Template; 2] {
        self.templates.get_or_init(|| {
            let (seats, booked) = (s(0), s(1));
            let book = Self::movement("res.book", seats, booked);
            let unbook = Self::movement("res.unbook", booked, seats);
            let template = |fwd: &Arc<Program>, inv: &Arc<Program>, guard, type_id| Template {
                program: Arc::clone(fwd),
                inverse: Some(Arc::clone(inv)),
                precondition: Some(Arc::new(Expr::var(guard).gt(Expr::konst(0)))),
                type_id: Some(type_id),
            };
            [
                template(&book, &unbook, seats, self.reserve),
                template(&unbook, &book, booked, self.cancel),
            ]
        })
    }

    /// `reserve(seats, booked)`: `if seats > 0 then seats -= 1, booked += 1`.
    /// Inverse: the cancel movement (correct under the same fix, or
    /// immediately after the forward run — see [`Bank::withdraw`]).
    pub fn reserve(&self, id: TxnId, name: &str, seats: VarId, booked: VarId) -> Transaction {
        self.templates()[0].instance(id, name, &[seats, booked], &[])
    }

    /// `cancel(seats, booked)`: `if booked > 0 then seats += 1, booked -= 1`.
    /// Inverse: the reserve movement — cancels are compensations, and
    /// compensations compensate back.
    pub fn cancel(&self, id: TxnId, name: &str, seats: VarId, booked: VarId) -> Transaction {
        self.templates()[1].instance(id, name, &[seats, booked], &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_semantics::{RandomizedTester, SemanticOracle, StaticAnalyzer};
    use histmerge_txn::{DbState, Fix, VarSet};

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    #[test]
    fn bank_deposit_and_inverse_roundtrip() {
        let bank = Bank::new();
        let dep = bank.deposit(t(0), "dep", v(0), 40);
        let s: DbState = [(v(0), 10)].into_iter().collect();
        let out = dep.execute(&s, &Fix::empty()).unwrap();
        assert_eq!(out.after.get(v(0)), 50);
        assert_eq!(dep.compensate(&out.after, &Fix::empty()).unwrap().after, s);
    }

    #[test]
    fn bank_withdraw_guards_balance() {
        let bank = Bank::new();
        let w = bank.withdraw(t(0), "wd", v(0), 100);
        let rich: DbState = [(v(0), 150)].into_iter().collect();
        assert_eq!(w.execute(&rich, &Fix::empty()).unwrap().after.get(v(0)), 50);
        let poor: DbState = [(v(0), 50)].into_iter().collect();
        assert_eq!(w.execute(&poor, &Fix::empty()).unwrap().after.get(v(0)), 50);
    }

    #[test]
    fn bank_transfer_moves_funds() {
        let bank = Bank::new();
        let tr = bank.transfer(t(0), "tr", v(0), v(1), 30);
        let s: DbState = [(v(0), 100), (v(1), 0)].into_iter().collect();
        let out = tr.execute(&s, &Fix::empty()).unwrap();
        assert_eq!(out.after.get(v(0)), 70);
        assert_eq!(out.after.get(v(1)), 30);
    }

    #[test]
    fn declared_bank_relations_are_sound() {
        // Cross-check every declared `true` against differential execution
        // — the offline verification the paper assumes for canned systems.
        let bank = Bank::new();
        let table = bank.declared_relations();
        let tester = RandomizedTester::with_config(128, 500, 7);
        let d1 = bank.deposit(t(0), "d1", v(0), 10);
        let d2 = bank.deposit(t(1), "d2", v(0), 25);
        let a1 = bank.accrue(t(2), "a1", v(0), 3);
        let a2 = bank.accrue(t(3), "a2", v(0), 5);
        for (x, y) in [(&d1, &d2), (&a1, &a2)] {
            assert!(table.commutes_backward_through(x, y));
            assert!(tester.commutes_backward_through(x, y), "declared pair refuted");
            assert!(table.can_precede(x, y, &VarSet::new()));
            assert!(tester.can_precede(x, y, &VarSet::new()));
        }
        // Deposit/accrue must NOT be declared (they do not commute).
        assert!(!table.commutes_backward_through(&d1, &a1));
        assert!(!tester.commutes_backward_through(&d1, &a1));
    }

    #[test]
    fn static_analyzer_agrees_on_same_account_deposits() {
        let bank = Bank::new();
        let d1 = bank.deposit(t(0), "d1", v(0), 10);
        let d2 = bank.deposit(t(1), "d2", v(0), 25);
        assert!(StaticAnalyzer::new().commutes_backward_through(&d1, &d2));
    }

    #[test]
    fn withdraws_do_not_commute() {
        // Two withdraws on the same account can disagree near the zero
        // boundary, so neither the table nor the tester accepts them.
        let bank = Bank::new();
        let table = bank.declared_relations();
        let w1 = bank.withdraw(t(0), "w1", v(0), 100);
        let w2 = bank.withdraw(t(1), "w2", v(0), 80);
        assert!(!table.commutes_backward_through(&w1, &w2));
        let tester = RandomizedTester::with_config(256, 200, 11);
        assert!(!tester.commutes_backward_through(&w1, &w2));
    }

    #[test]
    fn inventory_restock_sell_cap() {
        let inv = Inventory::new();
        let s: DbState = [(v(0), 5)].into_iter().collect();
        let r = inv.restock(t(0), "r", v(0), 10);
        let after = r.execute(&s, &Fix::empty()).unwrap().after;
        assert_eq!(after.get(v(0)), 15);
        let sell = inv.sell(t(1), "s", v(0), 20);
        assert_eq!(sell.execute(&after, &Fix::empty()).unwrap().after.get(v(0)), 15);
        let cap = inv.cap(t(2), "c", v(0), 8);
        assert_eq!(cap.execute(&after, &Fix::empty()).unwrap().after.get(v(0)), 8);
        // Caps commute with caps (min is associative-commutative in bound).
        let cap2 = inv.cap(t(3), "c2", v(0), 12);
        assert!(inv.declared_relations().commutes_backward_through(&cap, &cap2));
        let tester = RandomizedTester::new();
        assert!(tester.commutes_backward_through(&cap, &cap2));
    }

    #[test]
    fn reservations_roundtrip() {
        let res = Reservations::new();
        let s: DbState = [(v(0), 1), (v(1), 0)].into_iter().collect();
        let reserve = res.reserve(t(0), "r", v(0), v(1));
        let booked = reserve.execute(&s, &Fix::empty()).unwrap().after;
        assert_eq!(booked.get(v(0)), 0);
        assert_eq!(booked.get(v(1)), 1);
        // Second reservation fails (no seats): state unchanged.
        let again = reserve.execute(&booked, &Fix::empty()).unwrap().after;
        assert_eq!(again, booked);
        let cancel = res.cancel(t(1), "c", v(0), v(1));
        assert_eq!(cancel.execute(&booked, &Fix::empty()).unwrap().after, s);
        assert_eq!(res.registry().len(), 2);
    }

    #[test]
    fn reservations_compensate_and_commute_same_type() {
        let res = Reservations::new();
        let s: DbState = [(v(0), 3), (v(1), 2)].into_iter().collect();
        // The declared inverse undoes a fired reservation...
        let reserve = res.reserve(t(0), "r", v(0), v(1));
        let after = reserve.execute(&s, &Fix::empty()).unwrap().after;
        assert_eq!(reserve.compensate(&after, &Fix::empty()).unwrap().after, s);
        // ...and a fired cancel.
        let cancel = res.cancel(t(1), "c", v(0), v(1));
        let after = cancel.execute(&s, &Fix::empty()).unwrap().after;
        assert_eq!(cancel.compensate(&after, &Fix::empty()).unwrap().after, s);
        // Same-type pairs are declared and dynamically confirmed, even on
        // the same flight (the movement is identical, so order is moot).
        let table = res.declared_relations();
        let tester = RandomizedTester::with_config(128, 500, 17);
        let r2 = res.reserve(t(2), "r2", v(0), v(1));
        assert!(table.commutes_backward_through(&reserve, &r2));
        assert!(tester.commutes_backward_through(&reserve, &r2), "declared pair refuted");
        let c2 = res.cancel(t(3), "c2", v(0), v(1));
        assert!(table.commutes_backward_through(&cancel, &c2));
        assert!(tester.commutes_backward_through(&cancel, &c2), "declared pair refuted");
        // Reserve/cancel is NOT declared: each guards the other's write.
        assert!(!table.commutes_backward_through(&reserve, &cancel));
    }

    #[test]
    fn promotions_commute_via_correlated_guards() {
        let promo = Promotions::new();
        let table = promo.declared_relations();
        let tester = RandomizedTester::with_config(128, 500, 13);
        let bonus = promo.bonus(t(0), "bonus", v(0), v(1));
        let rebate = promo.rebate(t(1), "rebate", v(0), v(1));
        // Declared AND dynamically confirmed: they commute …
        assert!(table.commutes_backward_through(&rebate, &bonus));
        assert!(tester.commutes_backward_through(&rebate, &bonus));
        // … but the static analyzer cannot see branch correlation.
        assert!(!StaticAnalyzer::new().commutes_backward_through(&rebate, &bonus));
        // A fix pinning the stayer's guard breaks the relation — the table
        // knows (policy) and the tester confirms.
        let guard_fix: VarSet = [v(0)].into_iter().collect();
        assert!(!table.can_precede(&rebate, &bonus, &guard_fix));
        assert!(!tester.can_precede(&rebate, &bonus, &guard_fix));
        // A fix elsewhere is harmless.
        let other_fix: VarSet = [v(7)].into_iter().collect();
        assert!(table.can_precede(&rebate, &bonus, &other_fix));
    }

    #[test]
    fn promotions_declarations_validate() {
        use histmerge_semantics::validate::validate_declarations;
        let promo = Promotions::new();
        let table = promo.declared_relations();
        let instances = vec![
            promo.bonus(t(0), "b1", v(0), v(1)),
            promo.rebate(t(1), "r1", v(0), v(1)),
            promo.bonus(t(2), "b2", v(0), v(1)),
        ];
        let tester = RandomizedTester::with_config(96, 500, 29);
        let violations = validate_declarations(&table, &instances, &tester);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn registries_have_distinct_types() {
        let bank = Bank::new();
        assert_eq!(bank.registry().len(), 4);
        let audit = bank.audit(t(0), "a", &[v(0), v(1)]);
        assert!(audit.writeset().is_empty());
        assert_eq!(audit.readset().len(), 2);
        let inv = Inventory::new();
        assert_eq!(inv.registry().len(), 3);
    }
}
