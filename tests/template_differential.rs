//! Template instances against the concrete programs they stand for.
//!
//! The random generator and the canned mix build every transaction as an
//! instance of a shared template: item slots and `Expr::param` constants
//! bound per transaction. This test rebuilds each transaction the way a
//! concrete generator writes it — one program per transaction, items and
//! constants written in — from the same seed, and checks that instance and
//! concrete program agree on everything the merge pipeline asks of a
//! transaction: static sets, executions on random states with random
//! fixes, preconditions, compensations, static summaries, pairwise oracle
//! answers and Algorithm 3's undo-repair programs.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use histmerge::core::prune::build_undo_repair;
use histmerge::history::{AugmentedHistory, SerialHistory, TxnArena};
use histmerge::semantics::summary::{OpClass, TxnSummary};
use histmerge::semantics::{OracleStack, RandomizedTester, SemanticOracle, StaticAnalyzer};
use histmerge::txn::registry::{TxnTypeId, TypeRegistry};
use histmerge::txn::{
    DbState, Expr, Fix, Program, ProgramBuilder, Transaction, TxnError, TxnId, TxnKind, TxnName,
    Value, VarId, VarSet,
};
use histmerge::workload::canned_mix::{CannedFlavor, CannedMix, CannedMixParams};
use histmerge::workload::generator::{initial_state, ScenarioParams, TxnFactory};

/// Transactions drawn per workload.
const TXNS: usize = 120;

/// The random generator written out concretely: the same draws in the same
/// order as [`TxnFactory`], one program per transaction with its items and
/// constants in place.
struct ConcreteGen {
    params: ScenarioParams,
    rng: StdRng,
    counter: usize,
}

impl ConcreteGen {
    fn new(params: ScenarioParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed);
        ConcreteGen { params, rng, counter: 0 }
    }

    fn pick_var(&mut self) -> VarId {
        let n = self.params.n_vars.max(1);
        let hot = ((self.params.hot_fraction * n as f64).ceil() as u32).clamp(1, n);
        if self.rng.gen_bool(self.params.hot_prob.clamp(0.0, 1.0)) {
            VarId::new(self.rng.gen_range(0..hot))
        } else {
            VarId::new(self.rng.gen_range(0..n))
        }
    }

    fn pick_distinct(&mut self, k: usize, exclude: &[VarId]) -> Vec<VarId> {
        let mut out: Vec<VarId> = Vec::new();
        let mut budget = 10 * (k + 1) * 4;
        while out.len() < k && budget > 0 {
            budget -= 1;
            let v = self.pick_var();
            if !out.contains(&v) && !exclude.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    fn next_txn(&mut self, arena: &mut TxnArena, kind: TxnKind) -> TxnId {
        let p = self.params.clone();
        let roll: f64 = self.rng.gen();
        let program = if roll < p.commutative_fraction {
            self.increment_txn()
        } else if roll < p.commutative_fraction + p.guarded_fraction {
            self.guarded_txn()
        } else if roll < p.commutative_fraction + p.guarded_fraction + p.read_only_fraction {
            self.read_only_txn()
        } else {
            self.rw_txn()
        };
        self.counter += 1;
        let name =
            format!("{}{}", if kind == TxnKind::Tentative { "Tm" } else { "Tb" }, self.counter);
        let prog = Arc::new(program);
        arena.alloc(|id| Transaction::new(id, name, kind, prog, vec![]))
    }

    fn increment_txn(&mut self) -> Program {
        let k = self.rng.gen_range(1..=self.params.writes_per_txn.max(1));
        let vars = self.pick_distinct(k, &[]);
        let mut b = ProgramBuilder::new(format!("inc{}", self.counter));
        for v in &vars {
            b = b.read(*v);
        }
        for v in &vars {
            let c = self.rng.gen_range(1..50);
            b = b.update(*v, Expr::var(*v) + Expr::konst(c));
        }
        b.build().expect("increment txn is well formed")
    }

    fn guarded_txn(&mut self) -> Program {
        let g = self.pick_var();
        let vs = self.pick_distinct(1, &[g]);
        let v = vs.first().copied().unwrap_or(g);
        let threshold = self.rng.gen_range(500..1500);
        let c1 = self.rng.gen_range(1..50);
        let c2 = self.rng.gen_range(1..50);
        ProgramBuilder::new(format!("grd{}", self.counter))
            .read(g)
            .read(v)
            .branch(
                Expr::var(g).gt(Expr::konst(threshold)),
                |b| b.update(v, Expr::var(v) + Expr::konst(c1)),
                |b| b.update(v, Expr::var(v) + Expr::konst(c2)),
            )
            .build()
            .expect("guarded txn is well formed")
    }

    fn read_only_txn(&mut self) -> Program {
        let k = self.rng.gen_range(1..=self.params.reads_per_txn.max(1) + 1);
        let vars = self.pick_distinct(k, &[]);
        let mut b = ProgramBuilder::new(format!("ro{}", self.counter));
        for v in vars {
            b = b.read(v);
        }
        b.build().expect("read-only txn is well formed")
    }

    fn rw_txn(&mut self) -> Program {
        let w = self.rng.gen_range(1..=self.params.writes_per_txn.max(1));
        let writes = self.pick_distinct(w, &[]);
        let r = self.rng.gen_range(0..=self.params.reads_per_txn);
        let reads = self.pick_distinct(r, &writes);
        let mut b = ProgramBuilder::new(format!("rw{}", self.counter));
        for v in reads.iter().chain(writes.iter()) {
            b = b.read(*v);
        }
        for v in &writes {
            let mut expr = Expr::var(*v);
            if let Some(dep) = reads.first() {
                expr = expr + Expr::var(*dep);
            }
            let c = self.rng.gen_range(-20..20);
            b = b.update(*v, expr + Expr::konst(c));
        }
        b.build().expect("rw txn is well formed")
    }
}

/// The canned mix written out concretely: [`CannedMix`]'s draws, and each
/// library transaction built as its own program with the constants in
/// place, named after the transaction.
struct ConcreteCanned {
    params: CannedMixParams,
    rng: StdRng,
    counter: usize,
    /// The mix's type ids: deposit, withdraw, bonus, rebate (BankPromo) or
    /// restock, sell, reserve, cancel (Inventory).
    types: [TxnTypeId; 4],
}

impl ConcreteCanned {
    fn new(params: CannedMixParams) -> Self {
        // Registration order of the libraries the mix stacks.
        let mut reg = TypeRegistry::new();
        let types = match params.flavor {
            CannedFlavor::BankPromo => {
                let ids: Vec<TxnTypeId> = [
                    "bank.deposit",
                    "bank.withdraw",
                    "bank.accrue",
                    "bank.audit",
                    "promo.bonus",
                    "promo.rebate",
                ]
                .into_iter()
                .map(|name| reg.register(name))
                .collect();
                [ids[0], ids[1], ids[4], ids[5]]
            }
            CannedFlavor::Inventory => {
                let ids: Vec<TxnTypeId> =
                    ["inv.restock", "inv.sell", "inv.cap", "res.reserve", "res.cancel"]
                        .into_iter()
                        .map(|name| reg.register(name))
                        .collect();
                [ids[0], ids[1], ids[3], ids[4]]
            }
        };
        let rng = StdRng::seed_from_u64(params.seed);
        ConcreteCanned { params, rng, counter: 0, types }
    }

    fn price(&self, i: u32) -> VarId {
        VarId::new(1 + (i % self.params.n_prices.max(1)))
    }

    fn account(&self, i: u32) -> VarId {
        VarId::new(1 + self.params.n_prices + (i % self.params.n_accounts.max(1)))
    }

    fn seats(&self, i: u32) -> VarId {
        VarId::new(1 + self.params.n_prices + 2 * (i % self.params.n_accounts.max(1)))
    }

    fn booked(&self, i: u32) -> VarId {
        VarId::new(2 + self.params.n_prices + 2 * (i % self.params.n_accounts.max(1)))
    }

    fn next_txn(&mut self, arena: &mut TxnArena, kind: TxnKind) -> TxnId {
        let p = self.params.clone();
        let (n_accounts, n_prices) = (p.n_accounts.max(1), p.n_prices.max(1));
        let roll: f64 = self.rng.gen();
        self.counter += 1;
        let name =
            format!("{}{}", if kind == TxnKind::Tentative { "m" } else { "b" }, self.counter);
        let season = VarId::new(0);
        let acct_pick = self.rng.gen_range(0..n_accounts);
        let price_pick = self.rng.gen_range(0..n_prices);
        let amt: Value = self.rng.gen_range(1..100);
        let (seats, booked) = (self.seats(acct_pick), self.booked(acct_pick));
        let (acct, price) = (self.account(acct_pick), self.price(price_pick));
        let pick = if roll < p.deposit_frac {
            0
        } else if roll < p.deposit_frac + p.withdraw_frac {
            1
        } else if roll < p.deposit_frac + p.withdraw_frac + p.bonus_frac {
            2
        } else {
            3
        };
        let type_id = self.types[pick];
        let txn = match (p.flavor, pick) {
            (CannedFlavor::BankPromo, 0) => adjust(&name, acct, amt, true),
            (CannedFlavor::BankPromo, 1) => guarded_take(&name, acct, amt, true),
            (CannedFlavor::BankPromo, 2) => promo(&name, season, price, 100, 2),
            (CannedFlavor::BankPromo, _) => promo(&name, season, price, -10, 3),
            (CannedFlavor::Inventory, 0) => adjust(&name, price, amt % 20 + 1, true),
            (CannedFlavor::Inventory, 1) => guarded_take(&name, price, amt % 10 + 1, false),
            (CannedFlavor::Inventory, 2) => booking(&name, seats, booked),
            (CannedFlavor::Inventory, _) => booking(&name, booked, seats),
        };
        arena.alloc(|id| txn.with_type(type_id).with_kind(kind).with_id(id))
    }
}

fn build(b: ProgramBuilder) -> Arc<Program> {
    Arc::new(b.build().expect("concrete canned program is well formed"))
}

/// Deposit / restock: `x += n`, inverse `x -= n`.
fn adjust(name: &str, x: VarId, n: Value, with_inverse: bool) -> Transaction {
    let fwd = build(ProgramBuilder::new(name).read(x).update(x, Expr::var(x) + Expr::konst(n)));
    let txn = Transaction::new(TxnId::new(0), name, TxnKind::Tentative, fwd, vec![]);
    if !with_inverse {
        return txn;
    }
    let inv = build(
        ProgramBuilder::new(format!("{name}^-1")).read(x).update(x, Expr::var(x) - Expr::konst(n)),
    );
    txn.with_inverse(inv)
}

/// Withdraw (with its mirrored inverse) / sell (no inverse): `if x >= n
/// then x -= n`, precondition `x >= n`.
fn guarded_take(name: &str, x: VarId, n: Value, with_inverse: bool) -> Transaction {
    let fwd = build(ProgramBuilder::new(name).read(x).branch(
        Expr::var(x).ge(Expr::konst(n)),
        |b| b.update(x, Expr::var(x) - Expr::konst(n)),
        |b| b,
    ));
    let mut txn = Transaction::new(TxnId::new(0), name, TxnKind::Tentative, fwd, vec![])
        .with_precondition(Expr::var(x).ge(Expr::konst(n)));
    if with_inverse {
        txn = txn.with_inverse(build(ProgramBuilder::new(format!("{name}^-1")).read(x).branch(
            Expr::var(x).ge(Expr::konst(0)),
            |b| b.update(x, Expr::var(x) + Expr::konst(n)),
            |b| b,
        )));
    }
    txn
}

/// Bonus (`+100` / `*2`) and rebate (`-10` / `*3`) on `price`, guarded by
/// the season.
fn promo(name: &str, season: VarId, price: VarId, add: Value, mul: Value) -> Transaction {
    let in_season = move |b: ProgramBuilder| {
        if add >= 0 {
            b.update(price, Expr::var(price) + Expr::konst(add))
        } else {
            b.update(price, Expr::var(price) - Expr::konst(-add))
        }
    };
    let fwd = build(ProgramBuilder::new(name).read(season).read(price).branch(
        Expr::var(season).gt(Expr::konst(200)),
        in_season,
        |b| b.update(price, Expr::var(price) * Expr::konst(mul)),
    ));
    Transaction::new(TxnId::new(0), name, TxnKind::Tentative, fwd, vec![])
}

/// The guarded seat movement `if guard > 0 then guard -= 1, other += 1`.
fn movement(name: &str, guard: VarId, other: VarId) -> Arc<Program> {
    build(ProgramBuilder::new(name).read(guard).read(other).branch(
        Expr::var(guard).gt(Expr::konst(0)),
        |b| {
            b.update(guard, Expr::var(guard) - Expr::konst(1))
                .update(other, Expr::var(other) + Expr::konst(1))
        },
        |b| b,
    ))
}

/// Reserve (`guard` = seats) or cancel (`guard` = booked), with the
/// opposite movement as inverse.
fn booking(name: &str, guard: VarId, other: VarId) -> Transaction {
    Transaction::new(TxnId::new(0), name, TxnKind::Tentative, movement(name, guard, other), vec![])
        .with_inverse(movement(&format!("{name}^-1"), other, guard))
        .with_precondition(Expr::var(guard).gt(Expr::konst(0)))
}

/// A random state over `vars`: small values half the time (booking
/// guards), values around the generator's thresholds otherwise. Sometimes
/// one item is missing, so missing-item errors are compared too.
fn random_state(rng: &mut StdRng, vars: &VarSet) -> DbState {
    let small = rng.gen_bool(0.5);
    let missing = rng.gen_bool(0.1).then(|| vars.iter().nth(rng.gen_range(0..vars.len())));
    vars.iter()
        .filter(|v| Some(Some(*v)) != missing)
        .map(|v| {
            let value: Value = if small { rng.gen_range(-3..12) } else { rng.gen_range(0..2000) };
            (v, value)
        })
        .collect()
}

/// A random fix pinning some of `vars`.
fn random_fix(rng: &mut StdRng, vars: &VarSet) -> Fix {
    let mut fix = Fix::empty();
    for v in vars.iter() {
        if rng.gen_bool(0.3) {
            fix.pin(v, rng.gen_range(-3..2000));
        }
    }
    fix
}

/// Every single-transaction question, asked of both.
fn assert_same_transaction(inst: &Transaction, conc: &Transaction, rng: &mut StdRng) {
    let ctx = conc.name();
    assert_eq!(inst.id(), conc.id(), "{ctx}");
    assert_eq!(inst.name(), conc.name());
    assert_eq!(inst.to_string(), conc.to_string(), "{ctx}");
    assert_eq!(inst.kind(), conc.kind(), "{ctx}");
    assert_eq!(inst.type_id(), conc.type_id(), "{ctx}");
    // Read/write sets and footprint.
    assert_eq!(inst.readset(), conc.readset(), "{ctx}");
    assert_eq!(inst.writeset(), conc.writeset(), "{ctx}");
    assert_eq!(inst.footprint(), conc.footprint(), "{ctx}");
    assert_eq!(inst.read_mask(), conc.read_mask(), "{ctx}");
    assert_eq!(inst.write_mask(), conc.write_mask(), "{ctx}");
    assert_eq!(inst.read_only_set(), conc.read_only_set(), "{ctx}");
    assert_eq!(inst.program().statement_count(), conc.program().statement_count(), "{ctx}");
    assert_eq!(inst.program().has_blind_writes(), conc.program().has_blind_writes(), "{ctx}");
    // The concrete view is the concrete program.
    let view = inst.concrete();
    assert_eq!(view.program.statements(), conc.program().statements(), "{ctx}");
    assert_eq!(view.program.readset(), conc.program().readset(), "{ctx}");
    assert_eq!(view.program.writeset(), conc.program().writeset(), "{ctx}");
    assert_eq!(view.program.footprint(), conc.program().footprint(), "{ctx}");
    assert_eq!(view.program.n_params(), conc.program().n_params(), "{ctx}");
    assert_eq!(view.params, conc.params(), "{ctx}");
    // Static summaries.
    let (si, sc) = (TxnSummary::of(inst), TxnSummary::of(conc));
    assert_eq!(si.updates, sc.updates, "{ctx}");
    assert_eq!(si.all_guard_vars, sc.all_guard_vars, "{ctx}");
    // Metadata presence.
    assert_eq!(inst.inverse().is_some(), conc.inverse().is_some(), "{ctx}");
    assert_eq!(inst.precondition().is_some(), conc.precondition().is_some(), "{ctx}");
    // Executions, preconditions and compensations on random states with
    // random fixes.
    for _ in 0..12 {
        let state = random_state(rng, conc.footprint());
        let fix = random_fix(rng, conc.readset());
        assert_eq!(inst.execute(&state, &fix), conc.execute(&state, &fix), "{ctx}");
        assert_eq!(inst.execute_delta(&state, &fix), conc.execute_delta(&state, &fix), "{ctx}");
        assert_eq!(
            inst.check_precondition(&state, &fix),
            conc.check_precondition(&state, &fix),
            "{ctx}"
        );
        assert_eq!(inst.compensate(&state, &fix), conc.compensate(&state, &fix), "{ctx}");
        assert_eq!(
            inst.compensate_delta(&state, &fix),
            conc.compensate_delta(&state, &fix),
            "{ctx}"
        );
    }
}

/// Pairwise oracle answers, the history and its undo-repair actions, over
/// two arenas holding the same transactions as instances and as concrete
/// programs.
fn assert_same_arenas(
    inst: &TxnArena,
    conc: &TxnArena,
    s0: &DbState,
    oracles: &[&dyn SemanticOracle],
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    assert_eq!(inst.len(), conc.len());
    for (a, c) in inst.iter().zip(conc.iter()) {
        assert_same_transaction(a, c, &mut rng);
    }
    // Pairwise oracle answers, with random fixes on the first argument.
    let n = inst.len().min(40);
    let tester = RandomizedTester::with_config(6, 50, seed);
    for i in 0..n {
        for j in 0..n {
            let (ti, tj) = (TxnId::new(i as u32), TxnId::new(j as u32));
            let (ai, aj, ci, cj) = (inst.get(ti), inst.get(tj), conc.get(ti), conc.get(tj));
            let fix_vars: VarSet = ai.readset().iter().filter(|_| rng.gen_bool(0.5)).collect();
            for oracle in oracles {
                assert_eq!(
                    oracle.commutes_backward_through(ai, aj),
                    oracle.commutes_backward_through(ci, cj),
                    "{} / {}: {}",
                    ci.name(),
                    cj.name(),
                    oracle.name()
                );
                assert_eq!(
                    oracle.can_precede(ai, aj, &fix_vars),
                    oracle.can_precede(ci, cj, &fix_vars),
                    "{} / {} fixing {fix_vars}: {}",
                    ci.name(),
                    cj.name(),
                    oracle.name()
                );
            }
            if i < 12 && j < 12 {
                assert_eq!(
                    tester.can_precede(ai, aj, &fix_vars),
                    tester.can_precede(ci, cj, &fix_vars),
                    "{} / {}: randomized tester",
                    ci.name(),
                    cj.name()
                );
            }
        }
    }
    // The whole history, then Algorithm 3 for random back-out sets.
    let history: SerialHistory = (0..inst.len() as u32).map(TxnId::new).collect();
    let (ha, hc) = (
        AugmentedHistory::execute(inst, &history, s0).expect("instances execute"),
        AugmentedHistory::execute(conc, &history, s0).expect("concrete programs execute"),
    );
    assert_eq!(ha.final_state(), hc.final_state());
    for i in 0..history.len() {
        assert_eq!(ha.outcome(i), hc.outcome(i), "step {i}");
    }
    let mut repairs = 0;
    for _ in 0..6 {
        let undone: BTreeSet<TxnId> = history.iter().filter(|_| rng.gen_bool(0.3)).collect();
        for k in history.iter().filter(|k| !undone.contains(k)) {
            let a = build_undo_repair(inst, &ha, k, &undone).expect("instance repair builds");
            let c = build_undo_repair(conc, &hc, k, &undone).expect("concrete repair builds");
            repairs += usize::from(c.is_some());
            assert_eq!(a, c, "undo-repair of {k}");
        }
    }
    assert!(repairs > 0, "some undo-repair action was built");
}

fn random_mixes() -> Vec<ScenarioParams> {
    let base = ScenarioParams {
        commutative_fraction: 0.35,
        guarded_fraction: 0.25,
        read_only_fraction: 0.15,
        ..ScenarioParams::default()
    };
    vec![
        ScenarioParams { seed: 1906, ..base.clone() },
        ScenarioParams { seed: 2718, n_vars: 1024, hot_fraction: 0.05, ..base.clone() },
        ScenarioParams { seed: 7, hot_fraction: 0.02, hot_prob: 0.9, ..base.clone() },
        // Wide transactions: bindings and constants past the inline seven.
        ScenarioParams {
            seed: 11,
            n_vars: 96,
            reads_per_txn: 9,
            writes_per_txn: 9,
            ..base.clone()
        },
        // Two items: the distinct picks run out.
        ScenarioParams { seed: 13, n_vars: 2, ..base.clone() },
        // One item: every guarded transaction binds both its slots to it.
        ScenarioParams { seed: 17, n_vars: 1, guarded_fraction: 0.5, ..base },
    ]
}

#[test]
fn generated_instances_equal_their_concrete_programs() {
    let oracle = OracleStack::new().with(Box::new(StaticAnalyzer::new()));
    for params in random_mixes() {
        let (mut inst, mut conc) = (TxnArena::new(), TxnArena::new());
        let mut factory = TxnFactory::new(params.clone());
        let mut concrete = ConcreteGen::new(params.clone());
        for i in 0..TXNS {
            let kind = if i % 3 == 0 { TxnKind::Base } else { TxnKind::Tentative };
            assert_eq!(factory.next_txn(&mut inst, kind), concrete.next_txn(&mut conc, kind));
        }
        let s0 = initial_state(&params);
        assert_same_arenas(&inst, &conc, &s0, &[&StaticAnalyzer::new(), &oracle], params.seed);
    }
}

#[test]
fn the_one_item_guarded_fallback_aliases_both_slots() {
    let params = random_mixes().pop().expect("the one-item mix");
    assert_eq!(params.n_vars, 1);
    let mut arena = TxnArena::new();
    let mut factory = TxnFactory::new(params);
    for _ in 0..TXNS {
        factory.next_txn(&mut arena, TxnKind::Tentative);
    }
    let aliased = arena
        .iter()
        .filter(|txn| {
            let binding = txn.binding();
            binding.len() == 2 && binding[0] == binding[1]
        })
        .count();
    assert!(aliased > 0, "no guarded transaction fell back to its guard item");
}

#[test]
fn canned_instances_equal_their_concrete_programs() {
    for flavor in [CannedFlavor::BankPromo, CannedFlavor::Inventory] {
        for seed in [5, 1906] {
            let params = CannedMixParams { flavor, seed, ..CannedMixParams::default() };
            let mut mix = CannedMix::new(params.clone());
            let mut concrete = ConcreteCanned::new(params);
            let (mut inst, mut conc) = (TxnArena::new(), TxnArena::new());
            for i in 0..TXNS {
                let kind = if i % 3 == 0 { TxnKind::Base } else { TxnKind::Tentative };
                assert_eq!(mix.next_txn(&mut inst, kind), concrete.next_txn(&mut conc, kind));
            }
            let s0 = mix.initial_state();
            let oracle = mix.oracle();
            assert_same_arenas(&inst, &conc, &s0, &[&StaticAnalyzer::new(), &oracle], seed);
        }
    }
}

#[test]
fn aliasing_two_slots_classifies_as_the_concrete_program() {
    // s0 := s0 + s1 is an increment of s0 — unless both slots are one
    // item, where it is x := x + x.
    let (s0, s1) = (VarId::new(0), VarId::new(1));
    let template = Arc::new(
        ProgramBuilder::new("add")
            .read(s0)
            .read(s1)
            .update(s0, Expr::var(s0) + Expr::var(s1))
            .build()
            .unwrap(),
    );
    let (x, y) = (VarId::new(7), VarId::new(9));
    let instance = |id: u32, binding: &[VarId]| {
        let name = TxnName::numbered("Tm", u64::from(id));
        Transaction::instance(
            TxnId::new(id),
            name,
            TxnKind::Tentative,
            template.clone(),
            binding,
            &[],
        )
        .expect("the binding covers both slots")
    };
    let (aliased, aliased2, distinct) =
        (instance(0, &[x, x]), instance(1, &[x, x]), instance(2, &[x, y]));
    let concrete = |id: u32| {
        let program = ProgramBuilder::new("add")
            .read(x)
            .read(x)
            .update(x, Expr::var(x) + Expr::var(x))
            .build()
            .unwrap();
        Transaction::new(
            TxnId::new(id),
            format!("Tm{id}"),
            TxnKind::Tentative,
            Arc::new(program),
            vec![],
        )
    };
    let (concrete, concrete2) = (concrete(0), concrete(1));

    assert_eq!(TxnSummary::of(&aliased).updates[0].op, OpClass::Other);
    assert_eq!(TxnSummary::of(&aliased).updates, TxnSummary::of(&concrete).updates);
    assert_eq!(TxnSummary::of(&distinct).updates[0].op, OpClass::Increment);
    assert_eq!(aliased.readset(), concrete.readset());
    assert_eq!(aliased.concrete().program.statements(), concrete.program().statements());

    let analyzer = StaticAnalyzer::new();
    assert!(!analyzer.commutes_backward_through(&aliased2, &aliased));
    assert_eq!(
        analyzer.commutes_backward_through(&aliased2, &aliased),
        analyzer.commutes_backward_through(&concrete2, &concrete)
    );
    let distinct2 = instance(3, &[x, y]);
    assert!(analyzer.commutes_backward_through(&distinct2, &distinct));

    let state: DbState = [(x, 5), (y, 3)].into_iter().collect();
    let out = aliased.execute(&state, &Fix::empty()).unwrap();
    assert_eq!(out.after.get(x), 10);
    assert_eq!(out, concrete.execute(&state, &Fix::empty()).unwrap());
    assert_eq!(distinct.execute(&state, &Fix::empty()).unwrap().after.get(x), 8);
}

#[test]
fn bindings_that_break_the_program_are_rejected() {
    let (s0, s1) = (VarId::new(0), VarId::new(1));
    // Both slots written on one path: aliasing them updates one item twice.
    let both = Arc::new(
        ProgramBuilder::new("both")
            .read(s0)
            .read(s1)
            .update(s0, Expr::var(s0) + Expr::param(0))
            .update(s1, Expr::var(s1) + Expr::param(0))
            .build()
            .unwrap(),
    );
    let x = VarId::new(3);
    let make = |binding: &[VarId], params: &[Value]| {
        Transaction::instance(
            TxnId::new(0),
            TxnName::new("t"),
            TxnKind::Base,
            both.clone(),
            binding,
            params,
        )
    };
    assert!(matches!(make(&[x, x], &[1]), Err(TxnError::DuplicateUpdate { .. })));
    assert_eq!(make(&[x], &[1]).unwrap_err(), TxnError::UnboundSlot { slot: s1, bound: 1 });
    assert_eq!(
        make(&[x, VarId::new(4)], &[]).unwrap_err(),
        TxnError::MissingParameter { index: 0, supplied: 0 }
    );
    assert!(make(&[x, VarId::new(4)], &[1]).is_ok());
    // Written in different branches: one item per path, so aliasing is
    // legal, as it is for the concrete program.
    let either = Arc::new(
        ProgramBuilder::new("either")
            .read(s0)
            .read(s1)
            .branch(
                Expr::var(s0).gt(Expr::konst(0)),
                |b| b.update(s0, Expr::var(s0) - Expr::konst(1)),
                |b| b.update(s1, Expr::var(s1) + Expr::konst(1)),
            )
            .build()
            .unwrap(),
    );
    let txn = Transaction::instance(
        TxnId::new(0),
        TxnName::new("t"),
        TxnKind::Base,
        either,
        &[x, x],
        &[],
    )
    .expect("one update per path");
    let state: DbState = [(x, 0)].into_iter().collect();
    assert_eq!(txn.execute(&state, &Fix::empty()).unwrap().after.get(x), 1);
}
