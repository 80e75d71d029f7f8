//! Instantiated transactions: a program (template) bound to items,
//! constants and an identity.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::error::TxnError;
use crate::exec::{self, ExecDelta, ExecOutcome};
use crate::expr::Pred;
use crate::fix::Fix;
use crate::inline::{Inline, TxnName};
use crate::program::{Program, ProgramBuilder};
use crate::registry::TxnTypeId;
use crate::state::{DbState, StateRead};
use crate::value::{Value, VarId, VarMask, VarSet};

/// Identifier of a transaction within a history arena.
///
/// Identifiers are dense indices assigned by the owning arena (see the
/// `histmerge-history` crate), which keeps per-transaction bookkeeping in
/// plain vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(u32);

impl TxnId {
    /// Creates a transaction identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        TxnId(index)
    }

    /// Returns the dense index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Whether a transaction executed on a mobile node (tentative) or a base
/// node (base).
///
/// Base transactions are durable and can never be backed out (Section 2.1,
/// step 2: "only tentative transactions can be put into B").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Executed on a base node against master data; durable.
    Base,
    /// Executed on a mobile node against tentative data; may be backed out.
    Tentative,
}

impl fmt::Display for TxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnKind::Base => f.write_str("base"),
            TxnKind::Tentative => f.write_str("tentative"),
        }
    }
}

/// A transaction instance: a program (template) plus its slot binding,
/// bound input parameters, identity, and optional semantic metadata.
///
/// Two ways to build one:
///
/// * [`Transaction::new`] takes a concrete program and binds every item
///   to itself (the identity binding), with free parameters;
/// * [`Transaction::instance`] binds a shared template's item slots to
///   items and its parameters to constants — how the generators and the
///   canned libraries build every transaction, one template per shape.
///
/// An instance stores its binding, constants and name inline (up to
/// seven of each, spilling beyond) plus its bound read/write
/// [`VarMask`]s and footprint, so building, cloning and dropping one
/// allocates nothing; programs are shared via [`Arc`]. Execution maps
/// slots to items on every read, write, guard and precondition, and the
/// statement walkers see the concrete program through
/// [`Transaction::concrete`].
///
/// # Example
///
/// ```rust
/// use histmerge_txn::{DbState, Expr, Fix, ProgramBuilder, Transaction, TxnId, TxnKind, VarId};
///
/// # fn main() -> Result<(), histmerge_txn::TxnError> {
/// let x = VarId::new(0);
/// let prog = ProgramBuilder::new("deposit")
///     .read(x)
///     .update(x, Expr::var(x) + Expr::param(0))
///     .build()?;
/// let t = Transaction::new(TxnId::new(0), "Tm1", TxnKind::Tentative, prog.into(), vec![100]);
/// let s: DbState = [(x, 5)].into_iter().collect();
/// let out = t.execute(&s, &Fix::empty())?;
/// assert_eq!(out.after.get(x), 105);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Transaction {
    id: TxnId,
    kind: TxnKind,
    type_id: Option<TxnTypeId>,
    name: TxnName,
    program: Arc<Program>,
    /// Slot `i` of the program (and of the inverse and precondition)
    /// stands for item `binding[i]`; `None` is the identity binding of a
    /// hand-built transaction.
    binding: Option<Inline<VarId>>,
    /// Free parameters (identity binding) or the template's constants.
    params: Inline<Value>,
    inverse: Option<Arc<Program>>,
    precondition: Option<Arc<Pred>>,
    /// The static read set, bound to items.
    reads: VarMask,
    /// The static write set, bound to items.
    writes: VarMask,
    /// `reads ∪ writes`, bound to items.
    footprint: VarSet,
}

/// The concrete program a transaction runs, as the statement walkers
/// (static summaries, constant scans, undo repair) need it: see
/// [`Transaction::concrete`].
#[derive(Debug, Clone)]
pub struct Concrete<'a> {
    /// The program with every slot bound to its item and every template
    /// constant in place — borrowed for the identity binding.
    pub program: Cow<'a, Program>,
    /// The parameters `program` still takes: the free parameters of a
    /// hand-built transaction, none for a template instance.
    pub params: &'a [Value],
}

impl Transaction {
    /// Creates a transaction running the concrete `program`, every item
    /// bound to itself, with free input parameters `params`.
    pub fn new(
        id: TxnId,
        name: impl Into<TxnName>,
        kind: TxnKind,
        program: Arc<Program>,
        params: Vec<Value>,
    ) -> Self {
        Transaction {
            id,
            kind,
            type_id: None,
            name: name.into(),
            reads: program.read_mask().clone(),
            writes: program.write_mask().clone(),
            footprint: program.footprint().clone(),
            program,
            binding: None,
            params: params.into(),
            inverse: None,
            precondition: None,
        }
    }

    /// Instantiates the template `program`: item slot `i` (the program's
    /// `VarId::new(i)`) is bound to `binding[i]` and parameter `i` to the
    /// constant `params[i]`. Two slots may share an item; the instance
    /// then behaves exactly as the concrete program with both slots
    /// replaced by that item.
    ///
    /// Allocates nothing when the binding and the constants have at most
    /// seven entries each.
    ///
    /// # Errors
    ///
    /// * [`TxnError::UnboundSlot`] — the program uses a slot past the end
    ///   of `binding`;
    /// * [`TxnError::MissingParameter`] — fewer constants than the program
    ///   takes;
    /// * [`TxnError::DuplicateUpdate`] — the binding makes one execution
    ///   path update an item twice (its concrete program would not build).
    pub fn instance(
        id: TxnId,
        name: TxnName,
        kind: TxnKind,
        program: Arc<Program>,
        binding: &[VarId],
        params: &[Value],
    ) -> Result<Self, TxnError> {
        if let Some(slot) = program.footprint().iter().last() {
            if slot.index() as usize >= binding.len() {
                return Err(TxnError::UnboundSlot { slot, bound: binding.len() });
            }
        }
        if params.len() < program.n_params() {
            return Err(TxnError::MissingParameter {
                index: program.n_params() - 1,
                supplied: params.len(),
            });
        }
        let bind = |slot: VarId| binding[slot.index() as usize];
        let reads = VarMask::of(program.readset().iter().map(bind).collect());
        let writes = VarMask::of(program.writeset().iter().map(bind).collect());
        let footprint = reads.set().union(writes.set());
        let aliased_writes = writes.len() < program.writeset().len();
        let txn = Transaction {
            id,
            kind,
            type_id: None,
            name,
            program,
            binding: Some(Inline::from_slice(binding)),
            params: Inline::from_slice(params),
            inverse: None,
            precondition: None,
            reads,
            writes,
            footprint,
        };
        if aliased_writes {
            // Two written slots share an item: legal exactly when some
            // path never updates both, which the builder decides on the
            // concrete program.
            let concrete = txn.concrete().program;
            let mut builder = ProgramBuilder::new(txn.name());
            if txn.program.has_blind_writes() {
                builder = builder.allow_blind_writes();
            }
            for stmt in concrete.statements() {
                builder = builder.statement(stmt.clone());
            }
            builder.build()?;
        }
        Ok(txn)
    }

    /// Declares the transaction's *precondition*: the predicate that must
    /// hold on the state it executes against for the execution to count as
    /// a success. Guarded programs degrade to no-ops when their guard
    /// fails; the precondition is how a re-execution of a backed-out
    /// transaction is classified as **failed** and "informed to the users
    /// together with the corresponding reasons" (protocol step 6).
    ///
    /// Precondition variables must be in the program's read set; like the
    /// program, the predicate is read under the transaction's binding, so
    /// a template's instances can share one (`Arc<Pred>`).
    #[must_use]
    pub fn with_precondition(mut self, precondition: impl Into<Arc<Pred>>) -> Self {
        self.precondition = Some(precondition.into());
        self
    }

    /// The declared precondition, if any, in the program's slot space.
    pub fn precondition(&self) -> Option<&Pred> {
        self.precondition.as_deref()
    }

    /// Evaluates the precondition against `state` (honouring `fix`).
    /// Transactions without a precondition always pass.
    ///
    /// # Errors
    ///
    /// Returns [`TxnError::MissingVariable`] if the state lacks a
    /// precondition variable.
    pub fn check_precondition(
        &self,
        state: &DbState,
        fix: &crate::fix::Fix,
    ) -> Result<bool, TxnError> {
        self.check_precondition_on(state, fix)
    }

    /// [`Transaction::check_precondition`] against any [`StateRead`] view
    /// (e.g. a copy-on-write [`OverlayState`](crate::OverlayState)).
    ///
    /// # Errors
    ///
    /// Returns [`TxnError::MissingVariable`] if the view lacks a
    /// precondition variable.
    pub fn check_precondition_on(
        &self,
        state: &dyn StateRead,
        fix: &crate::fix::Fix,
    ) -> Result<bool, TxnError> {
        match &self.precondition {
            None => Ok(true),
            Some(pred) => {
                let binding = self.binding();
                let mut lookup = |slot| {
                    let var = exec::bind(binding, slot)?;
                    fix.get(var)
                        .or_else(|| state.read(var))
                        .ok_or(TxnError::MissingVariable { var })
                };
                pred.eval_with(&mut lookup, self.params())
            }
        }
    }

    /// Attaches a compensating (inverse) program. The inverse is executed
    /// with the same binding and parameters as the forward program.
    #[must_use]
    pub fn with_inverse(mut self, inverse: Arc<Program>) -> Self {
        self.inverse = Some(inverse);
        self
    }

    /// Tags the transaction with its canned type (Section 5.1: in canned
    /// systems, semantic relations between transaction *types* are
    /// pre-detected offline).
    #[must_use]
    pub fn with_type(mut self, type_id: TxnTypeId) -> Self {
        self.type_id = Some(type_id);
        self
    }

    /// The transaction's identity within its arena.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Re-identifies the transaction (used when copying a transaction into
    /// a different arena).
    #[must_use]
    pub fn with_id(mut self, id: TxnId) -> Self {
        self.id = id;
        self
    }

    /// Re-labels the transaction kind.
    #[must_use]
    pub fn with_kind(mut self, kind: TxnKind) -> Self {
        self.set_kind(kind);
        self
    }

    /// Re-labels the transaction kind in place: how an arena promotes a
    /// backed-out tentative transaction to a base one when the base
    /// re-executes it (protocol step 6).
    pub fn set_kind(&mut self, kind: TxnKind) {
        self.kind = kind;
    }

    /// Human-readable name (e.g. `Tm1`, `Tb2`).
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Whether this is a base or tentative transaction.
    pub fn kind(&self) -> TxnKind {
        self.kind
    }

    /// The underlying program: the shared template of an instance, the
    /// concrete program of a hand-built transaction.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The slot binding: item `binding()[i]` for slot `i`. Empty for the
    /// identity binding of [`Transaction::new`].
    pub fn binding(&self) -> &[VarId] {
        self.binding.as_ref().map_or(&[], Inline::as_slice)
    }

    /// The bound input parameters (a template instance's constants).
    pub fn params(&self) -> &[Value] {
        self.params.as_slice()
    }

    /// The compensating program, if one was declared (in the program's
    /// slot space, bound like the program).
    pub fn inverse(&self) -> Option<&Arc<Program>> {
        self.inverse.as_ref()
    }

    /// The canned transaction type, if declared.
    pub fn type_id(&self) -> Option<TxnTypeId> {
        self.type_id
    }

    /// Static read set, bound to items.
    pub fn readset(&self) -> &VarSet {
        self.reads.set()
    }

    /// Static write set, bound to items.
    pub fn writeset(&self) -> &VarSet {
        self.writes.set()
    }

    /// Static footprint `readset ∪ writeset`, bound to items.
    pub fn footprint(&self) -> &VarSet {
        &self.footprint
    }

    /// Overlap-test mask of the bound static read set.
    pub fn read_mask(&self) -> &VarMask {
        &self.reads
    }

    /// Overlap-test mask of the bound static write set.
    pub fn write_mask(&self) -> &VarMask {
        &self.writes
    }

    /// `readset − writeset`: the items read but never written. Lemma 2
    /// shows this set (with original read values) is always a sufficient
    /// fix.
    pub fn read_only_set(&self) -> VarSet {
        self.readset().difference(self.writeset())
    }

    /// The concrete program this transaction runs: for a template
    /// instance, the template with every slot replaced by its item and
    /// every constant in place, built on each call; for a hand-built
    /// transaction, the program itself. Statement walkers go through this
    /// view, so an instance whose binding aliases two slots analyses
    /// exactly as the program written out with that item twice.
    pub fn concrete(&self) -> Concrete<'_> {
        match &self.binding {
            None => Concrete { program: Cow::Borrowed(&self.program), params: self.params() },
            Some(binding) => {
                let sets = (self.reads.clone(), self.writes.clone(), self.footprint.clone());
                let program =
                    self.program.bound(self.name(), binding.as_slice(), self.params(), sets);
                Concrete { program: Cow::Owned(program), params: &[] }
            }
        }
    }

    /// Executes the forward program on `state` with `fix`.
    ///
    /// # Errors
    ///
    /// See [`Program::execute`].
    pub fn execute(&self, state: &DbState, fix: &Fix) -> Result<ExecOutcome, TxnError> {
        let delta = self.execute_delta(state, fix)?;
        Ok(exec::materialize(delta, &self.footprint, state))
    }

    /// Executes the forward program against any [`StateRead`] view,
    /// returning the write delta instead of a materialized after state
    /// (the copy-on-write execution path; see [`exec::execute_view`]).
    ///
    /// # Errors
    ///
    /// See [`Program::execute`].
    pub fn execute_delta(&self, state: &dyn StateRead, fix: &Fix) -> Result<ExecDelta, TxnError> {
        exec::execute_bound(&self.program, self.binding(), self.params(), state, fix)
    }

    /// Executes the compensating program against any [`StateRead`] view,
    /// returning the write delta (the copy-on-write analogue of
    /// [`Transaction::compensate`]).
    ///
    /// # Errors
    ///
    /// Returns [`TxnError::UnknownTxnType`] if no inverse was declared,
    /// otherwise see [`Program::execute`].
    pub fn compensate_delta(
        &self,
        state: &dyn StateRead,
        fix: &Fix,
    ) -> Result<ExecDelta, TxnError> {
        exec::execute_bound(self.inverse_program()?, self.binding(), self.params(), state, fix)
    }

    /// Executes the compensating program on `state` with `fix` (the *fixed
    /// compensating transaction* `T^(-1,F)` of Definition 5).
    ///
    /// # Errors
    ///
    /// Returns [`TxnError::UnknownTxnType`] if no inverse was declared,
    /// otherwise see [`Program::execute`].
    pub fn compensate(&self, state: &DbState, fix: &Fix) -> Result<ExecOutcome, TxnError> {
        let inverse = self.inverse_program()?;
        let delta = exec::execute_bound(inverse, self.binding(), self.params(), state, fix)?;
        let binding = self.binding();
        let footprint = inverse
            .footprint()
            .iter()
            .map(|slot| exec::bind(binding, slot))
            .collect::<Result<VarSet, TxnError>>()?;
        Ok(exec::materialize(delta, &footprint, state))
    }

    fn inverse_program(&self) -> Result<&Program, TxnError> {
        self.inverse.as_deref().ok_or_else(|| TxnError::UnknownTxnType {
            name: format!("{} (no compensating program)", self.name),
        })
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::ProgramBuilder;
    use crate::value::VarId;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn deposit() -> Arc<Program> {
        Arc::new(
            ProgramBuilder::new("deposit")
                .read(v(0))
                .update(v(0), Expr::var(v(0)) + Expr::param(0))
                .build()
                .unwrap(),
        )
    }

    fn withdraw() -> Arc<Program> {
        Arc::new(
            ProgramBuilder::new("withdraw")
                .read(v(0))
                .update(v(0), Expr::var(v(0)) - Expr::param(0))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn execute_with_params() {
        let t = Transaction::new(TxnId::new(0), "Tm1", TxnKind::Tentative, deposit(), vec![25]);
        let s: DbState = [(v(0), 100)].into_iter().collect();
        let out = t.execute(&s, &Fix::empty()).unwrap();
        assert_eq!(out.after.get(v(0)), 125);
        assert_eq!(t.kind(), TxnKind::Tentative);
        assert_eq!(t.name(), "Tm1");
        assert_eq!(t.params(), &[25]);
    }

    #[test]
    fn compensate_inverts() {
        let t = Transaction::new(TxnId::new(1), "T", TxnKind::Tentative, deposit(), vec![25])
            .with_inverse(withdraw());
        let s: DbState = [(v(0), 100)].into_iter().collect();
        let fwd = t.execute(&s, &Fix::empty()).unwrap();
        let back = t.compensate(&fwd.after, &Fix::empty()).unwrap();
        assert_eq!(back.after, s);
    }

    #[test]
    fn compensate_without_inverse_errors() {
        let t = Transaction::new(TxnId::new(1), "T", TxnKind::Tentative, deposit(), vec![25]);
        let s: DbState = [(v(0), 100)].into_iter().collect();
        assert!(t.compensate(&s, &Fix::empty()).is_err());
    }

    #[test]
    fn read_only_set() {
        let p = Arc::new(
            ProgramBuilder::new("t")
                .read(v(0))
                .read(v(1))
                .update(v(0), Expr::var(v(0)) + Expr::var(v(1)))
                .build()
                .unwrap(),
        );
        let t = Transaction::new(TxnId::new(0), "T", TxnKind::Base, p, vec![]);
        assert_eq!(t.read_only_set(), [v(1)].into_iter().collect());
    }

    #[test]
    fn precondition_classifies_success() {
        use crate::expr::Expr;
        // withdraw(40) with the precondition bal >= 40.
        let t = Transaction::new(TxnId::new(0), "wd", TxnKind::Tentative, withdraw(), vec![40])
            .with_precondition(Expr::var(v(0)).ge(Expr::param(0)));
        let rich: DbState = [(v(0), 100)].into_iter().collect();
        assert!(t.check_precondition(&rich, &Fix::empty()).unwrap());
        let poor: DbState = [(v(0), 10)].into_iter().collect();
        assert!(!t.check_precondition(&poor, &Fix::empty()).unwrap());
        // A fix pinning the balance overrides the state.
        let fix: Fix = [(v(0), 100)].into_iter().collect();
        assert!(t.check_precondition(&poor, &fix).unwrap());
        assert!(t.precondition().is_some());
        // No precondition: always passes.
        let free = Transaction::new(TxnId::new(1), "d", TxnKind::Tentative, deposit(), vec![1]);
        assert!(free.check_precondition(&poor, &Fix::empty()).unwrap());
        assert!(free.precondition().is_none());
        // Missing variable reported.
        let empty = DbState::new();
        assert!(t.check_precondition(&empty, &Fix::empty()).is_err());
    }

    #[test]
    fn rebranding_helpers() {
        let t = Transaction::new(TxnId::new(3), "T", TxnKind::Tentative, deposit(), vec![1]);
        let t2 = t.clone().with_id(TxnId::new(9)).with_kind(TxnKind::Base);
        assert_eq!(t2.id(), TxnId::new(9));
        assert_eq!(t2.kind(), TxnKind::Base);
        assert_eq!(t.id(), TxnId::new(3));
    }

    #[test]
    fn display() {
        let t = Transaction::new(TxnId::new(3), "Tm3", TxnKind::Tentative, deposit(), vec![1]);
        assert_eq!(t.to_string(), "Tm3(T3)");
        assert_eq!(TxnId::new(7).to_string(), "T7");
        assert_eq!(TxnKind::Base.to_string(), "base");
    }
}
