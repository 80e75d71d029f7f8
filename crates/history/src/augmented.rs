//! Augmented histories: serial histories with explicit interleaved states.
//!
//! The explicit states of Section 3 (`s0 T1 s1 T2 s2 ...`) are the
//! *semantics* of an augmented history, not its storage. Executing an
//! `n`-transaction history used to clone a full [`DbState`] per step —
//! O(n · |database|) — which dominated the merge hot path. The history now
//! executes through one copy-on-write [`OverlayState`], shares the initial
//! state with its caller, keeps the final state as a write delta over it
//! plus a per-step [`StepRecord`] (observed reads/writes and before/after
//! images over each transaction's static footprint), and *derives* any
//! state on demand — the final one from the delta, intermediate ones from
//! a per-variable write index. Executing a history therefore costs
//! O(footprint), not O(|database|). Outcomes are byte-identical to the
//! clone-per-step execution; `tests/footprint_differential.rs` holds that
//! contract.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use histmerge_txn::{
    DbState, Fix, OverlayState, TxnError, TxnId, Value, VarId, VarSet, WriteDelta,
};

use crate::arena::TxnArena;
use crate::schedule::SerialHistory;

/// Errors raised when constructing or comparing augmented histories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// A transaction failed to execute.
    Execution {
        /// The transaction that failed.
        txn: TxnId,
        /// The underlying interpreter error.
        source: TxnError,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Execution { txn, source } => {
                write!(f, "executing {txn} failed: {source}")
            }
        }
    }
}

impl std::error::Error for HistoryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HistoryError::Execution { source, .. } => Some(source),
        }
    }
}

/// The execution record of one history step: what the transaction
/// observed and the before/after images over its static footprint —
/// exactly the log information the undo approach of Section 6.2 needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord {
    /// The values the transaction observed for each item it read, in the
    /// position it executed (fix values for pinned items).
    pub reads: BTreeMap<VarId, Value>,
    /// The values the transaction wrote.
    pub writes: BTreeMap<VarId, Value>,
    /// Items actually read on the taken path (⊆ static read set).
    pub observed_readset: VarSet,
    /// Items actually written on the taken path (⊆ static write set).
    pub observed_writeset: VarSet,
    /// Before image over the transaction's static read ∪ write set.
    pub before_image: DbState,
    /// After image over the static read ∪ write set.
    pub after_image: DbState,
}

impl StepRecord {
    /// Convenience: the value this step observed for `var`, if it read it.
    pub fn read_value(&self, var: VarId) -> Option<Value> {
        self.reads.get(&var).copied()
    }

    /// Convenience: the value this step wrote to `var`, if it wrote it.
    pub fn written_value(&self, var: VarId) -> Option<Value> {
        self.writes.get(&var).copied()
    }
}

/// A serial history *augmented* with explicit database states
/// (Section 3 of the paper: `H^s = s0 T1 s1 T2 s2 ...`).
///
/// Each entry pairs a transaction with the [`Fix`] it executed under (the
/// empty fix for an original history) and records its [`StepRecord`] —
/// observed reads/writes and before/after images. States are derived on
/// demand (see [`AugmentedHistory::before_state`] and the cheaper
/// [`AugmentedHistory::value_before`]); only the initial state is stored
/// whole, and it is shared with the caller. The final state is kept as
/// the history's write delta ([`AugmentedHistory::final_writes`]) and
/// materialized on the first [`AugmentedHistory::final_state`] call.
///
/// # Example
///
/// ```rust
/// use histmerge_txn::{DbState, Expr, Fix, ProgramBuilder, Transaction, TxnKind, VarId};
/// use histmerge_history::{AugmentedHistory, SerialHistory, TxnArena};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = VarId::new(0);
/// let inc = std::sync::Arc::new(
///     ProgramBuilder::new("inc").read(x).update(x, Expr::var(x) + Expr::konst(1)).build()?,
/// );
/// let mut arena = TxnArena::new();
/// let t0 = arena.alloc(|id| Transaction::new(id, "T0", TxnKind::Tentative, inc.clone(), vec![]));
/// let t1 = arena.alloc(|id| Transaction::new(id, "T1", TxnKind::Tentative, inc.clone(), vec![]));
/// let s0: DbState = [(x, 0)].into_iter().collect();
/// let h = AugmentedHistory::execute(&arena, &SerialHistory::from_order([t0, t1]), &s0)?;
/// assert_eq!(h.final_state().get(x), 2);
/// assert_eq!(h.before_state(1).get(x), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AugmentedHistory {
    entries: Vec<(TxnId, Fix)>,
    initial: Arc<DbState>,
    /// Every item the history wrote, with its final value.
    final_writes: WriteDelta,
    /// `initial` patched with `final_writes`, built on first use.
    final_state: OnceLock<DbState>,
    steps: Vec<StepRecord>,
    /// Per-variable change index: ascending `(step, value written)` pairs.
    /// `value_before(i, var)` is a binary search here instead of a stored
    /// state per step.
    writes_at: BTreeMap<VarId, Vec<(u32, Value)>>,
}

impl AugmentedHistory {
    /// Executes a serial history from `initial` with every fix empty (the
    /// ordinary case: "for ordinary serializable execution histories, each
    /// such fix is the empty fix").
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::Execution`] if any transaction fails (e.g.
    /// the state lacks a variable in its read set).
    pub fn execute(
        arena: &TxnArena,
        history: &SerialHistory,
        initial: &DbState,
    ) -> Result<Self, HistoryError> {
        Self::execute_shared(arena, history, &Arc::new(initial.clone()))
    }

    /// [`AugmentedHistory::execute`] from a shared initial state: the
    /// history keeps a handle to `initial` instead of copying it, so
    /// execution costs O(footprint) however large the database is.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::Execution`] if any transaction fails.
    pub fn execute_shared(
        arena: &TxnArena,
        history: &SerialHistory,
        initial: &Arc<DbState>,
    ) -> Result<Self, HistoryError> {
        let entries: Vec<(TxnId, Fix)> = history.iter().map(|id| (id, Fix::empty())).collect();
        Self::run(arena, entries, Arc::clone(initial))
    }

    /// Executes a sequence of `(transaction, fix)` entries from `initial`.
    /// This is how rewritten histories (whose repositioned transactions
    /// carry non-empty fixes) are materialized and checked.
    ///
    /// The whole history runs through one copy-on-write overlay: per step
    /// it records O(footprint) image data and applies O(written items),
    /// instead of cloning the full state.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::Execution`] if any transaction fails.
    pub fn execute_with_fixes(
        arena: &TxnArena,
        entries: &[(TxnId, Fix)],
        initial: &DbState,
    ) -> Result<Self, HistoryError> {
        Self::run(arena, entries.to_vec(), Arc::new(initial.clone()))
    }

    fn run(
        arena: &TxnArena,
        entries: Vec<(TxnId, Fix)>,
        initial: Arc<DbState>,
    ) -> Result<Self, HistoryError> {
        let mut steps = Vec::with_capacity(entries.len());
        let mut writes_at: BTreeMap<VarId, Vec<(u32, Value)>> = BTreeMap::new();
        let mut view = OverlayState::new(&initial);
        for (i, (id, fix)) in entries.iter().enumerate() {
            let txn = arena.get(*id);
            let footprint = txn.footprint();
            let before_image = view.project(footprint);
            let delta = txn
                .execute_delta(&view, fix)
                .map_err(|source| HistoryError::Execution { txn: *id, source })?;
            view.apply_writes(&delta.writes);
            let after_image = view.project(footprint);
            for (var, value) in &delta.writes {
                writes_at.entry(*var).or_default().push((i as u32, *value));
            }
            steps.push(StepRecord {
                reads: delta.reads,
                writes: delta.writes,
                observed_readset: delta.observed_readset,
                observed_writeset: delta.observed_writeset,
                before_image,
                after_image,
            });
        }
        let final_writes = view.into_writes();
        Ok(AugmentedHistory {
            entries,
            initial,
            final_writes,
            final_state: OnceLock::new(),
            steps,
            writes_at,
        })
    }

    /// The `(transaction, fix)` entries in execution order.
    pub fn entries(&self) -> &[(TxnId, Fix)] {
        &self.entries
    }

    /// The serial order, without fixes.
    pub fn order(&self) -> SerialHistory {
        self.entries.iter().map(|(id, _)| *id).collect()
    }

    /// Number of transactions executed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the history is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value `var` holds just before the `i`-th transaction executes:
    /// the latest write at a step `< i`, falling back to the initial
    /// state. A binary search over the variable's change index — the
    /// cheap point query the rewriting algorithms use for fix pins.
    pub fn value_before(&self, i: usize, var: VarId) -> Option<Value> {
        if let Some(changes) = self.writes_at.get(&var) {
            let upto = changes.partition_point(|(step, _)| (*step as usize) < i);
            if upto > 0 {
                return Some(changes[upto - 1].1);
            }
        }
        self.initial.try_get(var)
    }

    /// Materializes the *before state* of the `i`-th transaction (the
    /// initial state with every write at steps `< i` applied).
    pub fn before_state(&self, i: usize) -> DbState {
        let mut state = (*self.initial).clone();
        for (var, changes) in &self.writes_at {
            let upto = changes.partition_point(|(step, _)| (*step as usize) < i);
            if upto > 0 {
                state.set(*var, changes[upto - 1].1);
            }
        }
        state
    }

    /// Materializes the *after state* of the `i`-th transaction.
    pub fn after_state(&self, i: usize) -> DbState {
        self.before_state(i + 1)
    }

    /// The initial state `s0`.
    pub fn initial_state(&self) -> &DbState {
        &self.initial
    }

    /// The final state of the history, materialized from the initial
    /// state and [`AugmentedHistory::final_writes`] on the first call.
    pub fn final_state(&self) -> &DbState {
        self.final_state.get_or_init(|| self.initial.patched(&self.final_writes))
    }

    /// The history's write delta: every item some step wrote, with its
    /// value in the final state. The final state is the initial state
    /// patched with it; [`OverlayState::with_writes`] reads it without
    /// copying the initial state.
    pub fn final_writes(&self) -> &WriteDelta {
        &self.final_writes
    }

    /// The execution record of the `i`-th transaction.
    pub fn outcome(&self, i: usize) -> &StepRecord {
        &self.steps[i]
    }

    /// The position of `id` in this history, if present.
    pub fn position(&self, id: TxnId) -> Option<usize> {
        self.entries.iter().position(|(t, _)| *t == id)
    }

    /// The value `id` read for `var` in its original position, if it read
    /// it — the ingredient of every fix (Definition 1: "`v_i` is what `T_i`
    /// read for `x_i` in the original history").
    pub fn original_read(&self, id: TxnId, var: VarId) -> Option<Value> {
        let pos = self.position(id)?;
        self.steps[pos].read_value(var)
    }

    /// Two augmented histories are **final state equivalent** if they are
    /// over the same set of transactions and their final states are
    /// identical (Section 3). Final-state equivalent histories need not be
    /// conflict or view equivalent.
    pub fn final_state_equivalent(&self, other: &AugmentedHistory) -> bool {
        let mut a: Vec<TxnId> = self.entries.iter().map(|(t, _)| *t).collect();
        let mut b: Vec<TxnId> = other.entries.iter().map(|(t, _)| *t).collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b && self.final_state() == other.final_state()
    }
}

/// Executes `history` from `initial` and returns only the final state —
/// the log-free fast path for callers that never look at intermediate
/// states or step records (e.g. deriving `H_b`'s final state during a
/// merge, or convergence replay checks). One overlay, no per-step images,
/// one materialization.
///
/// # Errors
///
/// Returns [`HistoryError::Execution`] if any transaction fails, exactly
/// as [`AugmentedHistory::execute`] would.
pub fn run_to_final(
    arena: &TxnArena,
    history: &SerialHistory,
    initial: &DbState,
) -> Result<DbState, HistoryError> {
    let mut view = OverlayState::new(initial);
    let empty = Fix::empty();
    for id in history.iter() {
        let txn = arena.get(id);
        let delta = txn
            .execute_delta(&view, &empty)
            .map_err(|source| HistoryError::Execution { txn: id, source })?;
        view.apply_writes(&delta.writes);
    }
    Ok(view.materialize())
}

impl fmt::Display for AugmentedHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s0")?;
        for (i, (id, fix)) in self.entries.iter().enumerate() {
            if fix.is_empty() {
                write!(f, " {id} s{}", i + 1)?;
            } else {
                write!(f, " {id}^{fix} s{}", i + 1)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{Expr, Program, ProgramBuilder, Transaction, TxnKind};
    use std::sync::Arc;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    /// Builds the Section 3 example: B1, G2 over {x, y, z}.
    fn section3() -> (TxnArena, TxnId, TxnId, DbState) {
        let b1: Arc<Program> = Arc::new(
            ProgramBuilder::new("B1")
                .read(v(0))
                .read(v(1))
                .read(v(2))
                .branch(
                    Expr::var(v(0)).gt(Expr::konst(0)),
                    |b| b.update(v(1), Expr::var(v(1)) + Expr::var(v(2)) + Expr::konst(3)),
                    |b| b,
                )
                .build()
                .unwrap(),
        );
        let g2: Arc<Program> = Arc::new(
            ProgramBuilder::new("G2")
                .read(v(0))
                .update(v(0), Expr::var(v(0)) - Expr::konst(1))
                .build()
                .unwrap(),
        );
        let mut arena = TxnArena::new();
        let tb = arena.alloc(|id| Transaction::new(id, "B1", TxnKind::Tentative, b1, vec![]));
        let tg = arena.alloc(|id| Transaction::new(id, "G2", TxnKind::Tentative, g2, vec![]));
        let s0: DbState = [(v(0), 1), (v(1), 7), (v(2), 2)].into_iter().collect();
        (arena, tb, tg, s0)
    }

    #[test]
    fn augmented_states_match_paper() {
        let (arena, b1, g2, s0) = section3();
        let h =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([b1, g2]), &s0).unwrap();
        assert_eq!(h.len(), 2);
        // s1 = {x=1; y=12; z=2}
        assert_eq!(h.after_state(0).get(v(1)), 12);
        assert_eq!(h.after_state(0).get(v(0)), 1);
        // s2 = {x=0; y=12; z=2}
        assert_eq!(h.final_state().get(v(0)), 0);
        assert_eq!(h.final_state().get(v(1)), 12);
        assert_eq!(h.initial_state(), &s0);
        assert_eq!(h.before_state(1), h.after_state(0));
    }

    #[test]
    fn derived_states_match_replayed_prefixes() {
        let (arena, b1, g2, s0) = section3();
        let order = SerialHistory::from_order([b1, g2, b1, g2]);
        // b1/g2 appear twice; positions are what matters here, so build
        // the entries directly.
        let entries: Vec<(TxnId, Fix)> = order.iter().map(|id| (id, Fix::empty())).collect();
        let h = AugmentedHistory::execute_with_fixes(&arena, &entries, &s0).unwrap();
        // Every derived before/after state equals the prefix replay.
        for i in 0..h.len() {
            let prefix = order.prefix(i);
            let replay = run_to_final(&arena, &prefix, &s0).unwrap();
            assert_eq!(h.before_state(i), replay, "before_state({i})");
            for (var, val) in replay.iter() {
                assert_eq!(h.value_before(i, var), Some(val), "value_before({i}, {var})");
            }
        }
        assert_eq!(&h.after_state(h.len() - 1), h.final_state());
        assert_eq!(h.value_before(0, v(9)), None);
    }

    #[test]
    fn final_state_is_the_initial_state_patched_with_the_final_writes() {
        let (arena, b1, g2, s0) = section3();
        let order = SerialHistory::from_order([b1, g2, b1]);
        let shared = Arc::new(s0.clone());
        let h = AugmentedHistory::execute_shared(&arena, &order, &shared).unwrap();
        assert!(std::ptr::eq(h.initial_state(), &*shared), "the caller's state is shared");
        assert_eq!(h.final_state(), &run_to_final(&arena, &order, &s0).unwrap());
        assert_eq!(&s0.patched(h.final_writes()), h.final_state());
        // Only written items are in the delta: z is never written.
        assert!(!h.final_writes().contains_key(&v(2)));
        // The copying entry point agrees.
        let copied = AugmentedHistory::execute(&arena, &order, &s0).unwrap();
        assert!(!std::ptr::eq(copied.initial_state(), &*shared));
        assert_eq!(copied.final_state(), h.final_state());
    }

    #[test]
    fn run_to_final_matches_full_execution() {
        let (arena, b1, g2, s0) = section3();
        let order = SerialHistory::from_order([b1, g2]);
        let h = AugmentedHistory::execute(&arena, &order, &s0).unwrap();
        assert_eq!(&run_to_final(&arena, &order, &s0).unwrap(), h.final_state());
        // And it propagates execution errors identically.
        let empty = DbState::new();
        assert!(run_to_final(&arena, &order, &empty).is_err());
    }

    #[test]
    fn swap_without_fix_not_equivalent_with_fix_equivalent() {
        let (arena, b1, g2, s0) = section3();
        let original =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([b1, g2]), &s0).unwrap();
        // H2 = G2 B1 (no fix): differs in final state.
        let swapped =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([g2, b1]), &s0).unwrap();
        assert!(!original.final_state_equivalent(&swapped));
        // H3 = G2 B1^{x=1}: final state equivalent.
        let fix: Fix = [(v(0), 1)].into_iter().collect();
        let fixed =
            AugmentedHistory::execute_with_fixes(&arena, &[(g2, Fix::empty()), (b1, fix)], &s0)
                .unwrap();
        assert!(original.final_state_equivalent(&fixed));
    }

    #[test]
    fn final_state_equivalence_requires_same_txn_set() {
        let (arena, b1, g2, s0) = section3();
        let h1 =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([b1, g2]), &s0).unwrap();
        let h2 = AugmentedHistory::execute(&arena, &SerialHistory::from_order([g2]), &s0).unwrap();
        // Different transaction sets: never equivalent, even if states matched.
        assert!(!h1.final_state_equivalent(&h2));
    }

    #[test]
    fn original_read_values() {
        let (arena, b1, g2, s0) = section3();
        let h =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([b1, g2]), &s0).unwrap();
        assert_eq!(h.original_read(b1, v(0)), Some(1));
        assert_eq!(h.original_read(g2, v(0)), Some(1));
        assert_eq!(h.original_read(b1, v(9)), None);
        assert_eq!(h.position(g2), Some(1));
    }

    #[test]
    fn execution_error_names_transaction() {
        let (arena, b1, _, _) = section3();
        let empty = DbState::new();
        let err = AugmentedHistory::execute(&arena, &SerialHistory::from_order([b1]), &empty)
            .unwrap_err();
        assert!(matches!(err, HistoryError::Execution { txn, .. } if txn == b1));
        assert!(err.to_string().contains("T0"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn display_marks_fixes() {
        let (arena, b1, g2, s0) = section3();
        let fix: Fix = [(v(0), 1)].into_iter().collect();
        let h = AugmentedHistory::execute_with_fixes(&arena, &[(g2, Fix::empty()), (b1, fix)], &s0)
            .unwrap();
        let text = h.to_string();
        assert!(text.starts_with("s0 T1 s1"));
        assert!(text.contains("T0^{(d0, 1)}"));
    }

    #[test]
    fn empty_history() {
        let (arena, _, _, s0) = section3();
        let h = AugmentedHistory::execute(&arena, &SerialHistory::new(), &s0).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.final_state(), &s0);
        assert_eq!(h.order().len(), 0);
    }
}
