//! The compensation approach (Section 6.1).

use histmerge_history::{AugmentedHistory, TxnArena};
use histmerge_txn::{OverlayState, WriteDelta};

use crate::error::CoreError;
use crate::rewrite::RewrittenHistory;

/// Prunes `rewritten` by compensation: starting from the final state of the
/// original history, executes the fixed compensating transaction
/// `T^(-1,F)` (Definition 5) of every suffix transaction, in reverse order.
///
/// Because the rewritten history is final-state equivalent to the original
/// and suffix transactions keep their relative order (Theorem 2), this
/// unwinds the suffix exactly, leaving the state of the repaired prefix.
/// That state is returned as a write delta over `original`'s initial
/// state, like [`undo`](crate::prune::undo)'s.
///
/// # Errors
///
/// * [`CoreError::MissingInverse`] — a suffix transaction declared no
///   compensating program.
/// * [`CoreError::FixOverlapsWriteset`] — a suffix fix intersects the
///   transaction's write set, violating Lemma 4's precondition (cannot
///   happen for histories produced by Algorithms 1 and 2, whose fixes are
///   always subsets of `readset − writeset`).
/// * [`CoreError::Execution`] — the compensating program failed to execute.
pub fn compensate(
    arena: &TxnArena,
    original: &AugmentedHistory,
    rewritten: &RewrittenHistory,
) -> Result<WriteDelta, CoreError> {
    let mut view =
        OverlayState::with_writes(original.initial_state(), original.final_writes().clone());
    for (id, fix) in rewritten.suffix().iter().rev() {
        let txn = arena.get(*id);
        // Read-only transactions change no state: nothing to compensate.
        if txn.writeset().is_empty() {
            continue;
        }
        // Lemma 4 precondition: F ∩ T.writeset = ∅.
        if fix.vars().intersects(txn.writeset()) {
            return Err(CoreError::FixOverlapsWriteset { txn: *id });
        }
        if txn.inverse().is_none() {
            return Err(CoreError::MissingInverse { txn: *id });
        }
        let delta = txn
            .compensate_delta(&view, fix)
            .map_err(|source| CoreError::Execution { txn: *id, source })?;
        view.apply_writes(&delta.writes);
    }
    Ok(view.into_writes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::{rewrite, FixMode, RewriteAlgorithm};
    use histmerge_history::SerialHistory;
    use histmerge_semantics::OracleStack;
    use histmerge_txn::{
        DbState, Expr, Fix, Program, ProgramBuilder, Transaction, TxnId, TxnKind, VarId,
    };
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    /// deposit(k): bal += k, with inverse bal -= k.
    fn deposit(arena: &mut TxnArena, name: &str, var: u32, k: i64) -> TxnId {
        let fwd: Arc<Program> = Arc::new(
            ProgramBuilder::new(name)
                .read(v(var))
                .update(v(var), Expr::var(v(var)) + Expr::konst(k))
                .build()
                .unwrap(),
        );
        let inv: Arc<Program> = Arc::new(
            ProgramBuilder::new(format!("{name}^-1"))
                .read(v(var))
                .update(v(var), Expr::var(v(var)) - Expr::konst(k))
                .build()
                .unwrap(),
        );
        arena.alloc(|id| {
            Transaction::new(id, name, TxnKind::Tentative, fwd, vec![]).with_inverse(inv)
        })
    }

    /// A guarded increment: if g > 0 then x += k, where the guard item g is
    /// read but never written. Its inverse mirrors the conditional.
    fn guarded_inc(arena: &mut TxnArena, name: &str, g: u32, x: u32, k: i64) -> TxnId {
        let fwd: Arc<Program> = Arc::new(
            ProgramBuilder::new(name)
                .read(v(g))
                .read(v(x))
                .branch(
                    Expr::var(v(g)).gt(Expr::konst(0)),
                    |b| b.update(v(x), Expr::var(v(x)) + Expr::konst(k)),
                    |b| b,
                )
                .build()
                .unwrap(),
        );
        let inv: Arc<Program> = Arc::new(
            ProgramBuilder::new(format!("{name}^-1"))
                .read(v(g))
                .read(v(x))
                .branch(
                    Expr::var(v(g)).gt(Expr::konst(0)),
                    |b| b.update(v(x), Expr::var(v(x)) - Expr::konst(k)),
                    |b| b,
                )
                .build()
                .unwrap(),
        );
        arena.alloc(|id| {
            Transaction::new(id, name, TxnKind::Tentative, fwd, vec![]).with_inverse(inv)
        })
    }

    #[test]
    fn compensation_yields_repaired_state() {
        // History: bad deposit on d0; good deposits on d0 and d1.
        let mut arena = TxnArena::new();
        let bad = deposit(&mut arena, "bad", 0, 100);
        let g1 = deposit(&mut arena, "g1", 0, 7); // cannot follow? reads d0 which bad writes
        let g2 = deposit(&mut arena, "g2", 1, 5);
        let s0: DbState = [(v(0), 0), (v(1), 0)].into_iter().collect();
        let h = AugmentedHistory::execute(&arena, &SerialHistory::from_order([bad, g1, g2]), &s0)
            .unwrap();
        let bads: BTreeSet<TxnId> = [bad].into_iter().collect();
        let rw = rewrite(
            &arena,
            &h,
            &bads,
            RewriteAlgorithm::CanFollow,
            FixMode::Lemma1,
            &OracleStack::new(),
        );
        // g1 reads d0 (written by bad): cannot follow... rather `bad` can't
        // follow `g1`? can_follow(bad, g1): bad.writeset {d0} ∩ g1.readset
        // {d0} ≠ ∅ → g1 stays. g2 moves.
        assert_eq!(rw.saved(), vec![g2]);
        let pruned_state = s0.patched(&compensate(&arena, &h, &rw).unwrap());
        // Repaired state: only g2 applied.
        let expect = AugmentedHistory::execute(&arena, &rw.repaired_history(), &s0).unwrap();
        assert_eq!(&pruned_state, expect.final_state());
        assert_eq!(pruned_state.get(v(0)), 0);
        assert_eq!(pruned_state.get(v(1)), 5);
    }

    #[test]
    fn fixed_compensation_replays_guard_from_fix() {
        // Lemma 4 at work: a transaction whose guard read was pinned by a
        // fix must be compensated under the SAME fix, so both take the same
        // branch even though the state value of the guard item disagrees.
        let mut arena = TxnArena::new();
        let t = guarded_inc(&mut arena, "t", 0, 1, 10);
        // State says g = -1 (branch would NOT run), but the fix pins g = 5.
        let s1: DbState = [(v(0), -1), (v(1), 100)].into_iter().collect();
        let fix: Fix = [(v(0), 5)].into_iter().collect();
        let txn = arena.get(t);
        // F ∩ writeset = ∅ holds (g is never written): Lemma 4 applies.
        assert!(!fix.vars().intersects(txn.writeset()));
        let fwd = txn.execute(&s1, &fix).unwrap();
        assert_eq!(fwd.after.get(v(1)), 110); // branch ran due to the fix
        let back = txn.compensate(&fwd.after, &fix).unwrap();
        assert_eq!(&back.after, &s1);
        // Without the fix the inverse would skip the branch and fail to
        // restore s1.
        let wrong = txn.compensate(&fwd.after, &Fix::empty()).unwrap();
        assert_ne!(&wrong.after, &s1);
    }

    #[test]
    fn missing_inverse_reported() {
        let mut arena = TxnArena::new();
        let prog: Arc<Program> = Arc::new(
            ProgramBuilder::new("noinv")
                .read(v(0))
                .update(v(0), Expr::var(v(0)) + Expr::konst(1))
                .build()
                .unwrap(),
        );
        let bad = arena.alloc(|id| Transaction::new(id, "noinv", TxnKind::Tentative, prog, vec![]));
        let s0: DbState = [(v(0), 0)].into_iter().collect();
        let h = AugmentedHistory::execute(&arena, &SerialHistory::from_order([bad]), &s0).unwrap();
        let bads: BTreeSet<TxnId> = [bad].into_iter().collect();
        let rw = rewrite(
            &arena,
            &h,
            &bads,
            RewriteAlgorithm::CanFollow,
            FixMode::Lemma1,
            &OracleStack::new(),
        );
        assert_eq!(
            compensate(&arena, &h, &rw).unwrap_err(),
            CoreError::MissingInverse { txn: bad }
        );
    }

    #[test]
    fn empty_suffix_returns_final_state() {
        let mut arena = TxnArena::new();
        let g = deposit(&mut arena, "g", 0, 3);
        let s0: DbState = [(v(0), 0)].into_iter().collect();
        let h = AugmentedHistory::execute(&arena, &SerialHistory::from_order([g]), &s0).unwrap();
        let rw = rewrite(
            &arena,
            &h,
            &BTreeSet::new(),
            RewriteAlgorithm::CanFollow,
            FixMode::Lemma1,
            &OracleStack::new(),
        );
        let state = s0.patched(&compensate(&arena, &h, &rw).unwrap());
        assert_eq!(&state, h.final_state());
    }
}
