//! The undo approach (Section 6.2): before-image restoration plus
//! undo-repair actions (Algorithm 3).
//!
//! Pruning by undo first restores, in reverse order, the logged
//! before-images of every transaction in `H_e^s − H_r^s`. That wipes not
//! only the pruned transactions' effects but also the writes that *saved
//! affected* transactions made to items the pruned transactions touched —
//! Algorithm 3 therefore builds, for each affected transaction in the
//! repaired prefix, an **undo-repair action** that re-establishes exactly
//! the lost part of its effect:
//!
//! * an update whose target no pruned transaction wrote is dropped (its
//!   effect survived the undo);
//! * an update whose target only *later* pruned transactions wrote is
//!   replaced by a direct assignment of the logged after-image value;
//! * any other update is re-executed, with each operand that no *earlier*
//!   pruned transaction wrote bound to its logged before-image value (the
//!   remaining operands deliberately read the post-undo state, which holds
//!   their repaired values).
//!
//! Guard variables are bound by the same rule, extending Algorithm 3's
//! per-operand treatment to control flow.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use histmerge_history::{AugmentedHistory, TxnArena};
use histmerge_txn::{
    Expr, ItemValues, OverlayState, Pred, Program, ProgramBuilder, Statement, TxnId, Value, VarId,
    VarSet, WriteDelta,
};

use crate::error::CoreError;
use crate::rewrite::RewrittenHistory;

/// Prunes `rewritten` by the undo approach: restores before-images of every
/// suffix transaction (reverse order), then executes the undo-repair
/// actions of the affected transactions saved in the prefix (prefix order).
///
/// Returns the repaired state as a write delta over `original`'s initial
/// state: `original.initial_state().patched(&delta)` is the state of the
/// repaired prefix.
///
/// `affected` is the full affected set `AG` computed from the back-out set;
/// only its members appearing in the repaired prefix get repair actions
/// (Theorem 5).
///
/// # Errors
///
/// Returns [`CoreError::Execution`] if building or executing an undo-repair
/// action fails.
pub fn undo(
    arena: &TxnArena,
    original: &AugmentedHistory,
    rewritten: &RewrittenHistory,
    affected: &BTreeSet<TxnId>,
) -> Result<WriteDelta, CoreError> {
    // One copy-on-write overlay over the initial state, seeded with the
    // history's write delta (the final state): restores and repairs write
    // O(touched items), and no full state is ever copied.
    let mut view =
        OverlayState::with_writes(original.initial_state(), original.final_writes().clone());
    let undone: BTreeSet<TxnId> = rewritten.suffix().iter().map(|(t, _)| *t).collect();

    // Phase 1: restore before-images in reverse original order. The suffix
    // preserves the original relative order (Theorem 2), so its reverse is
    // the reverse original order.
    for (id, _) in rewritten.suffix().iter().rev() {
        let pos = original.position(*id).expect("suffix txn is in the original");
        let outcome = original.outcome(pos);
        let txn = arena.get(*id);
        for var in txn.writeset().iter() {
            let before = outcome.before_image.get(var).expect("the before image covers writes");
            view.set(var, before);
        }
    }

    // Phase 2: undo-repair actions for saved affected transactions.
    for (id, _) in rewritten.prefix() {
        if !affected.contains(id) {
            continue;
        }
        if let Some(ura) = build_undo_repair(arena, original, *id, &undone)? {
            // The action is built from the concrete program, so only a
            // hand-built transaction's free parameters can remain in it;
            // an instance's constants are already in place.
            let txn = arena.get(*id);
            let delta = histmerge_txn::exec::execute_view(
                &ura,
                txn.params(),
                &view,
                &histmerge_txn::Fix::empty(),
            )
            .map_err(|source| CoreError::Execution { txn: *id, source })?;
            view.apply_writes(&delta.writes);
        }
    }
    Ok(view.into_writes())
}

/// Builds the undo-repair action for affected transaction `ag_k`
/// (Algorithm 3). Returns `Ok(None)` when every update was dropped (the
/// whole effect survived the undo). The action is derived from the
/// transaction's concrete program
/// ([`Transaction::concrete`](histmerge_txn::Transaction::concrete)).
///
/// # Errors
///
/// Returns [`CoreError::Execution`] if the transformed program fails to
/// validate (cannot happen for programs accepted by the builder, kept as a
/// defensive path).
pub fn build_undo_repair(
    arena: &TxnArena,
    original: &AugmentedHistory,
    ag_k: TxnId,
    undone: &BTreeSet<TxnId>,
) -> Result<Option<Program>, CoreError> {
    let txn = arena.get(ag_k);
    let pos_k = original.position(ag_k).expect("affected txn is in the original");
    let outcome = original.outcome(pos_k);

    // Which items were written by pruned transactions — at all, and before
    // ag_k specifically.
    let mut undone_writes = VarSet::new();
    let mut undone_writes_before = VarSet::new();
    for id in undone {
        let Some(p) = original.position(*id) else { continue };
        let w = arena.get(*id).writeset();
        undone_writes.extend_from(w);
        if p < pos_k {
            undone_writes_before.extend_from(w);
        }
    }

    let mut ctx = UraContext {
        undone_writes,
        undone_writes_before,
        before: &outcome.before_image,
        after: &outcome.after_image,
    };

    let mut prev_updated = VarSet::new();
    let mut local_known: BTreeMap<VarId, Value> = BTreeMap::new();
    let concrete = txn.concrete();
    let body =
        ctx.transform_block(concrete.program.statements(), &mut prev_updated, &mut local_known);
    if !contains_update(&body) {
        return Ok(None);
    }

    // Re-synthesize reads for every variable the transformed body still
    // references (Algorithm 3 step 3 drops the now-useless reads; building
    // from scratch achieves the same minimal read set).
    let mut referenced = VarSet::new();
    collect_referenced(&body, &mut referenced);
    let mut builder = ProgramBuilder::new(format!("ura-{}", txn.name())).allow_blind_writes();
    for var in referenced.iter() {
        builder = builder.read(var);
    }
    for stmt in body {
        builder = builder.statement(stmt);
    }
    builder.build().map(Some).map_err(|source| CoreError::Execution { txn: ag_k, source })
}

struct UraContext<'a> {
    undone_writes: VarSet,
    undone_writes_before: VarSet,
    before: &'a ItemValues,
    after: &'a ItemValues,
}

impl UraContext<'_> {
    fn transform_block(
        &mut self,
        stmts: &[Statement],
        prev_updated: &mut VarSet,
        local_known: &mut BTreeMap<VarId, Value>,
    ) -> Vec<Statement> {
        let mut out = Vec::new();
        for stmt in stmts {
            match stmt {
                // Reads are re-synthesized by the caller.
                Statement::Read(_) => {}
                Statement::Update { target, expr } => {
                    let x = *target;
                    if !self.undone_writes.contains(x) {
                        // Case 1: no pruned transaction wrote x — the effect
                        // survived the undo. Drop the statement, but record
                        // the computed value for later operand uses.
                        if let Some(v) = self.after.get(x) {
                            local_known.insert(x, v);
                        }
                        prev_updated.insert(x);
                    } else if !self.undone_writes_before.contains(x) {
                        // Case 2: only later pruned transactions wrote x —
                        // re-assert the logged after value.
                        out.push(Statement::Update {
                            target: x,
                            expr: Expr::Const(
                                self.after.get(x).expect("the after image covers writes"),
                            ),
                        });
                        prev_updated.insert(x);
                        local_known.remove(&x);
                    } else {
                        // Case 3: re-execute with operand binding.
                        let new_expr = self.subst_expr(expr, prev_updated, local_known);
                        out.push(Statement::Update { target: x, expr: new_expr });
                        prev_updated.insert(x);
                        local_known.remove(&x);
                    }
                }
                Statement::If { cond, then_branch, else_branch } => {
                    let new_cond = self.subst_pred(cond, prev_updated, local_known);
                    let mut t_upd = prev_updated.clone();
                    let mut t_known = local_known.clone();
                    let tb = self.transform_block(then_branch, &mut t_upd, &mut t_known);
                    let mut e_upd = prev_updated.clone();
                    let mut e_known = local_known.clone();
                    let eb = self.transform_block(else_branch, &mut e_upd, &mut e_known);
                    // Textual union, matching Algorithm 3's flat reading of
                    // "updated by any preceding statement".
                    *prev_updated = t_upd.union(&e_upd);
                    local_known
                        .retain(|k, v| t_known.get(k) == Some(v) && e_known.get(k) == Some(v));
                    if !tb.is_empty() || !eb.is_empty() {
                        out.push(Statement::If {
                            cond: new_cond,
                            then_branch: tb,
                            else_branch: eb,
                        });
                    }
                }
            }
        }
        out
    }

    /// Binds a variable reference per Algorithm 3's operand rule. Returns
    /// `Some(value)` when the reference must become a constant.
    fn bind(
        &self,
        y: VarId,
        prev_updated: &VarSet,
        local_known: &BTreeMap<VarId, Value>,
    ) -> Option<Value> {
        if let Some(v) = local_known.get(&y) {
            // The original program computed y earlier, but the statement
            // was dropped (case 1): use the logged computed value.
            return Some(*v);
        }
        if prev_updated.contains(y) {
            // A kept earlier statement computes y: read the local value at
            // run time.
            return None;
        }
        if !self.undone_writes_before.contains(y) {
            // Untouched by earlier pruned transactions: what ag_k read
            // originally is what it must read now.
            return self.before.get(y);
        }
        // An earlier pruned transaction wrote y: the post-undo state holds
        // the repaired value — read it at run time.
        None
    }

    fn subst_expr(
        &self,
        expr: &Expr,
        prev_updated: &VarSet,
        local_known: &BTreeMap<VarId, Value>,
    ) -> Expr {
        match expr {
            Expr::Const(_) | Expr::Param(_) => expr.clone(),
            Expr::Var(y) => match self.bind(*y, prev_updated, local_known) {
                Some(v) => Expr::Const(v),
                None => expr.clone(),
            },
            Expr::Add(a, b) => Expr::Add(
                Box::new(self.subst_expr(a, prev_updated, local_known)),
                Box::new(self.subst_expr(b, prev_updated, local_known)),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(self.subst_expr(a, prev_updated, local_known)),
                Box::new(self.subst_expr(b, prev_updated, local_known)),
            ),
            Expr::Mul(a, b) => Expr::Mul(
                Box::new(self.subst_expr(a, prev_updated, local_known)),
                Box::new(self.subst_expr(b, prev_updated, local_known)),
            ),
            Expr::Div(a, b) => Expr::Div(
                Box::new(self.subst_expr(a, prev_updated, local_known)),
                Box::new(self.subst_expr(b, prev_updated, local_known)),
            ),
            Expr::Mod(a, b) => Expr::Mod(
                Box::new(self.subst_expr(a, prev_updated, local_known)),
                Box::new(self.subst_expr(b, prev_updated, local_known)),
            ),
            Expr::Min(a, b) => Expr::Min(
                Box::new(self.subst_expr(a, prev_updated, local_known)),
                Box::new(self.subst_expr(b, prev_updated, local_known)),
            ),
            Expr::Max(a, b) => Expr::Max(
                Box::new(self.subst_expr(a, prev_updated, local_known)),
                Box::new(self.subst_expr(b, prev_updated, local_known)),
            ),
            Expr::Neg(a) => Expr::Neg(Box::new(self.subst_expr(a, prev_updated, local_known))),
        }
    }

    fn subst_pred(
        &self,
        pred: &Pred,
        prev_updated: &VarSet,
        local_known: &BTreeMap<VarId, Value>,
    ) -> Pred {
        match pred {
            Pred::True => Pred::True,
            Pred::Cmp(op, a, b) => Pred::Cmp(
                *op,
                self.subst_expr(a, prev_updated, local_known),
                self.subst_expr(b, prev_updated, local_known),
            ),
            Pred::And(a, b) => Pred::And(
                Box::new(self.subst_pred(a, prev_updated, local_known)),
                Box::new(self.subst_pred(b, prev_updated, local_known)),
            ),
            Pred::Or(a, b) => Pred::Or(
                Box::new(self.subst_pred(a, prev_updated, local_known)),
                Box::new(self.subst_pred(b, prev_updated, local_known)),
            ),
            Pred::Not(a) => Pred::Not(Box::new(self.subst_pred(a, prev_updated, local_known))),
        }
    }
}

fn contains_update(stmts: &[Statement]) -> bool {
    stmts.iter().any(|s| match s {
        Statement::Read(_) => false,
        Statement::Update { .. } => true,
        Statement::If { then_branch, else_branch, .. } => {
            contains_update(then_branch) || contains_update(else_branch)
        }
    })
}

fn collect_referenced(stmts: &[Statement], out: &mut VarSet) {
    for s in stmts {
        match s {
            Statement::Read(v) => {
                out.insert(*v);
            }
            Statement::Update { expr, .. } => out.extend_from(&expr.vars()),
            Statement::If { cond, then_branch, else_branch } => {
                out.extend_from(&cond.vars());
                collect_referenced(then_branch, out);
                collect_referenced(else_branch, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::{rewrite, FixMode, RewriteAlgorithm};
    use histmerge_history::readsfrom::affected_set;
    use histmerge_history::SerialHistory;
    use histmerge_semantics::{OracleStack, StaticAnalyzer};
    use histmerge_txn::{DbState, Expr, ProgramBuilder, Transaction, TxnKind};
    use std::sync::Arc;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn inc(arena: &mut TxnArena, name: &str, var: u32, k: i64) -> TxnId {
        let p: Arc<Program> = Arc::new(
            ProgramBuilder::new(name)
                .read(v(var))
                .update(v(var), Expr::var(v(var)) + Expr::konst(k))
                .build()
                .unwrap(),
        );
        arena.alloc(|id| Transaction::new(id, name, TxnKind::Tentative, p, vec![]))
    }

    /// Runs the full pipeline on a history and checks Theorem 5: undo +
    /// URAs equals re-executing the repaired prefix from the initial state.
    fn check_theorem5(
        arena: &TxnArena,
        order: &[TxnId],
        bad: &BTreeSet<TxnId>,
        s0: &DbState,
        alg: RewriteAlgorithm,
    ) -> (Vec<TxnId>, DbState) {
        let h = AugmentedHistory::execute(arena, &SerialHistory::from_order(order.to_vec()), s0)
            .unwrap();
        let oracle = StaticAnalyzer::new();
        let rw = rewrite(arena, &h, bad, alg, FixMode::Lemma1, &oracle);
        let ag = affected_set(arena, &h.order(), bad);
        let pruned = h.initial_state().patched(&undo(arena, &h, &rw, &ag).unwrap());
        let expect = AugmentedHistory::execute(arena, &rw.repaired_history(), s0).unwrap();
        assert_eq!(&pruned, expect.final_state(), "Theorem 5 violated for {}", alg.name());
        (rw.saved(), pruned)
    }

    #[test]
    fn pure_undo_for_algorithm1() {
        // bad writes d0; g reads d0 (affected); h independent.
        let mut arena = TxnArena::new();
        let bad = inc(&mut arena, "bad", 0, 100);
        let g = inc(&mut arena, "g", 0, 10);
        let other = inc(&mut arena, "h", 1, 5);
        let s0: DbState = [(v(0), 0), (v(1), 0)].into_iter().collect();
        let bads: BTreeSet<TxnId> = [bad].into_iter().collect();
        // Algorithm 1 cannot save g (it reads d0 which bad writes), so
        // pruning is pure undo of {bad, g}.
        let (saved, state) =
            check_theorem5(&arena, &[bad, g, other], &bads, &s0, RewriteAlgorithm::CanFollow);
        assert_eq!(saved, vec![other]);
        assert_eq!(state.get(v(0)), 0);
        assert_eq!(state.get(v(1)), 5);
    }

    #[test]
    fn ura_case3_recomputes_on_post_undo_state() {
        // Algorithm 2 saves g (increments commute): after undoing bad,
        // g's URA re-executes d0 := d0 + 10 on the restored d0 = 0.
        let mut arena = TxnArena::new();
        let bad = inc(&mut arena, "bad", 0, 100);
        let g = inc(&mut arena, "g", 0, 10);
        let s0: DbState = [(v(0), 0)].into_iter().collect();
        let bads: BTreeSet<TxnId> = [bad].into_iter().collect();
        let (saved, state) =
            check_theorem5(&arena, &[bad, g], &bads, &s0, RewriteAlgorithm::CanFollowCanPrecede);
        assert_eq!(saved, vec![g]);
        assert_eq!(state.get(v(0)), 10);
    }

    #[test]
    fn ura_case2_reasserts_after_image() {
        // g: d0 += 2 (affected via d0 read from bad1), AND d1 += 1 where d1
        // is written only by the LATER pruned bad2: case 2 re-asserts g's
        // logged after value of d1.
        let mut arena = TxnArena::new();
        let bad1 = inc(&mut arena, "bad1", 0, 100);
        let g = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("g")
                    .read(v(0))
                    .read(v(1))
                    .update(v(0), Expr::var(v(0)) + Expr::konst(2))
                    .update(v(1), Expr::var(v(1)) + Expr::konst(1))
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "g", TxnKind::Tentative, p, vec![]))
        };
        let bad2 = inc(&mut arena, "bad2", 1, 50);
        let s0: DbState = [(v(0), 0), (v(1), 0)].into_iter().collect();
        let bads: BTreeSet<TxnId> = [bad1, bad2].into_iter().collect();
        let (saved, state) = check_theorem5(
            &arena,
            &[bad1, g, bad2],
            &bads,
            &s0,
            RewriteAlgorithm::CanFollowCanPrecede,
        );
        assert_eq!(saved, vec![g]);
        assert_eq!(state.get(v(0)), 2);
        assert_eq!(state.get(v(1)), 1);
    }

    #[test]
    fn ura_case1_drops_surviving_updates() {
        // g increments d0 (affected) and d2; no pruned transaction touches
        // d2, so the URA must NOT touch d2 (whose state value already
        // includes g's increment).
        let mut arena = TxnArena::new();
        let bad = inc(&mut arena, "bad", 0, 100);
        let g = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("g")
                    .read(v(0))
                    .read(v(2))
                    .update(v(0), Expr::var(v(0)) + Expr::konst(2))
                    .update(v(2), Expr::var(v(2)) + Expr::konst(9))
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "g", TxnKind::Tentative, p, vec![]))
        };
        let s0: DbState = [(v(0), 0), (v(2), 0)].into_iter().collect();
        let bads: BTreeSet<TxnId> = [bad].into_iter().collect();
        let h =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([bad, g]), &s0).unwrap();
        let undone: BTreeSet<TxnId> = bads.clone();
        let ura = build_undo_repair(&arena, &h, g, &undone).unwrap().unwrap();
        // Only the d0 statement survives.
        assert!(ura.writeset().contains(v(0)));
        assert!(!ura.writeset().contains(v(2)));
        let (saved, state) =
            check_theorem5(&arena, &[bad, g], &bads, &s0, RewriteAlgorithm::CanFollowCanPrecede);
        assert_eq!(saved, vec![g]);
        assert_eq!(state.get(v(0)), 2);
        assert_eq!(state.get(v(2)), 9);
    }

    #[test]
    fn ura_none_when_untangled() {
        // g is affected only through a read; it writes nothing a pruned
        // transaction wrote — the URA is empty (None).
        let mut arena = TxnArena::new();
        let bad = inc(&mut arena, "bad", 0, 100);
        // g: reads d0 (tainted), writes d1 which nobody else writes.
        // NOTE: such a g is NOT saveable by our oracles (Property 1), so
        // this exercises build_undo_repair directly.
        let g = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("g")
                    .read(v(0))
                    .read(v(1))
                    .update(v(1), Expr::var(v(1)) + Expr::var(v(0)))
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "g", TxnKind::Tentative, p, vec![]))
        };
        let s0: DbState = [(v(0), 0), (v(1), 0)].into_iter().collect();
        let h =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([bad, g]), &s0).unwrap();
        let undone: BTreeSet<TxnId> = [bad].into_iter().collect();
        assert!(build_undo_repair(&arena, &h, g, &undone).unwrap().is_none());
    }

    #[test]
    fn guarded_affected_transaction_repairs() {
        // g: if d0 >= 0 then d0 += 10 — guard reads the tainted item
        // itself... that makes d0 a guard var, so the static analyzer will
        // not save g; exercise the URA directly to check guard binding: the
        // guard reads the post-undo state (d0 written by earlier pruned).
        let mut arena = TxnArena::new();
        let bad = inc(&mut arena, "bad", 0, 100);
        let g = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("g")
                    .read(v(0))
                    .branch(
                        Expr::var(v(0)).ge(Expr::konst(0)),
                        |b| b.update(v(0), Expr::var(v(0)) + Expr::konst(10)),
                        |b| b,
                    )
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "g", TxnKind::Tentative, p, vec![]))
        };
        let s0: DbState = [(v(0), 0)].into_iter().collect();
        let h =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([bad, g]), &s0).unwrap();
        let undone: BTreeSet<TxnId> = [bad].into_iter().collect();
        let ura = build_undo_repair(&arena, &h, g, &undone).unwrap().unwrap();
        // Executing the URA on the post-undo state (d0 = 0) re-runs the
        // guarded increment.
        let post_undo: DbState = [(v(0), 0)].into_iter().collect();
        let out = ura.execute(&[], &post_undo, &histmerge_txn::Fix::empty()).unwrap();
        assert_eq!(out.after.get(v(0)), 10);
    }

    #[test]
    fn operand_bound_to_before_state() {
        // g: d0 := d0 + d3 where d3 is untouched by pruned transactions
        // but modified by a LATER saved transaction. The URA must bind d3
        // to what g originally read, not the current state value.
        let mut arena = TxnArena::new();
        let bad = inc(&mut arena, "bad", 0, 100);
        let g = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("g")
                    .read(v(0))
                    .read(v(3))
                    .update(v(0), Expr::var(v(0)) + Expr::var(v(3)))
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "g", TxnKind::Tentative, p, vec![]))
        };
        let s0: DbState = [(v(0), 0), (v(3), 7)].into_iter().collect();
        let h =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([bad, g]), &s0).unwrap();
        let undone: BTreeSet<TxnId> = [bad].into_iter().collect();
        let ura = build_undo_repair(&arena, &h, g, &undone).unwrap().unwrap();
        // Even if d3 has since changed to 999, the URA uses the logged 7.
        let post_undo: DbState = [(v(0), 0), (v(3), 999)].into_iter().collect();
        let out = ura.execute(&[], &post_undo, &histmerge_txn::Fix::empty()).unwrap();
        assert_eq!(out.after.get(v(0)), 7);
    }

    #[test]
    fn ura_preserves_input_parameters() {
        // Algorithm 3 step 1: "Assign URA_k with the same input parameters
        // and the same values associated with them as AG_k."
        let mut arena = TxnArena::new();
        let bad = inc(&mut arena, "bad", 0, 100);
        let g = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("g")
                    .read(v(0))
                    .update(v(0), Expr::var(v(0)) + Expr::param(0))
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "g", TxnKind::Tentative, p, vec![13]))
        };
        let s0: DbState = [(v(0), 0)].into_iter().collect();
        let bads: BTreeSet<TxnId> = [bad].into_iter().collect();
        let (saved, state) =
            check_theorem5(&arena, &[bad, g], &bads, &s0, RewriteAlgorithm::CanFollowCanPrecede);
        assert_eq!(saved, vec![g]);
        assert_eq!(state.get(v(0)), 13, "the URA re-applied g's +p0 with p0 = 13");
    }

    #[test]
    fn ura_handles_nested_conditionals() {
        // g: if flag > 0 then (if mode > 5 then x += 10 else x += 20) —
        // the guards read items untouched by the pruned transaction, so the
        // URA binds them to logged before values and re-takes the same
        // branch.
        let mut arena = TxnArena::new();
        let bad = inc(&mut arena, "bad", 0, 100); // writes x = d0
        let g = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("g")
                    .read(v(0))
                    .read(v(1)) // flag
                    .read(v(2)) // mode
                    .branch(
                        Expr::var(v(1)).gt(Expr::konst(0)),
                        |b| {
                            b.branch(
                                Expr::var(v(2)).gt(Expr::konst(5)),
                                |c| c.update(v(0), Expr::var(v(0)) + Expr::konst(10)),
                                |c| c.update(v(0), Expr::var(v(0)) + Expr::konst(20)),
                            )
                        },
                        |b| b,
                    )
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "g", TxnKind::Tentative, p, vec![]))
        };
        let s0: DbState = [(v(0), 0), (v(1), 1), (v(2), 9)].into_iter().collect();
        let h =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([bad, g]), &s0).unwrap();
        let undone: BTreeSet<TxnId> = [bad].into_iter().collect();
        let ura = build_undo_repair(&arena, &h, g, &undone).unwrap().unwrap();
        // Execute on the post-undo state; guards bound to flag=1, mode=9.
        let post_undo: DbState = [(v(0), 0), (v(1), -1), (v(2), 0)].into_iter().collect();
        let out = ura.execute(&[], &post_undo, &histmerge_txn::Fix::empty()).unwrap();
        // Even though the CURRENT flag is -1, the URA replays the original
        // branch decision (flag was 1, mode was 9): x += 10.
        assert_eq!(out.after.get(v(0)), 10);
    }

    #[test]
    fn ura_mixes_cases_in_one_transaction() {
        // g updates three items with different Algorithm-3 fates:
        //   d0 — written by an EARLIER pruned txn  → case 3 (recompute);
        //   d1 — written by a LATER pruned txn     → case 2 (after image);
        //   d2 — written by no pruned txn          → case 1 (dropped).
        let mut arena = TxnArena::new();
        let bad1 = inc(&mut arena, "bad1", 0, 100);
        let g = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("g")
                    .read(v(0))
                    .read(v(1))
                    .read(v(2))
                    .update(v(0), Expr::var(v(0)) + Expr::konst(1))
                    .update(v(1), Expr::var(v(1)) + Expr::konst(2))
                    .update(v(2), Expr::var(v(2)) + Expr::konst(3))
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "g", TxnKind::Tentative, p, vec![]))
        };
        let bad2 = inc(&mut arena, "bad2", 1, 50);
        let s0: DbState = [(v(0), 0), (v(1), 0), (v(2), 0)].into_iter().collect();
        let bads: BTreeSet<TxnId> = [bad1, bad2].into_iter().collect();
        let h = AugmentedHistory::execute(&arena, &SerialHistory::from_order([bad1, g, bad2]), &s0)
            .unwrap();
        let ura = build_undo_repair(&arena, &h, g, &bads).unwrap().unwrap();
        assert!(ura.writeset().contains(v(0)), "case 3 kept");
        assert!(ura.writeset().contains(v(1)), "case 2 kept");
        assert!(!ura.writeset().contains(v(2)), "case 1 dropped");
        let (saved, state) = check_theorem5(
            &arena,
            &[bad1, g, bad2],
            &bads,
            &s0,
            RewriteAlgorithm::CanFollowCanPrecede,
        );
        assert_eq!(saved, vec![g]);
        assert_eq!(state.get(v(0)), 1);
        assert_eq!(state.get(v(1)), 2);
        assert_eq!(state.get(v(2)), 3);
    }

    #[test]
    fn paper_h4_undo_repair_narrative() {
        // Section 5.1's own walk-through of the undo approach on H4 =
        // B1 G2 G3 with B = {B1}:
        //   "After B is undone the value of u is unchanged ... The value of
        //    z is unchanged ... The effect of G3 on x is wiped out ...
        //    However x can be repaired by re-executing the corresponding
        //    part of G3's code, that is, x = x + 10, and the cumulative
        //    effect is that of history G2 G3."
        let (u, x, y, z) = (v(0), v(1), v(2), v(3));
        let mut arena = TxnArena::new();
        let b1 = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("B1")
                    .read(u)
                    .read(x)
                    .read(y)
                    .branch(
                        Expr::var(u).gt(Expr::konst(10)),
                        |b| {
                            b.update(x, Expr::var(x) + Expr::konst(100))
                                .update(y, Expr::var(y) - Expr::konst(20))
                        },
                        |b| b,
                    )
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "B1", TxnKind::Tentative, p, vec![]))
        };
        let g2 = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("G2")
                    .read(u)
                    .update(u, Expr::var(u) - Expr::konst(20))
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "G2", TxnKind::Tentative, p, vec![]))
        };
        let g3 = {
            let p: Arc<Program> = Arc::new(
                ProgramBuilder::new("G3")
                    .read(x)
                    .read(z)
                    .update(x, Expr::var(x) + Expr::konst(10))
                    .update(z, Expr::var(z) + Expr::konst(30))
                    .build()
                    .unwrap(),
            );
            arena.alloc(|id| Transaction::new(id, "G3", TxnKind::Tentative, p, vec![]))
        };
        let s0: DbState = [(u, 20), (x, 5), (y, 50), (z, 0)].into_iter().collect();
        let bad: BTreeSet<TxnId> = [b1].into_iter().collect();
        let h = AugmentedHistory::execute(&arena, &SerialHistory::from_order([b1, g2, g3]), &s0)
            .unwrap();
        // Algorithm 2 saves BOTH good transactions (G2 can follow B1; G3
        // can precede B1^{u}).
        let oracle = StaticAnalyzer::new();
        let rw = rewrite(
            &arena,
            &h,
            &bad,
            RewriteAlgorithm::CanFollowCanPrecede,
            FixMode::Lemma1,
            &oracle,
        );
        assert_eq!(rw.saved(), vec![g2, g3]);

        // The URA for G3 (affected: it read x from B1) keeps exactly the
        // x-statement and drops the z-statement.
        let ag = affected_set(&arena, &h.order(), &bad);
        assert_eq!(ag, [g3].into_iter().collect());
        let undone: BTreeSet<TxnId> = [b1].into_iter().collect();
        let ura = build_undo_repair(&arena, &h, g3, &undone).unwrap().unwrap();
        assert!(ura.writeset().contains(x), "x is re-executed");
        assert!(!ura.writeset().contains(z), "z survived the undo untouched");

        // Full undo pruning yields the cumulative effect of G2 G3.
        let pruned = h.initial_state().patched(&undo(&arena, &h, &rw, &ag).unwrap());
        let g2g3 =
            AugmentedHistory::execute(&arena, &SerialHistory::from_order([g2, g3]), &s0).unwrap();
        assert_eq!(&pruned, g2g3.final_state());
        assert_eq!(pruned.get(u), 0); // u unchanged by the undo of B1
        assert_eq!(pruned.get(x), 15); // 5 + 10: B1's +100 gone, G3's +10 repaired
        assert_eq!(pruned.get(y), 50); // B1's -20 undone
        assert_eq!(pruned.get(z), 30); // G3's z-effect survived untouched
    }

    #[test]
    fn rftc_prunes_by_pure_undo() {
        let mut arena = TxnArena::new();
        let bad = inc(&mut arena, "bad", 0, 100);
        let g1 = inc(&mut arena, "g1", 0, 10); // affected
        let g2 = inc(&mut arena, "g2", 1, 5); // clean
        let s0: DbState = [(v(0), 3), (v(1), 4)].into_iter().collect();
        let bads: BTreeSet<TxnId> = [bad].into_iter().collect();
        let h = AugmentedHistory::execute(&arena, &SerialHistory::from_order([bad, g1, g2]), &s0)
            .unwrap();
        let rw = rewrite(
            &arena,
            &h,
            &bads,
            RewriteAlgorithm::ReadsFromClosure,
            FixMode::Lemma1,
            &OracleStack::new(),
        );
        let ag = affected_set(&arena, &h.order(), &bads);
        let pruned = h.initial_state().patched(&undo(&arena, &h, &rw, &ag).unwrap());
        let expect = AugmentedHistory::execute(&arena, &rw.repaired_history(), &s0).unwrap();
        assert_eq!(&pruned, expect.final_state());
        assert_eq!(pruned.get(v(0)), 3);
        assert_eq!(pruned.get(v(1)), 9);
    }

    #[test]
    fn empty_suffix_is_identity() {
        let mut arena = TxnArena::new();
        let g = inc(&mut arena, "g", 0, 1);
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
        let state = h.initial_state().patched(&undo(&arena, &h, &rw, &BTreeSet::new()).unwrap());
        assert_eq!(&state, h.final_state());
    }
}
