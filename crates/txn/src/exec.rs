//! The transaction interpreter.
//!
//! Executes a [`Program`] against a database state with an
//! optional [`Fix`], producing the after state plus an observation record:
//! which items were actually read and written (on the taken path), the
//! values involved, and before/after images for the logging that the undo
//! approach of Section 6.2 depends on.
//!
//! The interpreter keeps its local context and both observation records
//! in [`ItemValues`] maps keyed by the bound item, so a run over a
//! footprint of up to seven items allocates nothing.

use crate::error::TxnError;
use crate::fix::Fix;
use crate::program::{Program, Statement};
use crate::state::{DbState, StateRead};
use crate::value::{ItemValues, Value, VarId, VarSet};

/// The result of executing a program once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// The database state after the transaction committed.
    pub after: DbState,
    /// The values the transaction observed for each item it read, in the
    /// position it executed (fix values for pinned items). This is exactly
    /// the information a fix records (Definition 1).
    pub reads: ItemValues,
    /// The values the transaction wrote.
    pub writes: ItemValues,
    /// Items actually read on the taken path (⊆ static read set).
    pub observed_readset: VarSet,
    /// Items actually written on the taken path (⊆ static write set).
    pub observed_writeset: VarSet,
    /// Before image over the program's static read ∪ write set, straight
    /// from the before state. Algorithm 3 binds operands to
    /// `beforestate.y`; undo restores `writeset` entries from here.
    pub before_image: DbState,
    /// After image over the static read ∪ write set.
    pub after_image: DbState,
}

impl ExecOutcome {
    /// Convenience: the value this execution observed for `var`, if it read
    /// it.
    pub fn read_value(&self, var: VarId) -> Option<Value> {
        self.reads.get(var)
    }

    /// Convenience: the value this execution wrote to `var`, if it wrote it.
    pub fn written_value(&self, var: VarId) -> Option<Value> {
        self.writes.get(var)
    }
}

/// The *delta* of one execution: everything [`execute`] records except the
/// materialized after state and the before/after images.
///
/// Produced by [`execute_view`], which runs against any [`StateRead`] —
/// in particular a copy-on-write
/// [`OverlayState`](crate::OverlayState) — so history execution can apply
/// the writes to an overlay instead of cloning a full state per step.
/// Both records are inline [`ItemValues`] keyed by the bound item: a delta
/// over a footprint of up to seven items holds no heap block, and
/// [`DbState::apply_writes`] and
/// [`OverlayState::apply_writes`](crate::OverlayState::apply_writes) take
/// its writes as they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecDelta {
    /// The values the transaction observed for each item it read.
    pub reads: ItemValues,
    /// The values the transaction wrote.
    pub writes: ItemValues,
    /// Items actually read on the taken path (⊆ static read set).
    pub observed_readset: VarSet,
    /// Items actually written on the taken path (⊆ static write set).
    pub observed_writeset: VarSet,
}

/// Executes `program` against a read-only state view, returning the
/// execution delta. Semantics are identical to [`execute`]; only the
/// output shape differs (no state copies are made).
///
/// # Errors
///
/// Same as [`execute`].
pub fn execute_view(
    program: &Program,
    params: &[Value],
    state: &dyn StateRead,
    fix: &Fix,
) -> Result<ExecDelta, TxnError> {
    execute_bound(program, &[], params, state, fix)
}

/// Executes the template `program` with its item slots bound by
/// `binding`: slot `VarId::new(i)` stands for item `binding[i]` in every
/// read, update target, operand and guard, and every observation is
/// recorded against the bound item. An empty `binding` is the identity,
/// which makes this [`execute_view`].
///
/// # Errors
///
/// Same as [`execute`], plus [`TxnError::UnboundSlot`] if the program
/// uses a slot `binding` does not cover.
pub(crate) fn execute_bound(
    program: &Program,
    binding: &[VarId],
    params: &[Value],
    state: &dyn StateRead,
    fix: &Fix,
) -> Result<ExecDelta, TxnError> {
    let mut interp = Interp {
        env: ItemValues::new(),
        reads: ItemValues::new(),
        writes: ItemValues::new(),
        observed_readset: VarSet::new(),
        observed_writeset: VarSet::new(),
        state,
        fix,
        params,
        binding,
    };
    interp.run_block(program.statements())?;
    Ok(ExecDelta {
        reads: interp.reads,
        writes: interp.writes,
        observed_readset: interp.observed_readset,
        observed_writeset: interp.observed_writeset,
    })
}

/// Executes `program` on `state` with `params` and `fix`.
///
/// Reads of items pinned in `fix` observe the pinned value; all other reads
/// observe `state`. The input state is not modified; the outcome's `after`
/// is a copy with the writes applied.
///
/// # Errors
///
/// * [`TxnError::MissingVariable`] — a read touched an item absent from the
///   state (and not pinned).
/// * [`TxnError::MissingParameter`] — the program references a parameter
///   index `>= params.len()`.
pub fn execute(
    program: &Program,
    params: &[Value],
    state: &DbState,
    fix: &Fix,
) -> Result<ExecOutcome, TxnError> {
    let delta = execute_view(program, params, state, fix)?;
    Ok(materialize(delta, program.footprint(), state))
}

/// Completes a delta into an outcome: the after state, and both images
/// over `footprint` (the executed program's static footprint, bound).
pub(crate) fn materialize(delta: ExecDelta, footprint: &VarSet, state: &DbState) -> ExecOutcome {
    let before_image = state.project(footprint);
    let mut after = state.clone();
    after.apply_writes(&delta.writes);
    let after_image = after.project(footprint);
    ExecOutcome {
        after,
        reads: delta.reads,
        writes: delta.writes,
        observed_readset: delta.observed_readset,
        observed_writeset: delta.observed_writeset,
        before_image,
        after_image,
    }
}

/// The item slot `slot` stands for under `binding` (the identity when
/// `binding` is empty).
pub(crate) fn bind(binding: &[VarId], slot: VarId) -> Result<VarId, TxnError> {
    if binding.is_empty() {
        return Ok(slot);
    }
    binding
        .get(slot.index() as usize)
        .copied()
        .ok_or(TxnError::UnboundSlot { slot, bound: binding.len() })
}

struct Interp<'a> {
    /// Local context: values read or computed so far, by bound item.
    env: ItemValues,
    reads: ItemValues,
    writes: ItemValues,
    observed_readset: VarSet,
    observed_writeset: VarSet,
    state: &'a dyn StateRead,
    fix: &'a Fix,
    params: &'a [Value],
    /// Slot → item (empty: the identity).
    binding: &'a [VarId],
}

impl Interp<'_> {
    fn run_block(&mut self, stmts: &[Statement]) -> Result<(), TxnError> {
        for stmt in stmts {
            match stmt {
                Statement::Read(slot) => self.do_read(bind(self.binding, *slot)?)?,
                Statement::Update { target, expr } => {
                    let target = bind(self.binding, *target)?;
                    let value = self.eval_expr(expr)?;
                    self.env.insert(target, value);
                    self.writes.insert(target, value);
                    self.observed_writeset.insert(target);
                }
                Statement::If { cond, then_branch, else_branch } => {
                    let taken = {
                        let Interp { env, params, binding, .. } = self;
                        let mut lookup = |slot: VarId| {
                            let var = bind(binding, slot)?;
                            env.get(var).ok_or(TxnError::MissingVariable { var })
                        };
                        cond.eval_with(&mut lookup, params)?
                    };
                    if taken {
                        self.run_block(then_branch)?;
                    } else {
                        self.run_block(else_branch)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes a read statement. A repeated read of an item already in the
    /// local context is a no-op: the transaction keeps working with the
    /// value it first obtained (or last computed).
    fn do_read(&mut self, var: VarId) -> Result<(), TxnError> {
        if self.env.contains(var) {
            return Ok(());
        }
        let value = match self.fix.get(var) {
            Some(pinned) => pinned,
            None => self.state.read(var).ok_or(TxnError::MissingVariable { var })?,
        };
        self.env.insert(var, value);
        self.reads.insert(var, value);
        self.observed_readset.insert(var);
        Ok(())
    }

    fn eval_expr(&mut self, expr: &crate::expr::Expr) -> Result<Value, TxnError> {
        let Interp { env, params, binding, .. } = self;
        let mut lookup = |slot: VarId| {
            let var = bind(binding, slot)?;
            env.get(var).ok_or(TxnError::MissingVariable { var })
        };
        expr.eval_with(&mut lookup, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::ProgramBuilder;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    /// B1 from Section 3: if x > 0 then y := y + z + 3.
    fn b1() -> Program {
        ProgramBuilder::new("B1")
            .read(v(0)) // x
            .read(v(1)) // y
            .read(v(2)) // z
            .branch(
                Expr::var(v(0)).gt(Expr::konst(0)),
                |b| b.update(v(1), Expr::var(v(1)) + Expr::var(v(2)) + Expr::konst(3)),
                |b| b,
            )
            .build()
            .unwrap()
    }

    /// G2 from Section 3: x := x - 1.
    fn g2() -> Program {
        ProgramBuilder::new("G2")
            .read(v(0))
            .update(v(0), Expr::var(v(0)) - Expr::konst(1))
            .build()
            .unwrap()
    }

    fn s0() -> DbState {
        // s0 = {x = 1; y = 7; z = 2}
        [(v(0), 1), (v(1), 7), (v(2), 2)].into_iter().collect()
    }

    #[test]
    fn paper_section3_history_h1() {
        // H1 = s0 B1 s1 G2 s2 with s1 = {1, 12, 2}, s2 = {0, 12, 2}.
        let r1 = execute(&b1(), &[], &s0(), &Fix::empty()).unwrap();
        assert_eq!(r1.after.get(v(1)), 12);
        assert_eq!(r1.after.get(v(0)), 1);
        let r2 = execute(&g2(), &[], &r1.after, &Fix::empty()).unwrap();
        assert_eq!(r2.after.get(v(0)), 0);
        assert_eq!(r2.after.get(v(1)), 12);
    }

    #[test]
    fn paper_section3_swap_without_fix_differs() {
        // H2 = s0 G2 s3 B1 s3': B1 now sees x = 0 and skips the update,
        // so the final y differs from H1's 12.
        let r1 = execute(&g2(), &[], &s0(), &Fix::empty()).unwrap();
        let r2 = execute(&b1(), &[], &r1.after, &Fix::empty()).unwrap();
        assert_eq!(r2.after.get(v(1)), 7);
    }

    #[test]
    fn paper_section3_swap_with_fix_restores_final_state() {
        // H3 = s0 G2 s3 B1^{x} s2 with the fix pinning x to 1 (the value B1
        // read in the original history) ends in the original final state s2.
        let r1 = execute(&g2(), &[], &s0(), &Fix::empty()).unwrap();
        let fix: Fix = [(v(0), 1)].into_iter().collect();
        let r2 = execute(&b1(), &[], &r1.after, &fix).unwrap();
        assert_eq!(r2.after.get(v(0)), 0);
        assert_eq!(r2.after.get(v(1)), 12);
        assert_eq!(r2.after.get(v(2)), 2);
    }

    #[test]
    fn observed_sets_follow_taken_path() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .branch(
                Expr::var(v(0)).gt(Expr::konst(0)),
                |b| b.read(v(1)).update(v(1), Expr::var(v(1)) + Expr::konst(1)),
                |b| b.read(v(2)).update(v(2), Expr::var(v(2)) + Expr::konst(1)),
            )
            .build()
            .unwrap();
        let s: DbState = [(v(0), 5), (v(1), 0), (v(2), 0)].into_iter().collect();
        let out = execute(&p, &[], &s, &Fix::empty()).unwrap();
        assert!(out.observed_readset.contains(v(1)));
        assert!(!out.observed_readset.contains(v(2)));
        assert!(out.observed_writeset.contains(v(1)));
        assert!(!out.observed_writeset.contains(v(2)));
        // Static sets still cover both branches.
        assert!(p.readset().contains(v(2)));
    }

    #[test]
    fn reads_record_observed_values() {
        let out = execute(&b1(), &[], &s0(), &Fix::empty()).unwrap();
        assert_eq!(out.read_value(v(0)), Some(1));
        assert_eq!(out.read_value(v(1)), Some(7));
        assert_eq!(out.written_value(v(1)), Some(12));
        assert_eq!(out.written_value(v(0)), None);
    }

    #[test]
    fn fix_read_is_recorded_as_pinned_value() {
        let fix: Fix = [(v(0), 42)].into_iter().collect();
        let out = execute(&g2(), &[], &s0(), &fix).unwrap();
        assert_eq!(out.read_value(v(0)), Some(42));
        assert_eq!(out.after.get(v(0)), 41);
    }

    #[test]
    fn images_cover_static_footprint() {
        let out = execute(&b1(), &[], &s0(), &Fix::empty()).unwrap();
        assert_eq!(out.before_image.len(), 3);
        assert_eq!(out.before_image.get(v(1)), 7);
        assert_eq!(out.after_image.get(v(1)), 12);
    }

    #[test]
    fn missing_variable_errors() {
        let s: DbState = [(v(0), 1)].into_iter().collect();
        let err = execute(&b1(), &[], &s, &Fix::empty()).unwrap_err();
        assert_eq!(err, TxnError::MissingVariable { var: v(1) });
    }

    #[test]
    fn missing_parameter_errors() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .update(v(0), Expr::var(v(0)) + Expr::param(0))
            .build()
            .unwrap();
        let s: DbState = [(v(0), 1)].into_iter().collect();
        let err = execute(&p, &[], &s, &Fix::empty()).unwrap_err();
        assert_eq!(err, TxnError::MissingParameter { index: 0, supplied: 0 });
    }

    #[test]
    fn parameters_are_used() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .update(v(0), Expr::var(v(0)) + Expr::param(1))
            .build()
            .unwrap();
        let s: DbState = [(v(0), 10)].into_iter().collect();
        let out = execute(&p, &[3, 7], &s, &Fix::empty()).unwrap();
        assert_eq!(out.after.get(v(0)), 17);
    }

    #[test]
    fn input_state_is_untouched() {
        let s = s0();
        let _ = execute(&b1(), &[], &s, &Fix::empty()).unwrap();
        assert_eq!(s.get(v(1)), 7);
    }

    #[test]
    fn update_visible_to_later_statements() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .read(v(1))
            .update(v(0), Expr::var(v(0)) + Expr::konst(1))
            .update(v(1), Expr::var(v(0)) * Expr::konst(10))
            .build()
            .unwrap();
        let s: DbState = [(v(0), 1), (v(1), 0)].into_iter().collect();
        let out = execute(&p, &[], &s, &Fix::empty()).unwrap();
        assert_eq!(out.after.get(v(1)), 20);
    }

    #[test]
    fn blind_write_executes() {
        let p = ProgramBuilder::new("blind")
            .allow_blind_writes()
            .read(v(1))
            .update(v(0), Expr::var(v(1)) + Expr::konst(1))
            .build()
            .unwrap();
        let s: DbState = [(v(0), 0), (v(1), 4)].into_iter().collect();
        let out = execute(&p, &[], &s, &Fix::empty()).unwrap();
        assert_eq!(out.after.get(v(0)), 5);
        assert_eq!(out.read_value(v(0)), None);
        assert!(out.observed_writeset.contains(v(0)));
    }

    #[test]
    fn execute_view_matches_execute_through_an_overlay() {
        use crate::state::OverlayState;
        // Run H1 = s0 B1 s1 G2 s2 both ways: clone-per-step via execute(),
        // and through one overlay via execute_view(). Same states, same
        // observations.
        let (b1p, g2p, s) = (b1(), g2(), s0());
        let r1 = execute(&b1p, &[], &s, &Fix::empty()).unwrap();
        let r2 = execute(&g2p, &[], &r1.after, &Fix::empty()).unwrap();

        let mut view = OverlayState::new(&s);
        let d1 = execute_view(&b1p, &[], &view, &Fix::empty()).unwrap();
        assert_eq!(d1.reads, r1.reads);
        assert_eq!(d1.writes, r1.writes);
        assert_eq!(d1.observed_readset, r1.observed_readset);
        assert_eq!(d1.observed_writeset, r1.observed_writeset);
        view.apply_writes(&d1.writes);
        let d2 = execute_view(&g2p, &[], &view, &Fix::empty()).unwrap();
        assert_eq!(d2.writes, r2.writes);
        view.apply_writes(&d2.writes);
        assert_eq!(view.materialize(), r2.after);
    }

    #[test]
    fn reread_after_update_keeps_local_value() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .update(v(0), Expr::var(v(0)) + Expr::konst(5))
            .read(v(0)) // no-op: local context already has d0
            .build()
            .unwrap();
        let s: DbState = [(v(0), 1)].into_iter().collect();
        let out = execute(&p, &[], &s, &Fix::empty()).unwrap();
        assert_eq!(out.after.get(v(0)), 6);
        // The re-read is not recorded as a state read.
        assert_eq!(out.read_value(v(0)), Some(1));
    }
}
