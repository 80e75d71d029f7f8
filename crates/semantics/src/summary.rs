//! Static program summaries used by the [`StaticAnalyzer`].
//!
//! A summary reduces each update statement to an *operation class* over its
//! target item, together with the guard variables dominating it and the
//! non-target operand variables it reads. Operation classes are chosen so
//! that class-level commutativity is decidable:
//!
//! * two increments of the same item commute (addition is commutative and
//!   associative);
//! * two scalings commute (multiplication likewise);
//! * two `min`-caps commute, as do two `max`-floors;
//! * everything else is [`OpClass::Other`], for which the analyzer stays
//!   conservative.
//!
//! [`StaticAnalyzer`]: crate::StaticAnalyzer

use histmerge_txn::{Expr, Statement, Transaction, Value, VarId, VarSet};

/// Classification of a single update statement's effect on its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpClass {
    /// `x := x + e` (or `x := x - e`): increment by an amount independent
    /// of `x`.
    Increment,
    /// `x := x * e`: scale by a factor independent of `x`.
    Scale,
    /// `x := min(x, e)`: cap at a bound independent of `x`.
    MinCap,
    /// `x := max(x, e)`: floor at a bound independent of `x`.
    MaxFloor,
    /// `x := e` where `e` does not reference `x`: overwrite.
    Overwrite,
    /// Anything else (e.g. `x := x * x`).
    Other,
}

impl OpClass {
    /// Returns `true` if two updates of these classes on the same item
    /// commute regardless of their amounts.
    ///
    /// Only same-class pairs within {Increment, Scale, MinCap, MaxFloor}
    /// commute unconditionally; overwrites commute with nothing (not even
    /// other overwrites, whose order picks the surviving value).
    pub fn commutes_with(&self, other: &OpClass) -> bool {
        use OpClass::*;
        matches!(
            (self, other),
            (Increment, Increment) | (Scale, Scale) | (MinCap, MinCap) | (MaxFloor, MaxFloor)
        )
    }
}

/// Summary of one update statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateSummary {
    /// The item written.
    pub target: VarId,
    /// The effect class.
    pub op: OpClass,
    /// Variables appearing in guards that dominate this update.
    pub guard_vars: VarSet,
    /// Non-target variables the update's amount/bound expression reads.
    pub operand_vars: VarSet,
}

/// Summary of a whole transaction: every update on every path, plus the
/// union of all guard variables.
#[derive(Debug, Clone, Default)]
pub struct TxnSummary {
    /// One entry per update statement (all paths).
    pub updates: Vec<UpdateSummary>,
    /// Union of variables read by any guard in the program.
    pub all_guard_vars: VarSet,
}

impl TxnSummary {
    /// Builds the summary of a transaction's concrete program
    /// ([`Transaction::concrete`]), so an instance whose binding aliases
    /// two slots summarizes as the program written out with one item.
    pub fn of(txn: &Transaction) -> TxnSummary {
        let mut summary = TxnSummary::default();
        let concrete = txn.concrete();
        collect(concrete.program.statements(), &VarSet::new(), concrete.params, &mut summary);
        summary
    }

    /// All update summaries targeting `var`.
    pub fn updates_of(&self, var: VarId) -> impl Iterator<Item = &UpdateSummary> + '_ {
        self.updates.iter().filter(move |u| u.target == var)
    }

    /// Union of operand variables across all updates targeting `var`.
    pub fn operands_of(&self, var: VarId) -> VarSet {
        let mut out = VarSet::new();
        for u in self.updates_of(var) {
            out.extend_from(&u.operand_vars);
        }
        out
    }
}

fn collect(stmts: &[Statement], guards: &VarSet, params: &[Value], out: &mut TxnSummary) {
    for stmt in stmts {
        match stmt {
            Statement::Read(_) => {}
            Statement::Update { target, expr } => {
                let op = classify(*target, expr);
                let mut operand_vars = expr.vars();
                operand_vars.remove(*target);
                out.updates.push(UpdateSummary {
                    target: *target,
                    op,
                    guard_vars: guards.clone(),
                    operand_vars,
                });
                // `params` reserved for future constant folding of amounts.
                let _ = params;
            }
            Statement::If { cond, then_branch, else_branch } => {
                let cond_vars = cond.vars();
                out.all_guard_vars.extend_from(&cond_vars);
                let inner = guards.union(&cond_vars);
                collect(then_branch, &inner, params, out);
                collect(else_branch, &inner, params, out);
            }
        }
    }
}

/// Classifies `target := expr`.
fn classify(target: VarId, expr: &Expr) -> OpClass {
    if !expr.vars().contains(target) {
        return OpClass::Overwrite;
    }
    match expr {
        // x + e / e + x with e independent of x.
        Expr::Add(a, b) => match (is_var(a, target), is_var(b, target)) {
            (true, false) if !b.vars().contains(target) => OpClass::Increment,
            (false, true) if !a.vars().contains(target) => OpClass::Increment,
            _ => OpClass::Other,
        },
        // x - e with e independent of x.
        Expr::Sub(a, b) if is_var(a, target) && !b.vars().contains(target) => OpClass::Increment,
        // x * e / e * x.
        Expr::Mul(a, b) => match (is_var(a, target), is_var(b, target)) {
            (true, false) if !b.vars().contains(target) => OpClass::Scale,
            (false, true) if !a.vars().contains(target) => OpClass::Scale,
            _ => OpClass::Other,
        },
        Expr::Min(a, b) => match (is_var(a, target), is_var(b, target)) {
            (true, false) if !b.vars().contains(target) => OpClass::MinCap,
            (false, true) if !a.vars().contains(target) => OpClass::MinCap,
            _ => OpClass::Other,
        },
        Expr::Max(a, b) => match (is_var(a, target), is_var(b, target)) {
            (true, false) if !b.vars().contains(target) => OpClass::MaxFloor,
            (false, true) if !a.vars().contains(target) => OpClass::MaxFloor,
            _ => OpClass::Other,
        },
        _ => OpClass::Other,
    }
}

fn is_var(e: &Expr, v: VarId) -> bool {
    matches!(e, Expr::Var(x) if *x == v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{ProgramBuilder, TxnId, TxnKind};
    use std::sync::Arc;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn summarize(build: impl FnOnce(ProgramBuilder) -> ProgramBuilder) -> TxnSummary {
        let p = build(ProgramBuilder::new("t")).build().unwrap();
        let t = Transaction::new(TxnId::new(0), "t", TxnKind::Tentative, Arc::new(p), vec![]);
        TxnSummary::of(&t)
    }

    #[test]
    fn classify_increment_forms() {
        let s = summarize(|b| {
            b.read(v(0))
                .read(v(1))
                .update(v(0), Expr::var(v(0)) + Expr::param(0))
                .update(v(1), Expr::konst(5) + Expr::var(v(1)))
        });
        assert_eq!(s.updates[0].op, OpClass::Increment);
        assert_eq!(s.updates[1].op, OpClass::Increment);
    }

    #[test]
    fn classify_subtract_is_increment() {
        let s = summarize(|b| b.read(v(0)).update(v(0), Expr::var(v(0)) - Expr::konst(3)));
        assert_eq!(s.updates[0].op, OpClass::Increment);
    }

    #[test]
    fn classify_scale_min_max() {
        let s = summarize(|b| {
            b.read(v(0))
                .read(v(1))
                .read(v(2))
                .update(v(0), Expr::var(v(0)) * Expr::konst(2))
                .update(v(1), Expr::var(v(1)).min(Expr::konst(10)))
                .update(v(2), Expr::var(v(2)).max(Expr::konst(0)))
        });
        assert_eq!(s.updates[0].op, OpClass::Scale);
        assert_eq!(s.updates[1].op, OpClass::MinCap);
        assert_eq!(s.updates[2].op, OpClass::MaxFloor);
    }

    #[test]
    fn classify_overwrite_and_other() {
        let s = summarize(|b| {
            b.read(v(0))
                .read(v(1))
                .update(v(0), Expr::var(v(1)) + Expr::konst(1)) // no self-reference
                .update(v(1), Expr::var(v(1)) * Expr::var(v(1))) // x*x
        });
        assert_eq!(s.updates[0].op, OpClass::Overwrite);
        assert_eq!(s.updates[1].op, OpClass::Other);
    }

    #[test]
    fn classify_sub_from_const_is_other() {
        // x := 10 - x depends on x but is not an increment.
        let s = summarize(|b| b.read(v(0)).update(v(0), Expr::konst(10) - Expr::var(v(0))));
        assert_eq!(s.updates[0].op, OpClass::Other);
    }

    #[test]
    fn guards_and_operands_recorded() {
        let s = summarize(|b| {
            b.read(v(0)).read(v(1)).read(v(2)).branch(
                Expr::var(v(2)).gt(Expr::konst(0)),
                |t| t.update(v(0), Expr::var(v(0)) + Expr::var(v(1))),
                |t| t,
            )
        });
        let u = &s.updates[0];
        assert_eq!(u.guard_vars, [v(2)].into_iter().collect());
        assert_eq!(u.operand_vars, [v(1)].into_iter().collect());
        assert_eq!(s.all_guard_vars, [v(2)].into_iter().collect());
        assert_eq!(s.operands_of(v(0)), [v(1)].into_iter().collect());
        assert_eq!(s.updates_of(v(0)).count(), 1);
        assert_eq!(s.updates_of(v(5)).count(), 0);
    }

    #[test]
    fn nested_guards_accumulate() {
        let s = summarize(|b| {
            b.read(v(0)).read(v(1)).read(v(2)).branch(
                Expr::var(v(1)).gt(Expr::konst(0)),
                |t| {
                    t.branch(
                        Expr::var(v(2)).lt(Expr::konst(5)),
                        |u| u.update(v(0), Expr::var(v(0)) + Expr::konst(1)),
                        |u| u,
                    )
                },
                |t| t,
            )
        });
        assert_eq!(s.updates[0].guard_vars, [v(1), v(2)].into_iter().collect());
    }

    #[test]
    fn op_class_commutation_table() {
        use OpClass::*;
        assert!(Increment.commutes_with(&Increment));
        assert!(Scale.commutes_with(&Scale));
        assert!(MinCap.commutes_with(&MinCap));
        assert!(MaxFloor.commutes_with(&MaxFloor));
        assert!(!Increment.commutes_with(&Scale));
        assert!(!MinCap.commutes_with(&MaxFloor));
        assert!(!Overwrite.commutes_with(&Overwrite));
        assert!(!Other.commutes_with(&Other));
        assert!(!Other.commutes_with(&Increment));
    }
}
