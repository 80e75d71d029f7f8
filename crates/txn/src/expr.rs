//! Arithmetic expressions and boolean predicates over data items.
//!
//! Expressions are the `f` in the paper's update statements
//! `x := f(x, y1, ..., yn)`; predicates are the `c` in conditional
//! statements `if c then SS1 else SS2`.
//!
//! # Total semantics
//!
//! Evaluation is **total** over any environment that supplies every
//! referenced variable and parameter: addition, subtraction, and
//! multiplication wrap on overflow, and division/remainder by zero yield
//! `0`. Total semantics keep randomly generated workloads executable in both
//! orders when testing commutativity, at the cost of non-standard corner
//! cases that the canned transaction library never hits.

use std::fmt;
use std::ops;

use crate::error::TxnError;
use crate::value::{Value, VarId, VarSet};

/// An integer expression over data items, transaction parameters, and
/// constants.
///
/// # Example
///
/// ```rust
/// use histmerge_txn::{Expr, VarId};
///
/// let x = VarId::new(0);
/// // x * 2 + p0
/// let e = Expr::var(x) * Expr::konst(2) + Expr::param(0);
/// assert!(e.vars().contains(x));
/// assert_eq!(e.max_param(), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal constant.
    Const(Value),
    /// The current value of a data item (as read by the transaction).
    Var(VarId),
    /// A transaction input parameter, by position.
    Param(usize),
    /// Wrapping addition.
    Add(Box<Expr>, Box<Expr>),
    /// Wrapping subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Wrapping multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Truncated division; division by zero yields `0`.
    Div(Box<Expr>, Box<Expr>),
    /// Remainder; remainder by zero yields `0`.
    Mod(Box<Expr>, Box<Expr>),
    /// Minimum of the two operands.
    Min(Box<Expr>, Box<Expr>),
    /// Maximum of the two operands.
    Max(Box<Expr>, Box<Expr>),
    /// Wrapping negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// A constant expression.
    pub fn konst(v: Value) -> Expr {
        Expr::Const(v)
    }

    /// A data-item read.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// A positional transaction parameter.
    pub fn param(i: usize) -> Expr {
        Expr::Param(i)
    }

    /// Minimum of `self` and `other`.
    pub fn min(self, other: Expr) -> Expr {
        Expr::Min(Box::new(self), Box::new(other))
    }

    /// Maximum of `self` and `other`.
    pub fn max(self, other: Expr) -> Expr {
        Expr::Max(Box::new(self), Box::new(other))
    }

    /// The predicate `self > other`.
    pub fn gt(self, other: Expr) -> Pred {
        Pred::Cmp(CmpOp::Gt, self, other)
    }

    /// The predicate `self >= other`.
    pub fn ge(self, other: Expr) -> Pred {
        Pred::Cmp(CmpOp::Ge, self, other)
    }

    /// The predicate `self < other`.
    pub fn lt(self, other: Expr) -> Pred {
        Pred::Cmp(CmpOp::Lt, self, other)
    }

    /// The predicate `self <= other`.
    pub fn le(self, other: Expr) -> Pred {
        Pred::Cmp(CmpOp::Le, self, other)
    }

    /// The predicate `self == other`.
    pub fn eq_(self, other: Expr) -> Pred {
        Pred::Cmp(CmpOp::Eq, self, other)
    }

    /// The set of data items this expression reads.
    pub fn vars(&self) -> VarSet {
        let mut out = VarSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut VarSet) {
        match self {
            Expr::Const(_) | Expr::Param(_) => {}
            Expr::Var(v) => {
                out.insert(*v);
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Neg(a) => a.collect_vars(out),
        }
    }

    /// The highest parameter index referenced, if any.
    pub fn max_param(&self) -> Option<usize> {
        match self {
            Expr::Const(_) | Expr::Var(_) => None,
            Expr::Param(i) => Some(*i),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => a.max_param().max(b.max_param()),
            Expr::Neg(a) => a.max_param(),
        }
    }

    /// The concrete expression of a template instance: each slot `Var(i)`
    /// becomes `Var(binding[i])` and each `Param(i)` the constant
    /// `params[i]`. Slots and parameters out of range stay as they are.
    pub(crate) fn bound(&self, binding: &[VarId], params: &[Value]) -> Expr {
        let two = |a: &Expr, b: &Expr| {
            (Box::new(a.bound(binding, params)), Box::new(b.bound(binding, params)))
        };
        match self {
            Expr::Const(v) => Expr::Const(*v),
            Expr::Var(slot) => {
                Expr::Var(binding.get(slot.index() as usize).copied().unwrap_or(*slot))
            }
            Expr::Param(i) => params.get(*i).map_or(Expr::Param(*i), |v| Expr::Const(*v)),
            Expr::Add(a, b) => {
                let (a, b) = two(a, b);
                Expr::Add(a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = two(a, b);
                Expr::Sub(a, b)
            }
            Expr::Mul(a, b) => {
                let (a, b) = two(a, b);
                Expr::Mul(a, b)
            }
            Expr::Div(a, b) => {
                let (a, b) = two(a, b);
                Expr::Div(a, b)
            }
            Expr::Mod(a, b) => {
                let (a, b) = two(a, b);
                Expr::Mod(a, b)
            }
            Expr::Min(a, b) => {
                let (a, b) = two(a, b);
                Expr::Min(a, b)
            }
            Expr::Max(a, b) => {
                let (a, b) = two(a, b);
                Expr::Max(a, b)
            }
            Expr::Neg(a) => Expr::Neg(Box::new(a.bound(binding, params))),
        }
    }

    /// Evaluates the expression.
    ///
    /// `lookup` supplies the value of each data item (the interpreter passes
    /// a closure that consults the fix before the local read environment).
    ///
    /// # Errors
    ///
    /// Returns whatever error `lookup` returns, or
    /// [`TxnError::MissingParameter`] for an out-of-range parameter.
    pub fn eval_with(
        &self,
        lookup: &mut dyn FnMut(VarId) -> Result<Value, TxnError>,
        params: &[Value],
    ) -> Result<Value, TxnError> {
        Ok(match self {
            Expr::Const(v) => *v,
            Expr::Var(v) => lookup(*v)?,
            Expr::Param(i) => *params
                .get(*i)
                .ok_or(TxnError::MissingParameter { index: *i, supplied: params.len() })?,
            Expr::Add(a, b) => {
                a.eval_with(lookup, params)?.wrapping_add(b.eval_with(lookup, params)?)
            }
            Expr::Sub(a, b) => {
                a.eval_with(lookup, params)?.wrapping_sub(b.eval_with(lookup, params)?)
            }
            Expr::Mul(a, b) => {
                a.eval_with(lookup, params)?.wrapping_mul(b.eval_with(lookup, params)?)
            }
            Expr::Div(a, b) => {
                let d = b.eval_with(lookup, params)?;
                if d == 0 {
                    0
                } else {
                    a.eval_with(lookup, params)?.wrapping_div(d)
                }
            }
            Expr::Mod(a, b) => {
                let d = b.eval_with(lookup, params)?;
                if d == 0 {
                    0
                } else {
                    a.eval_with(lookup, params)?.wrapping_rem(d)
                }
            }
            Expr::Min(a, b) => a.eval_with(lookup, params)?.min(b.eval_with(lookup, params)?),
            Expr::Max(a, b) => a.eval_with(lookup, params)?.max(b.eval_with(lookup, params)?),
            Expr::Neg(a) => a.eval_with(lookup, params)?.wrapping_neg(),
        })
    }
}

impl ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }
}

impl ops::Div for Expr {
    type Output = Expr;
    /// Truncated division; division by zero evaluates to `0` (total
    /// semantics — see the module docs).
    fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }
}

impl ops::Rem for Expr {
    type Output = Expr;
    /// Remainder; remainder by zero evaluates to `0` (total semantics —
    /// see the module docs).
    fn rem(self, rhs: Expr) -> Expr {
        Expr::Mod(Box::new(self), Box::new(rhs))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Param(i) => write!(f, "p{i}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Mod(a, b) => write!(f, "({a} % {b})"),
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

/// Comparison operators usable in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn apply(self, a: Value, b: Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean predicate over data items and parameters (the guard of a
/// conditional statement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// Always true.
    True,
    /// Comparison of two expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Conjunction of `self` and `other`.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Disjunction of `self` and `other`.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// Negation of `self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// The set of data items this predicate reads.
    pub fn vars(&self) -> VarSet {
        let mut out = VarSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut VarSet) {
        match self {
            Pred::True => {}
            Pred::Cmp(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Pred::Not(a) => a.collect_vars(out),
        }
    }

    /// The highest parameter index referenced, if any.
    pub fn max_param(&self) -> Option<usize> {
        match self {
            Pred::True => None,
            Pred::Cmp(_, a, b) => a.max_param().max(b.max_param()),
            Pred::And(a, b) | Pred::Or(a, b) => a.max_param().max(b.max_param()),
            Pred::Not(a) => a.max_param(),
        }
    }

    /// The concrete predicate of a template instance (see
    /// [`Expr::bound`]).
    pub(crate) fn bound(&self, binding: &[VarId], params: &[Value]) -> Pred {
        match self {
            Pred::True => Pred::True,
            Pred::Cmp(op, a, b) => {
                Pred::Cmp(*op, a.bound(binding, params), b.bound(binding, params))
            }
            Pred::And(a, b) => a.bound(binding, params).and(b.bound(binding, params)),
            Pred::Or(a, b) => a.bound(binding, params).or(b.bound(binding, params)),
            Pred::Not(a) => a.bound(binding, params).not(),
        }
    }

    /// Evaluates the predicate. See [`Expr::eval_with`] for the contract of
    /// `lookup`.
    ///
    /// # Errors
    ///
    /// Propagates errors from `lookup` and out-of-range parameters.
    pub fn eval_with(
        &self,
        lookup: &mut dyn FnMut(VarId) -> Result<Value, TxnError>,
        params: &[Value],
    ) -> Result<bool, TxnError> {
        Ok(match self {
            Pred::True => true,
            Pred::Cmp(op, a, b) => {
                let av = a.eval_with(lookup, params)?;
                let bv = b.eval_with(lookup, params)?;
                op.apply(av, bv)
            }
            Pred::And(a, b) => a.eval_with(lookup, params)? && b.eval_with(lookup, params)?,
            Pred::Or(a, b) => a.eval_with(lookup, params)? || b.eval_with(lookup, params)?,
            Pred::Not(a) => !a.eval_with(lookup, params)?,
        })
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            Pred::And(a, b) => write!(f, "({a} && {b})"),
            Pred::Or(a, b) => write!(f, "({a} || {b})"),
            Pred::Not(a) => write!(f, "!({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn eval(e: &Expr, vals: &[(u32, Value)], params: &[Value]) -> Value {
        let mut lookup = |var: VarId| {
            vals.iter()
                .find(|(i, _)| VarId::new(*i) == var)
                .map(|(_, val)| *val)
                .ok_or(TxnError::MissingVariable { var })
        };
        e.eval_with(&mut lookup, params).unwrap()
    }

    #[test]
    fn arithmetic() {
        let e = Expr::var(v(0)) + Expr::konst(3) * Expr::param(0);
        assert_eq!(eval(&e, &[(0, 10)], &[4]), 22);
        let e = Expr::var(v(0)) - Expr::konst(5);
        assert_eq!(eval(&e, &[(0, 3)], &[]), -2);
        let e = -Expr::konst(7);
        assert_eq!(eval(&e, &[], &[]), -7);
        let e = Expr::konst(7).min(Expr::konst(3)).max(Expr::konst(5));
        assert_eq!(eval(&e, &[], &[]), 5);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let e = Expr::konst(10) / Expr::konst(0);
        assert_eq!(eval(&e, &[], &[]), 0);
        let e = Expr::konst(10) % Expr::konst(0);
        assert_eq!(eval(&e, &[], &[]), 0);
        let e = Expr::konst(10) / Expr::konst(3);
        assert_eq!(eval(&e, &[], &[]), 3);
        let e = Expr::konst(10) % Expr::konst(3);
        assert_eq!(eval(&e, &[], &[]), 1);
    }

    #[test]
    fn overflow_wraps() {
        let e = Expr::konst(Value::MAX) + Expr::konst(1);
        assert_eq!(eval(&e, &[], &[]), Value::MIN);
        let e = Expr::konst(Value::MIN) * Expr::konst(-1);
        assert_eq!(eval(&e, &[], &[]), Value::MIN);
        // MIN / -1 overflows with plain division; wrapping_div defines it.
        let e = Expr::konst(Value::MIN) / Expr::konst(-1);
        assert_eq!(eval(&e, &[], &[]), Value::MIN);
    }

    #[test]
    fn missing_parameter_errors() {
        let e = Expr::param(2);
        let mut lookup = |var: VarId| Err(TxnError::MissingVariable { var });
        let err = e.eval_with(&mut lookup, &[1, 2]).unwrap_err();
        assert_eq!(err, TxnError::MissingParameter { index: 2, supplied: 2 });
    }

    #[test]
    fn vars_and_params_collected() {
        let e = (Expr::var(v(1)) + Expr::var(v(2))).min(Expr::param(3));
        assert_eq!(e.vars(), [v(1), v(2)].into_iter().collect());
        assert_eq!(e.max_param(), Some(3));
        assert_eq!(Expr::konst(1).max_param(), None);
    }

    #[test]
    fn predicates() {
        let p = Expr::var(v(0)).gt(Expr::konst(0)).and(Expr::param(0).le(Expr::konst(5)));
        let mut lookup = |_| Ok(3);
        assert!(p.eval_with(&mut lookup, &[5]).unwrap());
        assert!(!p.eval_with(&mut lookup, &[6]).unwrap());
        assert!(p.clone().not().eval_with(&mut lookup, &[6]).unwrap());
        let q = Expr::konst(1).eq_(Expr::konst(2)).or(Pred::True);
        assert!(q.eval_with(&mut lookup, &[]).unwrap());
        assert_eq!(p.vars(), [v(0)].into_iter().collect());
        assert_eq!(p.max_param(), Some(0));
    }

    #[test]
    fn all_comparisons() {
        for (op, expect) in [
            (CmpOp::Eq, false),
            (CmpOp::Ne, true),
            (CmpOp::Lt, true),
            (CmpOp::Le, true),
            (CmpOp::Gt, false),
            (CmpOp::Ge, false),
        ] {
            assert_eq!(op.apply(1, 2), expect, "{op}");
        }
    }

    #[test]
    fn display_forms() {
        let e = Expr::var(v(0)) + Expr::konst(3);
        assert_eq!(e.to_string(), "(d0 + 3)");
        let p = Expr::var(v(0)).gt(Expr::konst(0));
        assert_eq!(p.to_string(), "d0 > 0");
        assert_eq!(Expr::param(1).to_string(), "p1");
        assert_eq!(Expr::konst(1).min(Expr::konst(2)).to_string(), "min(1, 2)");
    }
}
