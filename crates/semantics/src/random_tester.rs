//! Randomized differential detection of semantic relations.
//!
//! Section 5.1's middle option: "For some non-canned systems where codes of
//! transactions are recorded, the can-precede relation can be detected at
//! the time of repair." This back-end does that detection by *differential
//! execution*: run both orders on many random states (and, for
//! can-precede, random fix values) and accept only if every sample agrees.
//!
//! # Probabilistic soundness
//!
//! A `true` answer can in principle be wrong (some untested state could
//! disagree), so this oracle is **not** used to assert the paper's theorems
//! in tests — it models the detection *cost* and detection *power* of
//! repair-time analysis in the experiments, and doubles as the verifier
//! cross-checking the other oracles (whose `true` answers it must never
//! refute).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use histmerge_txn::{DbState, Expr, Fix, Pred, Statement, Transaction, Value, VarSet};

use crate::oracle::SemanticOracle;

/// Differential-execution oracle.
#[derive(Debug, Clone)]
pub struct RandomizedTester {
    /// Number of random samples per query.
    pub samples: usize,
    /// Values are drawn from `[-range, range]`, mixed with constants found
    /// in the programs under test (±1) so guard boundaries get exercised.
    pub range: Value,
    /// RNG seed, for reproducible experiments.
    pub seed: u64,
}

impl Default for RandomizedTester {
    fn default() -> Self {
        RandomizedTester { samples: 64, range: 1_000, seed: 0xC0FFEE }
    }
}

impl RandomizedTester {
    /// Creates a tester with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tester with an explicit sample count and seed.
    pub fn with_config(samples: usize, range: Value, seed: u64) -> Self {
        RandomizedTester { samples, range, seed }
    }

    fn sample_value(&self, rng: &mut StdRng, interesting: &[Value]) -> Value {
        // 50%: uniform; 50%: near an interesting constant.
        if interesting.is_empty() || rng.gen_bool(0.5) {
            rng.gen_range(-self.range..=self.range)
        } else {
            let base = interesting[rng.gen_range(0..interesting.len())];
            base.saturating_add(rng.gen_range(-2..=2))
        }
    }

    fn sample_state(&self, rng: &mut StdRng, vars: &VarSet, interesting: &[Value]) -> DbState {
        vars.iter().map(|v| (v, self.sample_value(rng, interesting))).collect()
    }

    /// Differentially tests `t1^{F} t2  ==  t2 t1^{F}` over random states
    /// and random fix values for `fix_vars`.
    fn orders_agree(&self, t2: &Transaction, t1: &Transaction, fix_vars: &VarSet) -> bool {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let footprint = t1.readset().union(t1.writeset()).union(&t2.readset().union(t2.writeset()));
        let mut interesting = collect_constants(t1);
        interesting.extend(collect_constants(t2));
        for _ in 0..self.samples {
            let state = self.sample_state(&mut rng, &footprint, &interesting);
            let fix: Fix =
                fix_vars.iter().map(|v| (v, self.sample_value(&mut rng, &interesting))).collect();
            // Order A: t1^F then t2.
            let a = t1.execute(&state, &fix).and_then(|o| t2.execute(&o.after, &Fix::empty()));
            // Order B: t2 then t1^F.
            let b = t2.execute(&state, &Fix::empty()).and_then(|o| t1.execute(&o.after, &fix));
            match (a, b) {
                (Ok(a), Ok(b)) if a.after == b.after => {}
                _ => return false,
            }
        }
        true
    }
}

/// Collects every literal constant from a transaction's concrete program
/// and its free parameters, to bias sampling toward guard boundaries.
fn collect_constants(t: &Transaction) -> Vec<Value> {
    let mut out = Vec::new();
    let concrete = t.concrete();
    collect_stmts(concrete.program.statements(), &mut out);
    out.extend(concrete.params.iter().copied());
    out
}

fn collect_stmts(stmts: &[Statement], out: &mut Vec<Value>) {
    for s in stmts {
        match s {
            Statement::Read(_) => {}
            Statement::Update { expr, .. } => collect_expr(expr, out),
            Statement::If { cond, then_branch, else_branch } => {
                collect_pred(cond, out);
                collect_stmts(then_branch, out);
                collect_stmts(else_branch, out);
            }
        }
    }
}

fn collect_expr(e: &Expr, out: &mut Vec<Value>) {
    match e {
        Expr::Const(v) => out.push(*v),
        Expr::Var(_) | Expr::Param(_) => {}
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Mod(a, b)
        | Expr::Min(a, b)
        | Expr::Max(a, b) => {
            collect_expr(a, out);
            collect_expr(b, out);
        }
        Expr::Neg(a) => collect_expr(a, out),
    }
}

fn collect_pred(p: &Pred, out: &mut Vec<Value>) {
    match p {
        Pred::True => {}
        Pred::Cmp(_, a, b) => {
            collect_expr(a, out);
            collect_expr(b, out);
        }
        Pred::And(a, b) | Pred::Or(a, b) => {
            collect_pred(a, out);
            collect_pred(b, out);
        }
        Pred::Not(a) => collect_pred(a, out),
    }
}

impl SemanticOracle for RandomizedTester {
    fn commutes_backward_through(&self, t2: &Transaction, t1: &Transaction) -> bool {
        self.orders_agree(t2, t1, &VarSet::new())
    }

    fn can_precede(&self, t2: &Transaction, t1: &Transaction, fix_vars: &VarSet) -> bool {
        self.orders_agree(t2, t1, fix_vars)
    }

    fn name(&self) -> &'static str {
        "randomized-tester"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{ProgramBuilder, TxnId, TxnKind, VarId};
    use std::sync::Arc;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn txn(p: histmerge_txn::Program) -> Transaction {
        Transaction::new(
            TxnId::new(0),
            p.name().to_string(),
            TxnKind::Tentative,
            Arc::new(p),
            vec![],
        )
    }

    fn h5_t1() -> Transaction {
        txn(ProgramBuilder::new("T1")
            .read(v(0))
            .read(v(1))
            .branch(
                Expr::var(v(1)).gt(Expr::konst(200)),
                |b| b.update(v(0), Expr::var(v(0)) + Expr::konst(100)),
                |b| b.update(v(0), Expr::var(v(0)) * Expr::konst(2)),
            )
            .build()
            .unwrap())
    }

    /// H5's T3, with the else-branch `x := x / 2` replaced by `x := x * 3`:
    /// the paper's division example assumes real arithmetic (`(x*2)/2 = x`
    /// but `(x/2)*2 ≠ x` over integers), so we use a second scale, which
    /// preserves the guard-correlated commutativity the example is about.
    fn h5_t3() -> Transaction {
        txn(ProgramBuilder::new("T3")
            .read(v(0))
            .read(v(1))
            .branch(
                Expr::var(v(1)).gt(Expr::konst(200)),
                |b| b.update(v(0), Expr::var(v(0)) - Expr::konst(10)),
                |b| b.update(v(0), Expr::var(v(0)) * Expr::konst(3)),
            )
            .build()
            .unwrap())
    }

    #[test]
    fn h5_detected_dynamically() {
        // The randomized tester captures what the static analyzer cannot:
        // T3 DOES commute backward through T1 (correlated guards) …
        let tester = RandomizedTester::new();
        assert!(tester.commutes_backward_through(&h5_t3(), &h5_t1()));
        // … but does NOT once T1's read of y is pinned by a fix.
        let fix: VarSet = [v(1)].into_iter().collect();
        assert!(!tester.can_precede(&h5_t3(), &h5_t1(), &fix));
    }

    #[test]
    fn increments_commute_overwrites_do_not() {
        let inc = |k: i64| {
            txn(ProgramBuilder::new("inc")
                .read(v(0))
                .update(v(0), Expr::var(v(0)) + Expr::konst(k))
                .build()
                .unwrap())
        };
        let tester = RandomizedTester::new();
        assert!(tester.commutes_backward_through(&inc(3), &inc(8)));
        let set = |k: i64| {
            txn(ProgramBuilder::new("set")
                .read(v(0))
                .update(v(0), Expr::konst(k) + Expr::konst(0))
                .build()
                .unwrap())
        };
        assert!(!tester.commutes_backward_through(&set(1), &set(2)));
    }

    #[test]
    fn guard_boundary_is_hit() {
        // These two differ only for x exactly equal to 7 — uniform sampling
        // over ±1000 would rarely hit it, constant-biased sampling must.
        let a = txn(ProgramBuilder::new("a")
            .read(v(0))
            .read(v(1))
            .branch(
                Expr::var(v(0)).eq_(Expr::konst(7)),
                |b| b.update(v(1), Expr::var(v(1)) + Expr::konst(1)),
                |b| b,
            )
            .build()
            .unwrap());
        let bump_x = txn(ProgramBuilder::new("b")
            .read(v(0))
            .update(v(0), Expr::var(v(0)) + Expr::konst(1))
            .build()
            .unwrap());
        let tester = RandomizedTester::new();
        assert!(!tester.commutes_backward_through(&a, &bump_x));
    }

    #[test]
    fn deterministic_across_runs() {
        let tester1 = RandomizedTester::with_config(32, 100, 42);
        let tester2 = RandomizedTester::with_config(32, 100, 42);
        let r1 = tester1.commutes_backward_through(&h5_t3(), &h5_t1());
        let r2 = tester2.commutes_backward_through(&h5_t3(), &h5_t1());
        assert_eq!(r1, r2);
    }
}
