//! Seeded random merge scenarios.
//!
//! A scenario is a tentative history `H_m` and a base history `H_b` over a
//! shared variable space and initial state — exactly the input of the
//! merging protocol. Knobs control the conflict structure:
//!
//! * `hot_fraction` / `hot_prob` — hotspot skew (more contention, more
//!   cycles in the precedence graph);
//! * `commutative_fraction` — share of pure-increment transactions, the
//!   regime where Algorithm 2 and CBTR shine;
//! * `guarded_fraction` — share of conditional transactions (guard reads a
//!   pure-read item), exercising fixes and can-precede;
//! * `read_only_fraction` — share of read-only transactions.
//!
//! Generated transactions never blind-write, matching the paper's
//! rewriting model.
//!
//! Every transaction is an instance of a template of its shape (see
//! [`TxnFactory`]): the items and constants a transaction draws are bound
//! to a program shared by all transactions of that shape, and its name
//! (`Tm12`, `Tb13`) is stored inline, so the stream allocates nothing per
//! transaction once each shape has been drawn.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::BTreeMap;
use std::sync::Arc;

use histmerge_history::{SerialHistory, TxnArena};
use histmerge_txn::{
    DbState, Expr, Program, ProgramBuilder, Transaction, TxnId, TxnKind, TxnName, Value, VarId,
};

/// Parameters of a random merge scenario.
#[derive(Debug, Clone)]
pub struct ScenarioParams {
    /// Number of data items (replicated on every node).
    pub n_vars: u32,
    /// Length of the tentative history.
    pub n_tentative: usize,
    /// Length of the base history.
    pub n_base: usize,
    /// Fraction of transactions that are pure increments (commutative).
    pub commutative_fraction: f64,
    /// Fraction of transactions that are guarded increments.
    pub guarded_fraction: f64,
    /// Fraction of transactions that are read-only.
    pub read_only_fraction: f64,
    /// Extra pure-read items per read-write transaction.
    pub reads_per_txn: usize,
    /// Items written per read-write transaction.
    pub writes_per_txn: usize,
    /// Fraction of the variable space considered "hot".
    pub hot_fraction: f64,
    /// Probability that an item pick lands in the hot set.
    pub hot_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            n_vars: 64,
            n_tentative: 20,
            n_base: 20,
            commutative_fraction: 0.3,
            guarded_fraction: 0.2,
            read_only_fraction: 0.1,
            reads_per_txn: 2,
            writes_per_txn: 2,
            hot_fraction: 0.1,
            hot_prob: 0.5,
            seed: 42,
        }
    }
}

/// A generated merge scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Arena owning all transactions.
    pub arena: TxnArena,
    /// The tentative history.
    pub hm: SerialHistory,
    /// The base history.
    pub hb: SerialHistory,
    /// The shared initial state.
    pub s0: DbState,
}

/// Generates a scenario from `params` (deterministic per seed).
pub fn generate(params: &ScenarioParams) -> Scenario {
    let mut arena = TxnArena::new();
    let mut factory = TxnFactory::new(params.clone());

    let hm: SerialHistory =
        (0..params.n_tentative).map(|_| factory.next_txn(&mut arena, TxnKind::Tentative)).collect();
    let hb: SerialHistory =
        (0..params.n_base).map(|_| factory.next_txn(&mut arena, TxnKind::Base)).collect();
    let s0 = initial_state(params);
    Scenario { arena, hm, hb, s0 }
}

/// The initial state matching [`generate`]: every item starts at 1000, so
/// guards have headroom both ways.
pub fn initial_state(params: &ScenarioParams) -> DbState {
    DbState::uniform(params.n_vars, 1000)
}

/// A streaming transaction generator with the same distribution as
/// [`generate`], for simulators that create transactions on the fly.
///
/// Every transaction is an instance of one of four *shapes* — an
/// increment of `k` items, the guarded increment, a read-only scan of `k`
/// items, a read-write transaction of `r` extra reads and `w` writes.
/// The factory interns one template [`Program`] per shape the first time
/// it draws that shape, and binds each transaction's items and constants
/// to it ([`Transaction::instance`]); the draw buffers are reused, so a
/// transaction costs no heap allocation once its shape has been seen.
#[derive(Debug)]
pub struct TxnFactory {
    params: ScenarioParams,
    rng: StdRng,
    counter: usize,
    templates: BTreeMap<Shape, Arc<Program>>,
    /// The items of the transaction being drawn, in slot order.
    items: Vec<VarId>,
    /// Its constants, in parameter order.
    consts: Vec<Value>,
}

/// A generated transaction's shape: its template up to item and constant
/// choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Shape {
    /// `s_i += p_i` on `k` items.
    Increment(usize),
    /// `if s0 > p0 then s1 += p1 else s1 += p2`.
    Guarded,
    /// Reads `k` items.
    ReadOnly(usize),
    /// Reads `r` extra items `s_0..s_r`, then `s_{r+j} := s_{r+j} (+ s_0)
    /// + p_j` for each of `w` writes.
    ReadWrite(usize, usize),
}

impl Shape {
    /// The template program of the shape, over slots `VarId::new(0..)`
    /// and parameters `p0..`; its statements are the ones the concrete
    /// generator writes, item for slot and constant for parameter.
    fn template(self) -> Program {
        let s = VarId::new;
        let built = match self {
            Shape::Increment(k) => {
                let mut b = ProgramBuilder::new(format!("inc/{k}"));
                for i in 0..k as u32 {
                    b = b.read(s(i));
                }
                for i in 0..k as u32 {
                    b = b.update(s(i), Expr::var(s(i)) + Expr::param(i as usize));
                }
                b.build()
            }
            Shape::Guarded => ProgramBuilder::new("grd")
                .read(s(0))
                .read(s(1))
                .branch(
                    Expr::var(s(0)).gt(Expr::param(0)),
                    |b| b.update(s(1), Expr::var(s(1)) + Expr::param(1)),
                    |b| b.update(s(1), Expr::var(s(1)) + Expr::param(2)),
                )
                .build(),
            Shape::ReadOnly(k) => {
                let mut b = ProgramBuilder::new(format!("ro/{k}"));
                for i in 0..k as u32 {
                    b = b.read(s(i));
                }
                b.build()
            }
            Shape::ReadWrite(r, w) => {
                let mut b = ProgramBuilder::new(format!("rw/{r}/{w}"));
                for i in 0..(r + w) as u32 {
                    b = b.read(s(i));
                }
                for j in 0..w {
                    // v := v + (first extra read, if any) + c — reading
                    // another item makes the transaction genuinely
                    // order-sensitive.
                    let v = s((r + j) as u32);
                    let mut expr = Expr::var(v);
                    if r > 0 {
                        expr = expr + Expr::var(s(0));
                    }
                    b = b.update(v, expr + Expr::param(j));
                }
                b.build()
            }
        };
        built.expect("generated templates are well formed")
    }
}

impl TxnFactory {
    /// Creates a factory seeded from `params.seed`. Builds no template:
    /// each is interned on its shape's first draw.
    pub fn new(params: ScenarioParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed);
        TxnFactory {
            params,
            rng,
            counter: 0,
            templates: BTreeMap::new(),
            items: Vec::new(),
            consts: Vec::new(),
        }
    }

    /// Allocates the next random transaction in `arena`.
    pub fn next_txn(&mut self, arena: &mut TxnArena, kind: TxnKind) -> TxnId {
        self.items.clear();
        self.consts.clear();
        let p = &self.params;
        let roll: f64 = self.rng.gen();
        let shape = if roll < p.commutative_fraction {
            self.increment_txn()
        } else if roll < p.commutative_fraction + p.guarded_fraction {
            self.guarded_txn()
        } else if roll < p.commutative_fraction + p.guarded_fraction + p.read_only_fraction {
            self.read_only_txn()
        } else {
            self.rw_txn()
        };
        self.counter += 1;
        let prefix = if kind == TxnKind::Tentative { "Tm" } else { "Tb" };
        let name = TxnName::numbered(prefix, self.counter as u64);
        let template =
            Arc::clone(self.templates.entry(shape).or_insert_with(|| Arc::new(shape.template())));
        let (items, consts) = (&self.items, &self.consts);
        arena.alloc(|id| {
            Transaction::instance(id, name, kind, template, items, consts)
                .expect("generated bindings fit their template")
        })
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

    /// Appends up to `k` items to `self.items`, each distinct from every
    /// item already there (earlier picks of this transaction are the
    /// exclusions), and returns how many it appended.
    fn pick_distinct(&mut self, k: usize) -> usize {
        let start = self.items.len();
        let mut budget = 10 * (k + 1) * 4;
        while self.items.len() - start < k && budget > 0 {
            budget -= 1;
            let v = self.pick_var();
            if !self.items.contains(&v) {
                self.items.push(v);
            }
        }
        self.items.len() - start
    }

    /// Pure increments: `v += c` on 1..=writes_per_txn items. Commutative
    /// with other increments on any item set.
    fn increment_txn(&mut self) -> Shape {
        let k = self.rng.gen_range(1..=self.params.writes_per_txn.max(1));
        let k = self.pick_distinct(k);
        for _ in 0..k {
            let c: Value = self.rng.gen_range(1..50);
            self.consts.push(c);
        }
        Shape::Increment(k)
    }

    /// Guarded increment: `if g > c then v += c1 else v += c2`, where the
    /// guard item `g` is read-only for this transaction. With a single
    /// item, `v` falls back to `g` itself: both slots bind the one item.
    fn guarded_txn(&mut self) -> Shape {
        let g = self.pick_var();
        self.items.push(g);
        if self.pick_distinct(1) == 0 {
            self.items.push(g);
        }
        let threshold: Value = self.rng.gen_range(500..1500);
        let c1: Value = self.rng.gen_range(1..50);
        let c2: Value = self.rng.gen_range(1..50);
        self.consts.extend([threshold, c1, c2]);
        Shape::Guarded
    }

    /// Read-only: reads 1..=reads_per_txn+1 items.
    fn read_only_txn(&mut self) -> Shape {
        let k = self.rng.gen_range(1..=self.params.reads_per_txn.max(1) + 1);
        Shape::ReadOnly(self.pick_distinct(k))
    }

    /// General read-write: writes depend on reads (non-commutative).
    fn rw_txn(&mut self) -> Shape {
        let w = self.rng.gen_range(1..=self.params.writes_per_txn.max(1));
        let w = self.pick_distinct(w);
        let r = self.rng.gen_range(0..=self.params.reads_per_txn);
        let r = self.pick_distinct(r);
        // Slots list the extra reads first, then the writes.
        self.items.rotate_left(w);
        for _ in 0..w {
            let c: Value = self.rng.gen_range(-20..20);
            self.consts.push(c);
        }
        Shape::ReadWrite(r, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_history::AugmentedHistory;

    #[test]
    fn generation_is_deterministic() {
        let params = ScenarioParams::default();
        let a = generate(&params);
        let b = generate(&params);
        assert_eq!(a.hm.order(), b.hm.order());
        for (x, y) in a.arena.iter().zip(b.arena.iter()) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.readset(), y.readset());
            assert_eq!(x.writeset(), y.writeset());
        }
        let c = generate(&ScenarioParams { seed: 43, ..params });
        let same = a
            .arena
            .iter()
            .zip(c.arena.iter())
            .all(|(x, y)| x.readset() == y.readset() && x.writeset() == y.writeset());
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn histories_have_requested_lengths() {
        let params = ScenarioParams { n_tentative: 7, n_base: 3, ..ScenarioParams::default() };
        let s = generate(&params);
        assert_eq!(s.hm.len(), 7);
        assert_eq!(s.hb.len(), 3);
        assert_eq!(s.arena.len(), 10);
    }

    #[test]
    fn no_blind_writes_generated() {
        let s = generate(&ScenarioParams { n_tentative: 50, n_base: 50, ..Default::default() });
        for txn in s.arena.iter() {
            assert!(!txn.program().has_blind_writes(), "{} blind-writes", txn.name());
        }
    }

    #[test]
    fn both_histories_execute_from_s0() {
        let s = generate(&ScenarioParams::default());
        AugmentedHistory::execute(&s.arena, &s.hm, &s.s0).expect("H_m executes");
        AugmentedHistory::execute(&s.arena, &s.hb, &s.s0).expect("H_b executes");
    }

    #[test]
    fn commutative_only_workload_is_all_increments() {
        let s = generate(&ScenarioParams {
            commutative_fraction: 1.0,
            guarded_fraction: 0.0,
            read_only_fraction: 0.0,
            n_tentative: 30,
            n_base: 0,
            ..Default::default()
        });
        for txn in s.arena.iter() {
            assert_eq!(txn.readset(), txn.writeset(), "{}", txn.name());
        }
    }

    #[test]
    fn read_only_workload_writes_nothing() {
        let s = generate(&ScenarioParams {
            commutative_fraction: 0.0,
            guarded_fraction: 0.0,
            read_only_fraction: 1.0,
            n_tentative: 10,
            n_base: 10,
            ..Default::default()
        });
        for txn in s.arena.iter() {
            assert!(txn.writeset().is_empty());
        }
    }

    #[test]
    fn hotspot_skew_concentrates_conflicts() {
        // With an extreme hotspot, most transactions touch item 0.
        let s = generate(&ScenarioParams {
            hot_fraction: 0.01,
            hot_prob: 1.0,
            n_tentative: 20,
            n_base: 0,
            commutative_fraction: 1.0,
            guarded_fraction: 0.0,
            read_only_fraction: 0.0,
            writes_per_txn: 1,
            ..Default::default()
        });
        let touching_v0 = s.arena.iter().filter(|t| t.readset().contains(VarId::new(0))).count();
        assert_eq!(touching_v0, 20);
    }
}
