//! Back-out strategies: computing the set `B` of undesirable transactions.
//!
//! Protocol step 2 (Section 2.1): when the precedence graph has cycles,
//! compute a set `B` of **tentative** transactions whose removal breaks
//! every cycle (base transactions are durable and may never be backed out).
//! Minimizing `|B|` is NP-complete (it is a constrained feedback vertex set
//! problem), so the paper — following Davidson's ACM TODS 1984 study —
//! relies on heuristics, singling out *breaking two-cycles optimally* as the
//! strategy that "can still achieve good performance".
//!
//! Implemented strategies:
//!
//! * [`ExactMinimum`] — exact minimum-weight back-out set by branch and
//!   bound per cyclic SCC (exponential; bounded by a configurable node
//!   budget, falling back to greedy above it);
//! * [`TwoCycleOptimal`] — Davidson's heuristic: solve the two-cycle layer
//!   optimally (a vertex-cover instance), then break residual cycles
//!   greedily;
//! * [`GreedyScc`] — repeatedly back out the highest-degree tentative
//!   transaction of a cyclic SCC.
//!
//! The strategies work on the graph's node indices: the removed nodes are
//! bits, and one computation reuses its Tarjan arrays across passes, so
//! `B` is the only set built per transaction id.

use std::collections::BTreeSet;
use std::fmt;

use histmerge_txn::TxnId;

use crate::precedence::{Components, NodeSet, PrecedenceGraph, SccScratch};

/// Errors raised by back-out computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackoutError {
    /// A cycle contains no tentative transaction, so it cannot be broken
    /// without violating the durability of base transactions. With a
    /// serializable base history this cannot happen; seeing it means the
    /// inputs were not two histories over a common initial state.
    UnbreakableCycle {
        /// The transactions on the offending strongly connected component.
        scc: Vec<TxnId>,
    },
}

impl fmt::Display for BackoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackoutError::UnbreakableCycle { scc } => {
                write!(f, "cycle through {} base transactions cannot be broken", scc.len())
            }
        }
    }
}

impl std::error::Error for BackoutError {}

/// A strategy for computing the back-out set `B`.
///
/// `weight` assigns each tentative transaction a back-out cost (e.g. 1 for
/// plain counts, or the size of its reads-from closure to model Davidson's
/// weighted variants); strategies prefer low-weight sets.
///
/// Implementations must be `Send + Sync`, so a merger holding one can be
/// shared across threads (the bundled strategies are plain configuration
/// structs).
pub trait BackoutStrategy: Send + Sync {
    /// Computes a set `B` of tentative transactions such that the graph
    /// minus `B` is acyclic.
    ///
    /// # Errors
    ///
    /// Returns [`BackoutError::UnbreakableCycle`] if some cycle contains no
    /// tentative transaction.
    fn compute(
        &self,
        graph: &PrecedenceGraph,
        weight: &dyn Fn(TxnId) -> u64,
    ) -> Result<BTreeSet<TxnId>, BackoutError>;

    /// Human-readable strategy name for experiment reports.
    fn name(&self) -> &'static str;
}

/// The natural back-out weight: `1 + |AG({t})|`, i.e. backing out `t`
/// costs `t` itself plus every transaction in its reads-from transitive
/// closure. This is the default weight of the merge pipeline — it makes
/// strategies prefer `B = {Tm3}` over the equally cycle-breaking
/// `B = {Tm2}` in Example 1, because `Tm2`'s closure drags in `Tm3` and
/// `Tm4`.
pub fn affected_weight(
    arena: &crate::TxnArena,
    hm: &crate::SerialHistory,
) -> impl Fn(TxnId) -> u64 + 'static {
    let table = crate::readsfrom::ClosureTable::build(arena, hm);
    move |id: TxnId| table.weight(id)
}

/// One back-out computation: the graph, the nodes removed so far, and
/// the Tarjan arrays its cycle searches reuse.
struct Removal<'g> {
    graph: &'g PrecedenceGraph,
    removed: NodeSet,
    work: SccScratch,
}

impl<'g> Removal<'g> {
    fn new(graph: &'g PrecedenceGraph) -> Self {
        Removal { graph, removed: NodeSet::new(graph.len()), work: SccScratch::default() }
    }

    /// The cyclic SCCs of the graph minus the removed nodes, into `out`.
    fn cyclic_components(&mut self, out: &mut Components) {
        self.graph.cyclic_components(&self.removed, &mut self.work, out);
    }

    /// The transactions of `nodes`.
    fn ids(&self, nodes: &[usize]) -> Vec<TxnId> {
        nodes.iter().map(|&i| self.graph.nodes()[i]).collect()
    }

    /// The back-out set `B`.
    fn into_set(self) -> BTreeSet<TxnId> {
        self.removed.iter().map(|i| self.graph.nodes()[i]).collect()
    }
}

/// Greedy pass: while cycles remain, remove the tentative node with the
/// highest degree-to-weight ratio inside some cyclic SCC. With `within`
/// (an SCC's nodes), only the cycles inside it are broken. `sccs` is
/// working memory.
fn greedy_break(
    removal: &mut Removal<'_>,
    weight: &dyn Fn(TxnId) -> u64,
    within: Option<&[usize]>,
    sccs: &mut Components,
) -> Result<(), BackoutError> {
    let graph = removal.graph;
    loop {
        removal.cyclic_components(sccs);
        let mut cyclic = false;
        // Removals only split SCCs, so each cyclic SCC now lies wholly
        // inside or wholly outside `within`.
        for scc in sccs.iter().filter(|scc| within.is_none_or(|scope| scope.contains(&scc[0]))) {
            cyclic = true;
            // Cheapest back-out first: minimal weight (back-out cost),
            // ties broken by highest degree (more cycles covered), then by
            // id for determinism.
            let pick = scc.iter().copied().filter(|&i| graph.is_tentative(i)).min_by_key(|&i| {
                let id = graph.nodes()[i];
                let d = graph.degree_without_nodes(i, &removal.removed);
                (weight(id).max(1), usize::MAX - d, id)
            });
            match pick {
                Some(i) => removal.removed.insert(i),
                None => return Err(BackoutError::UnbreakableCycle { scc: removal.ids(scc) }),
            }
        }
        if !cyclic {
            return Ok(());
        }
    }
}

/// Exact minimum-weight back-out per cyclic SCC via branch and bound.
///
/// Complexity is exponential in the number of tentative nodes of each
/// cyclic SCC; above [`ExactMinimum::node_budget`] the strategy falls back
/// to the greedy heuristic for that SCC. Used as the quality yardstick in
/// the back-out experiments (E7).
#[derive(Debug, Clone)]
pub struct ExactMinimum {
    /// Maximum tentative nodes per SCC attempted exactly.
    pub node_budget: usize,
}

impl Default for ExactMinimum {
    fn default() -> Self {
        ExactMinimum { node_budget: 20 }
    }
}

impl ExactMinimum {
    /// Creates the strategy with the default node budget (20).
    pub fn new() -> Self {
        Self::default()
    }
}

impl BackoutStrategy for ExactMinimum {
    fn compute(
        &self,
        graph: &PrecedenceGraph,
        weight: &dyn Fn(TxnId) -> u64,
    ) -> Result<BTreeSet<TxnId>, BackoutError> {
        let mut removal = Removal::new(graph);
        let (mut sccs, mut inner) = (Components::default(), Components::default());
        // SCCs are independent: a cycle never spans two SCCs. Each is
        // settled on its own, exactly or (above the budget) greedily, so
        // `B` does not depend on the order the SCCs are listed in — which
        // differs between a graph and its conflict slice.
        loop {
            removal.cyclic_components(&mut sccs);
            if sccs.is_empty() {
                return Ok(removal.into_set());
            }
            for scc in sccs.iter() {
                let candidates: Vec<usize> =
                    scc.iter().copied().filter(|&i| graph.is_tentative(i)).collect();
                if candidates.is_empty() {
                    return Err(BackoutError::UnbreakableCycle { scc: removal.ids(scc) });
                }
                if candidates.len() > self.node_budget {
                    greedy_break(&mut removal, weight, Some(scc), &mut inner)?;
                    continue;
                }
                let best = best_subset(graph, scc, &candidates, weight, &removal.removed)
                    .ok_or_else(|| BackoutError::UnbreakableCycle { scc: removal.ids(scc) })?;
                for i in best {
                    removal.removed.insert(i);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "exact-minimum"
    }
}

/// Finds the minimum-weight subset of `candidates` whose removal (on top of
/// `already`) breaks every cycle **within `scc`**. Other strongly connected
/// components are handled independently, so the acyclicity check masks out
/// every node outside this SCC. Enumerates subsets in mask order and keeps
/// a subset only when it beats the best so far on (weight, size), so the
/// first hit of the least weight wins.
fn best_subset(
    graph: &PrecedenceGraph,
    scc: &[usize],
    candidates: &[usize],
    weight: &dyn Fn(TxnId) -> u64,
    already: &NodeSet,
) -> Option<Vec<usize>> {
    let n = candidates.len();
    let mut masked = already.clone();
    for i in (0..graph.len()).filter(|i| !scc.contains(i)) {
        masked.insert(i);
    }
    let weights: Vec<u64> = candidates.iter().map(|&i| weight(graph.nodes()[i]).max(1)).collect();
    let mut best: Option<(u64, usize, u64)> = None;
    // Enumerate all subsets; prune by current best weight.
    for mask in 0u64..(1u64 << n) {
        let size = mask.count_ones() as usize;
        let mut w = 0u64;
        let mut set = masked.clone();
        for (b, &i) in candidates.iter().enumerate() {
            if mask & (1 << b) != 0 {
                w = w.saturating_add(weights[b]);
                set.insert(i);
            }
        }
        if let Some((bw, bs, _)) = best {
            if (w, size) >= (bw, bs) {
                continue;
            }
        }
        if graph.is_acyclic_without_nodes(&set) {
            best = Some((w, size, mask));
        }
    }
    best.map(|(_, _, mask)| members(candidates, mask))
}

/// The entries of `of` whose positions are set in `mask`.
fn members(of: &[usize], mask: u64) -> Vec<usize> {
    of.iter().enumerate().filter(|(b, _)| mask & (1 << b) != 0).map(|(_, &i)| i).collect()
}

/// Davidson's *breaking two-cycles optimally* strategy.
///
/// Two-party conflicts appear in the precedence graph as 2-cycles. The
/// strategy first computes a minimum-weight set of tentative transactions
/// covering every 2-cycle (a vertex-cover instance, solved exactly up to
/// [`TwoCycleOptimal::cover_budget`] nodes, greedily above), then breaks
/// any residual longer cycles greedily.
#[derive(Debug, Clone)]
pub struct TwoCycleOptimal {
    /// Maximum distinct tentative nodes in the 2-cycle layer attempted
    /// exactly.
    pub cover_budget: usize,
}

impl Default for TwoCycleOptimal {
    fn default() -> Self {
        TwoCycleOptimal { cover_budget: 20 }
    }
}

impl TwoCycleOptimal {
    /// Creates the strategy with the default cover budget (20).
    pub fn new() -> Self {
        Self::default()
    }
}

impl BackoutStrategy for TwoCycleOptimal {
    fn compute(
        &self,
        graph: &PrecedenceGraph,
        weight: &dyn Fn(TxnId) -> u64,
    ) -> Result<BTreeSet<TxnId>, BackoutError> {
        let mut removal = Removal::new(graph);
        let mut two_cycles = Vec::new();
        graph.two_cycle_nodes(&removal.removed, &mut two_cycles);

        // Forced picks: a 2-cycle touching a base transaction can only lose
        // its tentative member.
        let mut open_pairs: Vec<(usize, usize)> = Vec::new();
        for (a, b) in two_cycles {
            match (graph.is_tentative(a), graph.is_tentative(b)) {
                (true, true) => open_pairs.push((a, b)),
                (true, false) => removal.removed.insert(a),
                (false, true) => removal.removed.insert(b),
                (false, false) => {
                    return Err(BackoutError::UnbreakableCycle { scc: removal.ids(&[a, b]) });
                }
            }
        }
        // Drop pairs already covered by forced picks.
        let removed = &mut removal.removed;
        open_pairs.retain(|&(a, b)| !removed.contains(a) && !removed.contains(b));

        // Vertex cover over the remaining tentative-tentative 2-cycles,
        // its vertices in transaction-id order.
        let mut vertices: Vec<usize> = open_pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        vertices.sort_unstable_by_key(|&i| graph.nodes()[i]);
        vertices.dedup();
        let weight_of = |i: usize| weight(graph.nodes()[i]).max(1);
        if vertices.len() <= self.cover_budget {
            if let Some(cover) = min_vertex_cover(&vertices, &open_pairs, &weight_of) {
                for i in cover {
                    removed.insert(i);
                }
            }
        } else {
            // Greedy cover: repeatedly take the vertex covering the most
            // open pairs per unit weight.
            let mut pairs = open_pairs.clone();
            while !pairs.is_empty() {
                let pick = vertices
                    .iter()
                    .copied()
                    .filter(|&v| !removed.contains(v))
                    .max_by_key(|&v| {
                        let cover = pairs.iter().filter(|&&(a, b)| a == v || b == v).count();
                        (cover as u64 * 1_000_000) / weight_of(v)
                    })
                    .expect("open pairs imply candidate vertices");
                removed.insert(pick);
                pairs.retain(|&(a, b)| a != pick && b != pick);
            }
        }

        // Residual (longer) cycles: greedy.
        greedy_break(&mut removal, weight, None, &mut Components::default())?;
        Ok(removal.into_set())
    }

    fn name(&self) -> &'static str {
        "two-cycle-optimal"
    }
}

/// Exact minimum-weight vertex cover of `pairs` by subset enumeration
/// over `vertices`, as bit masks: the first mask of the least (weight,
/// size) wins.
fn min_vertex_cover(
    vertices: &[usize],
    pairs: &[(usize, usize)],
    weight: &dyn Fn(usize) -> u64,
) -> Option<Vec<usize>> {
    if pairs.is_empty() {
        return Some(Vec::new());
    }
    let n = vertices.len();
    let bit = |i: usize| 1u64 << vertices.iter().position(|&v| v == i).expect("a pair's vertex");
    let pair_masks: Vec<u64> = pairs.iter().map(|&(a, b)| bit(a) | bit(b)).collect();
    let weights: Vec<u64> = vertices.iter().map(|&v| weight(v)).collect();
    let mut best: Option<(u64, u32, u64)> = None;
    for mask in 0u64..(1u64 << n) {
        if !pair_masks.iter().all(|&pair| mask & pair != 0) {
            continue;
        }
        let w: u64 = (0..n).filter(|b| mask & (1 << b) != 0).map(|b| weights[b]).sum();
        let size = mask.count_ones();
        if best.is_none_or(|(bw, bs, _)| (w, size) < (bw, bs)) {
            best = Some((w, size, mask));
        }
    }
    best.map(|(_, _, mask)| members(vertices, mask))
}

/// Pure greedy strategy: the baseline heuristic.
#[derive(Debug, Clone, Default)]
pub struct GreedyScc;

impl GreedyScc {
    /// Creates the greedy strategy.
    pub fn new() -> Self {
        GreedyScc
    }
}

impl BackoutStrategy for GreedyScc {
    fn compute(
        &self,
        graph: &PrecedenceGraph,
        weight: &dyn Fn(TxnId) -> u64,
    ) -> Result<BTreeSet<TxnId>, BackoutError> {
        let mut removal = Removal::new(graph);
        greedy_break(&mut removal, weight, None, &mut Components::default())?;
        Ok(removal.into_set())
    }

    fn name(&self) -> &'static str {
        "greedy-scc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::example1;
    use crate::precedence::PrecedenceGraph;
    use histmerge_txn::TxnKind;

    fn unit(_: TxnId) -> u64 {
        1
    }

    fn strategies() -> Vec<Box<dyn BackoutStrategy>> {
        vec![
            Box::new(ExactMinimum::new()),
            Box::new(TwoCycleOptimal::new()),
            Box::new(GreedyScc::new()),
        ]
    }

    #[test]
    fn example1_exact_backs_out_only_tm3() {
        let ex = example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        // Under the affected-set weight, backing out Tm3 (closure {Tm4})
        // is cheaper than backing out Tm2 (closure {Tm3, Tm4}).
        let weight = affected_weight(&ex.arena, &ex.hm);
        let b = ExactMinimum::new().compute(&g, &weight).unwrap();
        assert_eq!(b, [ex.m[2]].into_iter().collect(), "B = {{Tm3}} per the paper");
    }

    #[test]
    fn affected_weight_counts_closures() {
        let ex = example1();
        let weight = affected_weight(&ex.arena, &ex.hm);
        assert_eq!(weight(ex.m[0]), 4); // Tm1 taints Tm2, Tm3, Tm4
        assert_eq!(weight(ex.m[1]), 3); // Tm2 taints Tm3, Tm4
        assert_eq!(weight(ex.m[2]), 2); // Tm3 taints Tm4
        assert_eq!(weight(ex.m[3]), 1);
        assert_eq!(weight(ex.b[0]), 1); // base txns default to 1
    }

    #[test]
    fn all_strategies_produce_acyclic_result() {
        let ex = example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        for s in strategies() {
            let b = s.compute(&g, &unit).unwrap();
            assert!(g.is_acyclic_without(&b), "strategy {} left a cycle", s.name());
            for id in &b {
                assert_eq!(
                    g.kind(*id),
                    Some(TxnKind::Tentative),
                    "strategy {} backed out a base transaction",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn exact_is_no_worse_than_heuristics() {
        let ex = example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        let exact = ExactMinimum::new().compute(&g, &unit).unwrap();
        for s in strategies() {
            let b = s.compute(&g, &unit).unwrap();
            assert!(exact.len() <= b.len(), "{} beat exact", s.name());
        }
    }

    #[test]
    fn acyclic_graph_needs_no_backout() {
        let ex = example1();
        // Base history alone is always acyclic.
        let g = PrecedenceGraph::build(&ex.arena, &crate::SerialHistory::new(), &ex.hb);
        for s in strategies() {
            assert!(s.compute(&g, &unit).unwrap().is_empty());
        }
    }

    #[test]
    fn weights_steer_choice() {
        let ex = example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        // Make Tm3 enormously expensive: the exact strategy must find an
        // alternative (backing out Tm2 also breaks the cycle, at the cost
        // of a larger affected set — a quality/cost trade the weighted
        // variant exposes).
        let m3 = ex.m[2];
        let weight = move |id: TxnId| if id == m3 { 1000 } else { 1 };
        let b = ExactMinimum::new().compute(&g, &weight).unwrap();
        assert!(!b.contains(&m3));
        assert!(g.is_acyclic_without(&b));
    }

    #[test]
    fn two_cycle_mixed_pair_forces_tentative() {
        use histmerge_txn::{Expr, ProgramBuilder, Transaction};
        use std::sync::Arc;
        let v0 = histmerge_txn::VarId::new(0);
        let prog = Arc::new(
            ProgramBuilder::new("rw")
                .read(v0)
                .update(v0, Expr::var(v0) + Expr::konst(1))
                .build()
                .unwrap(),
        );
        let mut arena = crate::TxnArena::new();
        let m =
            arena.alloc(|id| Transaction::new(id, "m", TxnKind::Tentative, prog.clone(), vec![]));
        let b = arena.alloc(|id| Transaction::new(id, "b", TxnKind::Base, prog.clone(), vec![]));
        let g = PrecedenceGraph::build(
            &arena,
            &crate::SerialHistory::from_order([m]),
            &crate::SerialHistory::from_order([b]),
        );
        let out = TwoCycleOptimal::new().compute(&g, &unit).unwrap();
        assert_eq!(out, [m].into_iter().collect());
    }

    #[test]
    fn over_budget_scc_leaves_the_others_exact() {
        use histmerge_txn::{Expr, ProgramBuilder, Transaction, VarId};
        use std::sync::Arc;
        let mut arena = crate::TxnArena::new();
        let mut txn = |name: &str, kind: TxnKind, reads: &[u32], writes: &[u32]| {
            let mut b = ProgramBuilder::new(name);
            for r in reads.iter().chain(writes) {
                b = b.read(VarId::new(*r));
            }
            for w in writes {
                b = b.update(VarId::new(*w), Expr::var(VarId::new(*w)) + Expr::konst(1));
            }
            let prog = Arc::new(b.build().unwrap());
            arena.alloc(|id| Transaction::new(id, name, kind, prog, vec![]))
        };
        // SCC A: three tentatives each in a 2-cycle with base `c` on d0.
        let a: Vec<TxnId> =
            (0..3).map(|k| txn(&format!("a{k}"), TxnKind::Tentative, &[], &[0])).collect();
        let c = txn("c", TxnKind::Base, &[], &[0]);
        // SCC B: t1 → t2 ↔ b → t1. Backing out t2 alone breaks it; greedy
        // takes the cheaper t1 first and then still needs t2.
        let t1 = txn("t1", TxnKind::Tentative, &[], &[1, 2]);
        let t2 = txn("t2", TxnKind::Tentative, &[1], &[3]);
        let b = txn("b", TxnKind::Base, &[2], &[3]);
        let weight = move |id: TxnId| if id == t2 { 3 } else { 1 };
        let exact = ExactMinimum { node_budget: 2 };
        let expected: BTreeSet<TxnId> = a.iter().copied().chain([t2]).collect();
        let hb = crate::SerialHistory::from_order([c, b]);
        for hm in [[a[0], a[1], a[2], t1, t2], [t1, t2, a[0], a[1], a[2]]] {
            let g = PrecedenceGraph::build(&arena, &crate::SerialHistory::from_order(hm), &hb);
            assert_eq!(g.cyclic_sccs(&BTreeSet::new()).len(), 2);
            assert_eq!(exact.compute(&g, &weight).unwrap(), expected);
        }
    }

    #[test]
    fn error_display() {
        let e = BackoutError::UnbreakableCycle { scc: vec![TxnId::new(0), TxnId::new(1)] };
        assert!(e.to_string().contains("cannot be broken"));
    }
}
