//! The precedence graph `G(H_m, H_b)` of Section 2.1 (after Davidson 1984).
//!
//! Given a tentative history `H_m` and a base history `H_b` that started
//! from the same database state, the graph has one node per transaction and
//! three kinds of edges:
//!
//! 1. `T_i → T_j` for tentative `T_i`, `T_j` with conflicting operations,
//!    `T_i` preceding `T_j` in `H_m`;
//! 2. `T_i → T_j` for base transactions likewise (order in `H_b`);
//! 3. cross edges: `T_m → T_b` if tentative `T_m` read an item that base
//!    `T_b` updated (the tentative read saw the pre-base value, so `T_m`
//!    must serialize before `T_b`), and symmetrically `T_b → T_m`.
//!
//! **Theorem 1**: `G(H_m, H_b)` is acyclic iff `H_m` and `H_b` are
//! serializable, i.e. equivalent to some merged history `H` — which
//! [`PrecedenceGraph::merged_history_without`] then produces by
//! topological sort.

use std::collections::BTreeSet;
use std::fmt;

use histmerge_txn::{TxnId, TxnKind};

use crate::arena::TxnArena;
use crate::footprint::DenseBits;
use crate::schedule::SerialHistory;

/// Why an edge is in the precedence graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Conflicting tentative transactions, ordered by `H_m` (rule 1).
    MobileConflict,
    /// Conflicting base transactions, ordered by `H_b` (rule 2).
    BaseConflict,
    /// A tentative transaction read an item a base transaction updated
    /// (rule 3, `T_m → T_b`).
    MobileReadBase,
    /// A base transaction read an item a tentative transaction updated
    /// (rule 3, `T_b → T_m`).
    BaseReadMobile,
}

impl EdgeKind {
    /// The rule's stable label, as rendered in traces and merge
    /// autopsies.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::MobileConflict => "mobile-conflict",
            EdgeKind::BaseConflict => "base-conflict",
            EdgeKind::MobileReadBase => "mobile-read-base",
            EdgeKind::BaseReadMobile => "base-read-mobile",
        }
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reusable scratch for repeated graph builds: the id → node-index map as
/// a generation-stamped flat vector, so back-to-back merges over one arena
/// stop allocating (and rebalancing) a `BTreeMap` per build.
#[derive(Debug, Clone, Default)]
pub struct GraphScratch {
    /// `TxnId` slot → node index, valid only when the stamp matches the
    /// current generation.
    index: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
}

impl GraphScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        GraphScratch::default()
    }

    /// Starts a new build over an arena with `arena_len` transactions.
    fn begin(&mut self, arena_len: usize) {
        if self.index.len() < arena_len {
            self.index.resize(arena_len, 0);
            self.stamp.resize(arena_len, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation counter wrapped: old stamps could collide, so
            // reset them all once.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 1;
        }
    }

    fn record(&mut self, id: TxnId, node: usize) {
        let slot = id.index() as usize;
        self.index[slot] = node as u32;
        self.stamp[slot] = self.generation;
    }

    fn index_of(&self, id: TxnId) -> usize {
        let slot = id.index() as usize;
        debug_assert_eq!(self.stamp[slot], self.generation, "node present");
        self.index[slot] as usize
    }
}

/// Incrementally maintained rule-2 (base-conflict) edges of one epoch's
/// base history.
///
/// [`PrecedenceGraph::build`] recomputes the `O(|H_b|²)` pairwise base
/// conflicts on every merge, even though within a window `H_b` only ever
/// *grows*. A `BaseEdgeCache` is kept per epoch: appending a suffix of `k`
/// new base transactions costs `O(k · |H_b|)` comparisons once, and every
/// merge in the window (serial or batched) then reads its rule-2 edges —
/// for any prefix of the cached history — in `O(edges)`.
///
/// Edge counts are tracked cumulatively per prefix, so graphs built from
/// the cache report byte-identical edge sets to the from-scratch build.
#[derive(Debug, Clone, Default)]
pub struct BaseEdgeCache {
    txns: Vec<TxnId>,
    /// Conflicting index pairs `(i, j)` with `i < j`, grouped by `j` in
    /// append order (so the pairs among any prefix form a prefix of this
    /// vector).
    pairs: Vec<(usize, usize)>,
    /// `edges_upto[k]` = number of pairs whose later member is `< k`.
    edges_upto: Vec<usize>,
    /// Union of every cached transaction's read∪write bitset — the whole
    /// epoch slice's footprint. A pending history disjoint from this union
    /// cannot draw a single cross edge against *any* cached prefix, which
    /// is the gate for the conflict-free merge fast path.
    footprint: DenseBits,
}

impl BaseEdgeCache {
    /// Creates an empty cache (start of a window).
    pub fn new() -> Self {
        BaseEdgeCache {
            txns: Vec::new(),
            pairs: Vec::new(),
            edges_upto: vec![0],
            footprint: DenseBits::new(),
        }
    }

    /// Number of base transactions cached.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Drops all cached state (window rollover).
    pub fn clear(&mut self) {
        self.txns.clear();
        self.pairs.clear();
        self.edges_upto.clear();
        self.edges_upto.push(0);
        self.footprint.clear();
    }

    /// Appends base transactions, computing their conflicts against every
    /// earlier cached transaction.
    pub fn extend(&mut self, arena: &TxnArena, suffix: impl IntoIterator<Item = TxnId>) {
        for id in suffix {
            let j = self.txns.len();
            self.txns.push(id);
            for (i, &earlier) in self.txns[..j].iter().enumerate() {
                if arena.conflicts(earlier, id) {
                    self.pairs.push((i, j));
                }
            }
            self.edges_upto.push(self.pairs.len());
            self.footprint.union_with(arena.read_bits(id));
            self.footprint.union_with(arena.write_bits(id));
        }
    }

    /// Brings the cache up to date with `hb`, which must extend the cached
    /// prefix (the invariant of an epoch's growing base history).
    pub fn sync(&mut self, arena: &TxnArena, hb: &SerialHistory) {
        debug_assert!(
            hb.iter().take(self.txns.len()).eq(self.txns.iter().copied()),
            "base history is not an extension of the cached prefix"
        );
        let known = self.txns.len();
        let suffix: Vec<TxnId> = hb.iter().skip(known).collect();
        self.extend(arena, suffix);
    }

    /// Number of rule-2 edges among the first `prefix` cached transactions.
    pub fn edge_count(&self, prefix: usize) -> usize {
        self.edges_upto[prefix.min(self.txns.len())]
    }

    /// Union of every cached transaction's read∪write footprint. Only
    /// meaningful for the *full* cached length (prefix unions are not
    /// derivable), so fast-path gates must also check
    /// `cache.len() == hb.len()`.
    pub fn footprint_bits(&self) -> &DenseBits {
        &self.footprint
    }

    /// The conflicting pairs among the first `prefix` transactions, in the
    /// `(i asc, j asc)` order the from-scratch build emits them.
    fn pairs_upto(&self, prefix: usize) -> Vec<(usize, usize)> {
        let mut pairs = self.pairs[..self.edge_count(prefix)].to_vec();
        pairs.sort_unstable();
        pairs
    }
}

/// How a [`PrecedenceGraph`] build obtains the rule-2 (base-conflict)
/// edges.
enum Rule2<'a> {
    /// Pairwise comparison over `H_b` (the from-scratch path).
    Compute,
    /// Read them from a [`BaseEdgeCache`] whose prefix matches `H_b`.
    Cached(&'a BaseEdgeCache),
}

/// The precedence graph over the transactions of `H_m ∪ H_b`.
#[derive(Debug, Clone)]
pub struct PrecedenceGraph {
    /// Node order: `H_m` transactions first, then `H_b` transactions.
    nodes: Vec<TxnId>,
    kinds: Vec<TxnKind>,
    /// Adjacency: `succs[i]` holds the node indices `i` points to, sorted
    /// ascending after the build (membership tests binary-search).
    succs: Vec<Vec<usize>>,
    /// Every edge with its reason, for diagnostics and Figure 1 rendering.
    edges: Vec<(TxnId, TxnId, EdgeKind)>,
}

impl PrecedenceGraph {
    /// Builds the graph from a tentative and a base history over one arena.
    ///
    /// Conflicts are determined from static read/write sets: two
    /// transactions conflict on an item if both access it and at least one
    /// writes it.
    pub fn build(arena: &TxnArena, hm: &SerialHistory, hb: &SerialHistory) -> Self {
        Self::build_inner(arena, hm, hb, Rule2::Compute, &mut GraphScratch::new())
    }

    /// Like [`build`](Self::build), but reusing a caller-held
    /// [`GraphScratch`] across builds (e.g. one merge per window step).
    pub fn build_with_scratch(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        scratch: &mut GraphScratch,
    ) -> Self {
        Self::build_inner(arena, hm, hb, Rule2::Compute, scratch)
    }

    /// Builds the graph like [`build`](Self::build), but takes the rule-2
    /// base-conflict edges from an incrementally maintained
    /// [`BaseEdgeCache`] instead of recomputing the `O(|H_b|²)` pairwise
    /// comparisons. The cache must cover `hb` — i.e. `hb` must equal a
    /// prefix of the cached history.
    ///
    /// The resulting graph is identical to the from-scratch build, edge
    /// order included.
    pub fn build_with_base_cache(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        cache: &BaseEdgeCache,
    ) -> Self {
        Self::build_with_base_cache_scratch(arena, hm, hb, cache, &mut GraphScratch::new())
    }

    /// [`build_with_base_cache`](Self::build_with_base_cache) with a
    /// caller-held [`GraphScratch`].
    pub fn build_with_base_cache_scratch(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        cache: &BaseEdgeCache,
        scratch: &mut GraphScratch,
    ) -> Self {
        assert!(cache.len() >= hb.len(), "base-edge cache is behind the base history");
        debug_assert!(
            hb.iter().eq(cache.txns[..hb.len()].iter().copied()),
            "base-edge cache prefix does not match the base history"
        );
        Self::build_inner(arena, hm, hb, Rule2::Cached(cache), scratch)
    }

    fn build_inner(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        rule2: Rule2,
        scratch: &mut GraphScratch,
    ) -> Self {
        let nodes: Vec<TxnId> = hm.iter().chain(hb.iter()).collect();
        let kinds: Vec<TxnKind> = nodes.iter().map(|id| arena.get(*id).kind()).collect();
        scratch.begin(arena.len());
        for (i, id) in nodes.iter().enumerate() {
            scratch.record(*id, i);
        }
        let index_of = |id: TxnId| scratch.index_of(id);

        let mut graph = PrecedenceGraph {
            succs: vec![Vec::new(); nodes.len()],
            edges: Vec::new(),
            nodes,
            kinds,
        };

        // Rule 1: order of conflicting tentative transactions in H_m.
        // Conflicts are word-wise bitset tests over the arena's interned
        // footprints — identical answers to the VarSet intersections.
        let hm_order: Vec<TxnId> = hm.iter().collect();
        for (i, &ti) in hm_order.iter().enumerate() {
            for &tj in &hm_order[i + 1..] {
                if arena.conflicts(ti, tj) {
                    graph.add_edge(index_of(ti), index_of(tj), EdgeKind::MobileConflict);
                }
            }
        }

        // Rule 2: order of conflicting base transactions in H_b.
        let hb_order: Vec<TxnId> = hb.iter().collect();
        let base_offset = hm_order.len();
        match rule2 {
            Rule2::Compute => {
                for (i, &ti) in hb_order.iter().enumerate() {
                    for &tj in &hb_order[i + 1..] {
                        if arena.conflicts(ti, tj) {
                            graph.add_edge(index_of(ti), index_of(tj), EdgeKind::BaseConflict);
                        }
                    }
                }
            }
            Rule2::Cached(cache) => {
                for (i, j) in cache.pairs_upto(hb_order.len()) {
                    graph.add_edge(base_offset + i, base_offset + j, EdgeKind::BaseConflict);
                }
            }
        }

        // Rule 3: cross edges. Both histories started from the same state,
        // so a tentative read of an item some base transaction wrote must
        // have observed the pre-base value (and vice versa).
        for &tm in &hm_order {
            for &tb in &hb_order {
                if arena.reads_overlap_writes(tm, tb) {
                    graph.add_edge(index_of(tm), index_of(tb), EdgeKind::MobileReadBase);
                }
                if arena.reads_overlap_writes(tb, tm) {
                    graph.add_edge(index_of(tb), index_of(tm), EdgeKind::BaseReadMobile);
                }
            }
        }

        // Sort adjacency ascending (rule-3 targets arrive out of order for
        // base nodes) so membership binary-searches and iteration matches
        // the former BTreeSet order.
        for succs in &mut graph.succs {
            succs.sort_unstable();
        }

        graph
    }

    fn add_edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.edges.push((self.nodes[from], self.nodes[to], kind));
        }
    }

    /// The transactions in the graph (tentative first, then base).
    pub fn nodes(&self) -> &[TxnId] {
        &self.nodes
    }

    /// Every edge as `(from, to, kind)`, in insertion order.
    pub fn edges(&self) -> &[(TxnId, TxnId, EdgeKind)] {
        &self.edges
    }

    /// Returns `true` if there is an edge `from → to`.
    pub fn has_edge(&self, from: TxnId, to: TxnId) -> bool {
        match (self.index(from), self.index(to)) {
            (Some(f), Some(t)) => self.succs[f].binary_search(&t).is_ok(),
            _ => false,
        }
    }

    /// The node index of `id`, if present.
    fn index(&self, id: TxnId) -> Option<usize> {
        self.nodes.iter().position(|n| *n == id)
    }

    /// The kind (base/tentative) of a node.
    pub fn kind(&self, id: TxnId) -> Option<TxnKind> {
        self.index(id).map(|i| self.kinds[i])
    }

    /// Returns `true` if the graph is acyclic, ignoring nodes in `removed`.
    ///
    /// By Theorem 1, acyclicity means the two histories are serializable
    /// into one merged history.
    pub fn is_acyclic_without(&self, removed: &BTreeSet<TxnId>) -> bool {
        self.topo_order_without(removed).is_some()
    }

    /// Returns `true` if the full graph is acyclic (Theorem 1).
    pub fn is_acyclic(&self) -> bool {
        self.is_acyclic_without(&BTreeSet::new())
    }

    /// Kahn topological sort over the nodes not in `removed`; `None` if the
    /// remaining graph has a cycle. Ties are broken by preferring **base**
    /// transactions, then lower node index — so merged histories
    /// deterministically front-load the durable base history where the
    /// graph allows, matching the paper's `H = Tb1 Tb2 Tm1 Tm2` in
    /// Example 1.
    fn topo_order_without(&self, removed: &BTreeSet<TxnId>) -> Option<Vec<TxnId>> {
        let n = self.nodes.len();
        let alive: Vec<bool> = self.nodes.iter().map(|id| !removed.contains(id)).collect();
        let mut indegree = vec![0usize; n];
        for (from, succs) in self.succs.iter().enumerate() {
            if !alive[from] {
                continue;
            }
            for &to in succs {
                if alive[to] {
                    indegree[to] += 1;
                }
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut emitted = vec![false; n];
        let alive_count = alive.iter().filter(|a| **a).count();
        loop {
            // Deterministic tie-break: base nodes first, then lowest index.
            let next = (0..n)
                .filter(|&i| alive[i] && !emitted[i] && indegree[i] == 0)
                .min_by_key(|&i| (self.kinds[i] != TxnKind::Base, i));
            let Some(i) = next else { break };
            emitted[i] = true;
            order.push(self.nodes[i]);
            for &to in &self.succs[i] {
                if alive[to] && !emitted[to] {
                    indegree[to] -= 1;
                }
            }
        }
        (order.len() == alive_count).then_some(order)
    }

    /// If the graph (minus `removed`) is acyclic, returns an equivalent
    /// merged serial history over the remaining transactions (Theorem 1).
    pub fn merged_history_without(&self, removed: &BTreeSet<TxnId>) -> Option<SerialHistory> {
        self.topo_order_without(removed).map(SerialHistory::from_order)
    }

    /// The strongly connected components with more than one node, or with a
    /// self-loop — i.e. the components containing cycles. Nodes in
    /// `removed` are ignored.
    pub fn cyclic_sccs(&self, removed: &BTreeSet<TxnId>) -> Vec<Vec<TxnId>> {
        let sccs = self.tarjan_sccs(removed);
        sccs.into_iter()
            .filter(|scc| {
                scc.len() > 1 || {
                    let i = self.index(scc[0]).expect("scc node");
                    self.succs[i].binary_search(&i).is_ok()
                }
            })
            .collect()
    }

    /// All 2-cycles `(a, b)` (edges both ways) among non-removed nodes,
    /// with `a < b` by node order. Davidson's simulations found most
    /// conflicts appear as 2-cycles, motivating the two-cycle-optimal
    /// back-out strategy.
    pub fn two_cycles(&self, removed: &BTreeSet<TxnId>) -> Vec<(TxnId, TxnId)> {
        let mut out = Vec::new();
        for (i, succs) in self.succs.iter().enumerate() {
            if removed.contains(&self.nodes[i]) {
                continue;
            }
            for &j in succs {
                if j > i
                    && !removed.contains(&self.nodes[j])
                    && self.succs[j].binary_search(&i).is_ok()
                {
                    out.push((self.nodes[i], self.nodes[j]));
                }
            }
        }
        out
    }

    /// Tarjan's strongly-connected-components algorithm (iterative), over
    /// nodes not in `removed`.
    fn tarjan_sccs(&self, removed: &BTreeSet<TxnId>) -> Vec<Vec<TxnId>> {
        let n = self.nodes.len();
        let alive: Vec<bool> = self.nodes.iter().map(|id| !removed.contains(id)).collect();
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<TxnId>> = Vec::new();

        // Explicit DFS stack: (node, iterator position over succs).
        for start in 0..n {
            if !alive[start] || index[start] != usize::MAX {
                continue;
            }
            let mut call_stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
            let succs_of = |v: usize| -> Vec<usize> {
                self.succs[v].iter().copied().filter(|&w| alive[w]).collect()
            };
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            call_stack.push((start, succs_of(start), 0));

            while let Some((v, succs, pos)) = call_stack.last_mut() {
                if *pos < succs.len() {
                    let w = succs[*pos];
                    *pos += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push((w, succs_of(w), 0));
                    } else if on_stack[w] {
                        let v = *v;
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    let v = *v;
                    call_stack.pop();
                    if let Some((parent, _, _)) = call_stack.last() {
                        lowlink[*parent] = lowlink[*parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            scc.push(self.nodes[w]);
                            if w == v {
                                break;
                            }
                        }
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }

    /// Out-degree plus in-degree of a node, counting only edges between
    /// non-removed nodes. Used by greedy back-out strategies.
    pub fn degree_without(&self, id: TxnId, removed: &BTreeSet<TxnId>) -> usize {
        let Some(i) = self.index(id) else { return 0 };
        if removed.contains(&id) {
            return 0;
        }
        let out = self.succs[i].iter().filter(|&&j| !removed.contains(&self.nodes[j])).count();
        let inn = self
            .succs
            .iter()
            .enumerate()
            .filter(|(j, succs)| {
                !removed.contains(&self.nodes[*j]) && succs.binary_search(&i).is_ok()
            })
            .count();
        out + inn
    }
}

impl fmt::Display for PrecedenceGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "precedence graph: {} nodes, {} edges", self.nodes.len(), self.edges.len())?;
        for (from, to, kind) in &self.edges {
            writeln!(f, "  {from} -> {to}  [{kind}]")?;
        }
        Ok(())
    }
}

/// The number of rule-1 edges of `G(H_m, H_b)`: pairs `T_i`, `T_j` of
/// conflicting tentative transactions with `T_i` before `T_j` in `hm`.
/// Rule 1 does not look at `H_b`, so this equals the edge count of
/// `PrecedenceGraph::build(arena, hm, ∅)` without building the graph.
pub fn rule1_edge_count(arena: &TxnArena, hm: &SerialHistory) -> usize {
    let order = hm.order();
    order
        .iter()
        .enumerate()
        .map(|(i, &ti)| order[i + 1..].iter().filter(|&&tj| arena.conflicts(ti, tj)).count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{Expr, Program, ProgramBuilder, Transaction, VarId, VarSet};
    use std::sync::Arc;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn rw_txn(
        arena: &mut TxnArena,
        name: &str,
        kind: TxnKind,
        reads: &[u32],
        writes: &[u32],
    ) -> TxnId {
        let mut b = ProgramBuilder::new(name);
        let read_set: VarSet = reads.iter().chain(writes.iter()).map(|i| v(*i)).collect();
        for var in read_set.iter() {
            b = b.read(var);
        }
        for w in writes {
            b = b.update(v(*w), Expr::var(v(*w)) + Expr::konst(1));
        }
        let prog: Arc<Program> = Arc::new(b.build().unwrap());
        arena.alloc(|id| Transaction::new(id, name, kind, prog, vec![]))
    }

    #[test]
    fn example1_edges_match_figure1() {
        let ex = crate::fixtures::example1();
        let ([m1, m2, m3, m4], [b1, b2]) = (ex.m, ex.b);
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        // Rule 1 edges within H_m.
        assert!(g.has_edge(m1, m2)); // d2
        assert!(g.has_edge(m2, m3)); // d4, d5, d6
        assert!(g.has_edge(m2, m4)); // d6
        assert!(g.has_edge(m3, m4)); // d6
        assert!(!g.has_edge(m1, m3)); // disjoint footprints
                                      // Rule 2 edge within H_b (both touch d5, Tb1 writes).
        assert!(g.has_edge(b1, b2));
        // Rule 3 cross edges.
        assert!(g.has_edge(b2, m1)); // Tb2 read d1, updated by Tm1
        assert!(g.has_edge(b1, m2)); // Tb1 read d5, updated by Tm2
        assert!(g.has_edge(b2, m2)); // Tb2 read d5, updated by Tm2
        assert!(g.has_edge(m3, b1)); // Tm3 read d5, updated by Tb1
        assert!(!g.has_edge(m2, b1)); // Tm2 never reads d5 (blind write)
                                      // No edge in the reverse tentative order.
        assert!(!g.has_edge(m2, m1));
        assert!(!g.has_edge(m4, m3));
    }

    #[test]
    fn example1_cycle_broken_by_tm3() {
        let ex = crate::fixtures::example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        // "Since the graph has a cycle, conflict exists among the
        // transactions": Tm3 -> Tb1 -> Tm2 -> Tm3.
        assert!(!g.is_acyclic());
        // "after Tm3 and Tm4 are backed out, ... the reconstructed
        // precedence graph is acyclic" — indeed Tm3 alone suffices for
        // acyclicity; Tm4 is backed out as an *affected* transaction.
        let removed: BTreeSet<TxnId> = [ex.m[2]].into_iter().collect();
        assert!(g.is_acyclic_without(&removed));
    }

    #[test]
    fn example1_merged_history_matches_paper() {
        let ex = crate::fixtures::example1();
        let ([m1, m2, m3, m4], [b1, b2]) = (ex.m, ex.b);
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        // Back out B ∪ AG = {Tm3, Tm4}: the merged history is
        // H = Tb1 Tb2 Tm1 Tm2, as stated in Example 1.
        let removed: BTreeSet<TxnId> = [m3, m4].into_iter().collect();
        let merged = g.merged_history_without(&removed).unwrap();
        assert_eq!(merged.order(), &[b1, b2, m1, m2]);
    }

    #[test]
    fn two_cycles_detected() {
        let mut arena = TxnArena::new();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[0]);
        let b = rw_txn(&mut arena, "b", TxnKind::Base, &[0], &[0]);
        let g = PrecedenceGraph::build(
            &arena,
            &SerialHistory::from_order([m]),
            &SerialHistory::from_order([b]),
        );
        assert_eq!(g.two_cycles(&BTreeSet::new()), vec![(m, b)]);
        assert_eq!(g.cyclic_sccs(&BTreeSet::new()).len(), 1);
        let removed: BTreeSet<TxnId> = [m].into_iter().collect();
        assert!(g.two_cycles(&removed).is_empty());
        assert!(g.is_acyclic_without(&removed));
    }

    #[test]
    fn disjoint_histories_are_acyclic() {
        let mut arena = TxnArena::new();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[0]);
        let b = rw_txn(&mut arena, "b", TxnKind::Base, &[1], &[1]);
        let g = PrecedenceGraph::build(
            &arena,
            &SerialHistory::from_order([m]),
            &SerialHistory::from_order([b]),
        );
        assert!(g.is_acyclic());
        assert!(g.edges().is_empty());
        let merged = g.merged_history_without(&BTreeSet::new()).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.order()[0], b, "base preferred in ties");
    }

    #[test]
    fn read_only_cross_edges_are_one_way() {
        let mut arena = TxnArena::new();
        // Tentative reads d0; base writes d0. Only Tm -> Tb.
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[]);
        let b = rw_txn(&mut arena, "b", TxnKind::Base, &[0], &[0]);
        let g = PrecedenceGraph::build(
            &arena,
            &SerialHistory::from_order([m]),
            &SerialHistory::from_order([b]),
        );
        assert!(g.has_edge(m, b));
        assert!(!g.has_edge(b, m));
        assert!(g.is_acyclic());
        assert_eq!(g.edges()[0].2, EdgeKind::MobileReadBase);
        assert_eq!(g.kind(m), Some(TxnKind::Tentative));
    }

    #[test]
    fn degree_counts_both_directions() {
        let ex = crate::fixtures::example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        let none = BTreeSet::new();
        // Tm2: out to Tm3, Tm4; in from Tm1, Tb1, Tb2.
        assert_eq!(g.degree_without(ex.m[1], &none), 5);
        let all: BTreeSet<TxnId> = g.nodes().iter().copied().collect();
        assert_eq!(g.degree_without(ex.m[1], &all), 0);
    }

    #[test]
    fn display_lists_edges() {
        let ex = crate::fixtures::example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        let text = g.to_string();
        assert!(text.contains("nodes"));
        assert!(text.contains("mobile-read-base"));
    }

    #[test]
    fn cached_build_matches_from_scratch() {
        let ex = crate::fixtures::example1();
        let mut cache = BaseEdgeCache::new();
        cache.sync(&ex.arena, &ex.hb);
        assert_eq!(cache.len(), ex.hb.len());
        let scratch = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        let cached = PrecedenceGraph::build_with_base_cache(&ex.arena, &ex.hm, &ex.hb, &cache);
        assert_eq!(scratch.nodes(), cached.nodes());
        assert_eq!(scratch.edges(), cached.edges());
        assert_eq!(cache.edge_count(ex.hb.len()), 1); // Tb1 -> Tb2 on d5
        assert_eq!(cache.edge_count(0), 0);
    }

    #[test]
    fn cache_grows_incrementally_and_serves_prefixes() {
        let mut arena = TxnArena::new();
        let ids: Vec<TxnId> = (0..6)
            .map(|i| rw_txn(&mut arena, &format!("b{i}"), TxnKind::Base, &[i % 2], &[i % 2]))
            .collect();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[0]);
        let hm = SerialHistory::from_order([m]);

        let mut cache = BaseEdgeCache::new();
        // Grow the epoch two transactions at a time; each prefix must match
        // the from-scratch build exactly, including edge order, and earlier
        // prefixes must keep working after later extensions.
        for step in [2usize, 4, 6] {
            let hb = SerialHistory::from_order(ids[..step].iter().copied());
            cache.sync(&arena, &hb);
            for prefix in (2..=step).step_by(2) {
                let hb_pre = SerialHistory::from_order(ids[..prefix].iter().copied());
                let scratch = PrecedenceGraph::build(&arena, &hm, &hb_pre);
                let cached = PrecedenceGraph::build_with_base_cache(&arena, &hm, &hb_pre, &cache);
                assert_eq!(scratch.edges(), cached.edges(), "prefix {prefix} of {step}");
                assert_eq!(
                    cache.edge_count(prefix),
                    scratch.edges().iter().filter(|(_, _, k)| *k == EdgeKind::BaseConflict).count()
                );
            }
        }
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.edge_count(6), 0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_builds() {
        let ex = crate::fixtures::example1();
        let mut cache = BaseEdgeCache::new();
        cache.sync(&ex.arena, &ex.hb);
        let mut scratch = GraphScratch::new();
        // Reuse one scratch across from-scratch, cached, and shrunk builds;
        // every graph must match its fresh-scratch twin edge-for-edge.
        for _ in 0..3 {
            let fresh = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
            let reused =
                PrecedenceGraph::build_with_scratch(&ex.arena, &ex.hm, &ex.hb, &mut scratch);
            assert_eq!(fresh.edges(), reused.edges());
            assert_eq!(fresh.nodes(), reused.nodes());
            let cached = PrecedenceGraph::build_with_base_cache_scratch(
                &ex.arena,
                &ex.hm,
                &ex.hb,
                &cache,
                &mut scratch,
            );
            assert_eq!(fresh.edges(), cached.edges());
            // A smaller build right after must not see stale entries.
            let small = PrecedenceGraph::build_with_scratch(
                &ex.arena,
                &SerialHistory::from_order([ex.m[0]]),
                &SerialHistory::new(),
                &mut scratch,
            );
            assert!(small.edges().is_empty());
            assert_eq!(small.nodes(), &[ex.m[0]]);
        }
    }

    #[test]
    #[should_panic(expected = "behind the base history")]
    fn stale_cache_is_rejected() {
        let ex = crate::fixtures::example1();
        let cache = BaseEdgeCache::new();
        let _ = PrecedenceGraph::build_with_base_cache(&ex.arena, &ex.hm, &ex.hb, &cache);
    }

    #[test]
    fn self_history_conflicts_only_forward() {
        // Within one history the graph restricted to it is always acyclic
        // (edges follow the serial order).
        let mut arena = TxnArena::new();
        let a = rw_txn(&mut arena, "a", TxnKind::Tentative, &[0], &[0]);
        let b = rw_txn(&mut arena, "b", TxnKind::Tentative, &[0], &[0]);
        let c = rw_txn(&mut arena, "c", TxnKind::Tentative, &[0], &[0]);
        let g = PrecedenceGraph::build(
            &arena,
            &SerialHistory::from_order([a, b, c]),
            &SerialHistory::new(),
        );
        assert!(g.is_acyclic());
        assert_eq!(g.merged_history_without(&BTreeSet::new()).unwrap().order(), &[a, b, c]);
    }

    #[test]
    fn rule1_edge_count_matches_a_built_graph() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut edges_seen = 0;
        for _ in 0..50 {
            let mut arena = TxnArena::new();
            let len = rng.gen_range(0..12);
            let order: Vec<TxnId> = (0..len)
                .map(|k| {
                    let reads: Vec<u32> = (0..8).filter(|_| rng.gen_bool(0.2)).collect();
                    let writes: Vec<u32> = (0..8).filter(|_| rng.gen_bool(0.15)).collect();
                    rw_txn(&mut arena, &format!("t{k}"), TxnKind::Tentative, &reads, &writes)
                })
                .collect();
            let hm = SerialHistory::from_order(order);
            let built = PrecedenceGraph::build(&arena, &hm, &SerialHistory::new());
            assert_eq!(rule1_edge_count(&arena, &hm), built.edges().len());
            edges_seen += built.edges().len();
        }
        assert!(edges_seen > 0, "the generated histories must conflict somewhere");
    }
}
