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
//!
//! [`PrecedenceGraph::build`] materializes the whole graph; Figure 1, the
//! Theorem-1 witness and the oracles use it. The merger only needs the
//! cycles, and every cycle passes through `H_m` and the base transactions
//! sharing a rule-3 edge with it, so it builds the **conflict slice**
//! ([`PrecedenceGraph::conflict_slice`]) over those nodes, with rule-2
//! paths summarized by a per-epoch [`BaseEdgeCache`].

use std::collections::{BTreeSet, HashMap};
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

/// Incrementally maintained rule-2 (base-conflict) summary of one epoch's
/// base history.
///
/// Within a window `H_b` only ever *grows*. A `BaseEdgeCache` is kept per
/// epoch: appending a base transaction finds the earlier cached ones it
/// conflicts with through a per-item index, and every merge in the window
/// (serial or batched) then reads, for any prefix of the cached history,
///
/// * the exact number of rule-2 edges ([`edge_count`](Self::edge_count)),
///   which the §7.1 cost model charges for, and
/// * rule-2 *reachability*: whether an earlier base transaction reaches a
///   later one along rule-2 edges. The conflict slice
///   ([`PrecedenceGraph::conflict_slice`]) needs only this, never the
///   edges themselves.
///
/// Rule-2 edges only run forward in `H_b`, so both answers for a prefix
/// stay the same as the history grows.
///
/// The reachability summary holds, for each position `j`, the bitset of
/// the earlier positions that reach `j`: `⌈j/64⌉` words, so
/// O(|H_b|²/64) words in all (about `|H_b|²/128`). [`clear`](Self::clear)
/// drops it at window rollover, so it is bounded by one window's base
/// history.
///
/// The per-item index lists, for each interned item, the cached positions
/// that read it and those that write it. An append ORs the lists of its
/// footprint into a `⌈j/64⌉`-word conflict row, so it costs the
/// footprint's list lengths plus the row, instead of one conflict test
/// against every earlier position.
#[derive(Debug, Clone)]
pub struct BaseEdgeCache {
    /// The cached base history itself, which a window merge borrows as
    /// its `H_b` ([`history`](Self::history)).
    txns: SerialHistory,
    /// `edges_upto[k]` = number of rule-2 edges among the first `k`
    /// cached transactions.
    edges_upto: Vec<usize>,
    /// The reachability summary: row `j` starts at word `rows[j]` and
    /// holds bit `i` for every `i < j` that reaches `j` along rule-2 edges.
    ancestors: Vec<u64>,
    rows: Vec<usize>,
    /// Union of every cached transaction's read∪write bitset — the whole
    /// epoch slice's footprint. A pending history disjoint from this union
    /// cannot draw a single cross edge against *any* cached prefix, which
    /// is the gate for the conflict-free merge fast path.
    footprint: DenseBits,
    /// `readers[x]` / `writers[x]`: the ascending cached positions whose
    /// read / write set holds the item interned as `x`.
    readers: Vec<Vec<u32>>,
    writers: Vec<Vec<u32>>,
    /// Scratch for [`extend`](Self::extend): the earlier positions the
    /// appended transaction conflicts with.
    conflict_row: Vec<u64>,
}

impl Default for BaseEdgeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl BaseEdgeCache {
    /// Creates an empty cache (start of a window).
    pub fn new() -> Self {
        BaseEdgeCache {
            txns: SerialHistory::new(),
            edges_upto: vec![0],
            ancestors: Vec::new(),
            rows: Vec::new(),
            footprint: DenseBits::new(),
            readers: Vec::new(),
            writers: Vec::new(),
            conflict_row: Vec::new(),
        }
    }

    /// A cache holding exactly `hb`: what a merge without an epoch cache
    /// builds for itself, at the `O(|H_b|²)` cost of the pairwise rule-2
    /// comparisons.
    pub fn of_history(arena: &TxnArena, hb: &SerialHistory) -> Self {
        let mut cache = BaseEdgeCache::new();
        cache.extend(arena, hb.iter());
        cache
    }

    /// Number of base transactions cached.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Drops all cached state, the reachability summary and the per-item
    /// index included (window rollover).
    pub fn clear(&mut self) {
        self.txns.clear();
        self.edges_upto.clear();
        self.edges_upto.push(0);
        self.ancestors.clear();
        self.rows.clear();
        self.footprint.clear();
        self.readers.iter_mut().chain(self.writers.iter_mut()).for_each(Vec::clear);
    }

    /// Appends base transactions. Each one's conflicts with the earlier
    /// cached transactions come from the per-item index: the writers of
    /// the items it reads, and the readers and writers of the items it
    /// writes — exactly the positions [`TxnArena::conflicts`] accepts.
    pub fn extend(&mut self, arena: &TxnArena, suffix: impl IntoIterator<Item = TxnId>) {
        for id in suffix {
            let j = self.txns.len();
            let (reads, writes) = (arena.read_bits(id), arena.write_bits(id));
            let conflicts = &mut self.conflict_row;
            conflicts.clear();
            conflicts.resize(j.div_ceil(64), 0);
            let lists = reads.iter().filter_map(|x| self.writers.get(x as usize)).chain(
                writes.iter().flat_map(|x| {
                    [self.readers.get(x as usize), self.writers.get(x as usize)]
                        .into_iter()
                        .flatten()
                }),
            );
            for list in lists {
                for &i in list {
                    conflicts[i as usize / 64] |= 1u64 << (i % 64);
                }
            }

            let row = self.ancestors.len();
            self.ancestors.resize(row + j.div_ceil(64), 0);
            let (earlier, ancestors) = self.ancestors.split_at_mut(row);
            let mut edges = 0;
            // Latest first: a conflicting `i` already in the row reaches `j`
            // through a later conflict whose row was merged, and its own
            // ancestors came with that row — only its edge is new.
            for w in (0..conflicts.len()).rev() {
                let mut bits = conflicts[w];
                edges += bits.count_ones() as usize;
                while bits != 0 {
                    let b = 63 - bits.leading_zeros() as usize;
                    bits &= !(1u64 << b);
                    let i = w * 64 + b;
                    if ancestors[w] & (1u64 << b) == 0 {
                        ancestors[w] |= 1u64 << b;
                        let from = self.rows[i];
                        let row_i = &earlier[from..from + i.div_ceil(64)];
                        for (word, src) in ancestors.iter_mut().zip(row_i) {
                            *word |= *src;
                        }
                    }
                }
            }

            let position =
                u32::try_from(j).expect("an epoch holds fewer than 2^32 base transactions");
            for (bits, lists) in [(reads, &mut self.readers), (writes, &mut self.writers)] {
                for x in bits.iter() {
                    let x = x as usize;
                    if x >= lists.len() {
                        lists.resize_with(x + 1, Vec::new);
                    }
                    lists[x].push(position);
                }
            }
            self.txns.push(id);
            self.rows.push(row);
            self.edges_upto.push(self.edges_upto[j] + edges);
            self.footprint.union_with(reads);
            self.footprint.union_with(writes);
        }
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

    /// The cached base history. Once extended by an epoch's whole base
    /// history this *is* that history, so a merge of the whole epoch can
    /// borrow it as `H_b` instead of copying the ids out of the log.
    pub fn history(&self) -> &SerialHistory {
        &self.txns
    }

    /// The latest cached transaction `txn` would draw a rule-3 edge with:
    /// the last writer of an item `txn` reads, or the last reader of an
    /// item it writes, whichever committed later. Two index lookups per
    /// footprint item, where a scan would test every cached position.
    pub fn latest_rule3_partner(&self, arena: &TxnArena, txn: TxnId) -> Option<TxnId> {
        let last = |lists: &[Vec<u32>], x: u32| lists.get(x as usize)?.last().copied();
        let from_reads = arena.read_bits(txn).iter().filter_map(|x| last(&self.writers, x));
        let from_writes = arena.write_bits(txn).iter().filter_map(|x| last(&self.readers, x));
        from_reads.chain(from_writes).max().map(|p| self.txns.order()[p as usize])
    }

    /// Does cached position `i` reach position `j > i` along rule-2 edges?
    fn reaches(&self, i: usize, j: usize) -> bool {
        self.ancestors[self.rows[j] + i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// The precedence graph over the transactions of `H_m ∪ H_b`, or over its
/// conflict slice (see [`PrecedenceGraph::conflict_slice`]).
#[derive(Debug, Clone)]
pub struct PrecedenceGraph {
    /// Node order: `H_m` transactions first, then `H_b` transactions.
    nodes: Vec<TxnId>,
    kinds: Vec<TxnKind>,
    /// `TxnId` → node index.
    index: HashMap<TxnId, usize>,
    /// Adjacency in compressed rows: node `i`'s successors are
    /// `succ[succ_at[i]..succ_at[i + 1]]`, ascending (membership tests
    /// binary-search). `pred_at`/`pred` hold the transpose the same way.
    succ_at: Vec<usize>,
    succ: Vec<usize>,
    pred_at: Vec<usize>,
    pred: Vec<usize>,
    /// Every materialized edge with its reason, for diagnostics and
    /// Figure 1 rendering.
    edges: Vec<(TxnId, TxnId, EdgeKind)>,
    /// Edge count of the whole `G(H_m, H_b)` this graph stands for.
    full_edges: usize,
}

impl PrecedenceGraph {
    /// Builds the graph from a tentative and a base history over one arena.
    ///
    /// Conflicts are determined from static read/write sets: two
    /// transactions conflict on an item if both access it and at least one
    /// writes it.
    pub fn build(arena: &TxnArena, hm: &SerialHistory, hb: &SerialHistory) -> Self {
        let hb = hb.order();
        let mut graph = Builder::new(arena, hm.iter().chain(hb.iter().copied()).collect());
        let m = hm.len();
        graph.rule1(m);

        // Rule 2: order of conflicting base transactions in H_b.
        for (i, &ti) in hb.iter().enumerate() {
            for (j, &tj) in hb.iter().enumerate().skip(i + 1) {
                if arena.conflicts(ti, tj) {
                    graph.edge(m + i, m + j, EdgeKind::BaseConflict);
                }
            }
        }

        graph.rule3(m);
        let full_edges = graph.edges.len();
        graph.finish(full_edges)
    }

    /// Builds the **conflict slice** of `G(H_m, H_b)`: the part a cycle can
    /// pass through. The merger runs back-out on it instead of the whole
    /// graph.
    ///
    /// * Nodes: `H_m`, then — in `H_b` order — the base transactions with a
    ///   rule-3 edge to `H_m`, i.e. those whose writes meet `H_m`'s read
    ///   union or whose reads meet its write union. The cache's per-item
    ///   index names them: the writers of `H_m`'s read items and the
    ///   readers of its write items, each list walked only up to the end
    ///   of the `hb` prefix. Selection costs those lists' lengths plus at
    ///   most `⌈|H_b|/64⌉` bitset words, not a footprint test per base
    ///   transaction.
    /// * Edges: rules 1 and 3 as in [`build`](Self::build). Base-to-base
    ///   paths are summarized by adjacency entries carrying rule-2
    ///   reachability ([`BaseEdgeCache`] keeps it): `T_b → T_b'` when
    ///   `T_b` reaches `T_b'` and no other slice base transaction lies on
    ///   a path between them (the transitive reduction, so a hot item
    ///   shared by the whole slice costs a chain, not a clique). These
    ///   summary entries are not in [`edges`](Self::edges).
    ///
    /// A cycle of `G` runs through a tentative node, and each maximal base
    /// run on it enters and leaves by a rule-3 edge, so both its ends are
    /// slice nodes joined by a path of summary entries. Hence reachability
    /// among slice nodes is that of `G`: cyclic SCCs restricted to the slice,
    /// 2-cycles and every tentative node's degree are those of `G`, and the
    /// back-out strategies return the same `B` on both.
    /// [`full_edge_count`](Self::full_edge_count) stays exact: the cache
    /// counts rule 2 without materializing it.
    ///
    /// `cache` must cover `hb`: `hb` must equal a prefix of the cached
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if the cache holds fewer transactions than `hb`.
    pub fn conflict_slice(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        cache: &BaseEdgeCache,
    ) -> Self {
        assert!(cache.len() >= hb.len(), "base-edge cache is behind the base history");
        debug_assert!(
            hb.order() == &cache.history().order()[..hb.len()],
            "base-edge cache prefix does not match the base history"
        );
        let mut reads = DenseBits::new();
        let mut writes = DenseBits::new();
        for id in hm.iter() {
            reads.union_with(arena.read_bits(id));
            writes.union_with(arena.write_bits(id));
        }
        // The positions with a rule-3 edge to `H_m`, from the index. Each
        // list ascends, so its walk stops at the first position past the
        // prefix; the bitset dedups and yields them in `H_b` order.
        let lists = reads
            .iter()
            .filter_map(|x| cache.writers.get(x as usize))
            .chain(writes.iter().filter_map(|x| cache.readers.get(x as usize)));
        let mut selected = DenseBits::new();
        for list in lists {
            for &p in list.iter().take_while(|&&p| (p as usize) < hb.len()) {
                selected.set(p);
            }
        }
        let positions: Vec<usize> = selected.iter().map(|p| p as usize).collect();

        let m = hm.len();
        let nodes = hm.iter().chain(positions.iter().map(|&p| hb.order()[p])).collect();
        let mut graph = Builder::new(arena, nodes);
        graph.rule1(m);
        graph.rule3(m);
        let full_edges = graph.edges.len() + cache.edge_count(hb.len());

        // Base to base: the transitive reduction of rule-2 reachability
        // among the slice's base transactions. Latest first, `reach` row
        // `a` collects every slice index after `a` that `a` reaches; a
        // reachable index not yet in the row has no slice node on its
        // paths from `a`, so it gets an entry and brings its own row.
        let k = positions.len();
        let words = k.div_ceil(64);
        let mut reach = vec![0u64; k * words];
        for a in (0..k).rev() {
            let (upto, later) = reach.split_at_mut((a + 1) * words);
            let row = &mut upto[a * words..];
            for c in a + 1..k {
                if row[c / 64] & (1u64 << (c % 64)) == 0
                    && cache.reaches(positions[a], positions[c])
                {
                    graph.arcs.push((m + a, m + c));
                    row[c / 64] |= 1u64 << (c % 64);
                    let from = (c - a - 1) * words;
                    for (word, src) in row.iter_mut().zip(&later[from..from + words]) {
                        *word |= *src;
                    }
                }
            }
        }
        graph.finish(full_edges)
    }

    fn succs(&self, i: usize) -> &[usize] {
        &self.succ[self.succ_at[i]..self.succ_at[i + 1]]
    }

    fn preds(&self, i: usize) -> &[usize] {
        &self.pred[self.pred_at[i]..self.pred_at[i + 1]]
    }

    /// The transactions in the graph (tentative first, then base). For a
    /// conflict slice, only the base transactions in the slice.
    pub fn nodes(&self) -> &[TxnId] {
        &self.nodes
    }

    /// Every materialized edge as `(from, to, kind)`, in insertion order.
    /// For a conflict slice these are its rule-1 and rule-3 edges.
    pub fn edges(&self) -> &[(TxnId, TxnId, EdgeKind)] {
        &self.edges
    }

    /// The number of edges of the whole `G(H_m, H_b)`: `edges().len()` for
    /// a [`build`](Self::build), and rule 1 + rule 2 + rule 3 for a
    /// [`conflict_slice`](Self::conflict_slice), whose rule-2 edges are
    /// counted by the cache and never materialized.
    pub fn full_edge_count(&self) -> usize {
        self.full_edges
    }

    /// Returns `true` if there is an edge `from → to` (in a conflict slice,
    /// base-to-base entries mean rule-2 reachability).
    pub fn has_edge(&self, from: TxnId, to: TxnId) -> bool {
        match (self.index(from), self.index(to)) {
            (Some(f), Some(t)) => self.succs(f).binary_search(&t).is_ok(),
            _ => false,
        }
    }

    /// The node index of `id`, if present.
    fn index(&self, id: TxnId) -> Option<usize> {
        self.index.get(&id).copied()
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
        for from in 0..n {
            if !alive[from] {
                continue;
            }
            for &to in self.succs(from) {
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
            for &to in self.succs(i) {
                if alive[to] && !emitted[to] {
                    indegree[to] -= 1;
                }
            }
        }
        (order.len() == alive_count).then_some(order)
    }

    /// If the graph (minus `removed`) is acyclic, returns an equivalent
    /// merged serial history over the remaining transactions (Theorem 1).
    /// Only a [`build`](Self::build) holds every transaction; a conflict
    /// slice yields a history over its own nodes.
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
                    self.succs(i).binary_search(&i).is_ok()
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
        for i in 0..self.nodes.len() {
            if removed.contains(&self.nodes[i]) {
                continue;
            }
            for &j in self.succs(i) {
                if j > i
                    && !removed.contains(&self.nodes[j])
                    && self.succs(j).binary_search(&i).is_ok()
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
        // Explicit DFS stack: (node, position in its successor list).
        let mut call_stack: Vec<(usize, usize)> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<TxnId>> = Vec::new();

        for start in 0..n {
            if !alive[start] || index[start] != usize::MAX {
                continue;
            }
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            call_stack.push((start, 0));

            while let Some((v, pos)) = call_stack.last_mut() {
                let v = *v;
                let succs = self.succs(v);
                while *pos < succs.len() && !alive[succs[*pos]] {
                    *pos += 1;
                }
                if *pos < succs.len() {
                    let w = succs[*pos];
                    *pos += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    call_stack.pop();
                    if let Some((parent, _)) = call_stack.last() {
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
        let live = |j: &&usize| !removed.contains(&self.nodes[**j]);
        self.succs(i).iter().filter(live).count() + self.preds(i).iter().filter(live).count()
    }
}

/// A [`PrecedenceGraph`] under construction: its nodes, the arcs added
/// so far, and the reasoned edges among them.
struct Builder<'a> {
    arena: &'a TxnArena,
    nodes: Vec<TxnId>,
    arcs: Vec<(usize, usize)>,
    edges: Vec<(TxnId, TxnId, EdgeKind)>,
}

impl<'a> Builder<'a> {
    fn new(arena: &'a TxnArena, nodes: Vec<TxnId>) -> Self {
        Builder { arena, nodes, arcs: Vec::new(), edges: Vec::new() }
    }

    /// Rule 1: order of conflicting tentative transactions (the first `m`
    /// nodes) in H_m. Conflicts are word-wise bitset tests over the
    /// arena's interned footprints — identical answers to the VarSet
    /// intersections.
    fn rule1(&mut self, m: usize) {
        for i in 0..m {
            for j in i + 1..m {
                if self.arena.conflicts(self.nodes[i], self.nodes[j]) {
                    self.edge(i, j, EdgeKind::MobileConflict);
                }
            }
        }
    }

    /// Rule 3: cross edges between the first `m` (tentative) nodes and the
    /// rest (base). Both histories started from the same state, so a
    /// tentative read of an item some base transaction wrote must have
    /// observed the pre-base value (and vice versa).
    fn rule3(&mut self, m: usize) {
        for a in 0..m {
            for b in m..self.nodes.len() {
                let (tm, tb) = (self.nodes[a], self.nodes[b]);
                if self.arena.reads_overlap_writes(tm, tb) {
                    self.edge(a, b, EdgeKind::MobileReadBase);
                }
                if self.arena.reads_overlap_writes(tb, tm) {
                    self.edge(b, a, EdgeKind::BaseReadMobile);
                }
            }
        }
    }

    /// Every rule adds each ordered node pair at most once, so edges are
    /// pushed without a membership test.
    fn edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        self.arcs.push((from, to));
        self.edges.push((self.nodes[from], self.nodes[to], kind));
    }

    /// Lays the arcs out as ascending compressed rows (rule-3 targets
    /// arrive out of order), so membership binary-searches and iteration
    /// matches the former `BTreeSet` order, and fills the transpose.
    fn finish(self, full_edges: usize) -> PrecedenceGraph {
        let n = self.nodes.len();
        let mut arcs = self.arcs;
        arcs.sort_unstable();
        let succ_at = row_offsets(n, arcs.iter().map(|arc| arc.0));
        let pred_at = row_offsets(n, arcs.iter().map(|arc| arc.1));
        let mut pred = vec![0; arcs.len()];
        let mut next = pred_at.clone();
        for &(from, to) in &arcs {
            pred[next[to]] = from;
            next[to] += 1;
        }
        PrecedenceGraph {
            kinds: self.nodes.iter().map(|id| self.arena.get(*id).kind()).collect(),
            index: self.nodes.iter().enumerate().map(|(i, id)| (*id, i)).collect(),
            nodes: self.nodes,
            succ_at,
            succ: arcs.into_iter().map(|arc| arc.1).collect(),
            pred_at,
            pred,
            edges: self.edges,
            full_edges,
        }
    }
}

/// Start offsets of `n` compressed rows holding one entry per item of
/// `rows` (each item names its row), plus the total at the end.
fn row_offsets(n: usize, rows: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut at = vec![0; n + 1];
    for row in rows {
        at[row + 1] += 1;
    }
    for i in 0..n {
        at[i + 1] += at[i];
    }
    at
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

    /// `Tm' → Tm → Tb1 → Tb2 → Tb3 → Tm'`, where `Tb2` has no rule-3 edge
    /// to `H_m`: the cycle leaves the conflict slice and comes back.
    /// Returns the arena, `H_m = [Tm', Tm]`, `H_b = [Tb1, Tb2, Tb3]`.
    fn untouched_bridge() -> (TxnArena, SerialHistory, SerialHistory) {
        let mut arena = TxnArena::new();
        let tm2 = rw_txn(&mut arena, "Tm'", TxnKind::Tentative, &[], &[3, 4]);
        let tm = rw_txn(&mut arena, "Tm", TxnKind::Tentative, &[0, 4], &[]);
        let tb1 = rw_txn(&mut arena, "Tb1", TxnKind::Base, &[], &[0, 1]);
        let tb2 = rw_txn(&mut arena, "Tb2", TxnKind::Base, &[], &[1, 2]);
        let tb3 = rw_txn(&mut arena, "Tb3", TxnKind::Base, &[2, 3], &[]);
        (arena, SerialHistory::from_order([tm2, tm]), SerialHistory::from_order([tb1, tb2, tb3]))
    }

    fn materialized(g: &PrecedenceGraph) -> usize {
        g.succ.len()
    }

    fn cache_history(ids: &[TxnId]) -> SerialHistory {
        SerialHistory::from_order(ids.iter().copied())
    }

    #[test]
    fn slice_of_example1_keeps_the_cycle_and_counts_every_edge() {
        let ex = crate::fixtures::example1();
        let cache = BaseEdgeCache::of_history(&ex.arena, &ex.hb);
        let full = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        let slice = PrecedenceGraph::conflict_slice(&ex.arena, &ex.hm, &ex.hb, &cache);
        assert_eq!(cache.edge_count(ex.hb.len()), 1); // Tb1 -> Tb2 on d5
        assert_eq!(cache.edge_count(0), 0);
        // Both base transactions draw rule-3 edges, so the slice is the
        // whole graph, minus the materialized rule-2 edge.
        assert_eq!(slice.nodes(), full.nodes());
        assert_eq!(slice.edges().len() + 1, full.edges().len());
        assert_eq!(slice.full_edge_count(), full.edges().len());
        assert_eq!(full.full_edge_count(), full.edges().len());
        assert!(slice.has_edge(ex.b[0], ex.b[1]), "Tb1 reaches Tb2");
        assert!(!slice.is_acyclic());
        let removed: BTreeSet<TxnId> = [ex.m[2]].into_iter().collect();
        assert!(slice.is_acyclic_without(&removed));
        assert_eq!(slice.cyclic_sccs(&BTreeSet::new()), full.cyclic_sccs(&BTreeSet::new()));
        for id in ex.m {
            assert_eq!(slice.degree_without(id, &removed), full.degree_without(id, &removed));
        }
    }

    #[test]
    fn reachability_bridges_an_untouched_base_transaction() {
        let (arena, hm, hb) = untouched_bridge();
        let [tb1, tb2, tb3] = [hb.order()[0], hb.order()[1], hb.order()[2]];
        let full = PrecedenceGraph::build(&arena, &hm, &hb);
        assert!(!full.is_acyclic());
        let cache = BaseEdgeCache::of_history(&arena, &hb);
        let slice = PrecedenceGraph::conflict_slice(&arena, &hm, &hb, &cache);
        assert_eq!(slice.nodes(), &[hm.order()[0], hm.order()[1], tb1, tb3]);
        assert!(!slice.nodes().contains(&tb2));
        assert!(slice.has_edge(tb1, tb3), "Tb1 reaches Tb3 through Tb2");
        assert!(!slice.is_acyclic());
        let mut expected = full.cyclic_sccs(&BTreeSet::new());
        expected[0].retain(|id| *id != tb2);
        assert_eq!(slice.cyclic_sccs(&BTreeSet::new()), expected);
        assert_eq!(slice.full_edge_count(), full.edges().len());
    }

    #[test]
    fn cache_grows_incrementally_and_serves_prefixes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut arena = TxnArena::new();
        // Sparse random footprints, so reachability runs through chains
        // longer than one edge and across word boundaries of the summary.
        let ids: Vec<TxnId> = (0..150)
            .map(|k| {
                let reads: Vec<u32> = (0..40).filter(|_| rng.gen_bool(0.02)).collect();
                let writes: Vec<u32> = (0..40).filter(|_| rng.gen_bool(0.02)).collect();
                rw_txn(&mut arena, &format!("b{k}"), TxnKind::Base, &reads, &writes)
            })
            .collect();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0, 1], &[2]);
        let hm = SerialHistory::from_order([m]);

        // Grow the epoch in steps; each prefix must count the from-scratch
        // graph's edges exactly, and earlier prefixes must keep working
        // after later extensions.
        let mut cache = BaseEdgeCache::new();
        for step in [1usize, 70, 150] {
            cache.extend(&arena, ids[cache.len()..step].iter().copied());
            for prefix in [0, step / 2, step] {
                let hb = SerialHistory::from_order(ids[..prefix].iter().copied());
                let full = PrecedenceGraph::build(&arena, &hm, &hb);
                let slice = PrecedenceGraph::conflict_slice(&arena, &hm, &hb, &cache);
                assert_eq!(
                    slice.full_edge_count(),
                    full.edges().len(),
                    "prefix {prefix} of {step}"
                );
                assert_eq!(
                    cache.edge_count(prefix),
                    full.edges().iter().filter(|(_, _, k)| *k == EdgeKind::BaseConflict).count()
                );
            }
        }

        // The summary is the transitive closure of the rule-2 edges:
        // `reach[j][i]` iff `i` reaches `j`.
        let n = ids.len();
        let full = PrecedenceGraph::build(&arena, &SerialHistory::new(), &cache_history(&ids));
        let mut reach = vec![vec![false; n]; n];
        for j in 0..n {
            for k in 0..j {
                if full.has_edge(ids[k], ids[j]) {
                    let via = reach[k].clone();
                    reach[j][k] = true;
                    for (r, v) in reach[j].iter_mut().zip(via) {
                        *r |= v;
                    }
                }
            }
        }
        let mut chains = 0;
        for j in 0..n {
            for i in 0..j {
                assert_eq!(cache.reaches(i, j), reach[j][i], "{i} reaches {j}");
                chains += usize::from(reach[j][i] && !full.has_edge(ids[i], ids[j]));
            }
        }
        assert!(chains > 0, "some reachability must need more than one edge");
    }

    /// ROADMAP gate for conflict-local merging, asserted on counts so it
    /// holds on any host: at fixed conflicts with `H_m`, appending base
    /// transactions that conflict only among themselves grows `G`'s edge
    /// count but not the slice.
    #[test]
    fn slice_stays_flat_as_the_epoch_grows() {
        let (mut arena, hm, conflicting) = untouched_bridge();
        let fillers: Vec<TxnId> = (0..1024u32)
            .map(|k| rw_txn(&mut arena, &format!("f{k}"), TxnKind::Base, &[], &[10 + k % 4]))
            .collect();
        let mut shape = None;
        let mut last_full = 0;
        for len in [0usize, 64, 256, 1024] {
            let hb =
                SerialHistory::from_order(conflicting.iter().chain(fillers[..len].iter().copied()));
            let cache = BaseEdgeCache::of_history(&arena, &hb);
            let slice = PrecedenceGraph::conflict_slice(&arena, &hm, &hb, &cache);
            let counts = (slice.nodes().len(), materialized(&slice), slice.edges().len());
            assert_eq!(*shape.get_or_insert(counts), counts, "slice grew at |H_b| = {}", hb.len());
            assert!(len == 0 || slice.full_edge_count() > last_full, "G grows with the epoch");
            last_full = slice.full_edge_count();
            if len <= 64 {
                let full = PrecedenceGraph::build(&arena, &hm, &hb);
                assert_eq!(slice.full_edge_count(), full.edges().len());
                assert!(materialized(&full) > materialized(&slice));
            }
        }
        // Tm', Tm, Tb1, Tb3; rule 1, two rule-3 edges and Tb1 → Tb3.
        assert_eq!(shape, Some((4, 4, 3)));
    }

    #[test]
    fn clear_drops_the_reachability_summary() {
        let mut arena = TxnArena::new();
        let ids: Vec<TxnId> = (0..200u32)
            .map(|k| rw_txn(&mut arena, &format!("b{k}"), TxnKind::Base, &[], &[k % 3]))
            .collect();
        let words = |len: usize| (0..len).map(|j| j.div_ceil(64)).sum::<usize>();
        let mut cache = BaseEdgeCache::of_history(&arena, &cache_history(&ids));
        assert_eq!(cache.ancestors.len(), words(200));
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.ancestors.is_empty() && cache.rows.is_empty());
        assert_eq!(cache.edge_count(200), 0);
        // The next window's summary is sized by that window alone.
        cache.extend(&arena, ids[..10].iter().copied());
        assert_eq!(cache.ancestors.len(), words(10));
        // Items 0, 1, 2 are written by 4, 3 and 3 of the ten: C(4,2) + 2·C(3,2).
        assert_eq!(cache.edge_count(10), 12);
    }

    #[test]
    fn a_hot_item_shared_by_the_slice_costs_a_chain() {
        let mut arena = TxnArena::new();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[], &[0]);
        let hb: Vec<TxnId> = (0..50)
            .map(|k| rw_txn(&mut arena, &format!("b{k}"), TxnKind::Base, &[], &[0]))
            .collect();
        let (hm, hb) = (SerialHistory::from_order([m]), cache_history(&hb));
        let full = PrecedenceGraph::build(&arena, &hm, &hb);
        let slice = PrecedenceGraph::conflict_slice(
            &arena,
            &hm,
            &hb,
            &BaseEdgeCache::of_history(&arena, &hb),
        );
        // Rule 2 is a 50-clique in G; the slice keeps 49 reachability
        // entries beside its 100 rule-3 edges.
        assert_eq!(full.edges().len(), 50 * 49 / 2 + 100);
        assert_eq!(slice.full_edge_count(), full.edges().len());
        assert_eq!(materialized(&slice), 49 + 100);
        assert_eq!(slice.cyclic_sccs(&BTreeSet::new()), full.cyclic_sccs(&BTreeSet::new()));
        let removed: BTreeSet<TxnId> = [m].into_iter().collect();
        assert!(slice.is_acyclic_without(&removed));
    }

    #[test]
    #[should_panic(expected = "behind the base history")]
    fn stale_cache_is_rejected() {
        let ex = crate::fixtures::example1();
        let cache = BaseEdgeCache::new();
        let _ = PrecedenceGraph::conflict_slice(&ex.arena, &ex.hm, &ex.hb, &cache);
    }

    #[test]
    fn lookups_miss_cleanly_for_absent_transactions() {
        let ex = crate::fixtures::example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &SerialHistory::new());
        let none = BTreeSet::new();
        assert_eq!(g.kind(ex.b[0]), None);
        assert!(!g.has_edge(ex.m[0], ex.b[0]));
        assert_eq!(g.degree_without(ex.b[0], &none), 0);
        assert_eq!(g.kind(ex.m[0]), Some(TxnKind::Tentative));
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

    /// A generated base transaction: read items, written items, whether
    /// the writes sit behind a guard, and whether they are blind (the
    /// written items are not read, so two writers of an item may share no
    /// read). Items 0–2 are hot.
    type GenTxn = (Vec<u32>, Vec<u32>, bool, bool);

    fn arb_txn() -> impl proptest::prelude::Strategy<Value = GenTxn> {
        use proptest::prelude::*;
        // Three draws in five land on a hot item.
        let item = (0u32..5, 3u32..40).prop_map(|(pick, cold)| if pick < 3 { pick } else { cold });
        (
            prop::collection::vec(item.clone(), 1..4),
            prop::collection::vec(item, 0..3),
            prop::bool::ANY,
            (0u32..4).prop_map(|k| k == 0),
        )
    }

    fn alloc_gen(arena: &mut TxnArena, (reads, writes, guarded, blind): &GenTxn) -> TxnId {
        let guard = v(reads[0]);
        let write_set: VarSet = writes.iter().map(|i| v(*i)).collect();
        let mut read_set: VarSet = reads.iter().map(|i| v(*i)).collect();
        let mut b = ProgramBuilder::new("gen");
        if *blind {
            b = b.allow_blind_writes();
        } else {
            read_set.extend_from(&write_set);
        }
        for var in read_set.iter() {
            b = b.read(var);
        }
        let updates = |mut b: ProgramBuilder| {
            for w in write_set.iter() {
                let operand = if *blind { guard } else { w };
                b = b.update(w, Expr::var(operand) + Expr::konst(1));
            }
            b
        };
        b = if *guarded {
            b.branch(Expr::var(guard).gt(Expr::konst(0)), updates, |e| e)
        } else {
            updates(b)
        };
        let prog: Arc<Program> = Arc::new(b.build().unwrap());
        arena.alloc(|id| Transaction::new(id, "gen", TxnKind::Base, prog, vec![]))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The item-indexed cache equals its pairwise definition: across
        /// epochs appended in random chunk sizes into one cleared and
        /// reused cache, every prefix's edge count is the number of
        /// conflicting pairs, reachability is the transitive closure of
        /// `TxnArena::conflicts` over forward pairs, and the latest
        /// rule-3 partner of a probe is the one a reverse scan finds.
        #[test]
        fn indexed_cache_matches_pairwise_conflicts(
            epochs in proptest::collection::vec(
                (
                    proptest::collection::vec(arb_txn(), 0..40),
                    proptest::collection::vec(1usize..8, 1..6),
                    proptest::collection::vec(arb_txn(), 1..4),
                ),
                1..4,
            )
        ) {
            let mut arena = TxnArena::new();
            let mut cache = BaseEdgeCache::new();
            for (txns, chunks, probes) in &epochs {
                cache.clear();
                let ids: Vec<TxnId> = txns.iter().map(|t| alloc_gen(&mut arena, t)).collect();
                let mut sizes = chunks.iter().cycle();
                let mut at = 0;
                while at < ids.len() {
                    let n = (*sizes.next().unwrap()).min(ids.len() - at);
                    cache.extend(&arena, ids[at..at + n].iter().copied());
                    at += n;
                }
                proptest::prop_assert_eq!(cache.history().order(), &ids[..]);

                // The pairwise definition: `ancestors[j]` holds every `i`
                // that reaches `j` through conflicting forward pairs.
                let mut edges = 0;
                let mut ancestors: Vec<BTreeSet<usize>> = Vec::new();
                proptest::prop_assert_eq!(cache.edge_count(0), 0);
                for (j, &tj) in ids.iter().enumerate() {
                    let mut reach = BTreeSet::new();
                    for (i, &ti) in ids[..j].iter().enumerate() {
                        if arena.conflicts(ti, tj) {
                            edges += 1;
                            reach.insert(i);
                            reach.extend(ancestors[i].iter().copied());
                        }
                    }
                    proptest::prop_assert_eq!(cache.edge_count(j + 1), edges, "prefix {}", j + 1);
                    for i in 0..j {
                        proptest::prop_assert_eq!(cache.reaches(i, j), reach.contains(&i));
                    }
                    ancestors.push(reach);
                }

                for probe in probes {
                    let t = alloc_gen(&mut arena, probe);
                    let scanned = ids.iter().rev().copied().find(|&b| {
                        arena.reads_overlap_writes(t, b) || arena.reads_overlap_writes(b, t)
                    });
                    proptest::prop_assert_eq!(cache.latest_rule3_partner(&arena, t), scanned);
                }
            }
        }

        /// The index-driven slice selection equals its definition across
        /// the bitset's 64-position word boundaries: for every prefix of
        /// epochs of up to 200 base transactions, held in one cleared and
        /// reused cache, the slice's nodes are `H_m` followed, in `H_b`
        /// order, by the base transactions drawing a pairwise rule-3 edge
        /// with some transaction of `H_m`.
        #[test]
        fn indexed_slice_selection_matches_pairwise_rule3(
            epochs in proptest::collection::vec(
                (
                    proptest::collection::vec(arb_txn(), 0..200),
                    proptest::collection::vec(proptest::collection::vec(arb_txn(), 1..4), 1..3),
                ),
                1..3,
            )
        ) {
            let mut arena = TxnArena::new();
            let mut cache = BaseEdgeCache::new();
            for (txns, probes) in &epochs {
                cache.clear();
                let ids: Vec<TxnId> = txns.iter().map(|t| alloc_gen(&mut arena, t)).collect();
                cache.extend(&arena, ids.iter().copied());
                for probe in probes {
                    let hm: SerialHistory = probe.iter().map(|t| alloc_gen(&mut arena, t)).collect();
                    let rule3 = |b: TxnId| {
                        hm.iter().any(|t| {
                            arena.reads_overlap_writes(t, b) || arena.reads_overlap_writes(b, t)
                        })
                    };
                    for prefix in 0..=ids.len() {
                        let hb = cache_history(&ids[..prefix]);
                        let slice = PrecedenceGraph::conflict_slice(&arena, &hm, &hb, &cache);
                        let expected: Vec<TxnId> =
                            hm.iter().chain(hb.iter().filter(|&b| rule3(b))).collect();
                        proptest::prop_assert_eq!(slice.nodes(), &expected[..], "prefix {}", prefix);
                    }
                }
            }
        }
    }
}
