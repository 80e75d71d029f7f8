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

/// Reusable working memory for
/// [`PrecedenceGraph::conflict_slice_with_scratch`]: the rule-3 rows, the
/// slice's base positions, the reachability rows and the arcs and edges
/// under construction. A build leaves the buffers at the high-water mark
/// of the slices seen so far, so a stream of merges allocates only the
/// graphs it returns. Reuse is observation-free: a slice built through a
/// used scratch equals one built through [`SliceScratch::new`].
#[derive(Debug, Clone, Default)]
pub struct SliceScratch {
    /// Two rows of `⌈|H_b|/64⌉` words per tentative transaction: the `H_b`
    /// positions it draws a `T_m → T_b` edge to, then the positions that
    /// draw a `T_b → T_m` edge to it.
    rule3: Vec<u64>,
    /// The union of the rule-3 rows: the slice's base positions.
    selected: Vec<u64>,
    /// The slice's base positions, ascending.
    positions: Vec<usize>,
    /// Rule-2 reachability rows among the slice's base transactions.
    reach: Vec<u64>,
    /// The arcs and the reasoned edges of the graph under construction.
    arcs: Vec<(usize, usize)>,
    edges: Vec<(TxnId, TxnId, EdgeKind)>,
}

impl SliceScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SliceScratch::default()
    }
}

/// The precedence graph over the transactions of `H_m ∪ H_b`, or over its
/// conflict slice (see [`PrecedenceGraph::conflict_slice`]).
#[derive(Debug, Clone)]
pub struct PrecedenceGraph {
    /// Node order: `H_m` transactions first, then `H_b` transactions.
    nodes: Vec<TxnId>,
    kinds: Vec<TxnKind>,
    /// `(TxnId, node index)` pairs sorted by id.
    index: Vec<(TxnId, usize)>,
    /// Adjacency in compressed rows, both directions in one array: with
    /// `n` nodes, node `i`'s successors are `adj[at[i]..at[i + 1]]` and
    /// its predecessors `adj[at[n + 1 + i]..at[n + 2 + i]]`, each
    /// ascending (membership tests binary-search).
    at: Vec<usize>,
    adj: Vec<usize>,
    /// Every materialized edge with its reason, for diagnostics and
    /// Figure 1 rendering.
    edges: Vec<(TxnId, TxnId, EdgeKind)>,
    /// Edge count of the whole `G(H_m, H_b)` this graph stands for.
    full_edges: usize,
    /// Rule-1 edges, all of them materialized.
    rule1_edges: usize,
}

impl PrecedenceGraph {
    /// Builds the graph from a tentative and a base history over one arena.
    ///
    /// Conflicts are determined from static read/write sets: two
    /// transactions conflict on an item if both access it and at least one
    /// writes it.
    pub fn build(arena: &TxnArena, hm: &SerialHistory, hb: &SerialHistory) -> Self {
        let hb = hb.order();
        let (mut arcs, mut edges) = (Vec::new(), Vec::new());
        let nodes = hm.iter().chain(hb.iter().copied()).collect();
        let mut graph = Builder::new(arena, nodes, &mut arcs, &mut edges);
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
    ///   rule-3 edge to `H_m`.
    /// * Edges: rules 1 and 3 as in [`build`](Self::build), in the same
    ///   order. Base-to-base paths are summarized by adjacency entries
    ///   carrying rule-2 reachability ([`BaseEdgeCache`] keeps it):
    ///   `T_b → T_b'` when `T_b` reaches `T_b'` and no other slice base
    ///   transaction lies on a path between them (the transitive
    ///   reduction, so a hot item shared by the whole slice costs a chain,
    ///   not a clique). These summary entries are not in
    ///   [`edges`](Self::edges).
    ///
    /// Rule 3 and the selection come from the cache's per-item index, with
    /// no pairwise footprint test. For each tentative transaction, the
    /// writers of its read items are the `H_b` positions it draws
    /// `T_m → T_b` edges to, and the readers of its write items those that
    /// draw `T_b → T_m` edges to it. Each ascending list is walked only up
    /// to the end of the `hb` prefix into one bitset row per direction,
    /// and the union of the rows is the slice. Building costs those lists'
    /// lengths plus `2 · |H_m|` rows of `⌈|H_b|/64⌉` words.
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
    /// history. [`conflict_slice_with_scratch`](Self::conflict_slice_with_scratch)
    /// builds the same graph through reusable working memory.
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
        Self::conflict_slice_with_scratch(arena, hm, hb, cache, &mut SliceScratch::new())
    }

    /// [`conflict_slice`](Self::conflict_slice) with caller-held working
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if the cache holds fewer transactions than `hb`.
    pub fn conflict_slice_with_scratch(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        cache: &BaseEdgeCache,
        scratch: &mut SliceScratch,
    ) -> Self {
        assert!(cache.len() >= hb.len(), "base-edge cache is behind the base history");
        debug_assert!(
            hb.order() == &cache.history().order()[..hb.len()],
            "base-edge cache prefix does not match the base history"
        );
        let SliceScratch { rule3, selected, positions, reach, arcs, edges } = scratch;
        let (m, words) = (hm.len(), hb.len().div_ceil(64));
        rule3.clear();
        rule3.resize(2 * m * words, 0);
        selected.clear();
        selected.resize(words, 0);
        if words > 0 {
            for (id, rows) in hm.iter().zip(rule3.chunks_exact_mut(2 * words)) {
                let (reads_base, base_reads) = rows.split_at_mut(words);
                for (bits, lists, row) in [
                    (arena.read_bits(id), &cache.writers, reads_base),
                    (arena.write_bits(id), &cache.readers, base_reads),
                ] {
                    for list in bits.iter().filter_map(|x| lists.get(x as usize)) {
                        for &p in list.iter().take_while(|&&p| (p as usize) < hb.len()) {
                            row[p as usize / 64] |= 1u64 << (p % 64);
                        }
                    }
                    for (word, bits) in selected.iter_mut().zip(row.iter()) {
                        *word |= bits;
                    }
                }
            }
        }
        positions.clear();
        for (w, &word) in selected.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                positions.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }

        let mut nodes = Vec::with_capacity(m + positions.len());
        nodes.extend(hm.iter());
        nodes.extend(positions.iter().map(|&p| hb.order()[p]));
        let mut graph = Builder::new(arena, nodes, arcs, edges);
        graph.rule1(m);
        // Rule 3 in `build`'s order: tentative, then slice position, each
        // `T_m → T_b` edge before its `T_b → T_m` twin.
        let has = |row: &[u64], p: usize| row[p / 64] & (1u64 << (p % 64)) != 0;
        for a in 0..m {
            let (reads_base, base_reads) =
                rule3[2 * a * words..2 * (a + 1) * words].split_at(words);
            for (s, &p) in positions.iter().enumerate() {
                if has(reads_base, p) {
                    graph.edge(a, m + s, EdgeKind::MobileReadBase);
                }
                if has(base_reads, p) {
                    graph.edge(m + s, a, EdgeKind::BaseReadMobile);
                }
            }
        }
        let full_edges = graph.edges.len() + cache.edge_count(hb.len());

        // Base to base: the transitive reduction of rule-2 reachability
        // among the slice's base transactions. Latest first, `reach` row
        // `a` collects every slice index after `a` that `a` reaches; a
        // reachable index not yet in the row has no slice node on its
        // paths from `a`, so it gets an entry and brings its own row.
        let k = positions.len();
        let words = k.div_ceil(64);
        reach.clear();
        reach.resize(k * words, 0);
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
        &self.adj[self.at[i]..self.at[i + 1]]
    }

    fn preds(&self, i: usize) -> &[usize] {
        let n = self.nodes.len();
        &self.adj[self.at[n + 1 + i]..self.at[n + 2 + i]]
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

    /// The number of rule-1 edges (conflicting tentative pairs in `H_m`
    /// order), counted while the graph was built: the same number as
    /// [`rule1_edge_count`] of `H_m`.
    pub fn rule1_edges(&self) -> usize {
        self.rule1_edges
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
        let at = self.index.binary_search_by_key(&id, |entry| entry.0).ok()?;
        Some(self.index[at].1)
    }

    /// The kind (base/tentative) of a node.
    pub fn kind(&self, id: TxnId) -> Option<TxnKind> {
        self.index(id).map(|i| self.kinds[i])
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if node `i` is a tentative transaction.
    pub(crate) fn is_tentative(&self, i: usize) -> bool {
        self.kinds[i] == TxnKind::Tentative
    }

    /// The node indices of the transactions in `removed` that are in the
    /// graph.
    fn node_set(&self, removed: &BTreeSet<TxnId>) -> NodeSet {
        let mut set = NodeSet::new(self.len());
        for i in removed.iter().filter_map(|id| self.index(*id)) {
            set.insert(i);
        }
        set
    }

    /// Returns `true` if the graph is acyclic, ignoring nodes in `removed`.
    ///
    /// By Theorem 1, acyclicity means the two histories are serializable
    /// into one merged history.
    pub fn is_acyclic_without(&self, removed: &BTreeSet<TxnId>) -> bool {
        self.is_acyclic_without_nodes(&self.node_set(removed))
    }

    /// Returns `true` if the full graph is acyclic (Theorem 1).
    pub fn is_acyclic(&self) -> bool {
        self.is_acyclic_without_nodes(&NodeSet::new(self.len()))
    }

    /// [`is_acyclic_without`](Self::is_acyclic_without) over node
    /// indices: Kahn's algorithm, counting the nodes it can emit.
    pub(crate) fn is_acyclic_without_nodes(&self, removed: &NodeSet) -> bool {
        let n = self.len();
        let mut indegree = vec![0usize; n];
        for from in (0..n).filter(|&i| !removed.contains(i)) {
            for &to in self.succs(from) {
                if !removed.contains(to) {
                    indegree[to] += 1;
                }
            }
        }
        let mut ready: Vec<usize> =
            (0..n).filter(|&i| !removed.contains(i) && indegree[i] == 0).collect();
        let mut emitted = 0;
        while let Some(i) = ready.pop() {
            emitted += 1;
            for &to in self.succs(i) {
                if !removed.contains(to) {
                    indegree[to] -= 1;
                    if indegree[to] == 0 {
                        ready.push(to);
                    }
                }
            }
        }
        emitted == (0..n).filter(|&i| !removed.contains(i)).count()
    }

    /// Kahn topological sort over the nodes not in `removed`; `None` if the
    /// remaining graph has a cycle. Ties are broken by preferring **base**
    /// transactions, then lower node index — so merged histories
    /// deterministically front-load the durable base history where the
    /// graph allows, matching the paper's `H = Tb1 Tb2 Tm1 Tm2` in
    /// Example 1.
    fn topo_order_without(&self, removed: &NodeSet) -> Option<Vec<TxnId>> {
        let n = self.len();
        let mut indegree = vec![0usize; n];
        for from in (0..n).filter(|&i| !removed.contains(i)) {
            for &to in self.succs(from) {
                if !removed.contains(to) {
                    indegree[to] += 1;
                }
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut emitted = removed.clone();
        let alive_count = (0..n).filter(|&i| !removed.contains(i)).count();
        loop {
            // Deterministic tie-break: base nodes first, then lowest index.
            let next = (0..n)
                .filter(|&i| !emitted.contains(i) && indegree[i] == 0)
                .min_by_key(|&i| (self.kinds[i] != TxnKind::Base, i));
            let Some(i) = next else { break };
            emitted.insert(i);
            order.push(self.nodes[i]);
            for &to in self.succs(i) {
                if !emitted.contains(to) {
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
        self.topo_order_without(&self.node_set(removed)).map(SerialHistory::from_order)
    }

    /// The strongly connected components with more than one node, or with a
    /// self-loop — i.e. the components containing cycles. Nodes in
    /// `removed` are ignored.
    pub fn cyclic_sccs(&self, removed: &BTreeSet<TxnId>) -> Vec<Vec<TxnId>> {
        let mut components = Components::default();
        self.cyclic_components(
            &self.node_set(removed),
            &mut SccScratch::default(),
            &mut components,
        );
        components.iter().map(|scc| scc.iter().map(|&i| self.nodes[i]).collect()).collect()
    }

    /// [`cyclic_sccs`](Self::cyclic_sccs) over node indices, into `out`:
    /// Tarjan's algorithm (iterative) over the nodes not in `removed`,
    /// components in the order Tarjan completes them, each component's
    /// members sorted by transaction id.
    pub(crate) fn cyclic_components(
        &self,
        removed: &NodeSet,
        work: &mut SccScratch,
        out: &mut Components,
    ) {
        let n = self.len();
        out.members.clear();
        out.ends.clear();
        let SccScratch { index, lowlink, stack, call_stack } = work;
        index.clear();
        index.resize(n, usize::MAX);
        lowlink.clear();
        lowlink.resize(n, 0);
        stack.clear();
        call_stack.clear();
        // On the component stack: visited and not yet assigned.
        let mut on_stack = NodeSet::new(n);
        let mut next_index = 0usize;

        for start in 0..n {
            if removed.contains(start) || index[start] != usize::MAX {
                continue;
            }
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack.insert(start);
            // Explicit DFS stack: (node, position in its successor list).
            call_stack.push((start, 0));

            while let Some((v, pos)) = call_stack.last_mut() {
                let v = *v;
                let succs = self.succs(v);
                while *pos < succs.len() && removed.contains(succs[*pos]) {
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
                        on_stack.insert(w);
                        call_stack.push((w, 0));
                    } else if on_stack.contains(w) {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    call_stack.pop();
                    if let Some((parent, _)) = call_stack.last() {
                        lowlink[*parent] = lowlink[*parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let from = out.members.len();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack.remove(w);
                            out.members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let scc = &mut out.members[from..];
                        if scc.len() > 1 || self.succs(v).binary_search(&v).is_ok() {
                            scc.sort_unstable_by_key(|&i| self.nodes[i]);
                            out.ends.push(out.members.len());
                        } else {
                            out.members.truncate(from);
                        }
                    }
                }
            }
        }
    }

    /// All 2-cycles `(a, b)` (edges both ways) among non-removed nodes,
    /// with `a < b` by node order. Davidson's simulations found most
    /// conflicts appear as 2-cycles, motivating the two-cycle-optimal
    /// back-out strategy.
    pub fn two_cycles(&self, removed: &BTreeSet<TxnId>) -> Vec<(TxnId, TxnId)> {
        let mut out = Vec::new();
        self.two_cycle_nodes(&self.node_set(removed), &mut out);
        out.into_iter().map(|(a, b)| (self.nodes[a], self.nodes[b])).collect()
    }

    /// [`two_cycles`](Self::two_cycles) over node indices, into `out`.
    pub(crate) fn two_cycle_nodes(&self, removed: &NodeSet, out: &mut Vec<(usize, usize)>) {
        out.clear();
        for i in (0..self.len()).filter(|&i| !removed.contains(i)) {
            for &j in self.succs(i) {
                if j > i && !removed.contains(j) && self.succs(j).binary_search(&i).is_ok() {
                    out.push((i, j));
                }
            }
        }
    }

    /// Out-degree plus in-degree of a node, counting only edges between
    /// non-removed nodes. Used by greedy back-out strategies.
    pub fn degree_without(&self, id: TxnId, removed: &BTreeSet<TxnId>) -> usize {
        match self.index(id) {
            Some(i) => self.degree_without_nodes(i, &self.node_set(removed)),
            None => 0,
        }
    }

    /// [`degree_without`](Self::degree_without) of node `i`.
    pub(crate) fn degree_without_nodes(&self, i: usize, removed: &NodeSet) -> usize {
        if removed.contains(i) {
            return 0;
        }
        let live = |j: &&usize| !removed.contains(**j);
        self.succs(i).iter().filter(live).count() + self.preds(i).iter().filter(live).count()
    }
}

/// A set of node indices of one [`PrecedenceGraph`], one bit per node:
/// the first 64 in place, the rest in a `Vec` that stays empty for the
/// slices the merger builds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NodeSet {
    first: u64,
    rest: Vec<u64>,
}

impl NodeSet {
    /// The empty set over `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        NodeSet { first: 0, rest: vec![0; n.div_ceil(64).saturating_sub(1)] }
    }

    fn word(&mut self, i: usize) -> &mut u64 {
        match i / 64 {
            0 => &mut self.first,
            w => &mut self.rest[w - 1],
        }
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        let word = match i / 64 {
            0 => self.first,
            w => self.rest[w - 1],
        };
        word & (1u64 << (i % 64)) != 0
    }

    pub(crate) fn insert(&mut self, i: usize) {
        *self.word(i) |= 1u64 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        *self.word(i) &= !(1u64 << (i % 64));
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied()).enumerate().flat_map(
            |(w, word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        w * 64 + b
                    })
                })
            },
        )
    }
}

/// Tarjan's working arrays, reused across the passes of one back-out
/// computation.
#[derive(Debug, Default)]
pub(crate) struct SccScratch {
    index: Vec<usize>,
    lowlink: Vec<usize>,
    stack: Vec<usize>,
    call_stack: Vec<(usize, usize)>,
}

/// Cyclic components as node indices: component `c` is
/// `members[ends[c - 1]..ends[c]]` (from 0 for the first).
#[derive(Debug, Default)]
pub(crate) struct Components {
    members: Vec<usize>,
    ends: Vec<usize>,
}

impl Components {
    /// The components, in the order they were found.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(from, &to)| &self.members[from..to])
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// A [`PrecedenceGraph`] under construction: its nodes, the arcs added
/// so far, and the reasoned edges among them, built in borrowed buffers.
struct Builder<'a> {
    arena: &'a TxnArena,
    nodes: Vec<TxnId>,
    arcs: &'a mut Vec<(usize, usize)>,
    edges: &'a mut Vec<(TxnId, TxnId, EdgeKind)>,
    rule1_edges: usize,
}

impl<'a> Builder<'a> {
    fn new(
        arena: &'a TxnArena,
        nodes: Vec<TxnId>,
        arcs: &'a mut Vec<(usize, usize)>,
        edges: &'a mut Vec<(TxnId, TxnId, EdgeKind)>,
    ) -> Self {
        arcs.clear();
        edges.clear();
        Builder { arena, nodes, arcs, edges, rule1_edges: 0 }
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
                    self.rule1_edges += 1;
                }
            }
        }
    }

    /// Rule 3, pairwise: cross edges between the first `m` (tentative)
    /// nodes and the rest (base). Both histories started from the same
    /// state, so a tentative read of an item some base transaction wrote
    /// must have observed the pre-base value (and vice versa).
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
    /// matches the former `BTreeSet` order, and fills the transpose
    /// behind them in the same array.
    fn finish(self, full_edges: usize) -> PrecedenceGraph {
        let n = self.nodes.len();
        let arcs = self.arcs;
        arcs.sort_unstable();
        let e = arcs.len();
        // `at[i + 1]` counts node `i`'s successors and `at[n + 2 + i]` its
        // predecessors; prefix sums turn the counts into row starts.
        let mut at = vec![0; 2 * (n + 1)];
        for &(from, to) in arcs.iter() {
            at[from + 1] += 1;
            at[n + 2 + to] += 1;
        }
        at[n + 1] = e;
        for i in 0..n {
            at[i + 1] += at[i];
            at[n + 2 + i] += at[n + 1 + i];
        }
        let mut adj = vec![0; 2 * e];
        for (slot, &(_, to)) in adj.iter_mut().zip(arcs.iter()) {
            *slot = to;
        }
        // Counting sort into the predecessor rows: `at[n + 1 + to]` walks
        // row `to` and ends at the next row's start, so shifting the
        // cursors up one row restores the starts. Arcs ascend by `from`,
        // so each row ascends.
        for &(from, to) in arcs.iter() {
            adj[at[n + 1 + to]] = from;
            at[n + 1 + to] += 1;
        }
        for i in (n + 2..2 * n + 2).rev() {
            at[i] = at[i - 1];
        }
        at[n + 1] = e;
        let mut index: Vec<(TxnId, usize)> =
            self.nodes.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        index.sort_unstable();
        PrecedenceGraph {
            kinds: self.nodes.iter().map(|id| self.arena.get(*id).kind()).collect(),
            index,
            nodes: self.nodes,
            at,
            adj,
            edges: self.edges.to_vec(),
            full_edges,
            rule1_edges: self.rule1_edges,
        }
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
        g.adj.len() / 2
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
