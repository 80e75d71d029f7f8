//! The reads-from relation and the affected set `AG`.
//!
//! The paper (footnote ‖) defines: transaction `T_j` *reads `x` from* `T_i`
//! if `T_j` reads `x` after `T_i` has updated `x` and no transaction updates
//! `x` in between. The *affected transactions* `AG` are the good
//! transactions in the reads-from transitive closure of the back-out set
//! `B`; the classical approach (Davidson 1984) backs out all of `B ∪ AG`.
//!
//! Relations here are computed over **static** read/write sets — the sets a
//! canned system extracts from transaction profiles offline (\[AJL98\], cited
//! in Section 7.1), so no read logging is needed at run time.

use std::collections::BTreeSet;

use histmerge_txn::{TxnId, VarId};

use crate::arena::TxnArena;
use crate::schedule::SerialHistory;

/// One reads-from fact: `reader` read `var` from `writer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReadsFrom {
    /// The transaction that read the value.
    pub reader: TxnId,
    /// The transaction that produced the value.
    pub writer: TxnId,
    /// The data item involved.
    pub var: VarId,
}

/// Computes every reads-from fact in a serial history.
///
/// For each transaction and each item in its read set, the writer is the
/// latest preceding transaction whose write set contains the item.
/// Transactions that read an item no one wrote earlier (they read from the
/// initial state) contribute no fact.
pub fn reads_from_facts(arena: &TxnArena, history: &SerialHistory) -> Vec<ReadsFrom> {
    let mut last_writer: std::collections::BTreeMap<VarId, TxnId> = Default::default();
    let mut facts = Vec::new();
    for id in history.iter() {
        let txn = arena.get(id);
        for var in txn.readset().iter() {
            if let Some(writer) = last_writer.get(&var) {
                facts.push(ReadsFrom { reader: id, writer: *writer, var });
            }
        }
        for var in txn.writeset().iter() {
            last_writer.insert(var, id);
        }
    }
    facts
}

/// Computes the affected set `AG`: every transaction *not in `bad`* that is
/// in the reads-from transitive closure of `bad`.
///
/// A single forward scan suffices for a serial history: a transaction is
/// affected as soon as it reads any item whose latest writer is in
/// `bad ∪ AG-so-far`. The taint map is a word-wise bitset over the arena's
/// dense variable index: per step one AND-any test against the read
/// footprint, then `tainted = (tainted & !writes) | (taints ? writes : 0)`
/// — identical answers to the per-variable `BTreeMap` scan.
///
/// # Example
///
/// In Example 1 of the paper, `Tm4` reads `d6` from `Tm3 ∈ B`, so
/// `AG = {Tm4}`.
pub fn affected_set(
    arena: &TxnArena,
    history: &SerialHistory,
    bad: &BTreeSet<TxnId>,
) -> BTreeSet<TxnId> {
    let mut tainted = vec![0u64; arena.var_count().div_ceil(64)];
    let mut affected = BTreeSet::new();
    for id in history.iter() {
        let is_bad = bad.contains(&id);
        let reads_tainted = !is_bad
            && arena.read_bits(id).words().iter().zip(tainted.iter()).any(|(r, t)| r & t != 0);
        if reads_tainted {
            affected.insert(id);
        }
        let taints = is_bad || reads_tainted;
        for (k, w) in arena.write_bits(id).words().iter().enumerate() {
            if taints {
                tainted[k] |= w;
            } else {
                tainted[k] &= !w;
            }
        }
    }
    affected
}

/// Reusable buffers for [`ClosureTable`] builds.
#[derive(Debug, Clone, Default)]
pub struct ClosureScratch {
    /// Last-writer position per dense variable index (`usize::MAX` = none).
    last_writer: Vec<usize>,
    /// One row of taint words, accumulated before committing to the table.
    row: Vec<u64>,
}

impl ClosureScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        ClosureScratch::default()
    }
}

/// Per-position reads-from closures of one history, all at once.
///
/// The back-out weight needs `|AG({t})|` for *every* tentative transaction,
/// and merge step 2 then needs `AG(B)` for the chosen set — the seed walked
/// the forward-scan closure once per transaction, an `O(n² · sets)` pattern.
/// One table build is a single forward pass: row `i` is the bitset of
/// positions whose back-out would taint transaction `i`
/// (`T[i] = bit(i) ∪ ⋃_{v ∈ reads(i)} T[lastwriter(v)]`). Then
///
/// * `weight(p) = 1 + |{i ≠ p : p ∈ T[i]}|` — a column count, and
/// * `AG(P) = {i ∉ P : T[i] ∩ P ≠ ∅}` — one AND-any per row,
///
/// both byte-identical to the per-call [`affected_set`] answers (the
/// union-of-singleton-closures identity `AG(B) = (⋃_{b∈B} AG({b})) \ B`
/// holds because taint propagation is monotone and per-item last-writer
/// chains don't depend on which set is backed out).
#[derive(Debug, Clone)]
pub struct ClosureTable {
    order: Vec<TxnId>,
    stride: usize,
    /// `order.len()` rows of `stride` words each.
    taint: Vec<u64>,
}

impl ClosureTable {
    /// Builds the closure table for `history` over `arena`.
    pub fn build(arena: &TxnArena, history: &SerialHistory) -> Self {
        Self::build_with_scratch(arena, history, &mut ClosureScratch::new())
    }

    /// [`build`](Self::build) with caller-held reusable buffers.
    pub fn build_with_scratch(
        arena: &TxnArena,
        history: &SerialHistory,
        scratch: &mut ClosureScratch,
    ) -> Self {
        let order: Vec<TxnId> = history.iter().collect();
        let n = order.len();
        let stride = n.div_ceil(64).max(1);
        let mut taint = vec![0u64; n * stride];
        let lw = &mut scratch.last_writer;
        lw.clear();
        lw.resize(arena.var_count(), usize::MAX);
        let row = &mut scratch.row;
        row.clear();
        row.resize(stride, 0);
        for (i, &id) in order.iter().enumerate() {
            row.fill(0);
            for var in arena.read_bits(id).iter() {
                let w = lw[var as usize];
                if w != usize::MAX {
                    let src = &taint[w * stride..(w + 1) * stride];
                    for (acc, word) in row.iter_mut().zip(src) {
                        *acc |= word;
                    }
                }
            }
            row[i / 64] |= 1u64 << (i % 64);
            taint[i * stride..(i + 1) * stride].copy_from_slice(row);
            for var in arena.write_bits(id).iter() {
                lw[var as usize] = i;
            }
        }
        ClosureTable { order, stride, taint }
    }

    /// The history order the table was built over.
    pub fn order(&self) -> &[TxnId] {
        &self.order
    }

    /// The back-out weight `1 + |AG({order[p]})|` of the transaction at
    /// position `p` — a column count over the taint rows.
    pub fn weight_of_position(&self, p: usize) -> u64 {
        let word = p / 64;
        let bit = 1u64 << (p % 64);
        let mut count = 0u64;
        for i in 0..self.order.len() {
            if i != p && self.taint[i * self.stride + word] & bit != 0 {
                count += 1;
            }
        }
        1 + count
    }

    /// All back-out weights, keyed by transaction.
    pub fn weights(&self) -> std::collections::BTreeMap<TxnId, u64> {
        self.order.iter().enumerate().map(|(p, id)| (*id, self.weight_of_position(p))).collect()
    }

    /// The back-out weight of transaction `id`: that of its position, or
    /// 1 (itself alone) if the history does not hold it. The merger's
    /// weight function, which builds no map.
    pub fn weight(&self, id: TxnId) -> u64 {
        self.order.iter().position(|t| *t == id).map_or(1, |p| self.weight_of_position(p))
    }

    /// The affected set `AG(bad)`: one AND-any per row against the mask of
    /// `bad` positions. Equals [`affected_set`] on the same inputs.
    pub fn affected_of(&self, bad: &BTreeSet<TxnId>) -> BTreeSet<TxnId> {
        let mut mask = vec![0u64; self.stride];
        for (i, id) in self.order.iter().enumerate() {
            if bad.contains(id) {
                mask[i / 64] |= 1u64 << (i % 64);
            }
        }
        let mut affected = BTreeSet::new();
        for (i, id) in self.order.iter().enumerate() {
            if bad.contains(id) {
                continue;
            }
            let row = &self.taint[i * self.stride..(i + 1) * self.stride];
            if row.iter().zip(mask.iter()).any(|(a, b)| a & b != 0) {
                affected.insert(*id);
            }
        }
        affected
    }
}

/// The back-out weights of just the transactions in `subset` — the same
/// `1 + |AG({t})|` numbers [`ClosureTable::weights`] reports, computed by
/// one forward pass that tracks taint for only the subset's columns:
/// `O(n · ⌈|subset|/64⌉)` words instead of the full table's
/// `O(n · ⌈n/64⌉)`. The merge-autopsy emitter uses this to re-derive the
/// weight charged to each backed-out transaction without rebuilding the
/// planner's whole closure table.
pub fn closure_weights_for(
    arena: &TxnArena,
    history: &SerialHistory,
    subset: &BTreeSet<TxnId>,
) -> std::collections::BTreeMap<TxnId, u64> {
    let order: Vec<TxnId> = history.iter().collect();
    let cols: Vec<usize> =
        order.iter().enumerate().filter(|(_, id)| subset.contains(id)).map(|(i, _)| i).collect();
    if cols.is_empty() {
        return std::collections::BTreeMap::new();
    }
    let stride = cols.len().div_ceil(64);
    let mut col_of = vec![usize::MAX; order.len()];
    for (j, &p) in cols.iter().enumerate() {
        col_of[p] = j;
    }
    let mut taint = vec![0u64; order.len() * stride];
    let mut lw = vec![usize::MAX; arena.var_count()];
    let mut row = vec![0u64; stride];
    let mut counts = vec![0u64; cols.len()];
    for (i, &id) in order.iter().enumerate() {
        row.fill(0);
        for var in arena.read_bits(id).iter() {
            let w = lw[var as usize];
            if w != usize::MAX {
                let src = &taint[w * stride..(w + 1) * stride];
                for (acc, word) in row.iter_mut().zip(src) {
                    *acc |= word;
                }
            }
        }
        if col_of[i] != usize::MAX {
            row[col_of[i] / 64] |= 1u64 << (col_of[i] % 64);
        }
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                if cols[j] != i {
                    counts[j] += 1;
                }
                bits &= bits - 1;
            }
        }
        taint[i * stride..(i + 1) * stride].copy_from_slice(&row);
        for var in arena.write_bits(id).iter() {
            lw[var as usize] = i;
        }
    }
    cols.iter().zip(counts).map(|(&p, c)| (order[p], 1 + c)).collect()
}

#[cfg(test)]
mod closure_subset_tests {
    use super::*;

    #[test]
    fn subset_weights_match_the_full_table() {
        let ex = crate::fixtures::example1();
        let full = ClosureTable::build(&ex.arena, &ex.hm).weights();
        for id in ex.hm.iter() {
            let subset: BTreeSet<TxnId> = [id].into_iter().collect();
            let partial = closure_weights_for(&ex.arena, &ex.hm, &subset);
            assert_eq!(partial.get(&id), full.get(&id), "weight mismatch for {id:?}");
        }
        let all: BTreeSet<TxnId> = ex.hm.iter().collect();
        assert_eq!(closure_weights_for(&ex.arena, &ex.hm, &all), full);
    }

    #[test]
    fn empty_subset_is_empty() {
        let ex = crate::fixtures::example1();
        assert!(closure_weights_for(&ex.arena, &ex.hm, &BTreeSet::new()).is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{Expr, Program, ProgramBuilder, Transaction, TxnKind, VarSet};
    use std::sync::Arc;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    /// A transaction reading `reads` and writing `writes` (writes must be a
    /// subset of reads ∪ writes; all written vars are read first).
    fn rw_txn(arena: &mut TxnArena, name: &str, reads: &[u32], writes: &[u32]) -> TxnId {
        let mut b = ProgramBuilder::new(name);
        let read_set: VarSet = reads.iter().chain(writes.iter()).map(|i| v(*i)).collect();
        for var in read_set.iter() {
            b = b.read(var);
        }
        for w in writes {
            b = b.update(v(*w), Expr::var(v(*w)) + Expr::konst(1));
        }
        let prog: Arc<Program> = Arc::new(b.build().unwrap());
        arena.alloc(|id| Transaction::new(id, name, TxnKind::Tentative, prog, vec![]))
    }

    #[test]
    fn reads_from_latest_writer() {
        let ex = crate::fixtures::example1();
        let [_, m2, m3, m4] = ex.m;
        let facts = reads_from_facts(&ex.arena, &ex.hm);
        // Tm4 reads d6; the latest preceding writer of d6 is Tm3 (not Tm2).
        assert!(facts.contains(&ReadsFrom { reader: m4, writer: m3, var: v(6) }));
        assert!(!facts.contains(&ReadsFrom { reader: m4, writer: m2, var: v(6) }));
        // Tm3 reads d5 from Tm2.
        assert!(facts.contains(&ReadsFrom { reader: m3, writer: m2, var: v(5) }));
    }

    #[test]
    fn no_fact_for_initial_state_reads() {
        let mut arena = TxnArena::new();
        let a = rw_txn(&mut arena, "A", &[0], &[]);
        let h = SerialHistory::from_order([a]);
        assert!(reads_from_facts(&arena, &h).is_empty());
    }

    #[test]
    fn example1_affected_set() {
        let ex = crate::fixtures::example1();
        let [m1, m2, m3, m4] = ex.m;
        // B = {Tm3} per the paper; the affected set is {Tm4}.
        let bad: BTreeSet<TxnId> = [m3].into_iter().collect();
        let ag = affected_set(&ex.arena, &ex.hm, &bad);
        assert_eq!(ag, [m4].into_iter().collect());
        assert!(!ag.contains(&m1));
        assert!(!ag.contains(&m2));
    }

    #[test]
    fn affected_set_is_transitive() {
        let mut arena = TxnArena::new();
        // B writes d0; T1 reads d0 writes d1; T2 reads d1 writes d2.
        let b = rw_txn(&mut arena, "B", &[], &[0]);
        let t1 = rw_txn(&mut arena, "T1", &[0], &[1]);
        let t2 = rw_txn(&mut arena, "T2", &[1], &[2]);
        let h = SerialHistory::from_order([b, t1, t2]);
        let bad: BTreeSet<TxnId> = [b].into_iter().collect();
        assert_eq!(affected_set(&arena, &h, &bad), [t1, t2].into_iter().collect());
    }

    #[test]
    fn overwrite_by_good_txn_cuts_taint() {
        let mut arena = TxnArena::new();
        // B writes d0; G1 writes d0 without reading it from B?  G1 must
        // read d0 (no blind writes), so G1 is affected — but G2, which
        // reads d0 from G1... is also affected (transitively). Contrast
        // with d1: B never touches it.
        let b = rw_txn(&mut arena, "B", &[], &[0]);
        let g1 = rw_txn(&mut arena, "G1", &[], &[1]);
        let g2 = rw_txn(&mut arena, "G2", &[1], &[]);
        let h = SerialHistory::from_order([b, g1, g2]);
        let bad: BTreeSet<TxnId> = [b].into_iter().collect();
        assert!(affected_set(&arena, &h, &bad).is_empty());
    }

    #[test]
    fn bad_transactions_never_in_ag() {
        let mut arena = TxnArena::new();
        let b1 = rw_txn(&mut arena, "B1", &[], &[0]);
        let b2 = rw_txn(&mut arena, "B2", &[0], &[1]);
        let h = SerialHistory::from_order([b1, b2]);
        let bad: BTreeSet<TxnId> = [b1, b2].into_iter().collect();
        assert!(affected_set(&arena, &h, &bad).is_empty());
    }

    #[test]
    fn closure_table_matches_affected_set_on_every_subset() {
        let ex = crate::fixtures::example1();
        let table = ClosureTable::build(&ex.arena, &ex.hm);
        assert_eq!(table.order(), ex.hm.order());
        // All 16 subsets of {Tm1..Tm4}: one table serves every query the
        // per-call forward scan answers.
        for mask in 0u32..16 {
            let bad: BTreeSet<TxnId> =
                ex.m.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, id)| *id)
                    .collect();
            assert_eq!(
                table.affected_of(&bad),
                affected_set(&ex.arena, &ex.hm, &bad),
                "subset mask {mask}"
            );
        }
        // Weights are 1 + singleton-closure sizes (Example 1: 4/3/2/1).
        for (p, id) in ex.m.iter().enumerate() {
            let singleton: BTreeSet<TxnId> = [*id].into_iter().collect();
            let ag = affected_set(&ex.arena, &ex.hm, &singleton);
            assert_eq!(table.weight_of_position(p), 1 + ag.len() as u64);
        }
        assert_eq!(table.weights()[&ex.m[0]], 4);
        for (id, weight) in table.weights() {
            assert_eq!(table.weight(id), weight);
        }
        assert_eq!(table.weight(ex.b[0]), 1, "a transaction outside the history");
    }

    #[test]
    fn closure_table_scratch_reuse_is_identical() {
        let ex = crate::fixtures::example1();
        let mut scratch = ClosureScratch::new();
        let fresh = ClosureTable::build(&ex.arena, &ex.hm);
        for _ in 0..3 {
            let reused = ClosureTable::build_with_scratch(&ex.arena, &ex.hm, &mut scratch);
            assert_eq!(reused.weights(), fresh.weights());
            // A shorter history right after must not see stale last-writers.
            let one = ClosureTable::build_with_scratch(
                &ex.arena,
                &SerialHistory::from_order([ex.m[3]]),
                &mut scratch,
            );
            assert_eq!(one.weight_of_position(0), 1);
        }
    }
}
