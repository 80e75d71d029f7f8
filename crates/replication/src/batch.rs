//! The parallel, batched base-tier merge pipeline.
//!
//! When several mobiles reconnect in the same tick under Strategy 2, every
//! member of the batch merges against the **same** window-start state and
//! the same (growing) epoch base history. The expensive, pure part of each
//! merge — graph build, cycle back-out, rewrite, prune — has no need to
//! see the other members' installs, so [`merge_batch`] runs those
//! concurrently against a common snapshot. The *install* phase then
//! applies forwarded updates and re-executions strictly in mobile-id
//! order, validating each speculative outcome against the base
//! transactions appended since the snapshot ([`delta_invalidates`]); a
//! member whose outcome the delta invalidates simply re-merges serially.
//! The result is byte-identical to the serial path (see the determinism
//! test and DESIGN.md for the argument).
//!
//! Under the resumable session path (`SyncPath::Session`) the same
//! speculative outcomes feed the per-mobile session state machines: a
//! member's speculation is validated at its session's merge step and
//! retained across mid-merge disconnects like any other computed
//! decision, so the pipeline composes with fault injection unchanged.
//! Mobiles carrying an unresolved prior session are excluded from
//! speculation — their pending set is only known after ledger recovery
//! runs (a recovered session may trim the already-committed prefix of the
//! persisted log).

use histmerge_core::merge::{MergeAssist, MergeOutcome, MergeScratch, Merger};
use histmerge_core::CoreError;
use histmerge_history::{BaseEdgeCache, DenseBits, SerialHistory, TxnArena};
use histmerge_obs::TracerHandle;
use histmerge_txn::{DbState, TxnId};

/// How many worker threads the batched sync path may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Merge batch members one at a time on the calling thread.
    Serial,
    /// One worker per available CPU, capped by the batch size.
    Auto,
    /// Exactly `n` workers, capped by the batch size (`0` and `1` both
    /// mean serial).
    Threads(usize),
}

impl Parallelism {
    /// The worker count for a batch of `batch` merges.
    pub fn workers(&self, batch: usize) -> usize {
        let cap = match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            Parallelism::Threads(n) => (*n).max(1),
        };
        cap.min(batch.max(1))
    }
}

/// One member of a merge batch: a reconnecting mobile's pending history.
#[derive(Debug, Clone)]
pub(crate) struct BatchJob {
    /// The mobile's id — the deterministic install-order key.
    pub(crate) mobile: usize,
    /// Its pending tentative history.
    pub(crate) hm: SerialHistory,
}

/// Runs the pure merge phase for every job against the shared snapshot
/// (`hb` from `s0`, with `hb_final` the state after `hb` and `cache` the
/// epoch's base-conflict edges). Returns one result per job, in job order.
///
/// With `workers <= 1` (or a single job) everything runs on the calling
/// thread; otherwise each of `W` scoped workers owns the strided queue of
/// jobs `w, w + W, w + 2W, …` — a static partition with no shared claim
/// counter or per-slot locks; workers return `(index, result)` pairs that
/// are scattered back into job order at join. Each worker builds its
/// [`Merger`] once and reuses it — its oracle and back-out strategy act as
/// the worker's scratch arena — which is why
/// [`histmerge_semantics::SemanticOracle`] and
/// [`histmerge_history::BackoutStrategy`] require `Send + Sync`.
///
/// The per-job computation is [`Merger::merge_traced_scratch`] with `cache`
/// and `hb_final` as the assist, on one thread; parallelism changes only
/// wall-clock time, never results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_batch(
    arena: &TxnArena,
    jobs: &[BatchJob],
    hb: &SerialHistory,
    s0: &DbState,
    hb_final: &DbState,
    cache: &BaseEdgeCache,
    make_merger: &(dyn Fn() -> Merger + Sync),
    workers: usize,
) -> Vec<Result<MergeOutcome, CoreError>> {
    let assist = MergeAssist { base_edges: Some(cache), hb_final: Some(hb_final) };
    let merge = |merger: &Merger, job: &BatchJob, scratch: &mut MergeScratch| {
        merger.merge_traced_scratch(arena, &job.hm, hb, s0, assist, &TracerHandle::noop(), scratch)
    };
    if workers <= 1 || jobs.len() <= 1 {
        let merger = make_merger();
        let mut scratch = MergeScratch::new();
        return jobs.iter().map(|j| merge(&merger, j, &mut scratch)).collect();
    }
    let n_workers = workers.min(jobs.len());
    let mut out: Vec<Option<Result<MergeOutcome, CoreError>>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                scope.spawn(move || {
                    let merger = make_merger();
                    // Per-worker scratch: buffers live as long as the
                    // worker and serve every job on its queue.
                    let mut scratch = MergeScratch::new();
                    jobs.iter()
                        .enumerate()
                        .skip(w)
                        .step_by(n_workers)
                        .map(|(k, job)| (k, merge(&merger, job, &mut scratch)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (k, result) in handle.join().expect("merge worker panicked") {
                out[k] = Some(result);
            }
        }
    });
    out.into_iter().map(|slot| slot.expect("every job merged")).collect()
}

/// The read and write footprint of a tentative history as dense bitset
/// unions of the arena's admission-time masks — no `VarSet` walk, no
/// re-interning. This is the speculation-time form: the unions are
/// computed once per batch job and every subsequent delta validation is
/// a handful of word-wise ANDs.
pub(crate) fn history_bits(arena: &TxnArena, hm: &SerialHistory) -> (DenseBits, DenseBits) {
    let mut reads = DenseBits::new();
    let mut writes = DenseBits::new();
    for id in hm.iter() {
        reads.union_with(arena.read_bits(id));
        writes.union_with(arena.write_bits(id));
    }
    (reads, writes)
}

/// Would appending `delta` to the base history have changed the merge of a
/// tentative history with footprint union (`read_bits`, `write_bits`)?
///
/// New precedence-graph edges incident to the tentative history appear
/// exactly when some delta transaction writes an item the history read
/// (rule 3, `T_m → T_b`) or reads an item the history wrote (rule 3,
/// `T_b → T_m`). Absent both, the delta contributes only forward
/// base-internal edges — appended base transactions have no edges back
/// into the snapshot — so back-out, rewrite, prune, and the forwarded
/// values are untouched (write-write overlap does not add cross edges; see
/// [`histmerge_history::PrecedenceGraph::build`]).
///
/// The footprints are the precomputed [`history_bits`] unions, so each
/// delta transaction costs two word-wise ANDs against its admission-time
/// bitsets — O(words), not O(txns × footprint).
pub(crate) fn delta_invalidates(
    arena: &TxnArena,
    delta: &[TxnId],
    read_bits: &DenseBits,
    write_bits: &DenseBits,
) -> bool {
    delta.iter().any(|&d| {
        arena.write_bits(d).intersects(read_bits) || arena.read_bits(d).intersects(write_bits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_core::merge::MergeConfig;
    use histmerge_history::fixtures::example1;
    use histmerge_history::AugmentedHistory;
    use histmerge_txn::{Expr, ProgramBuilder, Transaction, TxnKind, VarId};
    use std::sync::Arc;

    fn rw_txn(
        arena: &mut TxnArena,
        name: &str,
        kind: TxnKind,
        reads: &[u32],
        writes: &[u32],
    ) -> TxnId {
        let mut b = ProgramBuilder::new(name);
        for r in reads.iter().chain(writes.iter()) {
            b = b.read(VarId::new(*r));
        }
        for w in writes {
            b = b.update(VarId::new(*w), Expr::var(VarId::new(*w)) + Expr::konst(1));
        }
        let p = Arc::new(b.build().unwrap());
        arena.alloc(|id| Transaction::new(id, name, kind, p, vec![]))
    }

    #[test]
    fn workers_respect_mode_and_batch() {
        assert_eq!(Parallelism::Serial.workers(8), 1);
        assert_eq!(Parallelism::Threads(4).workers(8), 4);
        assert_eq!(Parallelism::Threads(4).workers(2), 2);
        assert_eq!(Parallelism::Threads(0).workers(8), 1);
        assert!(Parallelism::Auto.workers(64) >= 1);
        assert_eq!(Parallelism::Auto.workers(1), 1);
    }

    #[test]
    fn parallel_batch_matches_serial_batch() {
        let ex = example1();
        let mut cache = BaseEdgeCache::new();
        cache.sync(&ex.arena, &ex.hb);
        let hb_final =
            AugmentedHistory::execute(&ex.arena, &ex.hb, &ex.s0).unwrap().final_state().clone();
        // Four jobs over the same tentative history: results must agree
        // pairwise and with the serial run.
        let jobs: Vec<BatchJob> =
            (0..4).map(|mobile| BatchJob { mobile, hm: ex.hm.clone() }).collect();
        let make = || Merger::new(MergeConfig::default());
        let serial = merge_batch(&ex.arena, &jobs, &ex.hb, &ex.s0, &hb_final, &cache, &make, 1);
        let parallel = merge_batch(&ex.arena, &jobs, &ex.hb, &ex.s0, &hb_final, &cache, &make, 4);
        assert_eq!(serial.len(), 4);
        assert_eq!(parallel.len(), 4);
        for (s, p) in serial.iter().zip(parallel.iter()) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.saved, p.saved);
            assert_eq!(s.backed_out, p.backed_out);
            assert_eq!(s.forwarded, p.forwarded);
            assert_eq!(s.new_master, p.new_master);
            assert_eq!(s.graph_edges, p.graph_edges);
        }
    }

    #[test]
    fn fast_path_matches_plain_merges() {
        // A pending history disjoint from the whole base slice takes the
        // fast path, a conflicting one keeps the slow path, and both
        // outcomes equal a plain merge without the edge cache.
        let mut arena = TxnArena::new();
        let b0 = rw_txn(&mut arena, "b0", TxnKind::Base, &[0], &[1]);
        let b1 = rw_txn(&mut arena, "b1", TxnKind::Base, &[1], &[2]);
        let hb = SerialHistory::from_order([b0, b1]);
        let disjoint = rw_txn(&mut arena, "m0", TxnKind::Tentative, &[10], &[11]);
        let touching = rw_txn(&mut arena, "m1", TxnKind::Tentative, &[1], &[10]);
        let mut cache = BaseEdgeCache::new();
        cache.sync(&arena, &hb);
        let s0 = DbState::uniform(12, 0);
        let hb_final = AugmentedHistory::execute(&arena, &hb, &s0).unwrap().final_state().clone();
        let jobs = vec![
            BatchJob { mobile: 0, hm: SerialHistory::from_order([disjoint]) },
            BatchJob { mobile: 1, hm: SerialHistory::from_order([touching]) },
        ];
        let make = || Merger::new(MergeConfig::default());
        let fast = merge_batch(&arena, &jobs, &hb, &s0, &hb_final, &cache, &make, 1);
        for (job, f) in jobs.iter().zip(fast.iter()) {
            let f = f.as_ref().unwrap();
            let s = make().merge(&arena, &job.hm, &hb, &s0).unwrap();
            assert_eq!(s.saved, f.saved);
            assert_eq!(s.backed_out, f.backed_out);
            assert_eq!(s.forwarded, f.forwarded);
            assert_eq!(s.new_master, f.new_master);
            assert_eq!(s.graph_edges, f.graph_edges);
            assert!(!s.fast_path, "no edge cache, no fast path");
        }
        assert!(fast[0].as_ref().unwrap().fast_path, "disjoint member takes the fast path");
        assert!(!fast[1].as_ref().unwrap().fast_path, "conflicting member keeps the slow path");
    }

    #[test]
    fn delta_validation_tracks_rule3_edges() {
        let mut arena = TxnArena::new();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[1]);
        let hm = SerialHistory::from_order([m]);
        let (read_bits, write_bits) = history_bits(&arena, &hm);
        // The unions of a one-member history are its own footprint:
        // reads {0, 1} (writes imply reads here), writes {1}.
        let t = arena.get(m);
        assert!(t.readset().contains(VarId::new(0)));
        assert!(t.writeset().contains(VarId::new(1)));
        assert_eq!(read_bits, arena.bits_of(t.readset()));
        assert_eq!(write_bits, arena.bits_of(t.writeset()));

        // Delta writing an item the history read: invalidates.
        let d1 = rw_txn(&mut arena, "d1", TxnKind::Base, &[], &[0]);
        assert!(delta_invalidates(&arena, &[d1], &read_bits, &write_bits));
        // Delta reading an item the history wrote: invalidates.
        let d2 = rw_txn(&mut arena, "d2", TxnKind::Base, &[1], &[]);
        assert!(delta_invalidates(&arena, &[d2], &read_bits, &write_bits));
        // Disjoint delta: valid.
        let d3 = rw_txn(&mut arena, "d3", TxnKind::Base, &[5], &[6]);
        assert!(!delta_invalidates(&arena, &[d3], &read_bits, &write_bits));
        assert!(!delta_invalidates(&arena, &[], &read_bits, &write_bits));
    }
}
