//! Crash recovery: rebuild the base tier from its write-ahead log.
//!
//! Recovery is the read side of [`crate::wal`]: one pass over every live
//! segment in ascending id order, decoding each frame and applying it at
//! once. The pass covers the longest cleanly-framed record prefix
//! (anything after a torn or corrupt frame — including whole later
//! segments — is discarded); every checkpoint it meets restarts the
//! replay from that snapshot, so the state is the **latest checkpoint**
//! plus the records after it:
//!
//! * [`WalRecord::Commit`] re-appends the commit and applies its durable
//!   write delta to the master (no re-execution — the log stores written
//!   values, not programs);
//! * [`WalRecord::WindowStart`] rolls the base's window, which advances
//!   its epoch counter;
//! * [`WalRecord::RetroPatch`] replays a Strategy-1 retroactive install
//!   (the transaction arena supplies writesets for masking — programs are
//!   shared immutable knowledge, like application code, not crash-lost
//!   state);
//! * session records rebuild the ledger: installs insert, re-execution
//!   advances move the cursor, completes mark done, prunes drop acked
//!   rows.
//!
//! The resulting [`Recovered`] is exactly the durable prefix of the
//! pre-crash run: the crash-point torture tests assert this for a crash
//! at *every* storage operation, with and without torn tails.

use histmerge_history::TxnArena;

use crate::base::BaseNode;
use crate::session::SessionLedger;
use crate::wal::{visit_stream, Snapshot, Storage, Tail, WalRecord};

/// The base-tier state rebuilt from the latest checkpoint plus WAL tail.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered base node (master, committed log, window state and
    /// window counter).
    pub base: BaseNode,
    /// The recovered session ledger, re-execution cursors included.
    pub ledger: SessionLedger,
    /// Records replayed after the checkpoint the recovery started from.
    pub records_applied: usize,
    /// `true` when a torn or corrupt suffix was discarded (the log did not
    /// end at a clean record boundary).
    pub torn: bool,
}

/// Why recovery could not produce a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// No checkpoint record survived in the readable prefix — not even
    /// the genesis checkpoint was durable, so there is nothing to recover
    /// from.
    NoCheckpoint,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoCheckpoint => {
                write!(f, "no checkpoint record in the readable WAL prefix")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Rebuilds the base tier from `storage`. `arena` supplies transaction
/// writesets for retro-patch replay; it models shared immutable knowledge
/// (the programs), not crash-lost state.
pub fn recover(arena: &TxnArena, storage: &impl Storage) -> Result<Recovered, RecoveryError> {
    recover_traced(arena, storage, &histmerge_obs::TracerHandle::noop())
}

/// Like [`recover`], but times the whole replay as a
/// [`histmerge_obs::Phase::Recovery`] span and emits a
/// [`histmerge_obs::TraceEvent::RecoveryReplay`] summarizing it.
pub fn recover_traced(
    arena: &TxnArena,
    storage: &impl Storage,
    tracer: &histmerge_obs::TracerHandle,
) -> Result<Recovered, RecoveryError> {
    use histmerge_obs::{Phase, TraceEvent};
    let span = tracer.span_start();
    let recovered = recover_inner(arena, storage)?;
    tracer.span_end(Phase::Recovery, span);
    tracer.emit(|| TraceEvent::RecoveryReplay {
        records: recovered.records_applied,
        torn: recovered.torn,
    });
    Ok(recovered)
}

fn recover_inner(arena: &TxnArena, storage: &impl Storage) -> Result<Recovered, RecoveryError> {
    // One pass over the readable record prefix: segments in ascending id
    // order, stopping at the first torn tail. Later segments are
    // unreachable after a tear — they postdate the damage and cannot be
    // trusted to follow it. Each checkpoint met restarts the replay, so
    // the latest one wins: everything before it was compacted away
    // logically even if older segments still hold bytes.
    let mut replay: Option<Replay> = None;
    let mut torn = false;
    for id in storage.segment_ids() {
        let bytes = storage.segment(id).expect("listed segment exists");
        let tail = visit_stream(bytes, |record| match record {
            WalRecord::Checkpoint(snapshot) => replay = Some(Replay::from_checkpoint(*snapshot)),
            record => {
                if let Some(replay) = replay.as_mut() {
                    replay.apply(arena, record);
                }
            }
        });
        if let Tail::Torn { .. } = tail {
            torn = true;
            break;
        }
    }
    let replay = replay.ok_or(RecoveryError::NoCheckpoint)?;
    Ok(Recovered {
        base: replay.base,
        ledger: replay.ledger,
        records_applied: replay.records_applied,
        torn: torn || replay.stalled,
    })
}

/// The state rebuilt from the latest checkpoint met so far.
struct Replay {
    base: BaseNode,
    ledger: SessionLedger,
    /// Records applied since the checkpoint.
    records_applied: usize,
    /// A retro patch failed: nothing after it applies unless a later
    /// checkpoint restarts the replay.
    stalled: bool,
}

impl Replay {
    fn from_checkpoint(snapshot: Snapshot) -> Replay {
        let base = BaseNode::from_parts(
            snapshot.master,
            snapshot.log,
            snapshot.epoch,
            snapshot.epoch_start as usize,
            snapshot.epoch_state,
        );
        let mut ledger = SessionLedger::new();
        for (mobile, seq, record) in snapshot.ledger {
            ledger.insert(mobile as usize, seq, record);
        }
        Replay { base, ledger, records_applied: 0, stalled: false }
    }

    fn apply(&mut self, arena: &TxnArena, record: WalRecord) {
        if self.stalled {
            return;
        }
        let Replay { base, ledger, .. } = self;
        match record {
            WalRecord::Commit { txn, writes } => {
                base.restore_commit(txn, writes);
            }
            WalRecord::WindowStart => {
                base.start_window();
            }
            WalRecord::RetroPatch { from_index, updates } => {
                if base.retro_patch(arena, from_index as usize, &updates).is_err() {
                    // A patch that no longer fits the recovered log is
                    // semantic corruption the CRC cannot see; stop at the
                    // last coherent record, as with a torn frame.
                    self.stalled = true;
                    return;
                }
            }
            WalRecord::SessionInstall { mobile, seq, record } => {
                ledger.insert(mobile as usize, seq, record);
            }
            WalRecord::ReexecAdvance { mobile, seq, done } => {
                if let Some(rec) = ledger.get_mut(mobile as usize, seq) {
                    rec.reexec_done = done as usize;
                }
            }
            WalRecord::SessionComplete { mobile, seq } => {
                if let Some(rec) = ledger.get_mut(mobile as usize, seq) {
                    rec.completed = true;
                }
            }
            WalRecord::SessionPrune { mobile, upto_seq } => {
                ledger.prune_acked(mobile as usize, upto_seq);
            }
            WalRecord::Checkpoint(_) => unreachable!("a checkpoint restarts the replay"),
        }
        self.records_applied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{Snapshot, Tear, TornStorage, VecStorage, Wal};
    use histmerge_txn::{DbState, TxnId, VarId};

    fn state(pairs: &[(u32, i64)]) -> DbState {
        pairs.iter().map(|&(v, x)| (VarId::new(v), x)).collect()
    }

    fn wal_with_two_commits() -> Wal<VecStorage> {
        let genesis = Snapshot::genesis(state(&[(0, 0), (1, 0)]));
        let mut wal = Wal::new(VecStorage::new(), &genesis);
        wal.append(&WalRecord::Commit { txn: TxnId::new(0), writes: state(&[(0, 1)]) });
        wal.append(&WalRecord::WindowStart);
        wal.append(&WalRecord::Commit { txn: TxnId::new(1), writes: state(&[(1, 5)]) });
        wal
    }

    #[test]
    fn recovers_commits_and_windows_from_genesis() {
        let wal = wal_with_two_commits();
        let arena = TxnArena::new();
        let r = recover(&arena, wal.storage()).expect("recovers");
        assert!(!r.torn);
        assert_eq!(r.records_applied, 3);
        assert_eq!(r.base.epoch(), 1);
        assert_eq!(r.base.committed(), 2);
        assert_eq!(r.base.master(), &state(&[(0, 1), (1, 5)]));
        assert_eq!(r.base.epoch_start(), 1);
        assert_eq!(r.base.epoch_state(), &state(&[(0, 1), (1, 0)]));
        assert!(r.ledger.is_empty());
    }

    #[test]
    fn empty_storage_has_no_checkpoint() {
        let arena = TxnArena::new();
        assert_eq!(recover(&arena, &VecStorage::new()).unwrap_err(), RecoveryError::NoCheckpoint);
    }

    #[test]
    fn torn_tail_recovers_the_durable_prefix() {
        let wal = wal_with_two_commits();
        let arena = TxnArena::new();
        // Crash with the last append half-written: recovery must yield the
        // state after the first two records only.
        let ops = wal.storage().op_count();
        let torn = TornStorage::at_crash_point(wal.storage(), ops - 1, Tear::Truncate { keep: 5 });
        let r = recover(&arena, torn.storage()).expect("recovers prefix");
        assert!(r.torn);
        assert_eq!(r.base.committed(), 1);
        assert_eq!(r.base.epoch(), 1);
        assert_eq!(r.base.master(), &state(&[(0, 1), (1, 0)]));

        // A flipped bit in the same append: CRC catches it, same prefix.
        let flipped =
            TornStorage::at_crash_point(wal.storage(), ops - 1, Tear::FlipBit { byte: 12, bit: 6 });
        let r2 = recover(&arena, flipped.storage()).expect("recovers prefix");
        assert!(r2.torn);
        assert_eq!(r2.base.committed(), 1);
        assert_eq!(r2.base.master(), r.base.master());
    }

    #[test]
    fn latest_checkpoint_wins_and_older_segments_are_ignored() {
        let mut wal = wal_with_two_commits();
        let snap = Snapshot {
            log: wal_log(&wal),
            master: state(&[(0, 1), (1, 5)]),
            epoch_start: 1,
            epoch_state: state(&[(0, 1), (1, 0)]),
            epoch: 1,
            ledger: Vec::new(),
        };
        wal.checkpoint(&snap);
        wal.append(&WalRecord::Commit { txn: TxnId::new(2), writes: state(&[(0, 9)]) });

        let arena = TxnArena::new();
        let r = recover(&arena, wal.storage()).expect("recovers");
        assert!(!r.torn);
        assert_eq!(r.records_applied, 1, "only the post-checkpoint commit replays");
        assert_eq!(r.base.committed(), 3);
        assert_eq!(r.base.epoch(), 1);
        assert_eq!(r.base.master(), &state(&[(0, 9), (1, 5)]));
    }

    #[test]
    fn failed_patch_before_the_latest_checkpoint_is_not_a_tear() {
        // Segment 0 holds a retro patch that no longer fits its log; the
        // crash lands after segment 1's checkpoint is durable but before
        // segment 0 is deleted. Recovery starts from segment 1's
        // checkpoint, so the stale patch never ends the replay.
        let genesis = Snapshot::genesis(state(&[(0, 0)]));
        let mut wal = Wal::new(VecStorage::new(), &genesis);
        wal.append(&WalRecord::RetroPatch { from_index: 9, updates: state(&[(0, 4)]) });
        let snap = Snapshot { master: state(&[(0, 7)]), epoch: 2, ..genesis.clone() };
        wal.checkpoint(&snap);
        wal.append(&WalRecord::Commit { txn: TxnId::new(0), writes: state(&[(0, 8)]) });
        let ops = wal.storage().ops();
        let delete_at = ops
            .iter()
            .position(|op| matches!(op, crate::wal::StorageOp::Delete(0)))
            .expect("the checkpoint retired segment 0");
        let crashed = TornStorage::at_crash_point(wal.storage(), delete_at, Tear::Clean);
        assert_eq!(crashed.storage().segment_ids(), vec![0, 1]);

        let arena = TxnArena::new();
        let r = recover(&arena, crashed.storage()).expect("recovers");
        assert!(!r.torn, "a patch before the latest checkpoint is never replayed");
        assert_eq!(r.records_applied, 0);
        assert_eq!(r.base.epoch(), 2);
        assert_eq!(r.base.master(), &state(&[(0, 7)]));

        // After the crash point the commit replays from that checkpoint.
        let r = recover(&arena, wal.storage()).expect("recovers");
        assert!(!r.torn);
        assert_eq!(r.records_applied, 1);
        assert_eq!(r.base.master(), &state(&[(0, 8)]));

        // A patch that fails after the latest checkpoint still tears.
        wal.append(&WalRecord::RetroPatch { from_index: 9, updates: state(&[(0, 1)]) });
        wal.append(&WalRecord::WindowStart);
        let r = recover(&arena, wal.storage()).expect("recovers");
        assert!(r.torn);
        assert_eq!(r.records_applied, 1, "replay stops at the failed patch");
        assert_eq!(r.base.epoch(), 2);
        assert_eq!(r.base.master(), &state(&[(0, 8)]));
    }

    #[test]
    fn torn_frame_in_segment_zero_hides_segment_one() {
        use crate::wal::frame;
        let genesis = Snapshot::genesis(state(&[(0, 0)]));
        let commit =
            frame(&WalRecord::Commit { txn: TxnId::new(0), writes: state(&[(0, 3)]) }.encode());
        let later = Snapshot { master: state(&[(0, 9)]), epoch: 4, ..genesis.clone() };

        let mut storage = VecStorage::new();
        storage.create_segment(0);
        storage.append(0, &frame(&WalRecord::Checkpoint(Box::new(genesis)).encode()));
        storage.append(0, &commit);
        storage.append(0, &commit[..commit.len() - 1]);
        storage.create_segment(1);
        storage.append(1, &frame(&WalRecord::Checkpoint(Box::new(later)).encode()));

        let arena = TxnArena::new();
        let r = recover(&arena, &storage).expect("recovers");
        assert!(r.torn);
        assert_eq!(r.records_applied, 1, "the whole commit before the tear replays");
        assert_eq!(r.base.epoch(), 0, "segment 1's checkpoint lies past the tear");
        assert_eq!(r.base.master(), &state(&[(0, 3)]));
    }

    fn wal_log(_wal: &Wal<VecStorage>) -> Vec<(TxnId, DbState)> {
        vec![(TxnId::new(0), state(&[(0, 1)])), (TxnId::new(1), state(&[(1, 5)]))]
    }

    #[test]
    fn session_records_rebuild_the_ledger() {
        use crate::metrics::SyncRecord;
        use histmerge_core::merge::InstallPlan;
        use histmerge_workload::cost::CostReport;

        let record = crate::session::SessionRecord {
            plan: InstallPlan {
                forwarded: state(&[(0, 3)]),
                reexecute: vec![TxnId::new(7), TxnId::new(8)],
                saved: Vec::new(),
            },
            retro_from: None,
            sync: SyncRecord {
                tick: 1,
                mobile: 0,
                pending: 2,
                hb_len: 1,
                saved: 0,
                backed_out: 2,
                reprocessed: 0,
                merge_failed: false,
                sync_ns: 0,
            },
            cost: CostReport::default(),
            reexec_done: 0,
            completed: false,
        };

        let genesis = Snapshot::genesis(state(&[(0, 0)]));
        let mut wal = Wal::new(VecStorage::new(), &genesis);
        wal.append(&WalRecord::SessionInstall { mobile: 0, seq: 0, record: record.clone() });
        wal.append(&WalRecord::ReexecAdvance { mobile: 0, seq: 0, done: 2 });
        wal.append(&WalRecord::SessionComplete { mobile: 0, seq: 0 });
        wal.append(&WalRecord::SessionInstall { mobile: 1, seq: 0, record });

        let arena = TxnArena::new();
        let r = recover(&arena, wal.storage()).expect("recovers");
        assert_eq!(r.ledger.len(), 2);
        let rec = r.ledger.get(0, 0).expect("mobile 0 session");
        assert_eq!(rec.reexec_done, 2);
        assert!(rec.completed);
        assert!(!r.ledger.get(1, 0).expect("mobile 1 session").completed);

        // The prune record drops the acked row on replay too.
        wal.append(&WalRecord::SessionPrune { mobile: 0, upto_seq: 0 });
        let r2 = recover(&arena, wal.storage()).expect("recovers");
        assert_eq!(r2.ledger.len(), 1);
        assert!(r2.ledger.get(0, 0).is_none());
    }

    #[test]
    fn traced_recovery_reports_the_replay() {
        use histmerge_obs::{FlightRecorder, Phase, Tracer, TracerHandle};
        let wal = wal_with_two_commits();
        let arena = TxnArena::new();
        let sink = std::sync::Arc::new(FlightRecorder::new(64));
        let r = recover_traced(&arena, wal.storage(), &TracerHandle::new(sink.clone()))
            .expect("recovers");
        assert_eq!(r.records_applied, 3);
        let dump = sink.dump_jsonl().unwrap();
        assert!(dump.contains(r#""type":"recovery_replay","records":3,"torn":false"#), "{dump}");
        assert_eq!(sink.snapshot().unwrap().phase(Phase::Recovery).unwrap().count, 1);
        // Tracing never changes the recovered state.
        let plain = recover(&arena, wal.storage()).expect("recovers");
        assert_eq!(plain.base.master(), r.base.master());
        assert_eq!(plain.records_applied, r.records_applied);
    }
}
