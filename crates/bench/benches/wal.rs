//! Criterion bench: the write-ahead log's byte path on a log the size of
//! histbench's `storm-recovery` run — 2,000 commits, 1,000 session
//! records and 5 checkpoints whose snapshots carry the log so far, over
//! 192 items. `append` frames every record onto a fresh in-memory
//! store; `recover` rebuilds the base tier from the finished store,
//! verifying every frame's CRC on the way.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use histmerge_core::merge::InstallPlan;
use histmerge_history::TxnArena;
use histmerge_replication::metrics::SyncRecord;
use histmerge_replication::wal::{Snapshot, VecStorage, Wal, WalRecord};
use histmerge_replication::{recover, SessionRecord};
use histmerge_txn::{DbState, TxnId, VarId};
use histmerge_workload::cost::CostReport;

const ITEMS: u32 = 192;
const COMMITS: u32 = 2_000;
/// Five checkpoints, the last followed by a 300-commit tail to replay.
const CHECKPOINT_EVERY: u32 = 340;

/// One step of the log: a record, or a checkpoint of the state so far.
enum Step {
    Record(WalRecord),
    Checkpoint(Snapshot),
}

fn session_record(mobile: u32, seq: u64) -> SessionRecord {
    SessionRecord {
        plan: InstallPlan {
            forwarded: [(VarId::new(mobile % ITEMS), i64::from(mobile))].into_iter().collect(),
            reexecute: vec![TxnId::new(mobile), TxnId::new(mobile + 1)],
            saved: vec![TxnId::new(mobile + 2)],
        },
        retro_from: None,
        sync: SyncRecord {
            tick: seq * 40,
            mobile: mobile as usize,
            pending: 3,
            hb_len: 12,
            saved: 1,
            backed_out: 2,
            reprocessed: 0,
            merge_failed: false,
            sync_ns: 25_000,
        },
        cost: CostReport { comm: 1.0, base_cpu: 2.0, base_io: 0.5, mobile_cpu: 0.25 },
        reexec_done: 0,
        completed: false,
    }
}

/// The log: every commit writes three items; every second commit is
/// followed by one session record (installs, cursor advances,
/// completions and prunes in turn); a checkpoint follows every 340th.
fn storm_sized_log() -> (DbState, Vec<Step>) {
    let initial: DbState = (0..ITEMS).map(|v| (VarId::new(v), 100)).collect();
    let mut master = initial.clone();
    let mut log: Vec<(TxnId, DbState)> = Vec::new();
    let mut ledger: Vec<(u64, u64, SessionRecord)> = Vec::new();
    let mut steps = Vec::new();
    for i in 0..COMMITS {
        let writes: DbState =
            (0..3).map(|k| (VarId::new((i * 37 + k * 61) % ITEMS), i64::from(i * 3 + k))).collect();
        for (var, value) in writes.iter() {
            master.set(var, value);
        }
        log.push((TxnId::new(i), writes.clone()));
        steps.push(Step::Record(WalRecord::Commit { txn: TxnId::new(i), writes }));
        if i % 2 == 1 {
            let (mobile, seq) = (u64::from(i / 8 % 100), u64::from(i / 800));
            let record = match i / 2 % 4 {
                0 => {
                    let record = session_record(mobile as u32, seq);
                    ledger.push((mobile, seq, record.clone()));
                    WalRecord::SessionInstall { mobile, seq, record }
                }
                1 => WalRecord::ReexecAdvance { mobile, seq, done: 1 },
                2 => WalRecord::SessionComplete { mobile, seq },
                _ => WalRecord::SessionPrune { mobile, upto_seq: seq },
            };
            steps.push(Step::Record(record));
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            steps.push(Step::Checkpoint(Snapshot {
                log: log.clone(),
                master: master.clone(),
                epoch_start: log.len() as u64 / 2,
                epoch_state: initial.clone(),
                epoch: u64::from(i / CHECKPOINT_EVERY),
                ledger: ledger.clone(),
            }));
        }
    }
    (initial, steps)
}

fn append_all(initial: &DbState, steps: &[Step]) -> Wal<VecStorage> {
    let mut wal = Wal::new(VecStorage::new(), &Snapshot::genesis(initial.clone()));
    for step in steps {
        match step {
            Step::Record(record) => wal.append(record),
            Step::Checkpoint(snapshot) => wal.checkpoint(snapshot),
        }
    }
    wal
}

fn bench_wal(c: &mut Criterion) {
    let (initial, steps) = storm_sized_log();
    let mut group = c.benchmark_group("wal");
    group.sample_size(20);
    group.bench_function("append", |b| {
        b.iter(|| black_box(append_all(&initial, black_box(&steps)).bytes_written()));
    });
    let wal = append_all(&initial, &steps);
    let arena = TxnArena::new();
    group.bench_function("recover", |b| {
        b.iter(|| {
            let recovered = recover(&arena, black_box(wal.storage())).expect("recovers");
            black_box((recovered.records_applied, recovered.base.committed()))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_wal);
criterion_main!(benches);
