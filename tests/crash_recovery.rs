//! The crash-point torture matrix (`replication::recovery`).
//!
//! A durability-enabled session run leaves behind its WAL storage with a
//! full mutation journal ([`DurableReport`]). This suite kills the base
//! at **every** journal boundary — and mid-record, via torn and
//! bit-flipped appends — and asserts the recovery oracle each time:
//!
//! * recovery reconstructs exactly the durable prefix: the recovered
//!   committed log is a prefix of the final log, and it never shrinks as
//!   the crash point advances (durability is monotone);
//! * the convergence oracle holds post-recovery: replaying the recovered
//!   history serially from the initial state reproduces the recovered
//!   master (Strategy-2 runs; retroactive patching makes replay
//!   inapplicable, as in the live oracle);
//! * a crash *after* the final write recovers the live end state exactly
//!   — log, master, epoch, window state, and session ledger;
//! * a torn or bit-flipped in-flight write recovers the same state as a
//!   crash just before it (the damage is discarded, flagged `torn`);
//! * the durable log is a redo log: every commit record carries only
//!   values of its transaction's write set, and folding those deltas over
//!   the initial state reproduces the final master.
//!
//! `CRASH_SEEDS` scales the number of workload seeds per cell; CI's
//! crash-recovery matrix runs the release build with a larger value.

use histmerge::history::AugmentedHistory;
use histmerge::obs::{dump_on_failure, FlightRecorder, TracerHandle};
use histmerge::replication::wal::{decode_stream, StorageOp};
use histmerge::replication::{
    recover, DurabilityConfig, DurableReport, FaultPlan, FaultRates, Protocol, Recovered,
    RecoveryError, SimConfig, Simulation, SyncPath, SyncStrategy, Tail, Tear, TornStorage,
    WalRecord,
};
use histmerge::txn::{DbState, TxnId};
use histmerge::workload::generator::ScenarioParams;

fn crash_seeds() -> u64 {
    std::env::var("CRASH_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

fn config(seed: u64, strategy: SyncStrategy, fault: FaultPlan) -> SimConfig {
    SimConfig {
        n_mobiles: 3,
        duration: 120,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 30,
        protocol: Protocol::merging_default(),
        strategy,
        workload: ScenarioParams {
            n_vars: 32,
            commutative_fraction: 0.4,
            guarded_fraction: 0.2,
            read_only_fraction: 0.1,
            hot_fraction: 0.1,
            hot_prob: 0.5,
            seed,
            ..ScenarioParams::default()
        },
        base_capacity: 120.0,
        sync_path: SyncPath::Session,
        fault,
        check_convergence: true,
        durability: DurabilityConfig { enabled: true, checkpoint_every: 64 },
        ..SimConfig::default()
    }
}

/// Runs the durable scenario with a flight recorder listening, returning
/// the durable artifacts plus the tracer so torture assertions can dump
/// the run's tail on failure.
fn durable_run(
    seed: u64,
    strategy: SyncStrategy,
    fault: FaultPlan,
) -> (DurableReport, TracerHandle) {
    let tracer = FlightRecorder::handle(512);
    let mut cfg = config(seed, strategy, fault);
    cfg.tracer = tracer.clone();
    let report = Simulation::new(cfg).expect("valid sim config").run();
    assert!(report.convergence.expect("oracle requested").holds());
    (report.durable.expect("durability enabled"), tracer)
}

/// Replaying the recovered history serially from the initial state must
/// reproduce the recovered master — the convergence oracle, applied to a
/// recovered prefix.
fn assert_recovered_converges(durable: &DurableReport, r: &Recovered, label: &str) {
    let history = r.base.full_history();
    let aug = AugmentedHistory::execute(&durable.arena, &history, &durable.initial)
        .unwrap_or_else(|e| panic!("{label}: recovered history does not replay: {e:?}"));
    assert_eq!(
        aug.final_state(),
        r.base.master(),
        "{label}: serial replay of the recovered history diverges from the recovered master"
    );
}

/// A crash after the final write must recover the live end state exactly.
fn assert_full_recovery_is_exact(durable: &DurableReport, label: &str) {
    let r = recover(&durable.arena, &durable.storage).expect("full log recovers");
    assert!(!r.torn, "{label}: undamaged log reported torn");
    assert_eq!(r.base.log(), &durable.log[..], "{label}: recovered log != live log");
    assert_eq!(r.base.epoch(), durable.epoch, "{label}: epoch diverged");
    assert_eq!(r.base.epoch_start(), durable.epoch_start, "{label}: window start diverged");
    assert_eq!(r.base.epoch_state(), &durable.epoch_state, "{label}: window state diverged");
    assert_eq!(r.ledger, durable.ledger, "{label}: session ledger diverged");
}

/// The matrix core: crash cleanly at every journal boundary. The
/// recovered log must be an exact prefix of the final log; with
/// `replayable` (Strategy 2 — no retroactive patching) the serial-replay
/// oracle must hold at every point too.
fn torture_clean_boundaries(durable: &DurableReport, replayable: bool, label: &str) {
    let ops = durable.storage.op_count();
    assert!(ops > 0, "{label}: durable run journaled nothing");
    let mut prev_commits = 0usize;
    for k in 0..=ops {
        let crashed = TornStorage::at_crash_point(&durable.storage, k, Tear::Clean);
        match recover(&durable.arena, crashed.storage()) {
            Err(RecoveryError::NoCheckpoint) => {
                // Legitimate only before the genesis checkpoint landed.
                assert_eq!(prev_commits, 0, "{label}@{k}: checkpoint lost after commits");
            }
            Ok(r) => {
                let committed = r.base.committed();
                assert!(
                    committed >= prev_commits,
                    "{label}@{k}: durability regressed ({committed} < {prev_commits})"
                );
                prev_commits = committed;
                assert!(committed <= durable.log.len(), "{label}@{k}: phantom commits");
                assert_eq!(
                    r.base.log(),
                    &durable.log[..committed],
                    "{label}@{k}: recovered log is not the durable prefix"
                );
                if replayable {
                    assert_recovered_converges(durable, &r, &format!("{label}@{k}"));
                }
            }
        }
    }
    assert_eq!(prev_commits, durable.log.len(), "{label}: final crash point lost commits");
}

/// Mid-record damage: every in-flight append, torn short or bit-flipped,
/// must recover exactly what a clean crash *before* that write recovers —
/// the damaged suffix is discarded, never misread.
fn torture_torn_writes(durable: &DurableReport, label: &str) {
    for (k, op) in durable.storage.ops().iter().enumerate() {
        let StorageOp::Append(_, bytes) = op else { continue };
        if bytes.len() <= 8 {
            continue;
        }
        let tears = [
            Tear::Truncate { keep: bytes.len() / 2 },
            Tear::Truncate { keep: bytes.len() - 1 },
            Tear::FlipBit { byte: bytes.len() / 2, bit: 3 },
        ];
        let clean = recover(
            &durable.arena,
            TornStorage::at_crash_point(&durable.storage, k, Tear::Clean).storage(),
        );
        for tear in tears {
            let damaged = TornStorage::at_crash_point(&durable.storage, k, tear);
            match (&clean, recover(&durable.arena, damaged.storage())) {
                (Err(e), Err(e2)) => assert_eq!(*e, e2, "{label}@{k}: {tear:?} changed the error"),
                (Ok(c), Ok(r)) => {
                    assert!(r.torn, "{label}@{k}: {tear:?} not flagged torn");
                    assert_eq!(r.base.log(), c.base.log(), "{label}@{k}: {tear:?} changed the log");
                    assert_eq!(
                        r.base.master(),
                        c.base.master(),
                        "{label}@{k}: {tear:?} changed the master"
                    );
                    assert_eq!(
                        r.base.epoch(),
                        c.base.epoch(),
                        "{label}@{k}: {tear:?} changed the epoch"
                    );
                    assert_eq!(r.ledger, c.ledger, "{label}@{k}: {tear:?} changed the ledger");
                }
                (clean, damaged) => panic!(
                    "{label}@{k}: {tear:?} flipped recoverability: clean {clean:?} vs {damaged:?}"
                ),
            }
        }
    }
}

/// Strategy 2 (window-start snapshots): the base log is append-only, so
/// the full matrix applies — prefix exactness, serial-replay convergence
/// at every crash point, and torn-write equivalence. Runs fault-free and
/// under a mixed 15% fault schedule.
#[test]
fn crash_point_matrix_window_start() {
    let strategy = SyncStrategy::WindowStart { window: 80 };
    for seed in 0..crash_seeds() {
        for (fault, kind) in [
            (FaultPlan::none(), "fault-free"),
            (FaultPlan::seeded(seed, FaultRates::uniform(0.15)), "faulted"),
        ] {
            let label = format!("window-start/{kind}/seed{seed}");
            let (durable, tracer) = durable_run(seed, strategy, fault);
            dump_on_failure(&tracer, &format!("crash-matrix-{kind}-seed{seed}"), || {
                assert!(durable.storage.op_count() > 8, "{label}: run too small to torture");
                torture_clean_boundaries(&durable, true, &label);
                torture_torn_writes(&durable, &label);
                assert_full_recovery_is_exact(&durable, &label);
            });
        }
    }
}

/// Strategy 1 (per-disconnect snapshots): retroactive patches change the
/// master outside the committed history, so serial replay is inapplicable
/// (as in the live oracle). The log itself stays append-only — a patch
/// never edits recorded write deltas — so every crash point still
/// recovers an exact prefix, never regresses, and the full log
/// reproduces the live end state.
#[test]
fn crash_point_matrix_per_disconnect_snapshot() {
    for seed in 0..crash_seeds() {
        let label = format!("per-disconnect/seed{seed}");
        let (durable, tracer) =
            durable_run(seed, SyncStrategy::PerDisconnectSnapshot, FaultPlan::none());
        dump_on_failure(&tracer, &format!("crash-matrix-per-disconnect-seed{seed}"), || {
            torture_clean_boundaries(&durable, false, &label);
            torture_torn_writes(&durable, &label);
            assert_full_recovery_is_exact(&durable, &label);
        });
    }
}

/// Checkpoint compaction must not shrink what a crash can recover: with
/// frequent checkpoints, every clean boundary still recovers the exact
/// durable prefix even though old segments are deleted mid-journal.
#[test]
fn compaction_never_loses_durable_commits() {
    let tracer = FlightRecorder::handle(512);
    let mut cfg = config(11, SyncStrategy::WindowStart { window: 80 }, FaultPlan::none());
    cfg.durability.checkpoint_every = 16;
    cfg.tracer = tracer.clone();
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let durable = report.durable.expect("durability enabled");
    dump_on_failure(&tracer, "crash-matrix-compaction", || {
        assert!(
            durable.storage.ops().iter().any(|op| matches!(op, StorageOp::Delete(_))),
            "checkpoint interval 16 never compacted — the test is vacuous"
        );
        torture_clean_boundaries(&durable, true, "compaction");
        assert_full_recovery_is_exact(&durable, "compaction");
    });
}

/// Asserts a log entry carries only values of its transaction's static
/// write set.
fn assert_write_delta(durable: &DurableReport, txn: TxnId, writes: &DbState, label: &str) {
    assert!(
        writes.vars().is_subset(durable.arena.get(txn).writeset()),
        "{label}: {txn:?} logged items outside its write set: {writes}"
    );
}

/// The durable base log is a redo log of write deltas, not of after
/// states. On a faulted durable session run, every decoded commit record
/// and every checkpointed log entry holds a subset of its transaction's
/// static write set, each commit is logged exactly once, and — with no
/// retroactive patches — folding the live log's deltas over the initial
/// state reproduces the final master.
#[test]
fn durable_log_records_write_deltas() {
    for seed in 0..crash_seeds() {
        let label = format!("redo-log/seed{seed}");
        let tracer = FlightRecorder::handle(512);
        let fault = FaultPlan::seeded(seed, FaultRates::uniform(0.15));
        let mut cfg = config(seed, SyncStrategy::WindowStart { window: 80 }, fault);
        cfg.tracer = tracer.clone();
        let report = Simulation::new(cfg).expect("valid sim config").run();
        assert_eq!(report.metrics.retro_patches, 0, "{label}: Strategy 2 never retro-patches");
        let durable = report.durable.expect("durability enabled");
        dump_on_failure(&tracer, &format!("redo-log-seed{seed}"), || {
            let mut commit_records = 0usize;
            for op in durable.storage.ops() {
                let StorageOp::Append(_, bytes) = op else { continue };
                let (records, tail) = decode_stream(bytes);
                assert_eq!(tail, Tail::Clean, "{label}: journaled append does not decode");
                for record in records {
                    match record {
                        WalRecord::Commit { txn, writes } => {
                            assert_write_delta(&durable, txn, &writes, &label);
                            commit_records += 1;
                        }
                        WalRecord::Checkpoint(snapshot) => {
                            for (txn, writes) in &snapshot.log {
                                assert_write_delta(&durable, *txn, writes, &label);
                            }
                        }
                        _ => {}
                    }
                }
            }
            assert!(commit_records > 0, "{label}: run committed nothing");
            assert_eq!(commit_records, durable.log.len(), "{label}: commits not logged once");
            let mut state = durable.initial.clone();
            for (txn, writes) in &durable.log {
                assert_write_delta(&durable, *txn, writes, &label);
                state.apply(writes);
            }
            assert_eq!(state, report.final_master, "{label}: redo log does not rebuild the master");
        });
    }
}
