//! E16 — durable write-ahead logging and checkpointed recovery.
//!
//! Sweeps the checkpoint interval over a fixed session-path run and
//! measures the durability trade-off the interval buys:
//!
//! * **WAL volume** — records and bytes appended, plus the bytes still
//!   live after checkpoint compaction retires old segments;
//! * **recovery work** — records replayed after the latest checkpoint
//!   and wall-clock time for a full `recover()` from the end-of-run log.
//!
//! `ckptEvery = 0` is the genesis-only baseline: one checkpoint at
//! segment 0, so recovery replays the entire run. Frequent checkpoints
//! shrink both the live byte footprint and the replay tail at the price
//! of snapshot bytes written.
//!
//! Every cell is audited: recovery must reproduce the live end state
//! exactly (log, window, session ledger), and the durable run's
//! normalized metrics must match the plain session run byte-for-byte —
//! logging is observation-only.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_durability`

use histmerge_bench::{artifact_json, fmt, timed, write_artifact, Table};
use histmerge_replication::{
    recover, DurabilityConfig, FaultPlan, Protocol, SimConfig, SimReport, Simulation, SyncPath,
    SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

const SEEDS: u64 = 3;

fn config(seed: u64, durability: DurabilityConfig) -> SimConfig {
    SimConfig {
        n_mobiles: 6,
        duration: 600,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 60,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 150 },
        workload: ScenarioParams {
            n_vars: 48,
            commutative_fraction: 0.4,
            guarded_fraction: 0.2,
            read_only_fraction: 0.1,
            hot_fraction: 0.08,
            hot_prob: 0.6,
            seed,
            ..ScenarioParams::default()
        },
        sync_path: SyncPath::Session,
        fault: FaultPlan::none(),
        check_convergence: true,
        durability,
        ..SimConfig::default()
    }
}

/// One checkpoint interval, summed (volume) or averaged (time) over the
/// seed set.
struct Cell {
    records: u64,
    bytes: u64,
    live_bytes: usize,
    checkpoints: u64,
    retired: u64,
    replayed: usize,
    recovery_ms: f64,
}

fn run_cell(interval: u64, baseline: &[SimReport]) -> Cell {
    let mut cell = Cell {
        records: 0,
        bytes: 0,
        live_bytes: 0,
        checkpoints: 0,
        retired: 0,
        replayed: 0,
        recovery_ms: 0.0,
    };
    for seed in 0..SEEDS {
        let durability = DurabilityConfig { enabled: true, checkpoint_every: interval };
        let report = Simulation::new(config(seed, durability)).expect("valid sim config").run();
        let convergence = report.convergence.as_ref().expect("oracle requested");
        assert!(convergence.holds(), "ckpt {interval} seed {seed}: oracle failed: {convergence:?}");

        // Logging is observation-only: the durable run equals the plain
        // session run on everything the WAL counters don't measure.
        let plain = &baseline[seed as usize];
        assert_eq!(report.final_master, plain.final_master, "ckpt {interval} seed {seed}");
        assert_eq!(
            report.metrics.normalized(),
            plain.metrics.normalized(),
            "ckpt {interval} seed {seed}: durability perturbed the run"
        );

        cell.records += report.metrics.wal.records;
        cell.bytes += report.metrics.wal.bytes;
        cell.checkpoints += report.metrics.wal.checkpoints;
        cell.retired += report.metrics.wal.segments_retired;

        // Recover from the end-of-run log and audit against live state.
        let durable = report.durable.expect("durability enabled");
        cell.live_bytes += durable.storage.live_bytes();
        let (recovered, ms) = timed(|| recover(&durable.arena, &durable.storage));
        let recovered = recovered.expect("end-of-run log recovers");
        assert!(!recovered.torn, "ckpt {interval} seed {seed}: clean log reported torn");
        assert_eq!(recovered.base.log(), &durable.log[..], "ckpt {interval} seed {seed}: log");
        assert_eq!(recovered.base.epoch(), durable.epoch, "ckpt {interval} seed {seed}: epoch");
        assert_eq!(recovered.ledger, durable.ledger, "ckpt {interval} seed {seed}: ledger");
        cell.replayed += recovered.records_applied;
        cell.recovery_ms += ms / SEEDS as f64;
    }
    cell
}

fn main() {
    println!(
        "E16: WAL checkpoint interval vs recovery work (6 mobiles, 600 ticks, {SEEDS} seeds)\n"
    );

    // The observation-only baseline: the same runs without durability.
    let baseline: Vec<SimReport> = (0..SEEDS)
        .map(|seed| {
            Simulation::new(config(seed, DurabilityConfig::default()))
                .expect("valid sim config")
                .run()
        })
        .collect();

    let mut table = Table::new(&[
        "ckptEvery",
        "walRecords",
        "walKiB",
        "liveKiB",
        "checkpoints",
        "retired",
        "replayed",
        "recoveryMs",
    ]);
    let mut replayed_genesis_only = 0usize;
    let mut replayed_frequent = 0usize;
    for interval in [0u64, 32, 128, 512] {
        let cell = run_cell(interval, &baseline);
        if interval == 0 {
            replayed_genesis_only = cell.replayed;
        }
        if interval == 32 {
            replayed_frequent = cell.replayed;
        }
        table.row_owned(vec![
            if interval == 0 { "genesis".into() } else { interval.to_string() },
            cell.records.to_string(),
            fmt(cell.bytes as f64 / 1024.0, 1),
            fmt(cell.live_bytes as f64 / 1024.0, 1),
            cell.checkpoints.to_string(),
            cell.retired.to_string(),
            cell.replayed.to_string(),
            fmt(cell.recovery_ms, 3),
        ]);
    }
    table.print();

    // The headline: checkpoints bound the replay tail. Genesis-only
    // recovery replays the whole run; a 32-record interval replays only
    // what landed since the last snapshot.
    assert!(
        replayed_frequent < replayed_genesis_only,
        "frequent checkpoints did not shrink the replay tail: \
         {replayed_frequent} >= {replayed_genesis_only}"
    );
    println!(
        "\nreplay tail: genesis-only {replayed_genesis_only} records vs {replayed_frequent} at \
         interval 32 — checkpoints bound recovery work, compaction bounds the live log."
    );

    let json = artifact_json("exp_durability", &[("checkpoint_sweep", &table)]);
    println!("\nartifact: {}", write_artifact("exp_durability", &json).display());
}
