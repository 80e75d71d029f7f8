//! E19 — the million-mobile scale harness on the event-driven scheduler.
//!
//! The legacy tick loop rescanned the whole fleet twice per tick, so the
//! fleet sizes E6 could afford topped out in the dozens. With the
//! event-driven scheduler (DESIGN.md §14), compact per-mobile state
//! (`Arc` origin + write patch), and the lean base log, a tick costs only
//! its *due* events — this experiment sweeps the fleet from 10k to 1M
//! mobiles and reports the throughput the harness actually sustains.
//!
//! Two tables, two regimes:
//!
//! * `scale` — the headline sweep, under the linear **reprocessing**
//!   protocol. Per-tick scheduler cost is protocol-independent, and
//!   reprocessing resolves each pending transaction in O(program), so
//!   this table isolates what the harness itself scales like: ticks/sec,
//!   syncs/sec, the queue's pushed/popped totals (events, not fleet
//!   scans), and the peak-RSS proxy (`VmHWM` from `/proc/self/status`,
//!   0 where unavailable).
//! * `merge_regime` — the **merging** protocol with synchronized
//!   reconnects: whole fleet-sized batches hit the strided parallel
//!   merge pipeline, window rollovers force a reprocessing share, and
//!   the save ratio is exercised for real. Batch sizes here are bounded
//!   on purpose — every install lands in the shared window epoch, so
//!   same-tick cohorts pay for each other's installs (delta validation
//!   plus re-merges against the grown epoch history), which is
//!   quadratic in the cohort and the honest reason the saving regime
//!   does not extend to million-mobile reconnect storms.
//!
//! Every `scale` row is a **multi-seed** measurement: the sweep runs
//! three workload seeds per fleet size, reports the per-seed minimum
//! throughput (the conservative headline), and asserts the cross-seed
//! spread stays under 15% — the scaling claim is a property of the
//! harness, not of one lucky workload.
//!
//! `EXP_SCALE_SMOKE=1` drops the 1M row.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_scale`

use histmerge_bench::{artifact_json, fmt, timed, write_artifact, Table};
use histmerge_replication::{
    Parallelism, Protocol, SimConfig, SimReport, Simulation, SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

/// The process's peak resident set in kilobytes (`VmHWM`), or 0 where
/// `/proc` is unavailable. A high-water mark: with ascending fleet sizes
/// the largest run dominates, which is the number the sweep is after.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()))
        })
        .unwrap_or(0)
}

/// The seeds the headline sweep averages over. Three distinct workloads
/// per fleet size: the scaling claim must not hinge on one lucky seed.
const SEEDS: [u64; 3] = [1906, 2718, 3141];

fn workload_seeded(seed: u64) -> ScenarioParams {
    ScenarioParams {
        n_vars: 256,
        commutative_fraction: 0.7,
        guarded_fraction: 0.1,
        read_only_fraction: 0.1,
        hot_fraction: 0.05,
        hot_prob: 0.05,
        seed,
        ..ScenarioParams::default()
    }
}

fn workload() -> ScenarioParams {
    workload_seeded(SEEDS[0])
}

/// The headline sweep: short horizon, one generation burst per mobile,
/// lean base log, linear reprocessing. Everything here is O(due events)
/// per tick — the fleet size only shows up in init, the generation burst,
/// and the reconnect volume.
fn scale_config(fleet: usize, seed: u64) -> SimConfig {
    SimConfig {
        n_mobiles: fleet,
        duration: 40,
        base_rate: 0.2,
        // 0.03/tick: the shared accumulator crosses 1.0 once, at tick 33 —
        // exactly one tentative transaction per mobile inside the horizon.
        mobile_rate: 0.03,
        connect_every: 16,
        protocol: Protocol::Reprocessing,
        strategy: SyncStrategy::AdaptiveWindow { max_hb: 64 },
        workload: workload_seeded(seed),
        base_capacity: 10_000.0,
        backlog_sample_every: 0,
        ..SimConfig::default()
    }
}

/// The merge-regime sweep: synchronized reconnects turn every cadence
/// tick into a fleet-sized batch for the strided parallel merge pipeline,
/// and the window rollovers at ticks 100 and 200 force a reprocessing
/// share.
fn merge_config(fleet: usize) -> SimConfig {
    SimConfig {
        n_mobiles: fleet,
        duration: 200,
        base_rate: 0.2,
        mobile_rate: 0.05,
        connect_every: 25,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 100 },
        workload: workload(),
        base_capacity: 10_000.0,
        parallelism: Parallelism::Auto,
        synchronized_reconnects: true,
        backlog_sample_every: 0,
        ..SimConfig::default()
    }
}

/// Runs `config` at least three times and keeps the fastest wall clock
/// (the same min-of-reps discipline as E18 — the runs are deterministic,
/// so the reports are identical and only the timing varies). Short runs
/// keep repeating (up to 12 reps) until ~750ms of samples have been
/// taken: the cross-seed spread assertion compares these minima, and a
/// 66ms fleet would otherwise measure scheduler jitter, not workload.
fn run(config: SimConfig) -> (SimReport, f64) {
    let mut best: Option<(SimReport, f64)> = None;
    let mut total = 0.0;
    for rep in 0..12 {
        if rep >= 3 && total >= 750.0 {
            break;
        }
        let (report, ms) =
            timed(|| Simulation::new(config.clone()).expect("valid sim config").run());
        total += ms;
        if best.as_ref().is_none_or(|(_, b)| ms < *b) {
            best = Some((report, ms));
        }
    }
    best.expect("at least one rep ran")
}

fn main() {
    let smoke = std::env::var_os("EXP_SCALE_SMOKE").is_some();
    let fleets: &[usize] = if smoke { &[10_000, 100_000] } else { &[10_000, 100_000, 1_000_000] };

    println!(
        "E19: fleet scale-up on the event scheduler{}\n",
        if smoke { " (smoke mode: 1M row skipped)" } else { "" }
    );

    let mut scale = Table::new(&[
        "fleet",
        "tentative",
        "syncs",
        "reprocessed",
        "ticks_per_sec",
        "syncs_per_sec",
        "seed_spread",
        "events_pushed",
        "events_popped",
        "peak_rss_mb",
        "wall_ms",
    ]);
    for &fleet in fleets {
        // One untimed warm-up per fleet size: the first run at a new
        // scale pays the process's heap growth to that footprint
        // (seen as up to ~50% extra wall on the 100k row), which would
        // otherwise land entirely on whichever seed happens to run
        // first and dominate the cross-seed spread.
        let _ = Simulation::new(scale_config(fleet, SEEDS[0])).expect("valid sim config").run();
        // Three workloads per fleet size; the row reports the *slowest*
        // seed (the conservative headline) and the relative cross-seed
        // throughput spread, asserted under 15%: the scaling claim is a
        // property of the harness, not of one lucky workload. The seeds
        // are timed in *interleaved rounds* (seed A, B, C, then A, B, C
        // again …) with the per-seed minimum kept, so a machine-load
        // drift across the measurement lands on every seed instead of
        // masquerading as workload variance.
        let mut mins = [f64::INFINITY; SEEDS.len()];
        let mut reports: Vec<Option<SimReport>> = SEEDS.iter().map(|_| None).collect();
        let mut total = 0.0;
        for round in 0..12 {
            if round >= 3 && total >= 750.0 {
                break;
            }
            for (i, &seed) in SEEDS.iter().enumerate() {
                let (report, ms) = timed(|| {
                    Simulation::new(scale_config(fleet, seed)).expect("valid sim config").run()
                });
                total += ms;
                mins[i] = mins[i].min(ms);
                let m = &report.metrics;
                assert!(
                    m.tentative_generated >= fleet,
                    "seed {seed}: generation burst never fired"
                );
                assert!(m.syncs > 0, "seed {seed}: no mobile ever synced pending work");
                reports[i].get_or_insert(report);
            }
        }
        for (i, &seed) in SEEDS.iter().enumerate() {
            eprintln!("  fleet {fleet} seed {seed}: min {:.1} ms", mins[i]);
        }
        let slowest = (0..SEEDS.len())
            .max_by(|&a, &b| mins[a].total_cmp(&mins[b]))
            .expect("at least one seed ran");
        let (report, ms) = (reports[slowest].take().expect("seed ran"), mins[slowest]);
        let spread = {
            let (best, worst) = (
                mins.iter().cloned().fold(f64::INFINITY, f64::min),
                mins.iter().cloned().fold(0.0, f64::max),
            );
            // Wall-clock ratio == throughput ratio (fixed 40-tick horizon).
            (worst - best) / worst
        };
        assert!(spread < 0.15, "fleet {fleet}: cross-seed throughput spread {spread:.3} >= 15%");
        let m = &report.metrics;
        let secs = ms / 1e3;
        scale.row_owned(vec![
            fleet.to_string(),
            m.tentative_generated.to_string(),
            m.syncs.to_string(),
            m.reprocessed.to_string(),
            fmt(40.0 / secs, 1),
            fmt(m.syncs as f64 / secs, 1),
            fmt(spread, 3),
            m.sched.events_pushed.to_string(),
            m.sched.events_popped.to_string(),
            fmt(peak_rss_kb() as f64 / 1024.0, 1),
            fmt(ms, 0),
        ]);
    }
    scale.print();

    println!("\nmerge regime (synchronized reconnects, window 100):\n");
    let mut merge_regime = Table::new(&[
        "mobiles",
        "tentative",
        "syncs",
        "saved",
        "reprocessed",
        "save_ratio",
        "merges_per_sec",
        "batch_max",
        "wall_ms",
    ]);
    for &fleet in &[64usize, 256] {
        let (report, ms) = run(merge_config(fleet));
        let m = &report.metrics;
        let secs = ms / 1e3;
        assert!(m.saved > 0, "merging never engaged at {fleet} mobiles");
        merge_regime.row_owned(vec![
            fleet.to_string(),
            m.tentative_generated.to_string(),
            m.syncs.to_string(),
            m.saved.to_string(),
            m.reprocessed.to_string(),
            fmt(m.save_ratio(), 3),
            fmt(m.syncs as f64 / secs, 1),
            m.batch_sizes.iter().max().copied().unwrap_or(0).to_string(),
            fmt(ms, 0),
        ]);
    }
    merge_regime.print();

    println!(
        "\nThe sweep is the point the ROADMAP's million-user north star needs: per-tick\n\
         cost tracks due events, not fleet size, so the harness sustains fleets three\n\
         orders of magnitude past E6's. The split between the tables is the honest\n\
         finding: the scale rows run the linear reprocessing protocol, because under\n\
         merging a same-tick reconnect cohort pays quadratically for its own installs\n\
         (each member's delta validation and re-merge sees every earlier member's\n\
         appended base transactions) — so the saving regime lives at bounded batch\n\
         sizes, measured in the merge-regime rows, while fleet scale itself is now a\n\
         scheduler-and-memory question, not a tick-loop one."
    );
    let path = write_artifact(
        "BENCH_scale",
        &artifact_json("exp_scale", &[("scale", &scale), ("merge_regime", &merge_regime)]),
    );
    println!("\nartifact: {}", path.display());
}
