//! E23 — the cohort install pipeline's cohort-size curve.
//!
//! A same-tick reconnect cohort merges concurrently against the
//! window-start snapshot, each member's speculative outcome is validated
//! at its install turn, stale remainders re-merge concurrently in bounded
//! waves, and members whose footprint is disjoint from the whole
//! concurrent base slice skip precedence-graph construction (DESIGN.md
//! §17). This experiment records how that pipeline's wall clock grows
//! with cohort size — 64, 256 and 1024 members — on the synchronized
//! reconnect merging scenario with the worker count pinned to 4.
//!
//! The curve is super-linear: every member that is not footprint-disjoint
//! still builds a precedence graph linear in the grown epoch history. It
//! is the baseline a conflict-subgraph merge has to flatten.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_cohort`

use histmerge_bench::{artifact_json, fmt, timed, write_artifact, Table};
use histmerge_replication::{
    Parallelism, Protocol, SimConfig, SimReport, Simulation, SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

/// Synchronized reconnects turn every cadence tick into a fleet-sized
/// batch, and the window rollover at tick 100 forces a reprocessing
/// share. The worker count is pinned.
fn cohort_config(fleet: usize) -> SimConfig {
    SimConfig {
        n_mobiles: fleet,
        duration: 200,
        base_rate: 0.2,
        mobile_rate: 0.05,
        connect_every: 25,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 100 },
        workload: ScenarioParams {
            n_vars: 256,
            commutative_fraction: 0.7,
            guarded_fraction: 0.1,
            read_only_fraction: 0.1,
            hot_fraction: 0.05,
            hot_prob: 0.05,
            seed: 1906,
            ..ScenarioParams::default()
        },
        base_capacity: 10_000.0,
        // Pinned (not `Auto`) so the speculative phase engages with the
        // same worker count on any host.
        parallelism: Parallelism::Threads(4),
        synchronized_reconnects: true,
        backlog_sample_every: 0,
        check_convergence: true,
        ..SimConfig::default()
    }
}

/// Min-of-`reps` wall clock, as in E21: deterministic runs, identical
/// reports, only the timing varies.
fn run(config: SimConfig, reps: usize) -> (SimReport, f64) {
    (0..reps)
        .map(|_| timed(|| Simulation::new(config.clone()).expect("valid sim config").run()))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one rep ran")
}

fn main() {
    println!("E23: the cohort install pipeline's cohort-size curve\n");

    let mut cohort = Table::new(&[
        "mobiles",
        "syncs",
        "saved",
        "save_ratio",
        "batch_max",
        "wave_rounds",
        "fastpath",
        "wall_ms",
        "merges_per_sec",
    ]);
    for fleet in [64, 256, 1024] {
        // The 1024 row is over a minute of wall on its own; one rep is
        // enough there (min-of-reps matters at millisecond scale).
        let reps = if fleet >= 1024 { 1 } else { 2 };
        let (report, ms) = run(cohort_config(fleet), reps);
        let verdict = report.convergence.expect("oracle requested");
        assert!(verdict.holds(), "x{fleet}: convergence oracle failed: {verdict:?}");
        let m = &report.metrics;
        assert!(m.saved > 0, "merging never engaged at {fleet} mobiles");
        assert!(
            m.cohort.wave_rounds > 0 || m.speculative_retries == 0,
            "x{fleet}: invalidations occurred but no wave ever ran"
        );
        eprintln!(
            "  [x{fleet}] {ms:.0} ms (parallel merge {:.0} ms, retries {})",
            m.parallel_merge_ns as f64 / 1e6,
            m.speculative_retries,
        );
        cohort.row_owned(vec![
            fleet.to_string(),
            m.syncs.to_string(),
            m.saved.to_string(),
            fmt(m.save_ratio(), 3),
            m.batch_sizes.iter().max().copied().unwrap_or(0).to_string(),
            m.cohort.wave_rounds.to_string(),
            m.cohort.fastpath_merges.to_string(),
            fmt(ms, 0),
            fmt(m.syncs as f64 / (ms / 1e3), 1),
        ]);
    }
    cohort.print();

    println!(
        "\nEvery member that is not footprint-disjoint from the concurrent base\n\
         slice still builds a precedence graph linear in the grown epoch, so the\n\
         curve stays super-linear in cohort size."
    );

    let json = artifact_json("exp_cohort", &[("cohort", &cohort)]);
    println!("\nartifact: {}", write_artifact("BENCH_cohort", &json).display());
}
