//! E23 — the cohort install pipeline's cohort-size curve.
//!
//! A same-tick reconnect cohort merges one member at a time, in mobile-id
//! order: each member plans live against the epoch history its
//! predecessors grew, then installs. Members whose footprint is disjoint
//! from the whole concurrent base slice skip precedence-graph
//! construction (DESIGN.md §17). This experiment records how the install
//! path's wall clock grows with cohort size — 64, 256 and 1024 members —
//! on the synchronized reconnect merging scenario.
//!
//! Every other member builds and breaks only the conflict slice of the
//! precedence graph: its own history and the base transactions it shares
//! a rule-3 edge with, with rule-2 paths read from the epoch's
//! reachability summary (DESIGN.md §9). What still grows with the epoch
//! is a word-wise scan of it per merge and the edge cache's append-time
//! comparisons.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_cohort`

use histmerge_bench::{artifact_json, fmt, timed, write_artifact, Table};
use histmerge_replication::{Protocol, SimConfig, SimReport, Simulation, SyncStrategy};
use histmerge_workload::generator::ScenarioParams;

/// Synchronized reconnects turn every cadence tick into a fleet-sized
/// batch, and the window rollover at tick 100 forces a reprocessing
/// share.
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
        synchronized_reconnects: true,
        backlog_sample_every: 0,
        check_convergence: true,
        ..SimConfig::default()
    }
}

/// Min-of-2 wall clock, as in E21: deterministic runs, identical
/// reports, only the timing varies.
fn run(config: SimConfig) -> (SimReport, f64) {
    (0..2)
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
        "fastpath",
        "wall_ms",
        "merges_per_sec",
    ]);
    for fleet in [64, 256, 1024] {
        let (report, ms) = run(cohort_config(fleet));
        let verdict = report.convergence.expect("oracle requested");
        assert!(verdict.holds(), "x{fleet}: convergence oracle failed: {verdict:?}");
        let m = &report.metrics;
        assert!(m.saved > 0, "merging never engaged at {fleet} mobiles");
        eprintln!("  [x{fleet}] {ms:.0} ms");
        cohort.row_owned(vec![
            fleet.to_string(),
            m.syncs.to_string(),
            m.saved.to_string(),
            fmt(m.save_ratio(), 3),
            m.batch_sizes.iter().max().copied().unwrap_or(0).to_string(),
            m.cohort.fastpath_merges.to_string(),
            fmt(ms, 0),
            fmt(m.syncs as f64 / (ms / 1e3), 1),
        ]);
    }
    cohort.print();

    println!(
        "\nMembers that are not footprint-disjoint from the concurrent base slice\n\
         build only their conflict slice of the precedence graph. The curve is\n\
         still super-linear: the epoch grows with the cohort, each merge scans\n\
         it once (two word-wise intersections per base transaction) to select\n\
         its slice, and the edge cache compares every appended transaction with\n\
         the whole epoch."
    );

    let json = artifact_json("exp_cohort", &[("cohort", &cohort)]);
    println!("\nartifact: {}", write_artifact("BENCH_cohort", &json).display());
}
