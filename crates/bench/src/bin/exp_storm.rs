//! E21 — reconnect storms under base-side admission control.
//!
//! A fleet-wide `ConnectivityModel::OutageStorm` knocks every link down
//! for `outage` ticks; each mobile whose reconnect cadence lands inside
//! the window slides to the first up tick, so the storm's end is a
//! thundering herd: a reconnect cohort approaching the whole fleet in a
//! single tick. Under the merging protocol that cohort is the worst
//! input the base can see — same-tick installs pay for each other's
//! delta validation quadratically.
//!
//! The sweep crosses outage length with admission policy:
//!
//! * `uncapped` — the pre-admission behaviour: the whole herd merges in
//!   one tick (`batch_max` ~ fleet);
//! * `capN` — `AdmissionConfig::bounded(N)`: at most `N` merges per
//!   tick, the excess shed into the deterministic deferred FIFO and
//!   drained ahead of fresh arrivals on the following ticks.
//!
//! Reported per cell: the peak cohort, how many reconnects were shed,
//! the p99 admission wait (over *all* syncs — a sync that was never
//! deferred waited 0 ticks), the worst wait, and throughput. The
//! assertions are the acceptance bar:
//!
//! 1. bounded cohorts never exceed the cap, uncapped ones really see the
//!    herd (`batch_max` grows with the outage);
//! 2. the deferred queue drains: after the storm the slid cohort stays
//!    roughly cadence-synchronized, so reconnect waves recur for the
//!    rest of the run and a wave landing near the horizon is still
//!    draining when the run ends — the bar is that the residue
//!    (`shed - deferred_drained`) is at most one cohort's worth, and
//!    the p99 wait stays within the drain window `ceil(fleet / cap)`;
//! 3. admission costs latency, not work: the bounded run never commits
//!    less than the uncapped run (deferral shifts *when* a sync lands,
//!    which can move a handful of horizon-edge transactions either way,
//!    so the bar is a 0.5% one-sided floor, not byte equality) and every
//!    cell converges.
//!
//! `EXP_STORM_SMOKE=1` shrinks the fleet and drops the longest outage.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_storm`

use histmerge_bench::{artifact_json, fmt, timed, write_artifact, Table};
use histmerge_replication::{
    AdmissionConfig, ConnectivityModel, Protocol, RetryBackoff, SimConfig, SimReport, Simulation,
    SyncPath, SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

const STORM_START: u64 = 100;
const SURGE_TICKS: u64 = 40;
const CAP: usize = 8;

fn config(fleet: usize, outage: u64, admission: AdmissionConfig) -> SimConfig {
    SimConfig {
        n_mobiles: fleet,
        duration: 600,
        base_rate: 0.2,
        mobile_rate: 0.05,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 150 },
        workload: ScenarioParams {
            n_vars: 192,
            commutative_fraction: 0.7,
            guarded_fraction: 0.1,
            read_only_fraction: 0.1,
            hot_fraction: 0.05,
            hot_prob: 0.1,
            seed: 2108,
            ..ScenarioParams::default()
        },
        base_capacity: 10_000.0,
        sync_path: SyncPath::Session,
        backlog_sample_every: 0,
        connectivity: ConnectivityModel::OutageStorm {
            start: STORM_START,
            outage_ticks: outage,
            surge_ticks: SURGE_TICKS,
            fault_boost: 1.0,
        },
        admission,
        check_convergence: true,
        ..SimConfig::default()
    }
}

/// Min-of-`reps` wall clock: the runs are deterministic, so the reports
/// are identical and only timing varies. The uncapped herd cells cost
/// tens of seconds each, so the full sweep uses two reps (smoke mode
/// one).
fn run(config: SimConfig, reps: usize) -> (SimReport, f64) {
    let mut best: Option<(SimReport, f64)> = None;
    for _ in 0..reps {
        let (report, ms) =
            timed(|| Simulation::new(config.clone()).expect("valid sim config").run());
        if best.as_ref().is_none_or(|(_, b)| ms < *b) {
            best = Some((report, ms));
        }
    }
    best.expect("at least one rep ran")
}

/// The p99 admission wait over the whole sync population: `defer_waits`
/// holds one entry per *deferred* sync, every other sync waited zero
/// ticks, so the vector is zero-padded to `syncs` before ranking.
fn p99_wait(waits: &[u64], syncs: usize) -> u64 {
    let total = syncs.max(waits.len());
    if total == 0 {
        return 0;
    }
    let mut sorted = waits.to_vec();
    sorted.sort_unstable();
    let rank = (total as f64 * 0.99).ceil() as usize; // 1-based over the padded population
    let zeros = total - sorted.len();
    if rank <= zeros {
        0
    } else {
        sorted[rank - zeros - 1]
    }
}

fn main() {
    let smoke = std::env::var_os("EXP_STORM_SMOKE").is_some();
    // Smoke mode keeps the fleet (so its rows share keys with a
    // full-mode run) and drops the longer outages instead.
    let fleet: usize = 300;
    let outages: &[u64] = if smoke { &[30] } else { &[30, 60, 120] };
    let reps = if smoke { 1 } else { 2 };

    println!(
        "E21: reconnect storms under admission control ({fleet} mobiles, storm at tick \
         {STORM_START}{})\n",
        if smoke { ", smoke mode" } else { "" }
    );

    let mut table = Table::new(&[
        "scenario",
        "batch_max",
        "shed",
        "drained",
        "defer_peak",
        "p99_wait",
        "wait_max",
        "syncs",
        "commits",
        "saved",
        "merges_per_sec",
        "wall_ms",
    ]);

    for &outage in outages {
        let mut uncapped_commits = 0usize;
        let mut uncapped_resolved = 0usize;
        for (label, admission) in
            [("uncapped", AdmissionConfig::unbounded()), ("cap", AdmissionConfig::bounded(CAP))]
        {
            let mut cfg = config(fleet, outage, admission);
            cfg.session.backoff = RetryBackoff::enabled();
            let scenario = if label == "cap" {
                format!("o{outage}-cap{CAP}")
            } else {
                format!("o{outage}-uncapped")
            };
            let (report, ms) = run(cfg, reps);
            eprintln!("  [{scenario}] done in {ms:.0} ms/rep");
            let m = &report.metrics;
            let convergence = report.convergence.expect("oracle requested");
            assert!(convergence.holds(), "{scenario}: oracle failed: {convergence:?}");

            let batch_max = m.batch_sizes.iter().max().copied().unwrap_or(0);
            let storm = m.storm;
            let p99 = p99_wait(&m.defer_waits, m.syncs);
            let resolved = m.saved + m.reprocessed + m.backed_out;

            if label == "cap" {
                // Bar 1: the cap really bounds every cohort.
                assert!(
                    m.batch_sizes.iter().all(|&b| b <= CAP),
                    "{scenario}: cohort exceeded the cap ({batch_max} > {CAP})"
                );
                // Bar 2: the queue drains. Post-storm reconnect waves
                // recur every cadence, so the final wave may still be
                // draining at the horizon — tolerate at most one
                // cohort's worth of residue, never a growing backlog.
                let residue = storm.shed - storm.deferred_drained;
                assert!(
                    residue <= 2 * CAP as u64,
                    "{scenario}: deferred queue left {residue} residue \
                     (shed {}, drained {})",
                    storm.shed,
                    storm.deferred_drained
                );
                assert!(storm.shed > 0, "{scenario}: the storm never engaged admission");
                let drain_window = fleet.div_ceil(CAP) as u64;
                assert!(
                    p99 <= drain_window,
                    "{scenario}: p99 wait {p99} beyond the drain window {drain_window}"
                );
                // Bar 3: latency, not lost work. Deferral shifts sync
                // timing, which can move a handful of horizon-edge
                // transactions into or out of the run in either
                // direction, so the bar is a tight one-sided floor: the
                // bounded run never commits (or resolves) meaningfully
                // less than the uncapped run.
                assert!(
                    report.base_commits as f64 >= 0.995 * uncapped_commits as f64,
                    "{scenario}: admission reduced commits ({} vs uncapped {uncapped_commits})",
                    report.base_commits
                );
                assert!(
                    resolved as f64 >= 0.995 * uncapped_resolved as f64,
                    "{scenario}: admission reduced resolved work \
                     ({resolved} vs uncapped {uncapped_resolved})"
                );
            } else {
                // The herd is real: the whole slid cohort lands at once.
                assert!(
                    batch_max > CAP,
                    "{scenario}: no herd formed (batch_max {batch_max} <= cap {CAP})"
                );
                assert_eq!(storm.shed, 0, "{scenario}: unbounded admission shed a reconnect");
                uncapped_commits = report.base_commits;
                uncapped_resolved = resolved;
            }

            table.row_owned(vec![
                scenario,
                batch_max.to_string(),
                storm.shed.to_string(),
                storm.deferred_drained.to_string(),
                storm.deferred_peak.to_string(),
                p99.to_string(),
                storm.defer_wait_max.to_string(),
                m.syncs.to_string(),
                report.base_commits.to_string(),
                m.saved.to_string(),
                fmt(m.syncs as f64 / (ms / 1e3), 1),
                fmt(ms, 0),
            ]);
        }
    }
    table.print();

    println!(
        "\nAdmission control trades a bounded, predictable admission wait (p99 inside the\n\
         ceil(fleet/cap) drain window) for the uncapped herd's quadratic same-tick merge\n\
         cohort — and the trade is pure scheduling: the bounded runs commit and resolve\n\
         at least what the uncapped runs do, storm or no storm."
    );

    let json = artifact_json("exp_storm", &[("storm", &table)]);
    println!("\nartifact: {}", write_artifact("BENCH_storm", &json).display());
}

#[cfg(test)]
mod tests {
    use super::p99_wait;

    #[test]
    fn p99_ranks_over_the_zero_padded_population() {
        // 100 syncs, one deferred for 7 ticks: rank 99 is still a zero.
        assert_eq!(p99_wait(&[7], 100), 0);
        // 100 syncs, two deferred: rank 99 lands on the smaller wait.
        assert_eq!(p99_wait(&[7, 3], 100), 3);
        // Every sync deferred: rank 99 of 100 is the second-largest.
        let waits: Vec<u64> = (1..=100).collect();
        assert_eq!(p99_wait(&waits, 100), 99);
        // Degenerate cases.
        assert_eq!(p99_wait(&[], 0), 0);
        assert_eq!(p99_wait(&[], 50), 0);
    }
}
