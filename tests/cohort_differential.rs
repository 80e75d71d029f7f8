//! Differential tests of the cohort install pipeline: a reconnect cohort
//! merged concurrently must commit exactly what the same cohort merged one
//! member at a time.
//!
//! Under `Parallelism::Serial` no cohort speculates: every member merges
//! live against the grown epoch history at its install turn. Under
//! `Parallelism::Threads(4)` the cohort merges concurrently against the
//! window-start snapshot, each speculative outcome is validated at its
//! install turn, stale remainders are re-speculated in bounded waves, and
//! footprint-disjoint members take the merge fast path. Over generated
//! scenarios spanning protocol × strategy × cohort size the two runs must
//! agree byte for byte on the final master, the base commit count, the
//! cluster statistics, every per-sync record, the cost totals and every
//! behavioural counter except the speculative hit/retry split (a serial
//! run never speculates). Both runs also check the convergence oracle.
//!
//! The deterministic fault-matrix sweep at the bottom runs every fault
//! kind under bounded admission with the concurrent pipeline engaged,
//! holding the convergence oracle to the same bar as the fault matrix.

use proptest::prelude::*;

use histmerge::replication::metrics::Metrics;
use histmerge::replication::{
    AdmissionConfig, FaultKind, FaultPlan, FaultRates, Parallelism, Protocol, SimConfig, SimReport,
    Simulation, SyncPath, SyncStrategy,
};
use histmerge::workload::generator::ScenarioParams;

const STRATEGIES: [SyncStrategy; 3] = [
    SyncStrategy::WindowStart { window: 120 },
    SyncStrategy::AdaptiveWindow { max_hb: 60 },
    SyncStrategy::PerDisconnectSnapshot,
];

/// A cohort-heavy scenario: synchronized reconnects put the whole fleet
/// into one merge cohort, and a hot, conflict-prone workload makes
/// earlier installs invalidate later members' speculations — the regime
/// waves exist for. Every mechanism comes from `SimConfig::default()`.
fn config(
    protocol: Protocol,
    strategy: SyncStrategy,
    n_mobiles: usize,
    seed: u64,
    hot_prob: f64,
) -> SimConfig {
    SimConfig {
        n_mobiles,
        duration: 300,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 40,
        protocol,
        strategy,
        workload: ScenarioParams {
            n_vars: 48,
            commutative_fraction: 0.5,
            guarded_fraction: 0.15,
            read_only_fraction: 0.1,
            hot_fraction: 0.15,
            hot_prob,
            seed,
            ..ScenarioParams::default()
        },
        base_capacity: 200.0,
        synchronized_reconnects: true,
        // Pin the worker count so the speculative phase engages on any
        // host.
        parallelism: Parallelism::Threads(4),
        check_convergence: true,
        ..SimConfig::default()
    }
}

/// What a serial and a threaded run must share: everything
/// `Metrics::normalized` keeps except the speculative hit/retry split.
fn comparable(m: &Metrics) -> Metrics {
    Metrics { speculative_hits: 0, speculative_retries: 0, ..m.normalized() }
}

/// Runs `base` serially and with four workers, asserting both runs commit
/// the same thing and pass the convergence oracle. Returns
/// `(serial, threaded)` for mechanism-engagement assertions.
fn assert_matches_serial(base: SimConfig, label: &str) -> (SimReport, SimReport) {
    let serial_config = SimConfig { parallelism: Parallelism::Serial, ..base.clone() };
    let serial = Simulation::new(serial_config).expect("valid sim config").run();
    let threaded_config = SimConfig { parallelism: Parallelism::Threads(4), ..base };
    let threaded = Simulation::new(threaded_config).expect("valid sim config").run();

    assert_eq!(serial.final_master, threaded.final_master, "{label}: master state diverged");
    assert_eq!(serial.base_commits, threaded.base_commits, "{label}: commit count diverged");
    assert_eq!(serial.cluster, threaded.cluster, "{label}: cluster stats diverged");
    // Per-mobile saved / backed-out / reprocessed, exactly.
    assert_eq!(serial.metrics.records, threaded.metrics.records, "{label}: sync records diverged");
    // Everything else: counters, cost totals, backlog trajectory.
    assert_eq!(
        comparable(&serial.metrics),
        comparable(&threaded.metrics),
        "{label}: metrics diverged"
    );
    for (report, arm) in [(&serial, "serial"), (&threaded, "threaded")] {
        let convergence = report.convergence.expect("convergence checked");
        assert!(convergence.holds(), "{label}/{arm}: convergence oracle failed: {convergence:?}");
    }
    (serial, threaded)
}

proptest! {
    // Whole-simulation differentials: few, fat cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The concurrent pipeline (speculation, waves, fast path) commits
    /// exactly what the serial pipeline commits across protocol ×
    /// strategy × cohort size.
    #[test]
    fn threaded_pipeline_matches_serial(
        seed in 0u64..10_000,
        strategy_idx in 0usize..3,
        n_mobiles in 2usize..10,
        protocol_merging in proptest::bool::ANY,
        hot_prob in 0.2f64..0.9,
    ) {
        let protocol = if protocol_merging {
            Protocol::merging_default()
        } else {
            Protocol::Reprocessing
        };
        let strategy = STRATEGIES[strategy_idx];
        let base = config(protocol, strategy, n_mobiles, seed, hot_prob);
        let label = format!(
            "{}/{}/x{n_mobiles}/seed {seed}", protocol.name(), strategy.name()
        );
        assert_matches_serial(base, &label);
    }

    /// The session path holds the bar too: waves interact with the
    /// resumable handshake only through the speculation map, which is
    /// per-reconnect either way.
    #[test]
    fn threaded_session_path_matches_serial(
        seed in 0u64..10_000,
        n_mobiles in 2usize..8,
    ) {
        let mut base = config(
            Protocol::merging_default(),
            SyncStrategy::WindowStart { window: 120 },
            n_mobiles,
            seed,
            0.6,
        );
        base.sync_path = SyncPath::Session;
        base.fault = FaultPlan::none();
        let label = format!("session/x{n_mobiles}/seed {seed}");
        assert_matches_serial(base, &label);
    }
}

/// The mechanisms actually engage under the default configuration: a hot
/// synchronized cohort drives wave rounds, and a cold disjoint cohort
/// drives fast-path merges. Guards against the suite silently comparing
/// two runs that never speculated.
#[test]
fn tuned_mechanisms_engage() {
    // Hot workload: earlier installs invalidate later speculations.
    let hot =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 120 }, 8, 42, 0.9);
    let (serial, threaded) = assert_matches_serial(hot, "engage/hot");
    assert!(
        threaded.metrics.speculative_retries > 0,
        "hot scenario produced no invalidations to wave over"
    );
    assert!(threaded.metrics.cohort.wave_rounds > 0, "no wave ever ran");
    assert!(threaded.metrics.cohort.edge_cache_appends > 0, "edge cache never appended");
    let speculated = serial.metrics.speculative_hits + serial.metrics.speculative_retries;
    assert_eq!(speculated, 0, "the serial run speculated");
    assert_eq!(serial.metrics.cohort.wave_rounds, 0, "the serial run ran a wave");

    // Cold workload: wide keyspace, no hotspot — pending histories are
    // usually disjoint from the concurrent base slice.
    let mut cold =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 120 }, 6, 43, 0.0);
    cold.workload.n_vars = 512;
    cold.workload.hot_fraction = 0.0;
    let (_, threaded) = assert_matches_serial(cold, "engage/cold");
    assert!(threaded.metrics.cohort.fastpath_merges > 0, "no merge ever took the fast path");
}

/// The fault-matrix row: every fault kind under bounded admission with
/// the concurrent pipeline engaged. The convergence oracle must hold for
/// every schedule. `FAULT_SEEDS` scales the schedules per cell (CI's
/// fault-matrix job runs release with a large matrix).
#[test]
fn seed_matrix_convergence_with_waves() {
    let seeds: u64 = std::env::var("FAULT_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(4);
    const RATES: [f64; 2] = [0.1, 0.25];
    let kinds = [
        FaultKind::MessageLoss,
        FaultKind::MessageDuplication,
        FaultKind::MessageReorder,
        FaultKind::MidMergeDisconnect,
        FaultKind::BaseCrash,
    ];
    let mut schedules = 0usize;
    for kind in kinds {
        for s in 0..seeds {
            let rate = RATES[(s as usize) % RATES.len()];
            let mut cfg = config(
                Protocol::merging_default(),
                SyncStrategy::WindowStart { window: 120 },
                6,
                900 + s,
                0.6,
            );
            cfg.sync_path = SyncPath::Session;
            cfg.fault = FaultPlan::seeded(7000 + s, FaultRates::only(kind, rate));
            cfg.admission = AdmissionConfig::bounded(3);
            let report = Simulation::new(cfg).expect("valid sim config").run();
            let convergence = report.convergence.expect("oracle requested");
            assert!(
                convergence.holds(),
                "oracle failed for {kind:?} seed {s} rate {rate}: {convergence:?}"
            );
            schedules += 1;
        }
    }
    assert_eq!(schedules, kinds.len() * seeds as usize);
}
