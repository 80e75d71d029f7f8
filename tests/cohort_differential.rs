//! Oracle tests of the cohort install path: every member of a reconnect
//! cohort plans its merge live against the epoch history its predecessors
//! grew, then installs, in mobile-id order.
//!
//! Each run is checked against the paper's reference semantics rather
//! than against another implementation: the convergence oracle replays
//! the committed history serially and must reproduce the final master,
//! no tentative transaction may be resolved twice, and every per-sync
//! record must account for each pending transaction exactly once (saved,
//! backed out or reprocessed). Scenarios are generated over protocol ×
//! strategy × cohort size, on both sync paths.
//!
//! The deterministic fault-matrix sweep at the bottom runs every fault
//! kind under bounded admission, holding the convergence oracle to the
//! same bar as the fault matrix.

use proptest::prelude::*;

use histmerge::replication::{
    AdmissionConfig, FaultKind, FaultPlan, FaultRates, Protocol, SimConfig, SimReport, Simulation,
    SyncPath, SyncStrategy,
};
use histmerge::workload::generator::ScenarioParams;

const STRATEGIES: [SyncStrategy; 3] = [
    SyncStrategy::WindowStart { window: 120 },
    SyncStrategy::AdaptiveWindow { max_hb: 60 },
    SyncStrategy::PerDisconnectSnapshot,
];

/// A cohort-heavy scenario: synchronized reconnects put the whole fleet
/// into one merge cohort, and a hot, conflict-prone workload makes
/// earlier installs conflict with later members' pending histories.
/// Every mechanism comes from `SimConfig::default()`.
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
        check_convergence: true,
        ..SimConfig::default()
    }
}

/// Runs `config` and checks it against the oracles: convergence with zero
/// double resolutions, and per-sync accounting. Returns the report for
/// mechanism-engagement assertions.
fn run_checked(config: SimConfig, label: &str) -> SimReport {
    let report = Simulation::new(config).expect("valid sim config").run();
    let convergence = report.convergence.expect("convergence checked");
    assert_eq!(convergence.double_resolutions, 0, "{label}: a transaction resolved twice");
    assert!(convergence.holds(), "{label}: convergence oracle failed: {convergence:?}");
    let m = &report.metrics;
    for r in &m.records {
        assert_eq!(
            r.pending,
            r.saved + r.backed_out + r.reprocessed,
            "{label}: sync record does not account for its pending set: {r:?}"
        );
    }
    assert!(
        m.saved + m.backed_out + m.reprocessed <= m.tentative_generated,
        "{label}: more transactions resolved than generated"
    );
    report
}

proptest! {
    // Whole-simulation runs: few, fat cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cohorts converge across protocol × strategy × cohort size.
    #[test]
    fn cohort_scenarios_converge(
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
        run_checked(base, &label);
    }

    /// The resumable session path converges on fault-free cohorts too.
    #[test]
    fn session_cohorts_converge(
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
        run_checked(base, &label);
    }
}

/// The mechanisms actually engage under the default configuration: a hot
/// synchronized cohort installs as one batch whose later members back out
/// work against earlier installs, and a cold disjoint cohort drives
/// fast-path merges. Guards against the suite silently checking runs that
/// never merged a cohort.
#[test]
fn tuned_mechanisms_engage() {
    let hot =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 120 }, 8, 42, 0.9);
    let m = run_checked(hot, "engage/hot").metrics;
    assert!(m.batch_sizes.contains(&8), "the fleet never reconnected as one cohort");
    assert!(m.saved > 0 && m.backed_out > 0, "hot cohort neither saved nor backed out: {m:?}");
    assert!(m.cohort.edge_cache_appends > 0, "edge cache never appended");
    // Nothing speculates: the counters kept for the metrics shape stay 0.
    assert_eq!(m.speculative_hits + m.speculative_retries, 0);
    assert_eq!(m.cohort.wave_rounds, 0);

    // Cold workload: wide keyspace, no hotspot — pending histories are
    // usually disjoint from the concurrent base slice.
    let mut cold =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 120 }, 6, 43, 0.0);
    cold.workload.n_vars = 512;
    cold.workload.hot_fraction = 0.0;
    let m = run_checked(cold, "engage/cold").metrics;
    assert!(m.cohort.fastpath_merges > 0, "no merge ever took the fast path");
}

/// The fault-matrix row: every fault kind under bounded admission. The
/// convergence oracle must hold for every schedule. `FAULT_SEEDS` scales
/// the schedules per cell (CI's fault-matrix job runs release with a
/// large matrix).
#[test]
fn seed_matrix_convergence_under_admission() {
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
            run_checked(cfg, &format!("{kind:?} seed {s} rate {rate}"));
            schedules += 1;
        }
    }
    assert_eq!(schedules, kinds.len() * seeds as usize);
}
