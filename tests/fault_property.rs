//! Property-based tests of fault-injected sync sessions.
//!
//! Three families, per the fault model in `replication::fault`:
//!
//! 1. the convergence oracle holds over arbitrary `(seed, rate, strategy)`
//!    draws — after any fault schedule, the committed history replayed
//!    through the serial path reproduces the final master;
//! 2. duplicated messages never double-install (session-ledger
//!    idempotence);
//! 3. a fault plan whose rates are all zero reproduces the legacy path
//!    byte-for-byte, whatever its seed.
//!
//! The deterministic seed-matrix test at the bottom sweeps every fault
//! kind x strategy; `FAULT_SEEDS` scales the number of schedules per cell
//! (CI runs the release build with a large matrix, the default keeps
//! debug-mode `cargo test` fast).

use proptest::prelude::*;

use histmerge::obs::{dump_on_failure, FlightRecorder};
use histmerge::replication::{
    AdmissionConfig, ConnectivityModel, FaultKind, FaultPlan, FaultRates, FaultStats, Protocol,
    RetryBackoff, SimConfig, Simulation, SyncPath, SyncStrategy,
};
use histmerge::workload::canned_mix::{CannedFlavor, CannedMixParams};
use histmerge::workload::generator::ScenarioParams;

const STRATEGIES: [SyncStrategy; 3] = [
    SyncStrategy::WindowStart { window: 120 },
    SyncStrategy::AdaptiveWindow { max_hb: 60 },
    SyncStrategy::PerDisconnectSnapshot,
];

fn config(workload_seed: u64, strategy: SyncStrategy, fault: FaultPlan) -> SimConfig {
    SimConfig {
        n_mobiles: 3,
        duration: 240,
        base_rate: 0.25,
        mobile_rate: 0.2,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy,
        workload: ScenarioParams {
            n_vars: 48,
            commutative_fraction: 0.5,
            guarded_fraction: 0.15,
            read_only_fraction: 0.1,
            hot_fraction: 0.1,
            hot_prob: 0.4,
            seed: workload_seed,
            ..ScenarioParams::default()
        },
        base_capacity: 120.0,
        sync_path: SyncPath::Session,
        fault,
        check_convergence: true,
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After ANY mixed fault schedule, the surviving committed history
    /// replays to the final master and no tentative transaction is
    /// resolved twice.
    #[test]
    fn convergence_oracle_holds_under_arbitrary_fault_mix(
        seed in 0u64..10_000,
        rate in 0.02f64..0.35,
        strategy_idx in 0usize..3,
    ) {
        let fault = FaultPlan::seeded(seed, FaultRates::uniform(rate));
        let report = Simulation::new(config(seed, STRATEGIES[strategy_idx], fault)).expect("valid sim config").run();
        let convergence = report.convergence.expect("oracle requested");
        prop_assert!(
            convergence.holds(),
            "oracle failed for seed {seed} rate {rate} strategy {}: {convergence:?}",
            STRATEGIES[strategy_idx].name()
        );
    }

    /// Duplicated messages are absorbed by the session ledger: no install
    /// or re-execution ever runs twice, and — since duplication drops
    /// nothing — the run matches the fault-free session run exactly.
    #[test]
    fn duplicated_messages_never_double_install(
        seed in 0u64..10_000,
        rate in 0.2f64..1.0,
        strategy_idx in 0usize..3,
    ) {
        let strategy = STRATEGIES[strategy_idx];
        let fault = FaultPlan::seeded(seed, FaultRates::only(FaultKind::MessageDuplication, rate));
        let faulted = Simulation::new(config(seed, strategy, fault)).expect("valid sim config").run();
        prop_assert_eq!(faulted.metrics.fault.double_resolutions, 0);
        prop_assert!(faulted.convergence.expect("oracle requested").holds());

        let clean = Simulation::new(config(seed, strategy, FaultPlan::none())).expect("valid sim config").run();
        prop_assert_eq!(&faulted.final_master, &clean.final_master);
        prop_assert_eq!(faulted.base_commits, clean.base_commits);
        prop_assert_eq!(&faulted.metrics.records, &clean.metrics.records);
    }

    /// An all-zero-rate plan is inert whatever its seed: the session path
    /// reproduces today's legacy reports byte-for-byte.
    #[test]
    fn zero_rate_plans_reproduce_legacy_reports(
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        strategy_idx in 0usize..3,
    ) {
        let strategy = STRATEGIES[strategy_idx];
        let fault = FaultPlan::seeded(fault_seed, FaultRates::zero());
        let session = Simulation::new(config(seed, strategy, fault)).expect("valid sim config").run();

        let mut legacy_config = config(seed, strategy, FaultPlan::none());
        legacy_config.sync_path = SyncPath::Legacy;
        legacy_config.check_convergence = false;
        let legacy = Simulation::new(legacy_config).expect("valid sim config").run();

        prop_assert_eq!(&session.final_master, &legacy.final_master);
        prop_assert_eq!(session.base_commits, legacy.base_commits);
        prop_assert_eq!(&session.cluster, &legacy.cluster);
        prop_assert_eq!(session.metrics.normalized(), legacy.metrics.normalized());
        prop_assert_eq!(session.metrics.fault, FaultStats::default());
    }
}

/// The deterministic sweep: every fault kind under every strategy, across
/// `FAULT_SEEDS` schedules per cell at rotating rates. CI's fault-matrix
/// job runs this in release with a large `FAULT_SEEDS`; the default keeps
/// the debug-mode suite quick.
#[test]
fn seed_matrix_convergence_oracle() {
    let seeds: u64 = std::env::var("FAULT_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(4);
    const RATES: [f64; 3] = [0.05, 0.15, 0.3];
    let strategies =
        [SyncStrategy::WindowStart { window: 120 }, SyncStrategy::PerDisconnectSnapshot];
    let mut schedules = 0usize;
    for kind in FaultKind::ALL {
        for strategy in strategies {
            for seed in 0..seeds {
                let rate = RATES[(seed % RATES.len() as u64) as usize];
                let fault = FaultPlan::seeded(seed, FaultRates::only(kind, rate));
                // Each cell runs with a flight recorder attached; a failed
                // oracle ships the run's last events as JSONL (CI uploads
                // the dump directory as an artifact).
                let tracer = FlightRecorder::handle(512);
                let mut cfg = config(seed, strategy, fault);
                cfg.tracer = tracer.clone();
                let label = format!("fault-matrix-{}-{}-seed{seed}", kind.name(), strategy.name());
                dump_on_failure(&tracer, &label, || {
                    let report = Simulation::new(cfg).expect("valid sim config").run();
                    let convergence = report.convergence.expect("oracle requested");
                    assert!(
                        convergence.holds(),
                        "oracle failed: kind {} strategy {} seed {seed} rate {rate}: \
                         {convergence:?}",
                        kind.name(),
                        strategy.name()
                    );
                });
                schedules += 1;
            }
        }
    }
    assert_eq!(schedules, FaultKind::ALL.len() * strategies.len() * seeds as usize);
}

/// The inventory row of the matrix: the compensation-heavy canned
/// workload (reservations whose cancels are declared inverses) under
/// every fault kind. Sessions that abandon mid-booking leave tentative
/// reservations to be pruned by compensation at the next reconnect; the
/// oracle must hold over every schedule.
#[test]
fn inventory_fault_matrix_converges() {
    let seeds: u64 = std::env::var("FAULT_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(4);
    const RATES: [f64; 3] = [0.05, 0.15, 0.3];
    let strategies =
        [SyncStrategy::WindowStart { window: 120 }, SyncStrategy::PerDisconnectSnapshot];
    for kind in FaultKind::ALL {
        for strategy in strategies {
            for seed in 0..seeds {
                let rate = RATES[(seed % RATES.len() as u64) as usize];
                let tracer = FlightRecorder::handle(512);
                let fault = FaultPlan::seeded(seed, FaultRates::only(kind, rate));
                let mut cfg = config(seed, strategy, fault);
                cfg.canned = Some(CannedMixParams {
                    n_accounts: 12,
                    n_prices: 6,
                    flavor: CannedFlavor::Inventory,
                    seed,
                    ..CannedMixParams::default()
                });
                cfg.tracer = tracer.clone();
                let label =
                    format!("inventory-matrix-{}-{}-seed{seed}", kind.name(), strategy.name());
                dump_on_failure(&tracer, &label, || {
                    let report = Simulation::new(cfg).expect("valid sim config").run();
                    let convergence = report.convergence.expect("oracle requested");
                    assert!(
                        convergence.holds(),
                        "inventory oracle failed: kind {} strategy {} seed {seed} rate {rate}: \
                         {convergence:?}",
                        kind.name(),
                        strategy.name()
                    );
                    assert_eq!(report.metrics.fault.double_resolutions, 0);
                });
            }
        }
    }
}

/// Extracts a numeric JSON field from one JSONL trace line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Regression for the abandon path: a session that burns its retry budget
/// leaves the mobile's tentative log and ledger record intact, and the
/// *next* reconnection resumes from the ledger and completes. The trace's
/// `session-abandoned` invariant events are cross-checked against the
/// sync records: abandoned mobiles really do come back.
#[test]
fn abandoned_sessions_recover_on_the_next_reconnect() {
    let tracer = FlightRecorder::handle(16_384);
    let fault = FaultPlan::seeded(7, FaultRates::only(FaultKind::MessageLoss, 0.45));
    let mut cfg = config(7, SyncStrategy::WindowStart { window: 120 }, fault);
    cfg.tracer = tracer.clone();
    cfg.session.backoff = RetryBackoff::enabled();
    let report = dump_on_failure(&tracer, "abandoned-recovery", || {
        let report = Simulation::new(cfg).expect("valid sim config").run();
        let m = &report.metrics;
        assert!(m.fault.abandoned_sessions > 0, "fault rate too low to abandon: {:?}", m.fault);
        assert!(m.syncs > 0, "fault rate too high for any session to complete");
        assert!(
            m.fault.ledger_resumes > 0,
            "an abandoned session must resume from its ledger record: {:?}",
            m.fault
        );
        assert!(report.convergence.as_ref().expect("oracle requested").holds());
        report
    });
    let dump = tracer.dump_jsonl().expect("recorder attached");
    let abandons: Vec<(u64, u64)> = dump
        .lines()
        .filter(|line| line.contains("\"name\":\"session-abandoned\""))
        .map(|line| {
            (field_u64(line, "mobile").expect("mobile"), field_u64(line, "tick").expect("tick"))
        })
        .collect();
    assert!(!abandons.is_empty(), "abandons counted but never traced");
    let recovered = abandons.iter().any(|&(mobile, tick)| {
        report.metrics.records.iter().any(|r| r.mobile as u64 == mobile && r.tick > tick)
    });
    assert!(recovered, "no abandoned mobile ever completed a later session: {abandons:?}");
}

/// The storm row of the matrix: every fault kind, correlated into the
/// post-outage surge window by `OutageStorm`'s trace-conditioned boost,
/// against a base protected by admission control and retry backoff.
/// Every cell must converge with bounded batches and a fully drained
/// deferred queue; for the non-dropping kinds (duplication, reordering —
/// absorbed by the session ledger) the committed state must additionally
/// be byte-identical to the same-trace fault-free run.
#[test]
fn storm_matrix_converges_under_admission_control() {
    let seeds: u64 = std::env::var("FAULT_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(4);
    const CAP: usize = 2;
    let strategies =
        [SyncStrategy::WindowStart { window: 120 }, SyncStrategy::PerDisconnectSnapshot];
    for kind in FaultKind::ALL {
        for strategy in strategies {
            for seed in 0..seeds {
                let tracer = FlightRecorder::handle(512);
                let make = |fault: FaultPlan| {
                    let mut cfg = config(seed, strategy, fault);
                    cfg.connectivity = ConnectivityModel::OutageStorm {
                        start: 80,
                        outage_ticks: 24,
                        surge_ticks: 16,
                        fault_boost: 3.0,
                    };
                    cfg.admission = AdmissionConfig::bounded(CAP);
                    cfg.session.backoff = RetryBackoff::enabled();
                    cfg
                };
                let label = format!("storm-matrix-{}-{}-seed{seed}", kind.name(), strategy.name());
                dump_on_failure(&tracer, &label, || {
                    let mut cfg = make(FaultPlan::seeded(seed, FaultRates::only(kind, 0.1)));
                    cfg.tracer = tracer.clone();
                    let faulted = Simulation::new(cfg).expect("valid sim config").run();
                    let convergence = faulted.convergence.as_ref().expect("oracle requested");
                    assert!(
                        convergence.holds(),
                        "storm oracle failed: kind {} strategy {} seed {seed}: {convergence:?}",
                        kind.name(),
                        strategy.name()
                    );
                    assert!(
                        faulted.metrics.batch_sizes.iter().all(|&b| b <= CAP),
                        "admission cap violated under storm"
                    );
                    let storm = faulted.metrics.storm;
                    assert_eq!(
                        storm.shed, storm.deferred_drained,
                        "deferred queue left residue after the storm"
                    );
                    if matches!(kind, FaultKind::MessageDuplication | FaultKind::MessageReorder) {
                        // Nothing was dropped, so the schedule is the
                        // fault-free schedule and the ledger absorbed
                        // every repeat: byte-identical committed state.
                        let clean = Simulation::new(make(FaultPlan::none())).expect("valid").run();
                        assert_eq!(faulted.final_master, clean.final_master);
                        assert_eq!(faulted.base_commits, clean.base_commits);
                        // The faulted run carries the flight recorder, so
                        // its records have wall-clock sync_ns; compare the
                        // normalized (timing-stripped) records.
                        assert_eq!(
                            faulted.metrics.normalized().records,
                            clean.metrics.normalized().records
                        );
                    }
                });
            }
        }
    }
}
