//! Differential test of the resumable session path: every simulation
//! scenario from `tests/simulation.rs`, re-run through `SyncPath::Session`
//! with `FaultPlan::none()`, must reproduce the legacy atomic handshake
//! byte-for-byte — same final master, same commit counts, same per-sync
//! records, same cost totals. Only wall-clock timings and the mechanism
//! and WAL volume counters are exempt, via
//! `Metrics::normalized`.
//!
//! Each scenario is also re-run on the session path with each
//! observation-only layer switched on, and every one must equal the
//! legacy run on the same terms: write-ahead logging; a flight-recorder
//! ring tracer; the structured connectivity layer spelled out (an
//! explicit `ConnectivityModel::AlwaysOn` with unbounded admission, and a
//! saturated duty cycle, `on_ticks == period`, exercising the non-trivial
//! trace arithmetic — the connectivity model adjusts schedules after the
//! cadence draws and never consumes or adds randomness); and the full
//! fleet telemetry (the per-tick time-series collector plus merge
//! autopsies).

use std::sync::Arc;

use histmerge::obs::{FlightRecorder, TimeSeries, TracerHandle};
use histmerge::replication::{
    AdmissionConfig, ConnectivityModel, DurabilityConfig, FaultPlan, FaultStats, Protocol,
    SimConfig, SimReport, Simulation, SyncPath, SyncStrategy, TelemetryConfig,
};
use histmerge::workload::generator::ScenarioParams;

fn workload(seed: u64) -> ScenarioParams {
    ScenarioParams {
        n_vars: 64,
        commutative_fraction: 0.5,
        guarded_fraction: 0.15,
        read_only_fraction: 0.1,
        hot_fraction: 0.1,
        hot_prob: 0.3,
        seed,
        ..ScenarioParams::default()
    }
}

fn config(protocol: Protocol, seed: u64) -> SimConfig {
    SimConfig {
        n_mobiles: 4,
        duration: 400,
        base_rate: 0.25,
        mobile_rate: 0.2,
        connect_every: 50,
        protocol,
        strategy: SyncStrategy::WindowStart { window: 200 },
        workload: workload(seed),
        base_capacity: 120.0,
        ..SimConfig::default()
    }
}

/// Runs `config` through both paths — and the session path again with
/// durability enabled, with a flight-recorder ring attached, with the
/// connectivity layer spelled out, with full fleet telemetry
/// (time-series + autopsies) — and asserts the reports are identical.
fn assert_paths_agree(mut config: SimConfig, label: &str) -> SimReport {
    config.sync_path = SyncPath::Legacy;
    let legacy = Simulation::new(config.clone()).expect("valid sim config").run();
    config.sync_path = SyncPath::Session;
    config.fault = FaultPlan::none();
    config.check_convergence = true;
    let session = Simulation::new(config.clone()).expect("valid sim config").run();
    let mut durable_config = config.clone();
    durable_config.durability = DurabilityConfig { enabled: true, checkpoint_every: 96 };
    let durable = Simulation::new(durable_config).expect("valid sim config").run();
    // The structured connectivity layer spelled out explicitly —
    // AlwaysOn + unbounded admission (the defaults, made loud) and a
    // saturated duty cycle whose every `next_up` is the identity. Neither
    // may move a single byte.
    let mut explicit_config = config.clone();
    explicit_config.connectivity = ConnectivityModel::AlwaysOn;
    explicit_config.admission = AdmissionConfig::unbounded();
    let explicit = Simulation::new(explicit_config).expect("valid sim config").run();
    let mut saturated_config = config.clone();
    saturated_config.connectivity =
        ConnectivityModel::DutyCycle { period: 16, on_ticks: 16, seed: 1717 };
    let saturated = Simulation::new(saturated_config).expect("valid sim config").run();
    // The full fleet telemetry — per-tick time-series collection and
    // merge autopsies on top of the flight-recorder ring. Telemetry reads
    // simulation state after the fact, so the fully instrumented run must
    // stay byte-identical too.
    let recorder = Arc::new(FlightRecorder::new(4096));
    let series = Arc::new(TimeSeries::new(1, 1024));
    let mut telemetry_config = config.clone();
    telemetry_config.tracer = TracerHandle::new(recorder.clone());
    telemetry_config.telemetry = TelemetryConfig { series: Some(series.clone()), autopsy: true };
    let instrumented = Simulation::new(telemetry_config).expect("valid sim config").run();
    assert!(!series.is_empty(), "{label}: the telemetry run sampled nothing");
    let autopsies = recorder.autopsies();
    assert!(!autopsies.is_empty(), "{label}: the telemetry run produced no autopsies");
    // Back-outs always lose to a concrete conflict partner; partner-less
    // edges are only legal for wholesale reprocess decisions, which must
    // name their policy cause instead (protocol baseline, window miss,
    // failed merge, dirty origin).
    for autopsy in &autopsies {
        for edge in autopsy.edges.iter() {
            assert!(
                edge.is_concrete() || (edge.cause != "backed-out" && !edge.cause.is_empty()),
                "{label}: autopsy at tick {} has a vague edge: {edge:?}",
                autopsy.tick
            );
        }
    }
    // Same session config with the flight recorder listening. Tracing is
    // observation-only, so `normalized()` must stay byte-identical to the
    // untraced runs.
    let ring = FlightRecorder::handle(4096);
    config.tracer = ring.clone();
    let traced = Simulation::new(config).expect("valid sim config").run();
    assert!(
        ring.dump_jsonl().is_some_and(|dump| !dump.is_empty()),
        "{label}: the traced run recorded nothing"
    );

    for (candidate, path) in [
        (&session, "session"),
        (&durable, "session+wal"),
        (&traced, "session+trace"),
        (&explicit, "session+always-on"),
        (&saturated, "session+saturated-duty"),
        (&instrumented, "session+telemetry"),
    ] {
        assert_eq!(
            legacy.final_master, candidate.final_master,
            "{label}/{path}: master state diverged"
        );
        assert_eq!(
            legacy.base_commits, candidate.base_commits,
            "{label}/{path}: commit count diverged"
        );
        assert_eq!(legacy.cluster, candidate.cluster, "{label}/{path}: cluster stats diverged");
        // Covers every counter, cost total, and the full per-sync record
        // list.
        assert_eq!(
            legacy.metrics.normalized(),
            candidate.metrics.normalized(),
            "{label}/{path}: metrics diverged"
        );
        // A fault-free plan must leave no trace in the fault counters.
        assert_eq!(
            candidate.metrics.fault,
            FaultStats::default(),
            "{label}/{path}: phantom fault events"
        );
        let convergence = candidate.convergence.expect("session run checked convergence");
        assert!(convergence.holds(), "{label}/{path}: convergence oracle failed: {convergence:?}");
    }
    // The durable run actually logged, and every acked session's ledger
    // record was pruned (the fault-free run acks everything).
    assert!(durable.metrics.wal.records > 0, "{label}: WAL never written");
    assert!(durable.durable.is_some(), "{label}: durable artifacts missing");
    assert_eq!(durable.ledger_len, 0, "{label}: acked sessions left ledger records");
    session
}

#[test]
fn accounting_identity_scenario_matches_legacy() {
    for protocol in [Protocol::Reprocessing, Protocol::merging_default()] {
        let report = assert_paths_agree(config(protocol, 5), protocol.name());
        let m = &report.metrics;
        let resolved = m.saved + m.backed_out + m.reprocessed;
        assert!(resolved <= m.tentative_generated);
        for r in &m.records {
            assert_eq!(r.pending, r.saved + r.backed_out + r.reprocessed);
        }
    }
}

#[test]
fn merging_scenario_matches_legacy_and_stays_deterministic() {
    let a = assert_paths_agree(config(Protocol::merging_default(), 6), "merging seed 6");
    let b = assert_paths_agree(config(Protocol::merging_default(), 6), "merging seed 6 again");
    assert_eq!(a.final_master, b.final_master);
    assert!(a.metrics.saved > 0, "merging engaged through the session path");
}

#[test]
fn convergence_scenario_matches_legacy() {
    for protocol in [Protocol::Reprocessing, Protocol::merging_default()] {
        let report = assert_paths_agree(config(protocol, 7), protocol.name());
        for r in &report.metrics.records {
            assert!(r.pending > 0, "empty syncs are not recorded");
        }
    }
}

#[test]
fn scaleup_scenario_matches_legacy_at_both_fleet_sizes() {
    for n_mobiles in [4usize, 8] {
        for protocol in [Protocol::Reprocessing, Protocol::merging_default()] {
            let mut c = config(protocol, 8);
            c.n_mobiles = n_mobiles;
            assert_paths_agree(c, &format!("{} x{n_mobiles}", protocol.name()));
        }
    }
}

#[test]
fn strategy_tradeoff_scenario_matches_legacy_under_both_strategies() {
    let mut c1 = config(Protocol::merging_default(), 9);
    c1.strategy = SyncStrategy::PerDisconnectSnapshot;
    c1.workload.hot_prob = 0.8;
    c1.n_mobiles = 6;
    let s1 = assert_paths_agree(c1, "strategy1");

    let mut c2 = config(Protocol::merging_default(), 9);
    c2.strategy = SyncStrategy::WindowStart { window: 100 };
    c2.workload.hot_prob = 0.8;
    c2.n_mobiles = 6;
    let s2 = assert_paths_agree(c2, "strategy2");

    // The documented trade-offs survive the path switch.
    assert_eq!(s2.metrics.merge_failures, 0);
    assert_eq!(s1.metrics.window_misses, 0);
}
