//! The simulator's in-crate tests.

use histmerge_core::merge::InstallPlan;
use histmerge_obs::TracerHandle;
use histmerge_txn::DbState;
use histmerge_workload::cost::CostParams;
use histmerge_workload::generator::ScenarioParams;

use super::fleet::jittered_next_connect;
use super::*;
use crate::connectivity::{AdmissionConfig, ConnectivityModel};
use crate::fault::{FaultKind, FaultPlan, FaultRates};
use crate::metrics::{StormStats, SyncRecord};
use crate::recovery;
use crate::session::{SessionConfig, SessionRecord};
use crate::sync::{SyncPath, SyncStrategy};
use crate::wal::DurabilityConfig;

fn quiet_workload(seed: u64) -> ScenarioParams {
    ScenarioParams {
        n_vars: 32,
        commutative_fraction: 0.5,
        guarded_fraction: 0.2,
        read_only_fraction: 0.1,
        hot_fraction: 0.1,
        hot_prob: 0.4,
        seed,
        ..ScenarioParams::default()
    }
}

fn config(protocol: Protocol, strategy: SyncStrategy, seed: u64) -> SimConfig {
    SimConfig {
        n_mobiles: 3,
        duration: 300,
        base_rate: 0.3,
        mobile_rate: 0.15,
        connect_every: 40,
        protocol,
        strategy,
        workload: quiet_workload(seed),
        cost: CostParams::default(),
        base_capacity: 100.0,
        base_nodes: 1,
        canned: None,
        synchronized_reconnects: false,
        sync_path: SyncPath::Legacy,
        fault: FaultPlan::none(),
        session: SessionConfig::default(),
        check_convergence: false,
        durability: DurabilityConfig::default(),
        tracer: TracerHandle::noop(),
        connectivity: ConnectivityModel::AlwaysOn,
        admission: AdmissionConfig::unbounded(),
        telemetry: TelemetryConfig::default(),
    }
}

#[test]
fn reprocessing_run_completes_and_reprocesses_everything() {
    let report = Simulation::new(config(
        Protocol::Reprocessing,
        SyncStrategy::WindowStart { window: 100 },
        1,
    ))
    .expect("valid sim config")
    .run();
    let m = &report.metrics;
    assert!(m.tentative_generated > 0);
    assert_eq!(m.saved, 0);
    assert!(m.reprocessed > 0);
    assert!(m.syncs > 0);
    // Everything synced so far was re-executed at the base.
    assert!(report.base_commits >= m.reprocessed + m.base_generated);
}

#[test]
fn merging_run_saves_work() {
    // Window spanning the whole run: no window-miss reprocessing, so
    // the save ratio reflects pure conflict back-outs. The base history
    // grows over the window, so back-outs accumulate (the Section 2.2
    // trade-off) — the ratio is positive but far from 1.
    let report = Simulation::new(config(
        Protocol::merging_default(),
        SyncStrategy::WindowStart { window: 1000 },
        1,
    ))
    .expect("valid sim config")
    .run();
    let m = &report.metrics;
    assert!(m.saved > 0, "merging saved nothing: {m:?}");
    assert!(m.save_ratio() > 0.1, "save ratio too low: {}", m.save_ratio());
    assert_eq!(m.merge_failures, 0, "strategy 2 never fails to merge");
    assert_eq!(m.window_misses, 0);
}

#[test]
fn commutative_workloads_save_more() {
    let run = |commutative: f64| {
        let mut cfg =
            config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 21);
        cfg.workload.commutative_fraction = commutative;
        cfg.workload.guarded_fraction = 0.0;
        cfg.workload.read_only_fraction = 0.0;
        Simulation::new(cfg).expect("valid sim config").run().metrics.save_ratio()
    };
    let low = run(0.0);
    let high = run(1.0);
    assert!(high > low, "commutative workload should save more: {high} !> {low}");
}

#[test]
fn merging_reduces_base_io_vs_reprocessing() {
    // Moderate contention so a healthy fraction of work survives the
    // merge (the regime Section 7.1 says merging targets).
    let strategies = SyncStrategy::WindowStart { window: 150 };
    let mut low = config(Protocol::Reprocessing, strategies, 7);
    low.workload.n_vars = 128;
    low.workload.hot_prob = 0.15;
    low.workload.commutative_fraction = 0.7;
    let mut low_m = low.clone();
    low_m.protocol = Protocol::merging_default();
    let rep = Simulation::new(low).expect("valid sim config").run();
    let mer = Simulation::new(low_m).expect("valid sim config").run();
    // Same workload seed: merging must force fewer log writes at the
    // base (one per merge vs one per transaction).
    assert!(
        mer.metrics.cost.base_io < rep.metrics.cost.base_io,
        "merging io {} !< reprocessing io {}",
        mer.metrics.cost.base_io,
        rep.metrics.cost.base_io
    );
}

#[test]
fn strategy1_fails_merges_under_contention() {
    // High contention + several mobiles: merged installs retro-patch
    // the base log, invalidating other snapshots.
    let mut cfg = config(Protocol::merging_default(), SyncStrategy::PerDisconnectSnapshot, 3);
    cfg.workload.hot_prob = 0.9;
    cfg.workload.hot_fraction = 0.05;
    cfg.n_mobiles = 6;
    cfg.mobile_rate = 0.3;
    let report = Simulation::new(cfg).expect("valid sim config").run();
    assert!(
        report.metrics.merge_failures > 0,
        "expected Strategy-1 merge failures: {:?}",
        report.metrics
    );
}

#[test]
fn adaptive_window_bounds_hb_length() {
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::AdaptiveWindow { max_hb: 15 }, 13);
    cfg.base_rate = 0.5; // fast-growing base history
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let m = &report.metrics;
    // Every merge ran against a bounded base history.
    for r in &m.records {
        assert!(r.hb_len <= 15 + 1, "adaptive window let H_b grow to {}", r.hb_len);
    }
    assert!(m.syncs > 0);
    assert_eq!(m.merge_failures, 0);
}

#[test]
fn window_misses_counted() {
    // Connect interval much longer than the window: every reconnection
    // lands in a later window and must reprocess.
    let mut cfg = config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 20 }, 5);
    cfg.connect_every = 80;
    let report = Simulation::new(cfg).expect("valid sim config").run();
    assert!(report.metrics.window_misses > 0);
    assert!(report.metrics.reprocessed > 0);
}

#[test]
fn deterministic_given_seed() {
    let a = Simulation::new(config(
        Protocol::merging_default(),
        SyncStrategy::WindowStart { window: 100 },
        9,
    ))
    .expect("valid sim config")
    .run();
    let b = Simulation::new(config(
        Protocol::merging_default(),
        SyncStrategy::WindowStart { window: 100 },
        9,
    ))
    .expect("valid sim config")
    .run();
    assert_eq!(a.final_master, b.final_master);
    assert_eq!(a.metrics.saved, b.metrics.saved);
    assert_eq!(a.metrics.records.len(), b.metrics.records.len());
}

#[test]
fn canned_simulation_uses_declared_tables() {
    use histmerge_workload::canned_mix::CannedMixParams;
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 200 }, 41);
    cfg.canned = Some(CannedMixParams {
        n_accounts: 24,
        n_prices: 6,
        seed: 41,
        ..CannedMixParams::default()
    });
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let m = &report.metrics;
    assert!(m.tentative_generated > 0);
    assert!(m.saved > 0, "canned merging saved nothing: {m:?}");
    assert_eq!(m.merge_failures, 0);
    // Deterministic like everything else.
    let mut cfg2 =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 200 }, 41);
    cfg2.canned = Some(CannedMixParams {
        n_accounts: 24,
        n_prices: 6,
        seed: 41,
        ..CannedMixParams::default()
    });
    let again = Simulation::new(cfg2).expect("valid sim config").run();
    assert_eq!(report.final_master, again.final_master);
}

#[test]
fn inventory_canned_simulation_merges_compensable_bookings() {
    use histmerge_workload::canned_mix::{CannedFlavor, CannedMixParams};
    let make = || {
        let mut cfg =
            config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 200 }, 43);
        cfg.canned = Some(CannedMixParams {
            n_accounts: 12,
            n_prices: 6,
            flavor: CannedFlavor::Inventory,
            seed: 43,
            ..CannedMixParams::default()
        });
        cfg
    };
    let report = Simulation::new(make()).expect("valid sim config").run();
    let m = &report.metrics;
    assert!(m.tentative_generated > 0);
    assert!(m.saved > 0, "inventory merging saved nothing: {m:?}");
    assert_eq!(m.merge_failures, 0);
    let again = Simulation::new(make()).expect("valid sim config").run();
    assert_eq!(report.final_master, again.final_master);
}

#[test]
fn partitioned_base_accounts_coordination() {
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 31);
    cfg.base_nodes = 4;
    cfg.workload.writes_per_txn = 3; // multi-partition footprints
    let report = Simulation::new(cfg).expect("valid sim config").run();
    assert_eq!(report.cluster.per_node_commits.len(), 4);
    assert!(report.cluster.distributed_txns > 0, "wide transactions expected");
    assert!(report.cluster.two_pc_messages > 0);
    assert!(report.cluster.imbalance() >= 1.0);
    // A single-node base never coordinates.
    let mut cfg1 =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 31);
    cfg1.workload.writes_per_txn = 3;
    let single = Simulation::new(cfg1).expect("valid sim config").run();
    assert_eq!(single.cluster.two_pc_messages, 0);
    // Partitioning does not change the outcome, only the accounting.
    assert_eq!(single.final_master, report.final_master);
}

#[test]
fn jittered_next_connect_is_clamped() {
    // Nominal case: base + draw − jitter.
    assert_eq!(jittered_next_connect(100, 40, 10, 0), 130);
    assert_eq!(jittered_next_connect(100, 40, 10, 20), 150);
    // Jitter exceeding tick + every must clamp, not underflow.
    assert_eq!(jittered_next_connect(0, 1, 100, 0), 1);
    assert_eq!(jittered_next_connect(5, 2, 1000, 0), 6);
    // Never schedules at or before the current tick.
    for draw in 0..=2 {
        assert!(jittered_next_connect(7, 1, 1, draw) > 7);
    }
}

#[test]
fn tight_connect_interval_keeps_advancing() {
    // Regression: connect_every = 2 puts reconnects on nearly every
    // tick; scheduling arithmetic must keep producing strictly
    // advancing reconnect times (the old expression relied on unsigned
    // wraparound staying in range).
    let mut cfg = config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 50 }, 17);
    cfg.connect_every = 2;
    cfg.duration = 200;
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let m = &report.metrics;
    assert!(m.syncs > 50, "tight interval should sync often: {}", m.syncs);
    // Per-mobile reconnect ticks strictly increase.
    for mobile in 0..3 {
        let ticks: Vec<u64> =
            m.records.iter().filter(|r| r.mobile == mobile).map(|r| r.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "mobile {mobile}: {ticks:?}");
    }
}

#[test]
fn synchronized_reconnects_form_batches() {
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 200 }, 23);
    cfg.synchronized_reconnects = true;
    cfg.n_mobiles = 6;
    cfg.connect_every = 25;
    cfg.duration = 200;
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let m = &report.metrics;
    assert!(
        m.batch_sizes.contains(&6),
        "synchronized mobiles should reconnect together: {:?}",
        m.batch_sizes
    );
}

#[test]
fn mobiles_share_the_base_window_start_state() {
    // One copy of the state per window: at construction every
    // mobile's origin and the oracle's initial state are the base's
    // window-start state, and a cohort resynchronized after a
    // rollover shares the new one.
    let mut cfg = config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 50 }, 23);
    cfg.synchronized_reconnects = true;
    cfg.n_mobiles = 4;
    cfg.connect_every = 50;
    let mut sim = Simulation::new(cfg).expect("valid sim config");
    let shares_epoch_state = |sim: &Simulation| {
        let epoch_state = sim.base.epoch_state();
        sim.mobiles.iter().all(|m| std::ptr::eq(m.origin(), epoch_state))
    };
    assert!(shares_epoch_state(&sim));
    assert!(std::ptr::eq(&*sim.initial, sim.base.epoch_state()));
    for tick in 0..=50 {
        sim.step(tick);
    }
    assert_eq!(sim.base.epoch(), 1, "tick 50 rolls the window");
    assert!(!std::ptr::eq(&*sim.initial, sim.base.epoch_state()));
    assert!(shares_epoch_state(&sim));
}

#[test]
fn session_path_fault_free_is_byte_identical_to_legacy() {
    for strategy in [
        SyncStrategy::WindowStart { window: 100 },
        SyncStrategy::AdaptiveWindow { max_hb: 20 },
        SyncStrategy::PerDisconnectSnapshot,
    ] {
        let legacy_cfg = config(Protocol::merging_default(), strategy, 33);
        let mut session_cfg = legacy_cfg.clone();
        session_cfg.sync_path = SyncPath::Session;
        session_cfg.fault = FaultPlan::none();
        let legacy = Simulation::new(legacy_cfg).expect("valid sim config").run();
        let session = Simulation::new(session_cfg).expect("valid sim config").run();
        assert_eq!(legacy.final_master, session.final_master, "{}", strategy.name());
        assert_eq!(legacy.base_commits, session.base_commits);
        assert_eq!(legacy.metrics.normalized(), session.metrics.normalized());
        assert_eq!(legacy.cluster, session.cluster);
        assert_eq!(session.metrics.fault, crate::metrics::FaultStats::default());
    }
}

#[test]
fn session_convergence_oracle_holds_fault_free() {
    let mut cfg = config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 2);
    cfg.sync_path = SyncPath::Session;
    cfg.check_convergence = true;
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let oracle = report.convergence.expect("requested");
    assert!(oracle.applicable);
    assert!(oracle.holds(), "{oracle:?}");
    assert_eq!(oracle.commits, report.base_commits);
    assert!(oracle.commits > 0);
}

#[test]
fn certain_base_crashes_recover_through_the_ledger() {
    // Crash rate 1.0: every installing session crashes between install
    // and re-execution, retries, and resumes from its durable record.
    // Recovery completes within the same tick, so everything except
    // the fault counters matches the fault-free run byte-for-byte.
    let mut crash_cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 19);
    crash_cfg.sync_path = SyncPath::Session;
    crash_cfg.check_convergence = true;
    let mut clean_cfg = crash_cfg.clone();
    crash_cfg.fault =
        FaultPlan::seeded(19, crate::fault::FaultRates::only(FaultKind::BaseCrash, 1.0));
    clean_cfg.fault = FaultPlan::none();
    let crashed = Simulation::new(crash_cfg).expect("valid sim config").run();
    let clean = Simulation::new(clean_cfg).expect("valid sim config").run();
    assert!(crashed.metrics.fault.base_crashes > 0);
    assert!(crashed.metrics.fault.ledger_resumes > 0);
    assert_eq!(crashed.metrics.fault.abandoned_sessions, 0);
    assert_eq!(crashed.final_master, clean.final_master);
    assert_eq!(crashed.metrics.records, clean.metrics.records);
    assert!(crashed.convergence.unwrap().holds());
}

#[test]
fn total_message_loss_abandons_every_session() {
    // Drop rate 1.0: no offer ever arrives; every reconnection burns
    // its retry budget and abandons, leaving tentative logs intact.
    // Only the base tier's own load commits, and the oracle still
    // holds over it.
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 23);
    cfg.sync_path = SyncPath::Session;
    cfg.check_convergence = true;
    cfg.fault = FaultPlan::seeded(23, crate::fault::FaultRates::only(FaultKind::MessageLoss, 1.0));
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let m = &report.metrics;
    assert_eq!(m.syncs, 0, "no session ever completes");
    assert!(m.fault.abandoned_sessions > 0);
    assert!(m.fault.dropped > m.fault.abandoned_sessions, "each abandonment took retries");
    assert_eq!(report.base_commits, m.base_generated);
    assert!(report.convergence.unwrap().holds());
}

#[test]
fn duplicated_messages_never_double_install() {
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 29);
    cfg.sync_path = SyncPath::Session;
    cfg.check_convergence = true;
    cfg.fault =
        FaultPlan::seeded(29, crate::fault::FaultRates::only(FaultKind::MessageDuplication, 1.0));
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let m = &report.metrics;
    assert!(m.fault.duplicated > 0);
    assert!(
        m.fault.duplicate_installs_suppressed > 0,
        "duplicated offers must hit the ledger guard: {:?}",
        m.fault
    );
    assert_eq!(m.fault.double_resolutions, 0);
    assert!(report.convergence.unwrap().holds());
    // Dedup is absorbing: the run matches the fault-free one.
    let mut clean =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 29);
    clean.sync_path = SyncPath::Session;
    let clean = Simulation::new(clean).expect("valid sim config").run();
    assert_eq!(report.final_master, clean.final_master);
    assert_eq!(report.metrics.records, clean.metrics.records);
}

#[test]
fn moderate_fault_mix_converges_with_recovery_traffic() {
    // A realistic mixed schedule: some sessions abandon and recover at
    // the next reconnection (trimming committed prefixes), others
    // retry through transient faults. The oracle must hold throughout.
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 150 }, 37);
    cfg.sync_path = SyncPath::Session;
    cfg.check_convergence = true;
    cfg.fault = FaultPlan::seeded(37, crate::fault::FaultRates::uniform(0.25));
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let m = &report.metrics;
    assert!(m.syncs > 0, "some sessions still complete");
    assert!(m.fault.retries > 0);
    assert!(report.convergence.unwrap().holds(), "{:?}", report.convergence);
    assert_eq!(m.fault.double_resolutions, 0);
}

#[test]
fn resume_of_a_missing_record_degrades_instead_of_panicking() {
    // Regression for the old `expect("ledger record exists")` panic:
    // a resumption aimed at a session the ledger has no record of
    // must degrade to legacy reprocessing, not abort the run.
    let mut sim = Simulation::new(config(
        Protocol::merging_default(),
        SyncStrategy::WindowStart { window: 100 },
        57,
    ))
    .expect("valid sim config");
    assert_eq!(sim.resume_session(0, 99, 0), None, "missing record is reported, not a panic");
    assert_eq!(sim.metrics.fault.ledger_gaps, 0, "resume_session only reports");
    let work = sim.resume_or_degrade(0, 99, 0);
    assert_eq!(sim.metrics.fault.ledger_gaps, 1);
    assert!(work >= 0.0);
    // The degradation reprocessed the mobile's pending log (empty at
    // tick 0, so the sync record shows zero transactions — but the
    // sync did happen, through the legacy path).
    assert_eq!(sim.metrics.syncs, 1);
    assert_eq!(sim.metrics.records[0].reprocessed, 0);
    assert_eq!(sim.metrics.fault.double_resolutions, 0);
}

#[test]
fn invalid_fault_rates_are_rejected_at_construction() {
    let mut cfg = config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 3);
    cfg.fault = FaultPlan::seeded(3, crate::fault::FaultRates { drop: -0.5, ..FaultRates::zero() });
    let err = match Simulation::new(cfg) {
        Err(err) => err,
        Ok(_) => panic!("invalid rates must be a structured error"),
    };
    let message = err.to_string();
    assert!(message.contains("drop"), "names the offending rate: {message}");
    assert!(message.contains("must be a probability"), "{message}");
}

#[test]
fn faults_on_the_legacy_path_are_rejected_at_construction() {
    let mut cfg = config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 3);
    cfg.sync_path = SyncPath::Legacy;
    cfg.fault = FaultPlan::seeded(3, FaultRates::uniform(0.1));
    assert!(matches!(Simulation::new(cfg.clone()), Err(SimConfigError::FaultsOnLegacyPath)));
    // A seeded plan whose rates are all zero injects nothing: allowed.
    cfg.fault = FaultPlan::seeded(3, FaultRates::zero());
    assert!(Simulation::new(cfg.clone()).is_ok());
    cfg.fault = FaultPlan::seeded(3, FaultRates::uniform(0.1));
    cfg.sync_path = SyncPath::Session;
    assert!(Simulation::new(cfg).is_ok());
}

#[test]
fn double_install_is_counted_and_traced_instead_of_asserting() {
    use histmerge_obs::FlightRecorder;
    use histmerge_workload::cost::CostReport;
    // Regression for the old `debug_assert!` double-install guard:
    // a second install of the same session must survive (in release
    // and debug builds alike), bump the counter the convergence
    // oracle checks, and leave a traced invariant event.
    let ring = FlightRecorder::handle(16);
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 13);
    cfg.tracer = ring.clone();
    let mut sim = Simulation::new(cfg).expect("valid sim config");
    let record = SessionRecord {
        plan: InstallPlan { forwarded: DbState::new(), reexecute: Vec::new(), saved: Vec::new() },
        retro_from: None,
        sync: SyncRecord {
            tick: 0,
            mobile: 0,
            pending: 0,
            hb_len: 0,
            saved: 0,
            backed_out: 0,
            reprocessed: 0,
            merge_failed: false,
            sync_ns: 0,
        },
        cost: CostReport::default(),
        reexec_done: 0,
        completed: false,
    };
    sim.session_install(0, 7, record.clone(), 5);
    assert_eq!(sim.metrics.fault.double_resolutions, 0);
    sim.session_install(0, 7, record, 6);
    assert_eq!(sim.metrics.fault.double_resolutions, 1);
    let dump = ring.dump_jsonl().expect("ring retains events");
    assert!(
        dump.contains(
            r#"{"type":"invariant","name":"double-install","tick":6,"mobile":0,"seq":7}"#
        ),
        "missing invariant event in:\n{dump}"
    );
    // The first, legitimate install left its session step.
    assert!(dump.contains(r#""step":"install""#), "{dump}");
}

#[test]
fn resolving_one_id_twice_counts_one_double_resolution() {
    let cfg = config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 13);
    let mut sim = Simulation::new(cfg).expect("valid sim config");
    // Ids in the first word, past it, and far past it (the set grows).
    for id in [5, 200, 4, 1000] {
        sim.mark_resolved(TxnId::new(id));
    }
    assert_eq!(sim.metrics.fault.double_resolutions, 0, "distinct ids are no double resolution");
    sim.mark_resolved(TxnId::new(200));
    assert_eq!(sim.metrics.fault.double_resolutions, 1);
    sim.mark_resolved(TxnId::new(5));
    sim.mark_resolved(TxnId::new(1000));
    assert_eq!(sim.metrics.fault.double_resolutions, 3);
    sim.mark_resolved(TxnId::new(6));
    assert_eq!(sim.metrics.fault.double_resolutions, 3, "a neighbouring id is its own");
}

#[test]
fn teardown_runs_inside_its_own_span() {
    use histmerge_obs::FlightRecorder;
    let ring = FlightRecorder::handle(1 << 16);
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 13);
    cfg.sync_path = SyncPath::Session;
    cfg.tracer = ring.clone();
    Simulation::new(cfg).expect("valid sim config").run();
    let dump = ring.dump_jsonl().expect("ring retains events");
    let last = dump.lines().last().expect("a traced run records events");
    assert!(last.contains(r#""phase":"teardown""#), "the teardown span closes the run: {last}");
    assert_eq!(dump.matches(r#""phase":"teardown""#).count(), 1);
}

#[test]
fn acked_sessions_are_pruned_so_the_ledger_stays_bounded() {
    // A long fault-free session run: every session acks, so every
    // record is pruned and the ledger ends empty — bounded by
    // in-flight sessions, not by the number of syncs.
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 43);
    cfg.sync_path = SyncPath::Session;
    cfg.duration = 600;
    let report = Simulation::new(cfg).expect("valid sim config").run();
    assert!(report.metrics.syncs > 20, "enough sessions to matter");
    assert_eq!(report.ledger_len, 0, "every acked session was pruned");
    assert!(report.metrics.wal.pruned_records > 0);

    // Under a heavy mixed fault schedule some sessions stay
    // unresolved, but never more than one per mobile.
    let mut faulted =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 43);
    faulted.sync_path = SyncPath::Session;
    faulted.duration = 600;
    faulted.fault = FaultPlan::seeded(43, crate::fault::FaultRates::uniform(0.25));
    let report = Simulation::new(faulted).expect("valid sim config").run();
    assert!(
        report.ledger_len <= 3,
        "ledger bounded by in-flight sessions (n_mobiles), got {}",
        report.ledger_len
    );
}

#[test]
fn durability_is_observation_only() {
    // The WAL must never change the simulation: a durability-enabled
    // run equals the plain run everywhere but the WAL counters.
    for sync_path in [SyncPath::Legacy, SyncPath::Session] {
        let mut plain =
            config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 61);
        plain.sync_path = sync_path;
        plain.check_convergence = true;
        let mut durable = plain.clone();
        durable.durability = DurabilityConfig { enabled: true, checkpoint_every: 64 };
        let a = Simulation::new(plain).expect("valid sim config").run();
        let b = Simulation::new(durable).expect("valid sim config").run();
        assert_eq!(a.final_master, b.final_master);
        assert_eq!(a.base_commits, b.base_commits);
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.metrics.normalized(), b.metrics.normalized());
        assert_eq!(a.convergence, b.convergence);
        assert!(a.durable.is_none());
        let durable = b.durable.expect("durability enabled");
        assert!(b.metrics.wal.records > 0);
        assert!(b.metrics.wal.checkpoints > 0, "600+ records at interval 64");
        assert!(b.metrics.wal.segments_retired > 0);
        assert_eq!(durable.log.len(), b.base_commits);
    }
}

#[test]
fn recovery_of_a_full_run_reproduces_the_live_state() {
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 67);
    cfg.sync_path = SyncPath::Session;
    cfg.durability = DurabilityConfig { enabled: true, checkpoint_every: 128 };
    let report = Simulation::new(cfg).expect("valid sim config").run();
    let durable = report.durable.expect("durability enabled");
    let recovered =
        recovery::recover(&durable.arena, &durable.storage).expect("clean WAL recovers");
    assert!(!recovered.torn);
    assert_eq!(recovered.base.log(), durable.log.as_slice());
    assert_eq!(recovered.base.master(), &report.final_master);
    assert_eq!(recovered.base.epoch(), durable.epoch);
    assert_eq!(recovered.base.epoch_start(), durable.epoch_start);
    assert_eq!(recovered.base.epoch_state(), &durable.epoch_state);
    assert_eq!(recovered.ledger, durable.ledger);
}

#[test]
fn base_crashes_run_the_shadow_recovery_oracle() {
    // Crash faults + durability: every simulated crash point triggers
    // an in-run recovery that must match the live state (the check
    // panics on mismatch, so this test passing IS the oracle).
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 19);
    cfg.sync_path = SyncPath::Session;
    cfg.check_convergence = true;
    cfg.durability = DurabilityConfig { enabled: true, checkpoint_every: 64 };
    cfg.fault = FaultPlan::seeded(19, crate::fault::FaultRates::only(FaultKind::BaseCrash, 1.0));
    let report = Simulation::new(cfg).expect("valid sim config").run();
    assert!(report.metrics.fault.base_crashes > 0);
    assert_eq!(
        report.metrics.wal.shadow_recoveries as usize, report.metrics.fault.base_crashes,
        "one recovery check per crash"
    );
    assert!(report.convergence.unwrap().holds());
}

#[test]
fn the_event_queue_drives_the_run() {
    let cfg = config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 9);
    let sched = Simulation::new(cfg).expect("valid sim config").run().metrics.sched;
    assert!(sched.events_popped > 0, "the queue drove the run");
    assert!(sched.events_pushed >= sched.events_popped, "pops never exceed pushes: {sched:?}");
}

#[test]
fn backlog_grows_with_mobile_count_under_reprocessing() {
    let small = {
        let mut c = config(Protocol::Reprocessing, SyncStrategy::WindowStart { window: 100 }, 11);
        c.n_mobiles = 2;
        c.base_capacity = 30.0;
        Simulation::new(c).expect("valid sim config").run()
    };
    let large = {
        let mut c = config(Protocol::Reprocessing, SyncStrategy::WindowStart { window: 100 }, 11);
        c.n_mobiles = 12;
        c.base_capacity = 30.0;
        Simulation::new(c).expect("valid sim config").run()
    };
    assert!(
        large.metrics.peak_backlog > small.metrics.peak_backlog,
        "backlog should grow with mobiles: {} !> {}",
        large.metrics.peak_backlog,
        small.metrics.peak_backlog
    );
}

#[test]
fn saturated_duty_cycle_is_byte_identical_to_always_on() {
    // A duty cycle with the link up for the whole period is AlwaysOn
    // spelled differently: every next_up call is the identity, every
    // fault_scale is 1.0, so the run must match byte for byte — the
    // connectivity layer is pure adjustment, never an extra RNG draw.
    let base = config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 41);
    let mut duty = base.clone();
    duty.connectivity = ConnectivityModel::DutyCycle { period: 8, on_ticks: 8, seed: 7 };
    let always = Simulation::new(base).expect("valid sim config").run();
    let duty = Simulation::new(duty).expect("valid sim config").run();
    assert_eq!(always.final_master, duty.final_master);
    assert_eq!(always.base_commits, duty.base_commits);
    assert_eq!(always.metrics.normalized(), duty.metrics.normalized());
    assert_eq!(duty.metrics.storm, StormStats::default());
}

#[test]
fn duty_cycle_only_syncs_on_up_ticks() {
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 43);
    let model = ConnectivityModel::DutyCycle { period: 10, on_ticks: 3, seed: 5 };
    cfg.connectivity = model;
    let report = Simulation::new(cfg).expect("valid sim config").run();
    assert!(report.metrics.syncs > 0, "duty-cycled mobiles still sync");
    for r in &report.metrics.records {
        assert!(
            model.link_up(r.mobile, r.tick),
            "mobile {} synced at tick {} with its link down",
            r.mobile,
            r.tick
        );
    }
}

#[test]
fn admission_cap_bounds_every_batch_and_drains_the_queue() {
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 47);
    cfg.synchronized_reconnects = true; // cohorts of all 3 mobiles
    cfg.check_convergence = true;
    let unbounded = Simulation::new(cfg.clone()).expect("valid sim config").run();
    assert!(unbounded.metrics.batch_sizes.iter().any(|&b| b > 2));
    assert_eq!(unbounded.metrics.storm, StormStats::default());

    cfg.admission = AdmissionConfig::bounded(2);
    let bounded = Simulation::new(cfg).expect("valid sim config").run();
    assert!(bounded.metrics.batch_sizes.iter().all(|&b| b <= 2), "cap violated");
    let storm = bounded.metrics.storm;
    assert!(storm.shed > 0, "saturated cohorts must shed");
    assert_eq!(storm.shed, storm.deferred_drained, "queue must drain to empty");
    assert!(storm.deferred_peak >= 1);
    assert!(storm.defer_wait_max >= 1, "a deferred mobile waits at least a tick");
    assert_eq!(bounded.metrics.defer_waits.len() as u64, storm.deferred_drained);
    assert!(bounded.convergence.unwrap().holds());
    // Shedding reshapes cohorts, never loses work: same tentative load.
    assert_eq!(bounded.metrics.tentative_generated, unbounded.metrics.tentative_generated);
}

#[test]
fn outage_storm_silences_the_window_then_recovers() {
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 59);
    cfg.connectivity = ConnectivityModel::OutageStorm {
        start: 120,
        outage_ticks: 40,
        surge_ticks: 10,
        fault_boost: 1.0,
    };
    cfg.check_convergence = true;
    let report = Simulation::new(cfg).expect("valid sim config").run();
    assert!(report.metrics.syncs > 0);
    assert!(
        report.metrics.records.iter().all(|r| !(120..160).contains(&r.tick)),
        "no sync can land inside the outage window"
    );
    assert!(
        report.metrics.records.iter().any(|r| r.tick >= 160),
        "the fleet reconnects after the outage"
    );
    assert!(report.convergence.unwrap().holds());
}

#[test]
fn retry_backoff_reconnects_abandoned_sessions_earlier() {
    // Under total message loss every session abandons. Without backoff
    // the mobile waits out its full jittered cadence; with backoff it
    // comes back after min(2^strikes, cap) ticks, so the same horizon
    // fits strictly more attempts — and the storm counters see them.
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 61);
    cfg.sync_path = SyncPath::Session;
    cfg.fault = FaultPlan::seeded(61, crate::fault::FaultRates::only(FaultKind::MessageLoss, 1.0));
    let flat = Simulation::new(cfg.clone()).expect("valid sim config").run();
    assert_eq!(flat.metrics.storm.backoff_reschedules, 0);

    cfg.session.backoff = crate::session::RetryBackoff::enabled();
    let backoff = Simulation::new(cfg).expect("valid sim config").run();
    let storm = backoff.metrics.storm;
    assert!(storm.backoff_reschedules > 0, "backoff never engaged");
    assert!(storm.backoff_delay_ticks > 0);
    assert!(
        backoff.metrics.fault.abandoned_sessions > flat.metrics.fault.abandoned_sessions,
        "earlier reconnects must fit more attempts: {} !> {}",
        backoff.metrics.fault.abandoned_sessions,
        flat.metrics.fault.abandoned_sessions
    );
}

#[test]
fn backoff_under_transient_faults_still_converges() {
    // Moderate loss: sessions abandon, back off, reconnect early, and
    // eventually succeed — the success resets the ladder, and the
    // convergence oracle must hold over the mixed schedule.
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 150 }, 67);
    cfg.sync_path = SyncPath::Session;
    cfg.check_convergence = true;
    cfg.fault = FaultPlan::seeded(67, crate::fault::FaultRates::uniform(0.25));
    cfg.session.backoff = crate::session::RetryBackoff::enabled();
    let report = Simulation::new(cfg).expect("valid sim config").run();
    assert!(report.metrics.syncs > 0, "sessions complete despite faults");
    assert!(report.convergence.unwrap().holds(), "{:?}", report.convergence);
    assert_eq!(report.metrics.fault.double_resolutions, 0);
}

#[test]
fn invalid_connectivity_is_rejected_at_construction() {
    let mut cfg =
        config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 71);
    cfg.connectivity = ConnectivityModel::DutyCycle { period: 4, on_ticks: 0, seed: 1 };
    match Simulation::new(cfg) {
        Err(SimConfigError::InvalidConnectivity(_)) => {}
        Err(other) => panic!("expected InvalidConnectivity, got {other}"),
        Ok(_) => panic!("expected InvalidConnectivity, got a valid simulation"),
    }
}

#[test]
fn out_of_range_settings_are_rejected() {
    let cfg = || config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 73);
    assert_eq!(cfg().validate(), Ok(()));
    let out_of_range =
        |field: &'static str, value: f64| SimConfigError::OutOfRange { field, value };
    for value in [f64::INFINITY, f64::NAN, -1.0] {
        let rejected = |c: SimConfig| match c.validate() {
            Err(SimConfigError::OutOfRange { field, value: got }) => {
                assert!(got.to_bits() == value.to_bits(), "{field}: {got} != {value}");
                field
            }
            other => panic!("{value} must be out of range, got {other:?}"),
        };
        assert_eq!(rejected(SimConfig { base_rate: value, ..cfg() }), "base_rate");
        assert_eq!(rejected(SimConfig { mobile_rate: value, ..cfg() }), "mobile_rate");
        assert_eq!(rejected(SimConfig { base_capacity: value, ..cfg() }), "base_capacity");
    }
    assert_eq!(
        SimConfig { connect_every: 0, ..cfg() }.validate(),
        Err(out_of_range("connect_every", 0.0))
    );
    assert_eq!(
        SimConfig { base_nodes: 0, ..cfg() }.validate(),
        Err(out_of_range("base_nodes", 0.0))
    );
    let window = SimConfig { strategy: SyncStrategy::WindowStart { window: 0 }, ..cfg() };
    assert_eq!(window.validate(), Err(out_of_range("window", 0.0)));
    let adaptive = SimConfig { strategy: SyncStrategy::AdaptiveWindow { max_hb: 0 }, ..cfg() };
    assert_eq!(adaptive.validate(), Err(out_of_range("max_hb", 0.0)));
    // Zero rates and capacity are legal: a silent tier, a base with no
    // headroom.
    assert_eq!(
        SimConfig { base_rate: 0.0, mobile_rate: 0.0, base_capacity: 0.0, ..cfg() }.validate(),
        Ok(())
    );
    match Simulation::new(SimConfig { connect_every: 0, ..cfg() }) {
        Err(err) => assert!(err.to_string().contains("connect_every"), "{err}"),
        Ok(_) => panic!("connect_every = 0 must be rejected at construction"),
    }
    match Simulation::new(SimConfig { base_nodes: 0, ..cfg() }) {
        Err(err) => assert_eq!(err, out_of_range("base_nodes", 0.0)),
        Ok(_) => panic!("base_nodes = 0 must be rejected at construction"),
    }
    // The random generator's settings: an empty item space used to pass
    // and then panic at the first base commit, and out-of-range hot-set
    // probabilities were silently clamped.
    let workload = |w: ScenarioParams| SimConfig { workload: w, ..cfg() };
    let base = cfg().workload;
    assert_eq!(
        workload(ScenarioParams { n_vars: 0, ..base }).validate(),
        Err(out_of_range("n_vars", 0.0))
    );
    match Simulation::new(workload(ScenarioParams { n_vars: 0, ..base })) {
        Err(err) => assert_eq!(err, out_of_range("n_vars", 0.0)),
        Ok(_) => panic!("n_vars = 0 must be rejected at construction"),
    }
    for value in [1.5, -0.1, f64::INFINITY, f64::NAN] {
        for (field, params) in [
            ("hot_prob", ScenarioParams { hot_prob: value, ..base }),
            ("hot_fraction", ScenarioParams { hot_fraction: value, ..base }),
        ] {
            match workload(params).validate() {
                Err(SimConfigError::OutOfRange { field: got, value: v }) => {
                    assert_eq!(got, field);
                    assert!(v.to_bits() == value.to_bits(), "{field}: {v} != {value}");
                }
                other => panic!("{field} = {value} must be out of range, got {other:?}"),
            }
        }
    }
    // The bounds themselves are legal: a zero hot fraction still yields
    // a one-item hot set.
    for p in [0.0, 1.0] {
        assert_eq!(
            workload(ScenarioParams { hot_prob: p, hot_fraction: p, ..base }).validate(),
            Ok(())
        );
    }
    // The canned mix ignores the generator's settings, so they are not
    // checked there.
    let canned = SimConfig {
        canned: Some(Default::default()),
        ..workload(ScenarioParams { n_vars: 0, hot_prob: 1.5, ..base })
    };
    assert_eq!(canned.validate(), Ok(()));
}
