//! Golden digests of whole simulation runs: the equality oracle for the
//! simulator's mechanisms.
//!
//! Each scenario runs once and folds everything the run committed and
//! counted into one 64-bit FNV-1a digest, computed here rather than with
//! `DefaultHasher`, whose output may change between Rust releases:
//!
//! - the final master state;
//! - the base commit count and the cluster statistics;
//! - every per-sync record, wall-clock `sync_ns` excluded;
//! - the Section 7.1 cost totals;
//! - the behavioural counters: generation, saved / backed-out /
//!   reprocessed totals, syncs, merge failures, window misses, batch
//!   sizes, retro-patches, the fault and storm counters, and the deferral
//!   waits;
//! - the backlog trajectory, read from a stride-10 telemetry series
//!   attached to every run. Telemetry is observation-only, so attaching
//!   it changes nothing the run commits.
//!
//! Mechanism counters (`Metrics::sched`, `Metrics::cohort`, the
//! speculative hit and retry counts), WAL volume and wall-clock timings
//! are left out: they describe how a run was computed, not what it
//! committed. The table was captured while the
//! scheduler, cohort pipeline, merge scratch and base-log retention each
//! still had a selectable legacy path, so it keeps checking equality
//! against those paths after they are gone. A digest that moves means a
//! behaviour change; update the table only for a change meant to alter
//! what runs commit.
//!
//! The table was last recomputed under a four-worker speculative cohort
//! pipeline, and the same table held with that pipeline switched off, so
//! it also checks that the serial cohort install commits what speculation
//! did.

use std::sync::Arc;

use histmerge::obs::TimeSeries;
use histmerge::replication::{
    AdmissionConfig, ConnectivityModel, DurabilityConfig, FaultPlan, FaultRates, Protocol,
    RetryBackoff, SimConfig, SimReport, Simulation, SyncPath, SyncStrategy,
};
use histmerge::workload::canned_mix::{CannedFlavor, CannedMixParams};
use histmerge::workload::generator::ScenarioParams;

/// 64-bit FNV-1a over little-endian field encodings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }
}

/// Runs `config` with a backlog series attached: a telemetry collector
/// sampling every 10 ticks, with room for every sample of these runs.
fn run(mut config: SimConfig) -> (SimReport, Arc<TimeSeries>) {
    let series = Arc::new(TimeSeries::new(10, 1024));
    config.telemetry.series = Some(series.clone());
    let report = Simulation::new(config).expect("valid sim config").run();
    (report, series)
}

/// The digest of everything `report` committed and counted, with the
/// backlog trajectory `series` sampled.
fn digest(report: &SimReport, series: &TimeSeries) -> u64 {
    let mut h = Fnv::new();
    let master: Vec<_> = report.final_master.iter().collect();
    h.usize(master.len());
    for (var, value) in master {
        h.u64(u64::from(var.index()));
        h.u64(value as u64);
    }
    h.usize(report.base_commits);

    let cluster = &report.cluster;
    h.usize(cluster.per_node_commits.len());
    for &commits in &cluster.per_node_commits {
        h.u64(commits);
    }
    h.u64(cluster.two_pc_messages);
    h.u64(cluster.distributed_txns);

    let m = &report.metrics;
    h.usize(m.records.len());
    for r in &m.records {
        h.u64(r.tick);
        for field in [r.mobile, r.pending, r.hb_len, r.saved, r.backed_out, r.reprocessed] {
            h.usize(field);
        }
        h.u64(u64::from(r.merge_failed));
    }
    for cost in [m.cost.comm, m.cost.base_cpu, m.cost.base_io, m.cost.mobile_cpu] {
        h.f64(cost);
    }

    for count in [
        m.tentative_generated,
        m.base_generated,
        m.saved,
        m.backed_out,
        m.reprocessed,
        m.syncs,
        m.merge_failures,
        m.window_misses,
        m.retro_patches,
    ] {
        h.usize(count);
    }
    h.f64(m.peak_backlog);
    let samples = series.samples();
    h.usize(samples.len());
    for sample in &samples {
        h.u64(sample.tick);
        h.f64(sample.backlog);
    }
    h.usize(m.batch_sizes.len());
    for &size in &m.batch_sizes {
        h.usize(size);
    }
    let f = &m.fault;
    for count in [
        f.dropped,
        f.duplicated,
        f.reordered,
        f.mid_merge_disconnects,
        f.base_crashes,
        f.retries,
        f.abandoned_sessions,
        f.ledger_resumes,
        f.duplicate_installs_suppressed,
        f.recovered_sessions,
        f.trimmed_txns,
        f.double_resolutions,
        f.ledger_gaps,
    ] {
        h.usize(count);
    }
    let s = &m.storm;
    for count in [
        s.shed,
        s.deferred_drained,
        s.deferred_peak,
        s.defer_wait_ticks,
        s.defer_wait_max,
        s.backoff_reschedules,
        s.backoff_delay_ticks,
    ] {
        h.u64(count);
    }
    h.usize(m.defer_waits.len());
    for &wait in &m.defer_waits {
        h.u64(wait);
    }
    h.0
}

/// The `session_differential` scenario family: four jittered mobiles,
/// 400 ticks, a 200-tick window.
fn family(protocol: Protocol, seed: u64) -> SimConfig {
    SimConfig {
        n_mobiles: 4,
        duration: 400,
        base_rate: 0.25,
        mobile_rate: 0.2,
        connect_every: 50,
        protocol,
        strategy: SyncStrategy::WindowStart { window: 200 },
        workload: ScenarioParams {
            n_vars: 64,
            commutative_fraction: 0.5,
            guarded_fraction: 0.15,
            read_only_fraction: 0.1,
            hot_fraction: 0.1,
            hot_prob: 0.3,
            seed,
            ..ScenarioParams::default()
        },
        base_capacity: 120.0,
        ..SimConfig::default()
    }
}

/// The family's hot six-mobile variant under `strategy`.
fn hot_family(protocol: Protocol, strategy: SyncStrategy) -> SimConfig {
    let mut config = family(protocol, 9);
    config.strategy = strategy;
    config.workload.hot_prob = 0.8;
    config.n_mobiles = 6;
    config
}

/// A synchronized cohort: the whole fleet reconnects in one tick.
fn cohort(n_mobiles: usize, seed: u64, hot_prob: f64) -> SimConfig {
    SimConfig {
        n_mobiles,
        duration: 300,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 120 },
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
        ..SimConfig::default()
    }
}

/// An outage storm with faults, bounded admission, retry backoff and a
/// checkpointed write-ahead log, shadow-recovered at every base crash.
fn durable_storm() -> SimConfig {
    let mut config = SimConfig {
        n_mobiles: 24,
        duration: 320,
        base_rate: 0.25,
        mobile_rate: 0.1,
        connect_every: 30,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 120 },
        workload: ScenarioParams {
            n_vars: 96,
            hot_prob: 0.2,
            seed: 11,
            ..ScenarioParams::default()
        },
        sync_path: SyncPath::Session,
        fault: FaultPlan::seeded(0x5EED, FaultRates::uniform(0.05)),
        durability: DurabilityConfig { enabled: true, checkpoint_every: 128 },
        connectivity: ConnectivityModel::OutageStorm {
            start: 120,
            outage_ticks: 40,
            surge_ticks: 30,
            fault_boost: 2.0,
        },
        admission: AdmissionConfig::bounded(4),
        ..SimConfig::default()
    };
    config.session.backoff = RetryBackoff::enabled();
    config
}

/// The canned inventory flavor: reservations plus compensation-heavy
/// cancels, merged with the libraries' declared tables.
fn inventory() -> SimConfig {
    let mut config = family(Protocol::merging_default(), 43);
    config.canned = Some(CannedMixParams {
        n_accounts: 12,
        n_prices: 6,
        flavor: CannedFlavor::Inventory,
        seed: 43,
        ..CannedMixParams::default()
    });
    config
}

/// Every scenario, by name, in table order.
fn scenarios() -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for protocol in [Protocol::Reprocessing, Protocol::merging_default()] {
        let name = protocol.name();
        for seed in [5, 6, 7] {
            out.push((format!("family/{name}/seed{seed}"), family(protocol, seed)));
        }
        for n_mobiles in [4, 8] {
            let mut config = family(protocol, 8);
            config.n_mobiles = n_mobiles;
            out.push((format!("family/{name}/seed8/x{n_mobiles}"), config));
        }
        let window = SyncStrategy::WindowStart { window: 100 };
        out.push((format!("family/{name}/hot-window"), hot_family(protocol, window)));
    }
    let snapshot = SyncStrategy::PerDisconnectSnapshot;
    out.push(("strategy1/hot".into(), hot_family(Protocol::merging_default(), snapshot)));
    out.push(("cohort/hot".into(), cohort(8, 42, 0.9)));
    let mut hot_session = cohort(8, 42, 0.9);
    hot_session.sync_path = SyncPath::Session;
    out.push(("cohort/hot/session".into(), hot_session));
    let mut cold = cohort(6, 43, 0.0);
    cold.workload.n_vars = 512;
    cold.workload.hot_fraction = 0.0;
    out.push(("cohort/cold".into(), cold));
    out.push(("storm/durable".into(), durable_storm()));
    out.push(("canned/inventory".into(), inventory()));
    out
}

/// The pinned digests, in [`scenarios`] order.
const GOLDEN: &[(&str, u64)] = &[
    ("family/reprocessing/seed5", 0xb2cacf51470e6817),
    ("family/reprocessing/seed6", 0x17e59be8d1335c07),
    ("family/reprocessing/seed7", 0x512d494026497176),
    ("family/reprocessing/seed8/x4", 0xad980a49ae7ab5c5),
    ("family/reprocessing/seed8/x8", 0xb87b3fb06e0f5f1e),
    ("family/reprocessing/hot-window", 0x39b98ce356ce921a),
    ("family/merging/seed5", 0x476dfe451e3b20fd),
    ("family/merging/seed6", 0x962fe3e83019646f),
    ("family/merging/seed7", 0xc0c54e3f82106d6d),
    ("family/merging/seed8/x4", 0xf13cfe3fe0b30044),
    ("family/merging/seed8/x8", 0xe0be455337dc7476),
    ("family/merging/hot-window", 0xa565e6ff5d359e85),
    ("strategy1/hot", 0xc1a374c85a0b4199),
    ("cohort/hot", 0x7317e62ff4f44a23),
    ("cohort/hot/session", 0x7317e62ff4f44a23),
    ("cohort/cold", 0xb75f12f5fdd3ae09),
    ("storm/durable", 0x1087b111138f3721),
    ("canned/inventory", 0xfdcd8a950e43e226),
];

#[test]
fn simulation_runs_match_their_golden_digests() {
    let mut computed = Vec::new();
    for (name, mut config) in scenarios() {
        config.check_convergence = true;
        let (report, series) = run(config);
        let verdict = report.convergence.as_ref().expect("oracle requested");
        assert!(verdict.holds(), "{name}: convergence oracle failed: {verdict:?}");
        computed.push((name, digest(&report, &series)));
    }
    let table: String =
        computed.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n")).collect();
    let matches = computed.len() == GOLDEN.len()
        && computed.iter().zip(GOLDEN).all(|((name, d), (gname, gd))| name == gname && d == gd);
    assert!(matches, "golden digests moved; computed table:\n{table}");
}

#[test]
fn digest_tells_different_runs_apart() {
    // A digest blind to its input would match any captured table.
    let digest_of = |seed| {
        let (report, series) = run(family(Protocol::merging_default(), seed));
        digest(&report, &series)
    };
    assert_ne!(digest_of(5), digest_of(6));
}
