//! The four sync workloads. Each turns a seed into a `SimConfig`
//! that names only behavioural fields (fleet, rates, protocol, strategy,
//! transaction mix, reconnect shape, sync path, faults, backoff,
//! durability, connectivity, admission); every mechanism knob comes from
//! `SimConfig::default()`, so flipping a default shows up as measured
//! performance rather than as an edit here.
//!
//! Merging pays only where it saves base work, so the set pairs
//! merge-heavy traffic with merge-free traffic: an optimisation of the
//! merge layers should move `window-merge` or `reconnect-cohort` and
//! leave `reprocess-fleet` where it was.

use histmerge_replication::{
    AdmissionConfig, ConnectivityModel, DurabilityConfig, FaultPlan, FaultRates, Protocol,
    RetryBackoff, SimConfig, SyncPath, SyncStrategy,
};
use histmerge_workload::generator::ScenarioParams;

/// The storm's fault schedule is fixed, not drawn from the workload seed:
/// each base crash triggers a WAL shadow recovery, about a third of the
/// workload's time, and a seeded schedule would let the crash count (and
/// with it the run time) swing with the seed. The seed still varies the
/// transactions, the reconnect jitter and so which handshakes the faults
/// hit.
const STORM_FAULT_SEED: u64 = 0x5EED_FA17;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's steady merging regime: 48 jittered mobiles, 200-tick
    /// windows. Merge planning dominates; cohorts stay small.
    WindowMerge,
    /// 256 mobiles reconnecting together every 25 ticks: batch
    /// speculation, install validation and the epoch edge cache, with
    /// `H_b` growing inside each 100-tick window.
    ReconnectCohort,
    /// Writes beside merges: an outage storm with faults, admission
    /// control, retry backoff and a checkpointed WAL with shadow
    /// recovery at every base crash.
    StormRecovery,
    /// The reprocessing baseline at fleet scale: no merge layer does any
    /// work, so merge optimisations must leave it unmoved. The memory
    /// workload.
    ReprocessFleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::WindowMerge,
        Workload::ReconnectCohort,
        Workload::StormRecovery,
        Workload::ReprocessFleet,
    ];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WindowMerge => "window-merge",
            Workload::ReconnectCohort => "reconnect-cohort",
            Workload::StormRecovery => "storm-recovery",
            Workload::ReprocessFleet => "reprocess-fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's configuration for `seed`. `shrink` divides the
    /// fleet (and the window-merge horizon) for quick test runs; 1 is the
    /// benchmark size, sized so one run takes about a second on a 2-vCPU
    /// host.
    pub fn config(self, seed: u64, shrink: u64) -> SimConfig {
        let shrink = shrink.max(1);
        let fleet = |n: u64| (n / shrink).max(4) as usize;
        match self {
            Workload::WindowMerge => SimConfig {
                n_mobiles: fleet(48),
                duration: (1000 / shrink).max(250),
                base_rate: 0.3,
                mobile_rate: 0.1,
                connect_every: 50,
                protocol: Protocol::merging_default(),
                strategy: SyncStrategy::WindowStart { window: 200 },
                workload: mix(1024, 0.05, seed),
                ..SimConfig::default()
            },
            // Cohorts at ticks 25..=125; the one at 100 lands right after
            // the window rolls over and is reprocessed (a window miss).
            Workload::ReconnectCohort => SimConfig {
                n_mobiles: fleet(256),
                duration: 150,
                base_rate: 0.2,
                mobile_rate: 0.05,
                connect_every: 25,
                protocol: Protocol::merging_default(),
                strategy: SyncStrategy::WindowStart { window: 100 },
                workload: mix(256, 0.05, seed),
                synchronized_reconnects: true,
                ..SimConfig::default()
            },
            Workload::StormRecovery => {
                let mut config = SimConfig {
                    n_mobiles: fleet(100),
                    duration: 400,
                    base_rate: 0.2,
                    mobile_rate: 0.05,
                    connect_every: 40,
                    protocol: Protocol::merging_default(),
                    strategy: SyncStrategy::WindowStart { window: 150 },
                    workload: mix(192, 0.1, seed),
                    sync_path: SyncPath::Session,
                    fault: FaultPlan::seeded(STORM_FAULT_SEED, FaultRates::uniform(0.02)),
                    durability: DurabilityConfig { enabled: true, checkpoint_every: 1024 },
                    connectivity: ConnectivityModel::OutageStorm {
                        start: 150,
                        outage_ticks: 60,
                        surge_ticks: 40,
                        fault_boost: 2.0,
                    },
                    admission: AdmissionConfig::bounded(16),
                    ..SimConfig::default()
                };
                config.session.backoff = RetryBackoff::enabled();
                config
            }
            // About one tentative transaction per mobile per sync.
            Workload::ReprocessFleet => SimConfig {
                n_mobiles: fleet(20_000),
                duration: 160,
                base_rate: 0.2,
                mobile_rate: 0.025,
                connect_every: 40,
                protocol: Protocol::Reprocessing,
                strategy: SyncStrategy::AdaptiveWindow { max_hb: 64 },
                workload: mix(64, 0.05, seed),
                ..SimConfig::default()
            },
        }
    }
}

/// The random transaction mix every workload shares: 70% commutative,
/// 10% guarded, 10% read-only, over `n_vars` items of which 5% are hot.
fn mix(n_vars: u32, hot_prob: f64, seed: u64) -> ScenarioParams {
    ScenarioParams {
        n_vars,
        commutative_fraction: 0.7,
        guarded_fraction: 0.1,
        read_only_fraction: 0.1,
        hot_fraction: 0.05,
        hot_prob,
        seed,
        ..ScenarioParams::default()
    }
}
