//! The simulation's configuration and its one validator.

use std::sync::Arc;

use histmerge_core::rewrite::{FixMode, RewriteAlgorithm};
use histmerge_obs::{TimeSeries, TracerHandle};
use histmerge_workload::canned_mix::CannedMixParams;
use histmerge_workload::cost::CostParams;
use histmerge_workload::generator::ScenarioParams;

use crate::connectivity::{AdmissionConfig, ConnectivityModel, InvalidConnectivity};
use crate::fault::{FaultPlan, InvalidFaultRate};
use crate::session::SessionConfig;
use crate::sync::{SyncPath, SyncStrategy};
use crate::wal::DurabilityConfig;

/// Which synchronization protocol the simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The \[GHOS96\] baseline: re-execute every tentative transaction at
    /// the base.
    Reprocessing,
    /// The paper's merging protocol.
    Merging {
        /// The rewriting algorithm used by each merge.
        algorithm: RewriteAlgorithm,
        /// The fix-computation mode.
        fix_mode: FixMode,
    },
}

impl Protocol {
    /// The paper's recommended merging configuration.
    pub fn merging_default() -> Protocol {
        Protocol::Merging {
            algorithm: RewriteAlgorithm::CanFollowCanPrecede,
            fix_mode: FixMode::Lemma1,
        }
    }

    /// Short name for experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Reprocessing => "reprocessing",
            Protocol::Merging { .. } => "merging",
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of mobile nodes.
    pub n_mobiles: usize,
    /// Simulation length in ticks.
    pub duration: u64,
    /// Base transactions committed per tick (fractional rates accumulate).
    pub base_rate: f64,
    /// Tentative transactions per mobile per tick while disconnected.
    pub mobile_rate: f64,
    /// Mean ticks between reconnections of each mobile (jittered ±25%).
    pub connect_every: u64,
    /// The synchronization protocol.
    pub protocol: Protocol,
    /// The multi-history strategy (Section 2.2).
    pub strategy: SyncStrategy,
    /// Workload shape (variable space, transaction mix, hotspot skew).
    pub workload: ScenarioParams,
    /// Cost-model constants (Section 7.1).
    pub cost: CostParams,
    /// Base-node work capacity per tick, for backlog tracking.
    pub base_capacity: f64,
    /// Number of base partitions mastering the item space (multi-node base
    /// transactions coordinate via two-phase commit).
    pub base_nodes: usize,
    /// When set, transactions come from the typed canned mix (bank +
    /// promotions) instead of the random generator, and every merge uses
    /// the canned-system oracle (static analyzer + the libraries' declared
    /// tables). `workload` then only contributes its seed-independent
    /// simulation knobs; the item space and initial state come from the
    /// mix.
    pub canned: Option<CannedMixParams>,
    /// When `true`, every mobile reconnects on the same fixed cadence
    /// (`connect_every`, no jitter), so reconnections arrive in batches —
    /// whole-fleet merge cohorts installed in mobile-id order.
    pub synchronized_reconnects: bool,
    /// Which reconnection machinery runs: the legacy atomic handshake or
    /// the resumable session protocol. Without faults the two are
    /// byte-identical; only the session path can carry an active
    /// [`SimConfig::fault`] plan.
    pub sync_path: SyncPath,
    /// The fault schedule injected into session handshakes. An active plan
    /// requires [`SyncPath::Session`]: [`SimConfig::validate`] rejects it
    /// on the legacy path, which cannot represent faults.
    pub fault: FaultPlan,
    /// Session-protocol knobs (retry budget).
    pub session: SessionConfig,
    /// When `true`, the report carries a
    /// [`ConvergenceReport`](super::ConvergenceReport): the recorded
    /// commit order is replayed through the serial path and checked
    /// against the final master.
    pub check_convergence: bool,
    /// Durability knobs: when enabled, every durable transition of the
    /// base tier is written to a segmented CRC32-framed write-ahead log
    /// and the report carries a [`DurableReport`](super::DurableReport)
    /// for crash-recovery checks. Logging is observation-only — a
    /// durability-enabled run is byte-identical to the same run without
    /// it.
    pub durability: DurabilityConfig,
    /// The trace sink every layer of the run reports to: merge steps,
    /// session steps, injected faults, WAL appends, recovery replays, and
    /// phase spans. Tracing is observation-only — a traced run's
    /// [`Metrics::normalized`](crate::metrics::Metrics::normalized) is
    /// byte-identical to the untraced run. The default is the shared
    /// no-op tracer, which skips event construction entirely.
    pub tracer: TracerHandle,
    /// The structured connectivity model shaping each mobile's link
    /// trace: reconnections drawn into a down-link epoch slide to the
    /// next up tick, and the model's trace-conditioned factor scales the
    /// fault rates tick by tick (handoff windows, post-outage surges).
    /// The default [`ConnectivityModel::AlwaysOn`] reproduces the plain
    /// jittered cadence byte-for-byte (pinned by `session_differential`).
    pub connectivity: ConnectivityModel,
    /// Base-side admission control: the per-tick cap on the reconnect
    /// merge cohort. Excess arrivals are shed into a deterministic FIFO
    /// deferred queue drained ahead of fresh arrivals each tick. The
    /// default is unbounded — byte-identical to the pre-admission
    /// scheduler.
    pub admission: AdmissionConfig,
    /// Fleet telemetry: the optional per-tick time-series collector and
    /// the merge-autopsy switch. Observation-only by the same contract as
    /// the tracer — a telemetry-enabled run commits byte-identical state
    /// and (normalized) metrics to a plain run; `session_differential`
    /// pins this.
    pub telemetry: TelemetryConfig,
}

/// Fleet-telemetry switches ([`SimConfig::telemetry`]).
///
/// Both pieces are off by default and strictly observation-only: they
/// read simulation state after the fact and never touch RNG streams,
/// metrics counters, or control flow.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// When set, the simulation records one
    /// [`TickSample`](histmerge_obs::TickSample) of fleet gauges per
    /// collector stride into this shared series (backlog,
    /// defer queue and wait quantiles, open/abandoned sessions,
    /// cumulative saved/redone for the windowed save ratio, WAL bytes,
    /// merge-cohort size, merge-plan span bounds).
    pub series: Option<Arc<TimeSeries>>,
    /// When `true` (and the tracer is enabled), every sync plan emits a
    /// structured autopsy: a `BackoutEdge` / `ReprocessCause` line per
    /// transaction that was not saved, closed by a `MergeSummary`
    /// ([`histmerge_obs::TraceEvent`]). The flight recorder reassembles
    /// these into [`histmerge_obs::MergeAutopsy`] values.
    pub autopsy: bool,
}

impl TelemetryConfig {
    /// Telemetry fully enabled: a fresh bounded series plus autopsies.
    pub fn full(stride: u64, capacity: usize) -> TelemetryConfig {
        TelemetryConfig { series: Some(Arc::new(TimeSeries::new(stride, capacity))), autopsy: true }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_mobiles: 4,
            duration: 400,
            base_rate: 0.5,
            mobile_rate: 0.2,
            connect_every: 50,
            protocol: Protocol::merging_default(),
            strategy: SyncStrategy::WindowStart { window: 100 },
            workload: ScenarioParams::default(),
            cost: CostParams::default(),
            base_capacity: 200.0,
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
}

impl SimConfig {
    /// Checks every construction-time constraint;
    /// [`Simulation::new`](super::Simulation::new) runs exactly this.
    ///
    /// # Errors
    ///
    /// Returns [`SimConfigError`] when a fault rate is not a probability
    /// (see [`crate::fault::FaultRates::validate`]), when an active fault
    /// plan is paired with [`SyncPath::Legacy`], when the connectivity
    /// model has an out-of-range parameter, when `base_rate`,
    /// `mobile_rate` or `base_capacity` is negative or not finite (an
    /// infinite rate never finishes a tick), when `connect_every`,
    /// `base_nodes`, a fixed `window` or an adaptive `max_hb` is zero, or,
    /// when the random generator supplies the transactions (`canned` is
    /// `None`), when `workload.n_vars` is zero or `workload.hot_prob` or
    /// `workload.hot_fraction` is not a probability.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        self.fault.rates.validate().map_err(SimConfigError::InvalidFaultRate)?;
        if self.fault.active() && self.sync_path == SyncPath::Legacy {
            return Err(SimConfigError::FaultsOnLegacyPath);
        }
        self.connectivity.validate().map_err(SimConfigError::InvalidConnectivity)?;
        let rates = [
            ("base_rate", self.base_rate),
            ("mobile_rate", self.mobile_rate),
            ("base_capacity", self.base_capacity),
        ];
        if let Some(&(field, value)) = rates.iter().find(|(_, v)| !(v.is_finite() && *v >= 0.0)) {
            return Err(SimConfigError::OutOfRange { field, value });
        }
        if self.canned.is_none() {
            let w = &self.workload;
            if w.n_vars == 0 {
                return Err(SimConfigError::OutOfRange { field: "n_vars", value: 0.0 });
            }
            let probabilities = [("hot_prob", w.hot_prob), ("hot_fraction", w.hot_fraction)];
            if let Some(&(field, value)) =
                probabilities.iter().find(|(_, p)| !(0.0..=1.0).contains(p))
            {
                return Err(SimConfigError::OutOfRange { field, value });
            }
        }
        let zero_window = match self.strategy {
            SyncStrategy::WindowStart { window: 0 } => Some("window"),
            SyncStrategy::AdaptiveWindow { max_hb: 0 } => Some("max_hb"),
            _ => None,
        };
        let zero_field = (self.connect_every == 0)
            .then_some("connect_every")
            .or((self.base_nodes == 0).then_some("base_nodes"))
            .or(zero_window);
        match zero_field {
            Some(field) => Err(SimConfigError::OutOfRange { field, value: 0.0 }),
            None => Ok(()),
        }
    }
}

/// A [`SimConfig`] rejected by [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimConfigError {
    /// A fault rate is not a probability — see
    /// [`crate::fault::FaultRates::validate`].
    InvalidFaultRate(InvalidFaultRate),
    /// A connectivity-model parameter is out of range — see
    /// [`ConnectivityModel::validate`].
    InvalidConnectivity(InvalidConnectivity),
    /// An active [`SimConfig::fault`] plan on [`SyncPath::Legacy`], whose
    /// atomic handshake cannot inject faults.
    FaultsOnLegacyPath,
    /// A rate or capacity that is negative or not finite, a period
    /// (`connect_every`, `window`, `max_hb`) or count (`base_nodes`,
    /// `n_vars`) that is zero, or a generator probability (`hot_prob`,
    /// `hot_fraction`) outside `[0, 1]`.
    OutOfRange {
        /// The offending setting's name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::InvalidFaultRate(e) => e.fmt(f),
            SimConfigError::InvalidConnectivity(e) => e.fmt(f),
            SimConfigError::FaultsOnLegacyPath => {
                f.write_str("an active fault plan needs the session sync path")
            }
            SimConfigError::OutOfRange { field, value } => {
                write!(f, "{field} = {value} is out of range")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}
