//! The discrete-time two-tier replication simulation.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use histmerge_core::merge::{
    InstallPlan, MergeAssist, MergeConfig, MergeOutcome, MergeScratch, Merger,
};
use histmerge_core::prune::PruneMethod;
use histmerge_core::rewrite::{FixMode, RewriteAlgorithm};
use histmerge_history::{
    closure_weights_for, rule1_edge_count, BaseEdgeCache, EdgeKind, SerialHistory, TwoCycleOptimal,
    TxnArena,
};
use histmerge_obs::{
    Phase, SessionStepKind, TickSample, TimeSeries, TraceEvent, TracerHandle, NO_PARTNER,
};
use histmerge_semantics::{OracleStack, SemanticOracle, StaticAnalyzer};
use histmerge_txn::{DbState, TxnId, TxnKind};
use histmerge_workload::canned_mix::{CannedMix, CannedMixParams};
use histmerge_workload::cost::{
    merging_cost, reprocessing_cost, CostParams, MergeStats, ReprocessStats,
};
use histmerge_workload::generator::{ScenarioParams, TxnFactory};

use crate::cluster::BaseCluster;
use crate::connectivity::{AdmissionConfig, ConnectivityModel, InvalidConnectivity, LinkTrace};
use crate::fault::{Delivery, FaultPlan, InvalidFaultRate};
use crate::metrics::{Metrics, SyncRecord};
use crate::mobile::MobileNode;
use crate::recovery;
use crate::sched::{Event, EventKind, EventQueue};
use crate::session::{SessionConfig, SessionLedger, SessionRecord};
use crate::sync::{SyncPath, SyncStrategy};
use crate::wal::{DurabilityConfig, Snapshot, VecStorage, Wal, WalRecord};

/// Which synchronization protocol the simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Protocol {
    /// The \[GHOS96\] baseline: re-execute every tentative transaction at
    /// the base.
    Reprocessing,
    /// The paper's merging protocol.
    Merging {
        /// The rewriting algorithm used by each merge.
        #[serde(skip)]
        algorithm: RewriteAlgorithm,
        /// The fix-computation mode.
        #[serde(skip)]
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
    /// requires [`SyncPath::Session`]: [`Simulation::new`] rejects it on
    /// the legacy path, which cannot represent faults.
    pub fault: FaultPlan,
    /// Session-protocol knobs (retry budget).
    pub session: SessionConfig,
    /// When `true`, the report carries a [`ConvergenceReport`]: the
    /// recorded commit order is replayed through the serial path and
    /// checked against the final master.
    pub check_convergence: bool,
    /// Durability knobs: when enabled, every durable transition of the
    /// base tier is written to a segmented CRC32-framed write-ahead log
    /// and the report carries a [`DurableReport`] for crash-recovery
    /// checks. Logging is observation-only — a durability-enabled run is
    /// byte-identical to the same run without it.
    pub durability: DurabilityConfig,
    /// Sample the base backlog every this many ticks into
    /// [`Metrics::backlog_series`]. `0` disables sampling.
    pub backlog_sample_every: u64,
    /// The trace sink every layer of the run reports to: merge steps,
    /// session steps, injected faults, WAL appends, recovery replays, and
    /// phase spans. Tracing is observation-only — a traced run's
    /// [`Metrics::normalized`] is byte-identical to the untraced run. The
    /// default is the shared no-op tracer, which skips event construction
    /// entirely.
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
    /// When set, the simulation records one [`TickSample`] of fleet
    /// gauges per collector stride into this shared series (backlog,
    /// defer queue and wait quantiles, open/abandoned sessions,
    /// cumulative saved/redone for the windowed save ratio, WAL bytes,
    /// merge-cohort size, merge-plan span bounds).
    pub series: Option<Arc<TimeSeries>>,
    /// When `true` (and the tracer is enabled), every sync plan emits a
    /// structured autopsy: a [`TraceEvent::BackoutEdge`] /
    /// [`TraceEvent::ReprocessCause`] line per transaction that was not
    /// saved, closed by a [`TraceEvent::MergeSummary`]. The flight
    /// recorder reassembles these into [`histmerge_obs::MergeAutopsy`]
    /// values.
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
            backlog_sample_every: 10,
            tracer: TracerHandle::noop(),
            connectivity: ConnectivityModel::AlwaysOn,
            admission: AdmissionConfig::unbounded(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// A [`SimConfig`] rejected by [`Simulation::new`].
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
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::InvalidFaultRate(e) => e.fmt(f),
            SimConfigError::InvalidConnectivity(e) => e.fmt(f),
            SimConfigError::FaultsOnLegacyPath => {
                f.write_str("an active fault plan needs the session sync path")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

impl From<InvalidFaultRate> for SimConfigError {
    fn from(e: InvalidFaultRate) -> Self {
        SimConfigError::InvalidFaultRate(e)
    }
}

impl From<InvalidConnectivity> for SimConfigError {
    fn from(e: InvalidConnectivity) -> Self {
        SimConfigError::InvalidConnectivity(e)
    }
}

/// The report a finished simulation returns.
#[derive(Debug)]
pub struct SimReport {
    /// Aggregated metrics.
    pub metrics: Metrics,
    /// The final master state.
    pub final_master: DbState,
    /// Base transactions committed in total (own load + installs +
    /// re-executions).
    pub base_commits: usize,
    /// Distribution statistics of the partitioned base tier.
    pub cluster: crate::cluster::ClusterStats,
    /// The convergence-oracle verdict, when
    /// [`SimConfig::check_convergence`] was set.
    pub convergence: Option<ConvergenceReport>,
    /// Session-ledger records still live at the end of the run (the
    /// boundedness satellite: acked sessions are pruned, so this tracks
    /// in-flight sessions, not run length).
    pub ledger_len: usize,
    /// The run's durable artifacts, when [`SimConfig::durability`] was
    /// enabled — everything a crash-recovery harness needs.
    pub durable: Option<DurableReport>,
}

/// The durable artifacts of a durability-enabled run: the WAL's storage
/// (with its full mutation journal, so a crash-point harness can rewind
/// to any moment) plus the live final state recovery must reproduce.
#[derive(Debug)]
pub struct DurableReport {
    /// The WAL's backing storage, journal included.
    pub storage: VecStorage,
    /// The live committed log at the end of the run: `(txn, writes)` per
    /// commit, the redo log the WAL's commit records carry.
    pub log: Vec<(TxnId, DbState)>,
    /// The live window counter at the end of the run.
    pub epoch: u64,
    /// The live window-start index at the end of the run.
    pub epoch_start: usize,
    /// The live window-start state at the end of the run.
    pub epoch_state: DbState,
    /// The live session ledger at the end of the run.
    pub ledger: SessionLedger,
    /// The transaction arena (shared immutable knowledge: recovery needs
    /// writesets to replay retroactive patches, and oracles need programs
    /// to replay the recovered history).
    pub arena: TxnArena,
    /// The initial master state (the oracle's replay origin).
    pub initial: DbState,
}

/// The convergence oracle's verdict: after any fault schedule, the final
/// master state must be byte-identical to a fault-free serial run over the
/// surviving (committed) transactions — checked by replaying the recorded
/// commit order through the serial execution path from the initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// `false` when Strategy-1 retroactive installs occurred: retro-patches
    /// edit recorded after-states in place instead of appending commits, so
    /// the commit log is not a replayable serial history.
    pub applicable: bool,
    /// Replaying the commit order reproduced the final master
    /// (only meaningful when `applicable`).
    pub converged: bool,
    /// Committed transactions replayed.
    pub commits: usize,
    /// Tentative transactions resolved more than once (must be 0 — any
    /// double install/re-execution is an idempotence bug).
    pub double_resolutions: usize,
}

impl ConvergenceReport {
    /// `true` when the oracle holds: no double resolutions, and (where the
    /// replay check applies) the replayed history reproduces the master.
    pub fn holds(&self) -> bool {
        self.double_resolutions == 0 && (!self.applicable || self.converged)
    }
}

/// Where the simulation's transactions come from.
enum TxnSource {
    /// The seeded random generator.
    Random(Box<TxnFactory>),
    /// The typed canned mix (bank + promotions).
    Canned(Box<CannedMix>),
}

impl TxnSource {
    fn next_txn(&mut self, arena: &mut TxnArena, kind: TxnKind) -> TxnId {
        match self {
            TxnSource::Random(f) => f.next_txn(arena, kind),
            TxnSource::Canned(m) => m.next_txn(arena, kind),
        }
    }
}

/// Builds a merger for the configured workload: the canned system gets the
/// static analyzer plus the libraries' declared tables, the random
/// workload the static analyzer alone.
fn build_merger(source: &TxnSource, algorithm: RewriteAlgorithm, fix_mode: FixMode) -> Merger {
    let oracle: Box<dyn SemanticOracle> = match source {
        TxnSource::Canned(mix) => Box::new(mix.oracle()),
        TxnSource::Random(_) => Box::new(OracleStack::new().with(Box::new(StaticAnalyzer::new()))),
    };
    Merger::new(MergeConfig {
        backout: Box::new(TwoCycleOptimal::new()),
        algorithm,
        fix_mode,
        prune: PruneMethod::Undo,
        oracle,
    })
}

/// The next reconnection tick: `tick + every`, shifted by
/// `draw − jitter ∈ [−jitter, +jitter]`, clamped to land strictly after
/// `tick`. Saturating arithmetic throughout — the old inline expression
/// mixed unsigned addition and subtraction in an order that could
/// underflow for jitters exceeding `tick + every`.
fn jittered_next_connect(tick: u64, every: u64, jitter: u64, draw: u64) -> u64 {
    tick.saturating_add(every).saturating_add(draw).saturating_sub(jitter).max(tick + 1)
}

/// What a reconnection decided to do, computed by [`Simulation::plan_sync`]
/// and applied by either path. Separating the decision from its
/// application is what lets the session protocol retain a computed merge
/// across a mid-merge disconnect and resume it without recomputation.
enum SyncDecision {
    /// Nothing pending: just refresh the mobile's origin.
    Refresh,
    /// Merge the pending history (protocol steps 1–6).
    Merge {
        /// The pending tentative history the merge consumed.
        hm: SerialHistory,
        /// Base-history length the merge ran against.
        hb_len: usize,
        /// The merge outcome to install (boxed: it dwarfs the other
        /// variants, and decisions are cached across session retries).
        outcome: Box<MergeOutcome>,
        /// Strategy 1: install retroactively at the snapshot point.
        retroactive: bool,
    },
    /// Re-execute everything the \[GHOS96\] way.
    Reprocess {
        /// Why the planner fell back to wholesale reprocessing.
        cause: ReprocessReason,
    },
}

/// Why a sync plan fell back to \[GHOS96\] reprocessing — carried on
/// [`SyncDecision::Reprocess`] so both the metrics (`merge_failed`) and
/// the merge autopsy name the concrete cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReprocessReason {
    /// The mobile's origin state is stale relative to the epoch it must
    /// merge into (Strategy 2 window semantics).
    DirtyOrigin,
    /// The configured protocol is the reprocessing baseline.
    ProtocolBaseline,
    /// The mobile disconnected across a window rollover (Strategy 2
    /// window miss).
    WindowMiss,
    /// A merge was planned but failed (Strategy 1 snapshot invalidated,
    /// or the merge itself was rejected).
    MergeFailed,
    /// A session resumption found no ledger record and degraded to
    /// legacy reprocessing.
    LedgerGap,
}

impl ReprocessReason {
    /// The autopsy cause label.
    fn name(self) -> &'static str {
        match self {
            ReprocessReason::DirtyOrigin => "dirty-origin",
            ReprocessReason::ProtocolBaseline => "protocol-reprocessing",
            ReprocessReason::WindowMiss => "window-miss",
            ReprocessReason::MergeFailed => "merge-failed",
            ReprocessReason::LedgerGap => "ledger-gap",
        }
    }

    /// `true` only when a planned merge failed first — the bit
    /// [`crate::metrics::SyncRecord`] has always recorded.
    fn merge_failed(self) -> bool {
        matches!(self, ReprocessReason::MergeFailed)
    }
}

/// A session resumption found no ledger record for `(mobile, seq)` — the
/// structured form of what used to be a panic. The caller degrades the
/// session to legacy reprocessing and counts the gap in
/// [`crate::metrics::FaultStats::ledger_gaps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LedgerGap {
    /// The mobile whose session record is missing.
    mobile: usize,
    /// The missing session's sequence number.
    #[allow(dead_code)] // diagnostic payload, read via Debug
    seq: u64,
}

/// The simulation state. Construct with [`Simulation::new`] and consume
/// with [`Simulation::run`].
pub struct Simulation {
    config: SimConfig,
    arena: TxnArena,
    base: BaseCluster,
    mobiles: Vec<MobileNode>,
    /// Epoch id of the base's current window, and per-mobile epoch ids.
    epoch: u64,
    mobile_epochs: Vec<u64>,
    source: TxnSource,
    /// The one merger every plan runs, built at construction: the
    /// protocol and the transaction source never change, so neither does
    /// the oracle stack or the back-out strategy. `None` under the
    /// reprocessing baseline, which never merges.
    merger: Option<Merger>,
    rng: StdRng,
    metrics: Metrics,
    backlog: f64,
    base_accum: f64,
    /// Incrementally maintained rule-2 edge counts and reachability of
    /// `epoch`'s base history.
    base_edge_cache: BaseEdgeCache,
    /// The epoch `base_edge_cache` belongs to (cleared on rollover).
    cache_epoch: u64,
    /// The fault event stream (session path; untouched when the plan is
    /// inactive, keeping fault-free runs byte-identical).
    fault_rng: StdRng,
    /// The base's durable session table (session path).
    ledger: SessionLedger,
    /// Tentative transactions already installed or re-executed — the
    /// double-resolution guard behind the convergence oracle.
    resolved: BTreeSet<TxnId>,
    /// The initial master state, kept for the oracle's replay.
    initial: DbState,
    /// The write-ahead log, when [`SimConfig::durability`] is enabled.
    wal: Option<Wal<VecStorage>>,
    /// How many entries of the base log are already WAL-logged as
    /// [`WalRecord::Commit`] records.
    logged_commits: usize,
    /// The tick the current window opened at, for virtual-clock window
    /// spans ([`TraceEvent::TickSpan`]).
    last_window_tick: u64,
    /// Reusable merge working memory, threaded through every merge plan.
    merge_scratch: MergeScratch,
    /// The event queue that finds each tick's due mobile work.
    events: EventQueue,
    /// The fleet-shared tentative-generation accumulator: every mobile
    /// generates at the same `mobile_rate` from the same start and never
    /// resets, so one accumulator stands for the whole fleet.
    gen_acc: f64,
    /// Tentative transactions each mobile generates at the next scheduled
    /// [`EventKind::Generate`] event.
    gen_count: u64,
    /// The current window-start state, shared with every Strategy-2 mobile
    /// resynchronized in this window (refreshed at each window rollover).
    epoch_state_arc: Arc<DbState>,
    /// Reconnects shed by admission control, as `(mobile, arrival_tick)`
    /// in arrival order. Drained FIFO ahead of fresh arrivals each tick,
    /// so every deferred mobile is admitted within
    /// `⌈queue / max_batch⌉` ticks. Always empty with admission control
    /// disabled.
    deferred: VecDeque<(usize, u64)>,
    /// Consecutive abandoned sessions per mobile — the rung each mobile
    /// occupies on the retry-backoff ladder. Reset by a successful ack.
    backoff_level: Vec<u32>,
    /// The backoff-jitter stream. Only drawn from when a backoff
    /// reschedule actually fires, so runs without abandons (and all runs
    /// with backoff disabled) are byte-identical to the pre-backoff
    /// simulator.
    backoff_rng: StdRng,
    /// Merge-plan span nanoseconds of the most recent [`Self::plan_sync`]
    /// call (0 when no plan was computed). Telemetry-only: read by the
    /// merge autopsy, never by the simulation.
    last_plan_ns: u64,
    /// Mobiles admitted to the merge cohort this tick. Telemetry-only:
    /// sampled as the `cohort` gauge, reset each tick.
    tick_cohort: u64,
}

impl Simulation {
    /// Creates a simulation in its initial state.
    ///
    /// # Errors
    ///
    /// Returns [`SimConfigError`] when [`SimConfig::fault`] carries a rate
    /// that is not a probability (NaN, negative, or above 1.0 — see
    /// [`crate::fault::FaultRates::validate`]), when an active fault plan
    /// is paired with [`SyncPath::Legacy`], or when
    /// [`SimConfig::connectivity`] has an out-of-range parameter. Callers
    /// that cannot recover should `.expect("valid sim config")`.
    pub fn new(config: SimConfig) -> Result<Self, SimConfigError> {
        config.fault.rates.validate()?;
        if config.fault.active() && config.sync_path == SyncPath::Legacy {
            return Err(SimConfigError::FaultsOnLegacyPath);
        }
        config.connectivity.validate()?;
        let source = match &config.canned {
            Some(params) => TxnSource::Canned(Box::new(CannedMix::new(params.clone()))),
            None => TxnSource::Random(Box::new(TxnFactory::new(config.workload.clone()))),
        };
        let initial = match &source {
            TxnSource::Canned(mix) => mix.initial_state(),
            TxnSource::Random(_) => histmerge_workload::generator::initial_state(&config.workload),
        };
        let merger = match config.protocol {
            Protocol::Reprocessing => None,
            Protocol::Merging { algorithm, fix_mode } => {
                Some(build_merger(&source, algorithm, fix_mode))
            }
        };
        // Only the write-ahead log reads the per-commit write deltas;
        // every other run keeps an id-only commit log.
        let lean = !config.durability.enabled;
        let base = BaseCluster::with_lean(initial.clone(), config.base_nodes, lean);
        let mut rng = StdRng::seed_from_u64(config.workload.seed ^ 0x5151_5151);
        let initial_arc = Arc::new(initial.clone());
        let mobiles: Vec<MobileNode> = (0..config.n_mobiles)
            .map(|i| {
                let first = if config.synchronized_reconnects {
                    config.connect_every.max(1)
                } else {
                    1 + rng.gen_range(0..config.connect_every.max(1))
                };
                // A first connect drawn into a down-link epoch slides to
                // the next up tick (identity under AlwaysOn).
                let first = config.connectivity.next_up(i, first).max(1);
                MobileNode::new(i, initial_arc.clone(), 0, first)
            })
            .collect();
        let n = config.n_mobiles;
        let wal = config.durability.enabled.then(|| {
            Wal::new(VecStorage::new(), &Snapshot::genesis(initial.clone()))
                .with_tracer(config.tracer.clone())
        });
        let mut sim = Simulation {
            arena: TxnArena::new(),
            base,
            mobile_epochs: vec![0; n],
            epoch: 0,
            source,
            merger,
            rng,
            metrics: Metrics::default(),
            backlog: 0.0,
            base_accum: 0.0,
            base_edge_cache: BaseEdgeCache::new(),
            cache_epoch: 0,
            fault_rng: config.fault.rng(),
            ledger: SessionLedger::new(),
            resolved: BTreeSet::new(),
            initial,
            wal,
            logged_commits: 0,
            last_window_tick: 0,
            merge_scratch: MergeScratch::new(),
            events: EventQueue::new(),
            gen_acc: 0.0,
            gen_count: 0,
            epoch_state_arc: initial_arc,
            deferred: VecDeque::new(),
            backoff_level: vec![0; n],
            backoff_rng: StdRng::seed_from_u64(config.workload.seed ^ 0xBAC0_0FF5_BAC0_0FF5),
            last_plan_ns: 0,
            tick_cohort: 0,
            mobiles,
            config,
        };
        for i in 0..sim.mobiles.len() {
            sim.events.push(Event {
                time: sim.mobiles[i].next_connect(),
                kind: EventKind::Connect,
                mobile: i,
            });
        }
        sim.schedule_next_generate(0);
        Ok(sim)
    }

    /// Runs the simulation to completion.
    pub fn run(mut self) -> SimReport {
        for tick in 0..self.config.duration {
            self.step(tick);
        }
        let convergence =
            if self.config.check_convergence { Some(self.convergence_report()) } else { None };
        if let Some(report) = &convergence {
            if !report.holds() {
                // The oracle failed: ship the flight recorder's last events
                // before anyone asserts on the report.
                if let Some(path) = self.config.tracer.dump_to_dir("convergence-failure") {
                    eprintln!("convergence oracle failed; flight recorder at {}", path.display());
                }
            }
        }
        if let Some(wal) = &self.wal {
            self.metrics.wal.records = wal.records();
            self.metrics.wal.bytes = wal.bytes_written();
            self.metrics.wal.checkpoints = wal.checkpoints();
            self.metrics.wal.segments_retired = wal.segments_retired();
        }
        self.metrics.sched.events_pushed = self.events.pushed();
        self.metrics.sched.events_popped = self.events.popped();
        let durable = self.wal.take().map(|wal| DurableReport {
            storage: wal.into_storage(),
            log: self.base.base().log().to_vec(),
            epoch: self.epoch,
            epoch_start: self.base.base().epoch_start(),
            epoch_state: self.base.base().epoch_state().clone(),
            ledger: self.ledger.clone(),
            arena: self.arena.clone(),
            initial: self.initial.clone(),
        });
        SimReport {
            base_commits: self.base.base().committed(),
            final_master: self.base.base().master().clone(),
            cluster: self.base.stats().clone(),
            ledger_len: self.ledger.len(),
            metrics: self.metrics,
            convergence,
            durable,
        }
    }

    /// Replays the recorded commit order through the serial path from the
    /// initial state and compares against the master — the convergence
    /// oracle. Inapplicable when retroactive installs patched the master
    /// outside the committed history (Strategy-1 merges).
    fn convergence_report(&self) -> ConvergenceReport {
        let applicable = self.metrics.retro_patches == 0;
        let full = self.base.base().full_history();
        let commits = full.len();
        let converged = applicable
            && match histmerge_history::run_to_final(&self.arena, &full, &self.initial) {
                Ok(state) => &state == self.base.base().master(),
                Err(_) => false,
            };
        ConvergenceReport {
            applicable,
            converged,
            commits,
            double_resolutions: self.metrics.fault.double_resolutions,
        }
    }

    // ------------------------------------------------------------------
    // Write-ahead logging (SimConfig::durability). All hooks are no-ops
    // when durability is disabled, keeping the paths byte-identical.
    // ------------------------------------------------------------------

    /// Appends one record to the WAL, if one is open. The record is built
    /// only then, so a run without durability never clones its payload.
    fn wal_append(&mut self, record: impl FnOnce() -> WalRecord) {
        if let Some(wal) = self.wal.as_mut() {
            wal.append(&record());
        }
    }

    /// Logs every base-log entry committed since the last call as a
    /// [`WalRecord::Commit`]. Called after each batch of commits (own
    /// load, installs, re-executions), so the WAL's commit order is the
    /// base log's commit order.
    fn wal_sync_commits(&mut self) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let log = self.base.base().log();
        for (txn, writes) in &log[self.logged_commits..] {
            wal.append(&WalRecord::Commit { txn: *txn, writes: writes.clone() });
        }
        self.logged_commits = log.len();
    }

    /// A full snapshot of the durable state, for checkpoint records.
    fn wal_snapshot(&self) -> Snapshot {
        let base = self.base.base();
        Snapshot {
            log: base.log().to_vec(),
            master: base.master().clone(),
            epoch_start: base.epoch_start() as u64,
            epoch_state: base.epoch_state().clone(),
            epoch: self.epoch,
            ledger: self.ledger.iter().map(|(m, s, r)| (m as u64, s, r.clone())).collect(),
        }
    }

    /// Checkpoints (snapshot + segment compaction) when enough records
    /// accumulated since the last one. Evaluated once per tick.
    fn wal_maybe_checkpoint(&mut self) {
        let every = self.config.durability.checkpoint_every;
        let due = match &self.wal {
            Some(wal) => every > 0 && wal.since_checkpoint() >= every,
            None => false,
        };
        if due {
            let snapshot = self.wal_snapshot();
            if let Some(wal) = self.wal.as_mut() {
                wal.checkpoint(snapshot);
            }
        }
    }

    /// The in-run recovery oracle: at a simulated base crash, rebuild the
    /// durable state from the WAL and check it matches the live state the
    /// crash is about to resume from. Makes the WAL load-bearing inside
    /// faulted runs, not just in post-hoc torture tests.
    ///
    /// # Panics
    ///
    /// Panics when recovery disagrees with the live state — a durability
    /// bug, never a legitimate simulation outcome.
    fn shadow_recovery_check(&mut self) {
        let Some(wal) = &self.wal else {
            return;
        };
        let recovered = recovery::recover_traced(&self.arena, wal.storage(), &self.config.tracer)
            .expect("open WAL has a checkpoint");
        let base = self.base.base();
        let checks = [
            ("torn tail", !recovered.torn),
            ("log", recovered.base.log() == base.log()),
            ("master", recovered.base.master() == base.master()),
            ("window start", recovered.base.epoch_start() == base.epoch_start()),
            ("window state", recovered.base.epoch_state() == base.epoch_state()),
            ("epoch", recovered.epoch == self.epoch),
            ("ledger", recovered.ledger == self.ledger),
        ];
        if let Some((field, _)) = checks.iter().find(|(_, ok)| !ok) {
            // Dump the flight recorder before aborting the run: the last
            // events are the forensic record of how the durable and live
            // states drifted apart.
            if let Some(path) = self.config.tracer.dump_to_dir("shadow-recovery-divergence") {
                eprintln!("shadow recovery diverged; flight recorder at {}", path.display());
            }
            panic!("shadow recovery diverged from the live state: {field}");
        }
        self.metrics.wal.shadow_recoveries += 1;
    }

    /// Prunes mobile `i`'s ledger records through `seq` after its ack,
    /// logging the prune when it dropped anything.
    fn prune_after_ack(&mut self, i: usize, seq: u64) {
        let pruned = self.ledger.prune_acked(i, seq);
        if pruned > 0 {
            self.metrics.wal.pruned_records += pruned as u64;
            self.wal_append(|| WalRecord::SessionPrune { mobile: i as u64, upto_seq: seq });
        }
    }

    fn step(&mut self, tick: u64) {
        let mut tick_base_work = 0.0;
        self.tick_cohort = 0;

        // Window boundary (Strategy 2, fixed or adaptive).
        let rolled = match self.config.strategy {
            SyncStrategy::WindowStart { window } => tick > 0 && tick.is_multiple_of(window.max(1)),
            SyncStrategy::AdaptiveWindow { max_hb } => {
                self.base.base().epoch_len() >= max_hb.max(1)
            }
            SyncStrategy::PerDisconnectSnapshot => false,
        };
        if rolled {
            self.base.base_mut().start_window();
            self.epoch_state_arc = Arc::new(self.base.base().epoch_state().clone());
            self.epoch += 1;
            self.wal_append(|| WalRecord::WindowStart);
            let last = self.last_window_tick;
            self.config
                .tracer
                .emit(|| TraceEvent::TickSpan { phase: Phase::Window, ticks: tick - last });
            self.last_window_tick = tick;
        }

        // Base tier's own load.
        self.base_accum += self.config.base_rate;
        while self.base_accum >= 1.0 {
            self.base_accum -= 1.0;
            let id = self.source.next_txn(&mut self.arena, TxnKind::Base);
            self.base.commit(&self.arena, id);
            self.metrics.base_generated += 1;
            let stmts = self.arena.get(id).program().statement_count() as f64;
            tick_base_work +=
                stmts * self.config.cost.base_query_per_stmt + self.config.cost.base_io_force;
        }
        self.wal_sync_commits();

        // Mobile tier: generation then the tick's reconnect batch.
        tick_base_work += self.step_events(tick);

        // Backlog accounting.
        self.backlog = (self.backlog + tick_base_work - self.config.base_capacity).max(0.0);
        if self.backlog > self.metrics.peak_backlog {
            self.metrics.peak_backlog = self.backlog;
        }
        let every = self.config.backlog_sample_every;
        if every > 0 && tick.is_multiple_of(every) {
            self.metrics.backlog_series.push((tick, self.backlog));
        }

        // Fleet telemetry: one bounded time-series sample per collector
        // stride. Observation-only — reads state, touches nothing.
        self.sample_telemetry(tick);

        // Durability: checkpoint at tick boundaries once enough records
        // accumulated.
        self.wal_maybe_checkpoint();
    }

    /// Records one [`TickSample`] of fleet gauges into the configured
    /// time series, if any. The closure only runs on collector-stride
    /// ticks, so off-stride ticks cost one branch.
    fn sample_telemetry(&mut self, tick: u64) {
        let Some(series) = self.config.telemetry.series.clone() else {
            return;
        };
        series.record(tick, || {
            let (defer_wait_p50, defer_wait_p99) = self.metrics.defer_wait_quantiles();
            let (merge_plan_p50, merge_plan_p99) =
                self.config.tracer.phase_quantiles(Phase::MergePlan).unwrap_or((0, 0));
            TickSample {
                tick,
                backlog: self.backlog,
                deferred: self.deferred.len() as u64,
                active_sessions: self.ledger.open_sessions() as u64,
                abandoned_sessions: self.metrics.fault.abandoned_sessions as u64,
                saved: self.metrics.saved as u64,
                redone: (self.metrics.backed_out + self.metrics.reprocessed) as u64,
                wal_bytes: self.wal.as_ref().map_or(0, Wal::bytes_written),
                cohort: self.tick_cohort,
                defer_wait_p50,
                defer_wait_p99,
                merge_plan_p50,
                merge_plan_p99,
            }
        });
    }

    /// The mobile tier's tick: pops exactly the events due at `tick` — the
    /// fleet-wide generation event (if generation fires this tick) and the
    /// reconnecting mobiles' connect events — so a tick costs O(due
    /// events), not O(fleet). Generation pops before every connect and
    /// connects pop in mobile-id order, so transaction identities are
    /// allocated in one canonical order before any sync runs, and the
    /// reconnect batch installs in mobile-id order. Returns base work
    /// units.
    fn step_events(&mut self, tick: u64) -> f64 {
        let mut batch: Vec<usize> = Vec::new();
        let mut popped_any = false;
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        while let Some(event) = self.events.pop_at(tick) {
            popped_any = true;
            match event.kind {
                EventKind::Generate => {
                    // One event stands for the whole tier: every mobile
                    // generates the same count on the same ticks.
                    for i in 0..self.mobiles.len() {
                        for _ in 0..self.gen_count {
                            let id = self.source.next_txn(&mut self.arena, TxnKind::Tentative);
                            self.mobiles[i].run_tentative(&self.arena, id);
                            self.metrics.tentative_generated += 1;
                        }
                    }
                    self.schedule_next_generate(tick + 1);
                }
                EventKind::Connect => batch.push(event.mobile),
            }
        }
        if popped_any {
            // Span only on active ticks, so idle ticks stay free and the
            // flight recorder isn't flooded with empty drains.
            tracer.span_end(Phase::Scheduler, span);
        }
        let batch = self.admit_batch(batch, tick);
        let mut work = 0.0;
        if !batch.is_empty() {
            work += self.sync_batch(&batch, tick);
            for &i in &batch {
                let next = self.schedule_reconnect(i, tick);
                self.mobiles[i].set_next_connect(next);
                self.events.push(Event { time: next, kind: EventKind::Connect, mobile: i });
            }
        }
        work
    }

    /// Advances the shared generation accumulator tick by tick from `from`
    /// (`acc += rate; while acc >= 1.0 { acc -= 1.0 }`) until it finds
    /// the next tick where generation fires, and schedules that
    /// tick's [`EventKind::Generate`] event carrying the per-mobile count.
    /// Total work across a run is O(duration), independent of fleet size.
    fn schedule_next_generate(&mut self, from: u64) {
        for t in from..self.config.duration {
            self.gen_acc += self.config.mobile_rate;
            let mut count = 0u64;
            while self.gen_acc >= 1.0 {
                self.gen_acc -= 1.0;
                count += 1;
            }
            if count > 0 {
                self.gen_count = count;
                self.events.push(Event { time: t, kind: EventKind::Generate, mobile: 0 });
                return;
            }
        }
    }

    /// Draws the next reconnection tick (jittered unless reconnects are
    /// synchronized).
    fn schedule_next_connect(&mut self, tick: u64) -> u64 {
        let every = self.config.connect_every.max(1);
        if self.config.synchronized_reconnects {
            return tick + every;
        }
        let jitter = self.config.connect_every / 4;
        let draw = if jitter > 0 { self.rng.gen_range(0..=2 * jitter) } else { 0 };
        jittered_next_connect(tick, every, jitter, draw)
    }

    /// The next reconnection tick for mobile `i` after its sync at
    /// `tick`: the legacy cadence draw, pulled *earlier* by the retry
    /// backoff when the mobile's session was just abandoned (capped
    /// exponential delay plus seeded jitter, replacing the flat
    /// wait-out-the-cadence abandon), then pushed *later* to the next
    /// tick the connectivity model has the link up. With the default
    /// configuration every adjustment is the identity, and the cadence
    /// draw itself always happens — the shared RNG stream stays aligned
    /// across configurations.
    fn schedule_reconnect(&mut self, i: usize, tick: u64) -> u64 {
        let cadence = self.schedule_next_connect(tick);
        let backoff = self.config.session.backoff;
        let target = if backoff.enabled && self.backoff_level[i] > 0 {
            let delay = backoff.delay(self.backoff_level[i]);
            // Up to 25% seeded jitter de-synchronizes a cohort of mobiles
            // failing (and therefore backing off) in lockstep.
            let jitter_span = delay / 4;
            let jitter =
                if jitter_span > 0 { self.backoff_rng.gen_range(0..=jitter_span) } else { 0 };
            let early = tick.saturating_add(delay).saturating_add(jitter);
            if early < cadence {
                self.metrics.storm.backoff_reschedules += 1;
                self.metrics.storm.backoff_delay_ticks += early - tick;
                let seq = self.mobiles[i].unacked().map_or(0, |u| u.seq);
                self.config.tracer.emit(|| TraceEvent::SessionStep {
                    tick,
                    mobile: i,
                    seq,
                    step: SessionStepKind::Backoff,
                });
            }
            early.min(cadence)
        } else {
            cadence
        };
        self.config.connectivity.next_up(i, target).max(tick + 1)
    }

    /// Applies the admission cap to this tick's reconnect cohort: the
    /// deferred queue is drained first (FIFO — no mobile starves), then
    /// fresh arrivals fill the remaining slots and the excess is shed to
    /// the back of the queue. With the cap disabled (the default) this
    /// is the identity and the queue stays empty.
    fn admit_batch(&mut self, fresh: Vec<usize>, tick: u64) -> Vec<usize> {
        let cap = self.config.admission.max_batch;
        if cap == 0 {
            debug_assert!(self.deferred.is_empty(), "nothing defers without a cap");
            return fresh;
        }
        let mut admitted = Vec::with_capacity(cap.min(self.deferred.len() + fresh.len()));
        let mut drained = 0u64;
        while admitted.len() < cap {
            let Some((i, arrived)) = self.deferred.pop_front() else { break };
            let waited = tick - arrived;
            self.metrics.storm.defer_wait_ticks += waited;
            self.metrics.storm.defer_wait_max = self.metrics.storm.defer_wait_max.max(waited);
            self.metrics.defer_waits.push(waited);
            drained += 1;
            admitted.push(i);
        }
        self.metrics.storm.deferred_drained += drained;
        let mut shed = 0usize;
        for i in fresh {
            if admitted.len() < cap {
                admitted.push(i);
            } else {
                self.deferred.push_back((i, tick));
                shed += 1;
            }
        }
        self.metrics.storm.shed += shed as u64;
        self.metrics.storm.deferred_peak =
            self.metrics.storm.deferred_peak.max(self.deferred.len() as u64);
        if shed > 0 || drained > 0 {
            let (admitted_len, deferred_len) = (admitted.len(), self.deferred.len());
            self.config.tracer.emit(|| TraceEvent::Admission {
                tick,
                admitted: admitted_len,
                shed,
                deferred: deferred_len,
            });
        }
        admitted
    }

    /// The fault plan in effect for a handshake of mobile `i` at `tick`:
    /// the configured rates scaled by the connectivity model's
    /// trace-conditioned factor — correlated bursts during handoff
    /// windows and post-outage surges. Unconditioned ticks (factor
    /// exactly 1.0) return the plan untouched, so the fault stream is
    /// bit-identical to the unconditioned run outside burst windows.
    fn effective_fault(&self, i: usize, tick: u64) -> FaultPlan {
        let scale = self.config.connectivity.fault_scale(i, tick);
        if scale == 1.0 {
            self.config.fault
        } else {
            self.config.fault.scaled(scale)
        }
    }

    /// Synchronizes every member of a reconnect batch, one at a time in
    /// mobile-id order: each member plans its merge live against the
    /// epoch history its predecessors grew, then installs before the next
    /// member plans. Returns base work units.
    fn sync_batch(&mut self, batch: &[usize], tick: u64) -> f64 {
        self.metrics.batch_sizes.push(batch.len());
        self.tick_cohort += batch.len() as u64;
        let tracer = self.config.tracer.clone();
        let mut work = 0.0;
        for &i in batch {
            let before = self.metrics.records.len();
            let span = tracer.span_start();
            work += match self.config.sync_path {
                SyncPath::Legacy => self.sync_mobile(i, tick),
                SyncPath::Session => self.sync_session(i, tick),
            };
            let ns = tracer.span_end(Phase::Sync, span);
            if ns > 0 {
                // Attach the wall-clock span to the records this member
                // emitted (normally one; recovery traffic can add more).
                for record in &mut self.metrics.records[before..] {
                    record.sync_ns = ns;
                }
            }
        }
        work
    }

    /// Decides what this reconnection does, without applying anything,
    /// and emits the decision's merge autopsy when telemetry asks for
    /// one. Autopsies are per *plan*: on the session path a plan whose
    /// session is later abandoned is re-planned (and re-explained) at the
    /// next reconnect, so in faulted runs plans can outnumber
    /// resolutions.
    fn plan_sync(&mut self, i: usize, tick: u64) -> SyncDecision {
        self.last_plan_ns = 0;
        let decision = self.plan_sync_inner(i);
        self.emit_autopsy(i, tick, &decision);
        decision
    }

    /// The decision body: refresh, merge, or reprocess mobile `i`'s
    /// pending history.
    fn plan_sync_inner(&mut self, i: usize) -> SyncDecision {
        if self.mobiles[i].pending() == 0 {
            return SyncDecision::Refresh;
        }
        if self.mobiles[i].dirty_origin() {
            // The suffix a recovered session left behind ran from a state
            // that already included committed work: no base snapshot
            // matches its origin, so it cannot be merged.
            return SyncDecision::Reprocess { cause: ReprocessReason::DirtyOrigin };
        }
        match self.config.protocol {
            Protocol::Reprocessing => {
                SyncDecision::Reprocess { cause: ReprocessReason::ProtocolBaseline }
            }
            Protocol::Merging { .. } => match self.config.strategy {
                SyncStrategy::WindowStart { .. } | SyncStrategy::AdaptiveWindow { .. } => {
                    if self.mobile_epochs[i] != self.epoch {
                        // Reconnected after its window closed: the history
                        // cannot be merged (Section 2.2) and is reprocessed
                        // instead.
                        self.metrics.window_misses += 1;
                        SyncDecision::Reprocess { cause: ReprocessReason::WindowMiss }
                    } else {
                        self.plan_merge_window(i)
                    }
                }
                SyncStrategy::PerDisconnectSnapshot => self.plan_merge_snapshot(i),
            },
        }
    }

    // ------------------------------------------------------------------
    // Merge autopsies (SimConfig::telemetry.autopsy). Observation-only:
    // every function below reads simulation state and emits trace
    // events; none touches RNG streams, metrics, or control flow.
    // ------------------------------------------------------------------

    /// Emits the structured autopsy for a freshly planned sync decision,
    /// when telemetry asks for one and a tracer is listening. A refresh
    /// plan (nothing pending) emits nothing.
    fn emit_autopsy(&self, i: usize, tick: u64, decision: &SyncDecision) {
        if !self.config.telemetry.autopsy || !self.config.tracer.enabled() {
            return;
        }
        match decision {
            SyncDecision::Refresh => {}
            SyncDecision::Merge { hm, outcome, retroactive, .. } => {
                self.emit_merge_autopsy(i, tick, hm, outcome, *retroactive);
            }
            SyncDecision::Reprocess { cause } => self.emit_reprocess_autopsy(i, tick, *cause),
        }
    }

    /// A transaction's combined read|write summary mask — the compact
    /// footprint fingerprint autopsy events carry.
    fn footprint_mask(&self, id: TxnId) -> u64 {
        let t = self.arena.get(id);
        t.read_mask().summary() | t.write_mask().summary()
    }

    /// Explains a planned merge: one [`TraceEvent::BackoutEdge`] per
    /// backed-out transaction naming the conflict edge (and the base
    /// commit) it lost to plus its closure back-out weight, closed by a
    /// [`TraceEvent::MergeSummary`]. Re-derives the evidence with
    /// targeted scans — a subset closure pass for the weights and a
    /// reverse conflict scan per casualty — instead of rebuilding the
    /// planner's full graph and closure table, so a telemetry-enabled
    /// run does not pay the merge's planning cost twice. Pure
    /// re-derivation either way: the plan itself is untouched.
    fn emit_merge_autopsy(
        &self,
        i: usize,
        tick: u64,
        hm: &SerialHistory,
        outcome: &MergeOutcome,
        retroactive: bool,
    ) {
        let tracer = self.config.tracer.clone();
        let hb: SerialHistory = if retroactive {
            let origin = self.mobiles[i].origin_index();
            self.base.base().full_history().order()[origin..].iter().copied().collect()
        } else {
            self.base.base().epoch_history()
        };
        let bad: BTreeSet<TxnId> = outcome.backed_out.iter().copied().collect();
        let weights = closure_weights_for(&self.arena, hm, &bad);
        let hb_rev: Vec<TxnId> = hb.iter().collect();
        let hm_rev: Vec<TxnId> = hm.iter().collect();
        for &t in &outcome.backed_out {
            // Prefer the partner that names a base commit: the latest
            // epoch base transaction t draws a precedence edge with (a
            // pure cross write-write overlap draws none). Fall back to
            // the latest conflicting mobile partner — an affected-set
            // casualty always has one, because its taint came in through
            // a read of another casualty's write.
            let base_partner = hb_rev.iter().rev().copied().find(|&b| {
                self.arena.reads_overlap_writes(t, b) || self.arena.reads_overlap_writes(b, t)
            });
            let best = match base_partner {
                Some(b) => {
                    let rule = if self.arena.reads_overlap_writes(t, b) {
                        EdgeKind::MobileReadBase.name()
                    } else {
                        EdgeKind::BaseReadMobile.name()
                    };
                    Some((b, rule))
                }
                None => hm_rev
                    .iter()
                    .rev()
                    .copied()
                    .find(|&m| m != t && self.arena.conflicts(t, m))
                    .map(|m| (m, EdgeKind::MobileConflict.name())),
            };
            let txn_mask = self.footprint_mask(t);
            let (lost_to, rule, other_mask) = match best {
                Some((partner, rule)) => {
                    (u64::from(partner.index()), rule, self.footprint_mask(partner))
                }
                None => (NO_PARTNER, "none", 0),
            };
            let weight = weights.get(&t).copied().unwrap_or(0);
            tracer.emit(|| TraceEvent::BackoutEdge {
                tick,
                mobile: i,
                txn: u64::from(t.index()),
                lost_to,
                rule,
                txn_mask,
                other_mask,
                weight,
            });
        }
        let clusters = self.count_clusters(hm, &hb);
        let pending = hm.len();
        let saved = outcome.saved.len();
        let backed_out = outcome.backed_out.len();
        let plan_ns = self.last_plan_ns;
        tracer.emit(|| TraceEvent::MergeSummary {
            tick,
            mobile: i,
            pending,
            saved,
            backed_out,
            reprocessed: 0,
            clusters,
            plan_ns,
        });
    }

    /// Connected components of the conflict relation over the merge's
    /// input (`H_m ∪ H_b`) that contain at least one pending tentative
    /// transaction — the merge's conflict clusters. Linear in total
    /// footprint size, not quadratic in transactions: per item, every
    /// writer unions with the item's first writer and every reader
    /// unions with it too, which yields exactly the conflict graph's
    /// components (readers of a written item are connected *through*
    /// its writer; an item nobody writes connects nothing).
    fn count_clusters(&self, hm: &SerialHistory, hb: &SerialHistory) -> usize {
        let nodes: Vec<TxnId> = hm.iter().chain(hb.iter()).collect();
        let mut parent: Vec<usize> = (0..nodes.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        fn union(parent: &mut [usize], a: usize, b: usize) {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut writer_of = vec![usize::MAX; self.arena.var_count()];
        for (k, &id) in nodes.iter().enumerate() {
            for (wi, &word) in self.arena.write_bits(id).words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if writer_of[v] == usize::MAX {
                        writer_of[v] = k;
                    } else {
                        union(&mut parent, k, writer_of[v]);
                    }
                }
            }
        }
        for (k, &id) in nodes.iter().enumerate() {
            for (wi, &word) in self.arena.read_bits(id).words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let w = writer_of[v];
                    if w != usize::MAX {
                        union(&mut parent, k, w);
                    }
                }
            }
        }
        let mut roots = BTreeSet::new();
        for k in 0..hm.len() {
            roots.insert(find(&mut parent, k));
        }
        roots.len()
    }

    /// Explains a wholesale-reprocessing plan: one
    /// [`TraceEvent::ReprocessCause`] per pending transaction naming the
    /// latest committed base transaction it conflicts with (the concrete
    /// commit it "lost to"), closed by a [`TraceEvent::MergeSummary`].
    fn emit_reprocess_autopsy(&self, i: usize, tick: u64, reason: ReprocessReason) {
        let tracer = self.config.tracer.clone();
        let pending: Vec<TxnId> = self.mobiles[i].history().iter().collect();
        let pending_set: BTreeSet<TxnId> = pending.iter().copied().collect();
        for &t in &pending {
            let partner = self.base.base().latest_conflicting_commit(&self.arena, t, &pending_set);
            let (lost_to, rule, other_mask) = match partner {
                Some(p) => {
                    // Classify the conflict by the paper's rule-3 edge
                    // directions; a pure write-write overlap draws no
                    // precedence edge and is labeled as such.
                    let rule = if self.arena.reads_overlap_writes(t, p) {
                        EdgeKind::MobileReadBase.name()
                    } else if self.arena.reads_overlap_writes(p, t) {
                        EdgeKind::BaseReadMobile.name()
                    } else {
                        "write-write"
                    };
                    (u64::from(p.index()), rule, self.footprint_mask(p))
                }
                None => (NO_PARTNER, "none", 0),
            };
            let txn_mask = self.footprint_mask(t);
            let cause = reason.name();
            tracer.emit(|| TraceEvent::ReprocessCause {
                tick,
                mobile: i,
                txn: u64::from(t.index()),
                cause,
                lost_to,
                rule,
                txn_mask,
                other_mask,
            });
        }
        let plan_ns = self.last_plan_ns;
        tracer.emit(|| TraceEvent::MergeSummary {
            tick,
            mobile: i,
            pending: pending.len(),
            saved: 0,
            backed_out: 0,
            reprocessed: pending.len(),
            clusters: 0,
            plan_ns,
        });
    }

    /// Brings the epoch's base-edge cache up to date with the epoch
    /// history, resetting it on window rollover. O(appended): the cache
    /// is append-only within an epoch and already covers a prefix of the
    /// epoch history, so only the suffix it has not seen is walked — the
    /// epoch history is never re-materialized or re-scanned.
    fn sync_cache(&mut self) {
        if self.cache_epoch != self.epoch {
            self.base_edge_cache.clear();
            self.cache_epoch = self.epoch;
        }
        let from = self.base.base().epoch_start() + self.base_edge_cache.len();
        let suffix = self.base.base().history_suffix(from);
        if suffix.is_empty() {
            return;
        }
        self.metrics.cohort.edge_cache_appends += suffix.len() as u64;
        self.base_edge_cache.extend(&self.arena, suffix.iter().copied());
    }

    /// Synchronizes mobile `i` through the legacy atomic handshake;
    /// returns the base-side work units incurred.
    fn sync_mobile(&mut self, i: usize, tick: u64) -> f64 {
        match self.plan_sync(i, tick) {
            SyncDecision::Refresh => {
                self.refresh_origin(i);
                0.0
            }
            SyncDecision::Merge { hm, hb_len, outcome, retroactive } => {
                self.apply_merge(i, tick, &hm, hb_len, *outcome, retroactive)
            }
            SyncDecision::Reprocess { cause } => self.reprocess_all(i, tick, cause),
        }
    }

    /// Strategy 2 merge decision: against the window's base sub-history,
    /// from the shared window-start state. Reuses the epoch's base-edge
    /// cache and the current master (the state after `H_b`), so a merge
    /// pays for the history growth since the last sync and for its own
    /// conflict slice, not for all of `|H_b|`.
    fn plan_merge_window(&mut self, i: usize) -> SyncDecision {
        self.sync_cache();
        let Some(merger) = &self.merger else {
            return SyncDecision::Reprocess { cause: ReprocessReason::ProtocolBaseline };
        };
        let base = self.base.base();
        let hb = base.epoch_history();
        let hm = self.mobiles[i].history().clone();
        let assist =
            MergeAssist { base_edges: Some(&self.base_edge_cache), hb_final: Some(base.master()) };
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        let planned = merger.merge_traced_scratch(
            &self.arena,
            &hm,
            &hb,
            base.epoch_state(),
            assist,
            &tracer,
            &mut self.merge_scratch,
        );
        self.last_plan_ns = tracer.span_end(Phase::MergePlan, span);
        match planned {
            Ok(outcome) => {
                if outcome.fast_path {
                    self.metrics.cohort.fastpath_merges += 1;
                }
                SyncDecision::Merge {
                    hb_len: hb.len(),
                    hm,
                    outcome: Box::new(outcome),
                    retroactive: false,
                }
            }
            Err(_) => SyncDecision::Reprocess { cause: ReprocessReason::MergeFailed },
        }
    }

    /// Strategy 1 merge decision: against the base log suffix from the
    /// mobile's own snapshot, if that snapshot is still a valid cut of the
    /// base history. No epoch cache covers that suffix, so the merger
    /// builds a base-edge cache of it for the conflict slice.
    fn plan_merge_snapshot(&mut self, i: usize) -> SyncDecision {
        let origin_index = self.mobiles[i].origin_index();
        let hm = self.mobiles[i].history().clone();
        let s0 = self.mobiles[i].origin().clone();
        let full = self.base.base().full_history();
        let hb: SerialHistory = full.order()[origin_index..].iter().copied().collect();
        // Validity: replaying the suffix from the snapshot must reproduce
        // the current master. Only the final state matters, so the replay
        // skips the augmented log. Retro-patched installs from other
        // mobiles' merges break this — the Strategy-1 failure mode.
        let valid = match histmerge_history::run_to_final(&self.arena, &hb, &s0) {
            Ok(state) => &state == self.base.base().master(),
            Err(_) => false,
        };
        if !valid {
            return SyncDecision::Reprocess { cause: ReprocessReason::MergeFailed };
        }
        let Some(merger) = &self.merger else {
            return SyncDecision::Reprocess { cause: ReprocessReason::ProtocolBaseline };
        };
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        let planned = merger.merge_traced_scratch(
            &self.arena,
            &hm,
            &hb,
            &s0,
            MergeAssist::default(),
            &tracer,
            &mut self.merge_scratch,
        );
        self.last_plan_ns = tracer.span_end(Phase::MergePlan, span);
        match planned {
            Ok(outcome) => SyncDecision::Merge {
                hb_len: hb.len(),
                hm,
                outcome: Box::new(outcome),
                retroactive: true,
            },
            Err(_) => SyncDecision::Reprocess { cause: ReprocessReason::MergeFailed },
        }
    }

    /// Installs a merge outcome on the base and records metrics. Returns
    /// base work units.
    fn apply_merge(
        &mut self,
        i: usize,
        tick: u64,
        hm: &SerialHistory,
        hb_len: usize,
        outcome: MergeOutcome,
        retroactive: bool,
    ) -> f64 {
        let tracer = self.config.tracer.clone();
        // Step 5: install forwarded updates.
        let install_span = tracer.span_start();
        if retroactive {
            let from = self.mobiles[i].origin_index();
            self.base
                .base_mut()
                .retro_patch(&self.arena, from, &outcome.forwarded)
                .expect("snapshot origin index lies within the base log");
            self.metrics.retro_patches += 1;
            self.wal_append(|| WalRecord::RetroPatch {
                from_index: from as u64,
                updates: outcome.forwarded.clone(),
            });
        } else {
            let _ = self.base.install_updates(&mut self.arena, &outcome.forwarded);
            self.wal_sync_commits();
        }
        for id in &outcome.saved {
            self.mark_resolved(*id);
        }
        tracer.span_end(Phase::Install, install_span);
        // Step 6: re-execute backed-out transactions as base transactions.
        let reexec_span = tracer.span_start();
        let mut backed_out_stmts = 0usize;
        for id in &outcome.backed_out {
            backed_out_stmts += self.arena.get(*id).program().statement_count();
            self.base.reexecute(&mut self.arena, *id);
            self.mark_resolved(*id);
        }
        self.wal_sync_commits();
        tracer.span_end(Phase::Reexecute, reexec_span);

        let stats = self.merge_stats(hm, hb_len, &outcome, backed_out_stmts);
        let cost = merging_cost(&self.config.cost, &stats);
        self.metrics.record(
            SyncRecord {
                tick,
                mobile: i,
                pending: hm.len(),
                hb_len,
                saved: outcome.saved.len(),
                backed_out: outcome.backed_out.len(),
                reprocessed: 0,
                merge_failed: false,
                sync_ns: 0,
            },
            cost,
        );
        self.refresh_origin(i);
        cost.base_cpu + cost.base_io
    }

    fn merge_stats(
        &self,
        hm: &SerialHistory,
        hb_len: usize,
        outcome: &MergeOutcome,
        backed_out_stmts: usize,
    ) -> MergeStats {
        let rw_entries: usize = hm
            .iter()
            .map(|id| {
                let t = self.arena.get(id);
                t.readset().len() + t.writeset().len()
            })
            .sum();
        MergeStats {
            hm_len: hm.len(),
            hb_len,
            rw_entries,
            graph_edges: rule1_edge_count(&self.arena, hm),
            full_graph_edges: outcome.graph_edges,
            n_saved: outcome.saved.len(),
            n_backed_out: outcome.backed_out.len(),
            backed_out_stmts,
            forwarded_items: outcome.forwarded.len(),
        }
    }

    /// Reprocesses every pending tentative transaction of mobile `i` the
    /// old way. Returns base work units.
    fn reprocess_all(&mut self, i: usize, tick: u64, cause: ReprocessReason) -> f64 {
        let pending: Vec<TxnId> = self.mobiles[i].history().iter().collect();
        let total_stmts: usize =
            pending.iter().map(|id| self.arena.get(*id).program().statement_count()).sum();
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        for id in &pending {
            self.base.reexecute(&mut self.arena, *id);
            self.mark_resolved(*id);
        }
        self.wal_sync_commits();
        tracer.span_end(Phase::Reexecute, span);
        let cost = reprocessing_cost(
            &self.config.cost,
            &ReprocessStats { n_txns: pending.len(), total_stmts },
        );
        self.metrics.record(
            SyncRecord {
                tick,
                mobile: i,
                pending: pending.len(),
                hb_len: 0,
                saved: 0,
                backed_out: 0,
                reprocessed: pending.len(),
                merge_failed: cause.merge_failed(),
                sync_ns: 0,
            },
            cost,
        );
        self.refresh_origin(i);
        cost.base_cpu + cost.base_io
    }

    /// Resets mobile `i`'s origin according to the strategy.
    fn refresh_origin(&mut self, i: usize) {
        match self.config.strategy {
            SyncStrategy::WindowStart { .. } | SyncStrategy::AdaptiveWindow { .. } => {
                // Strategy 2: new tentative histories within the window
                // keep the window-start state as their origin — one shared
                // snapshot, an Arc clone per resync.
                self.mobiles[i].resync(self.epoch_state_arc.clone(), 0);
                self.mobile_epochs[i] = self.epoch;
            }
            SyncStrategy::PerDisconnectSnapshot => {
                // Strategy 1: snapshot the current master.
                let origin = Arc::new(self.base.base().master().clone());
                let index = self.base.base().committed();
                self.mobiles[i].resync(origin, index);
            }
        }
    }

    // ------------------------------------------------------------------
    // The resumable sync-session protocol (SyncPath::Session).
    // ------------------------------------------------------------------

    /// Tracks a tentative transaction's resolution (install or
    /// re-execution); a second resolution of the same id is the
    /// idempotence violation the convergence oracle reports.
    fn mark_resolved(&mut self, id: TxnId) {
        if !self.resolved.insert(id) {
            self.metrics.fault.double_resolutions += 1;
        }
    }

    /// Rolls the fate of one handshake message of mobile `i`, counting
    /// transport faults. The rates are trace-conditioned: during the
    /// connectivity model's burst windows (cell handoff, post-outage
    /// surge) they are scaled up, turning i.i.d. per-message faults into
    /// correlated bursts.
    fn roll_delivery(&mut self, i: usize, tick: u64) -> Delivery {
        let delivery = self.effective_fault(i, tick).deliver(&mut self.fault_rng);
        match delivery {
            Delivery::Ok => {}
            Delivery::Dropped => self.metrics.fault.dropped += 1,
            Delivery::Duplicated => self.metrics.fault.duplicated += 1,
            Delivery::Reordered => self.metrics.fault.reordered += 1,
        }
        if let Some(kind) = delivery.fault_name() {
            self.config.tracer.emit(|| TraceEvent::Fault { tick, kind });
        }
        delivery
    }

    /// Spends one retry from the reconnection's budget. Returns `false`
    /// when the budget is exhausted (the session must be abandoned).
    fn consume_retry(&mut self, retries: &mut u32) -> bool {
        if *retries >= self.config.session.max_retries {
            return false;
        }
        *retries += 1;
        self.metrics.fault.retries += 1;
        true
    }

    /// Gives up on the current reconnection. The mobile keeps its
    /// persisted tentative log and its unacked-session note; the next
    /// reconnection (pulled earlier when retry backoff is enabled)
    /// resolves the session's fate against the ledger. Never silent: the
    /// abandon is counted, stepped, *and* reported as an
    /// invariant-adjacent event — an abandoned session is protocol-legal
    /// but always worth a post-mortem look.
    fn abandon(&mut self, i: usize, tick: u64, seq: u64, work: f64) -> f64 {
        self.metrics.fault.abandoned_sessions += 1;
        self.backoff_level[i] = self.backoff_level[i].saturating_add(1);
        self.config.tracer.emit(|| TraceEvent::SessionStep {
            tick,
            mobile: i,
            seq,
            step: SessionStepKind::Abandon,
        });
        self.config.tracer.emit(|| TraceEvent::Invariant {
            name: "session-abandoned",
            tick,
            mobile: i,
            seq,
        });
        work
    }

    /// Synchronizes mobile `i` through the resumable session protocol:
    /// offer → merge → install → re-execute → ack, every step idempotent
    /// under the `(mobile, seq)` session id and individually retryable
    /// within one bounded budget. With [`FaultPlan::none`] this composes
    /// exactly the legacy path's primitives in the legacy order, so
    /// fault-free runs are byte-identical.
    fn sync_session(&mut self, i: usize, tick: u64) -> f64 {
        let mut work = 0.0;
        let mut retries: u32 = 0;
        if !self.recover_unacked(i, tick, &mut retries, &mut work) {
            // The reconnection died mid-recovery.
            let seq = self.mobiles[i].unacked().map_or(0, |u| u.seq);
            return self.abandon(i, tick, seq, work);
        }
        let seq = self.mobiles[i].begin_session();
        let mut decision: Option<SyncDecision> = None;
        loop {
            // Offer (mobile → base), retransmitted on loss.
            let offer = self.roll_delivery(i, tick);
            if offer == Delivery::Dropped {
                if !self.consume_retry(&mut retries) {
                    return self.abandon(i, tick, seq, work);
                }
                continue;
            }
            self.config.tracer.emit(|| TraceEvent::SessionStep {
                tick,
                mobile: i,
                seq,
                step: SessionStepKind::Offer,
            });
            // Base-side handling, idempotent by (mobile, seq).
            if self.ledger.contains(i, seq) {
                // A retransmitted offer for a session that already
                // installed: the durable record suppresses a second
                // install; only whatever re-execution remains is run.
                self.metrics.fault.ledger_resumes += 1;
                self.config.tracer.emit(|| TraceEvent::SessionStep {
                    tick,
                    mobile: i,
                    seq,
                    step: SessionStepKind::Resume,
                });
                work += self.resume_or_degrade(i, seq, tick);
            } else {
                if decision.is_none() {
                    decision = Some(self.plan_sync(i, tick));
                    self.config.tracer.emit(|| TraceEvent::SessionStep {
                        tick,
                        mobile: i,
                        seq,
                        step: SessionStepKind::Merge,
                    });
                }
                if self.effective_fault(i, tick).mid_merge_disconnect(&mut self.fault_rng) {
                    // The mobile dropped while the base computed the
                    // merge; the computed decision is retained and resumed
                    // on retry without recomputation.
                    self.metrics.fault.mid_merge_disconnects += 1;
                    self.config
                        .tracer
                        .emit(|| TraceEvent::Fault { tick, kind: "mid-merge-disconnect" });
                    if !self.consume_retry(&mut retries) {
                        return self.abandon(i, tick, seq, work);
                    }
                    continue;
                }
                match decision.take().expect("decision computed above") {
                    SyncDecision::Refresh => {} // nothing durable to do
                    d => {
                        let record = self.build_record(i, d);
                        self.session_install(i, seq, record, tick);
                        if self.effective_fault(i, tick).base_crash(&mut self.fault_rng) {
                            // Crash between install and re-execution: the
                            // log and ledger survive, in-flight scratch
                            // does not. The retry's offer finds the ledger
                            // record and resumes from it. With durability
                            // enabled, "survive" is checked for real: the
                            // WAL is recovered and compared to the live
                            // state at exactly this crash point.
                            self.metrics.fault.base_crashes += 1;
                            self.config
                                .tracer
                                .emit(|| TraceEvent::Fault { tick, kind: "base-crash" });
                            self.shadow_recovery_check();
                            if !self.consume_retry(&mut retries) {
                                return self.abandon(i, tick, seq, work);
                            }
                            continue;
                        }
                        work += self.resume_or_degrade(i, seq, tick);
                    }
                }
            }
            if offer == Delivery::Duplicated && self.ledger.contains(i, seq) {
                // The duplicate copy of the offer arrives after the first
                // completed the install; the ledger guard rejects it — the
                // no-double-install path.
                self.metrics.fault.duplicate_installs_suppressed += 1;
            }
            // Ack (base → mobile): ships the refreshed origin. A lost ack
            // sends the mobile back to retransmitting its offer.
            match self.roll_delivery(i, tick) {
                Delivery::Dropped => {
                    if !self.consume_retry(&mut retries) {
                        return self.abandon(i, tick, seq, work);
                    }
                }
                Delivery::Ok | Delivery::Duplicated | Delivery::Reordered => {
                    // A completed session steps the mobile off the
                    // backoff ladder.
                    self.backoff_level[i] = 0;
                    self.mobiles[i].ack_session();
                    self.refresh_origin(i);
                    self.prune_after_ack(i, seq);
                    self.config.tracer.emit(|| TraceEvent::SessionStep {
                        tick,
                        mobile: i,
                        seq,
                        step: SessionStepKind::Ack,
                    });
                    return work;
                }
            }
        }
    }

    /// Resolves a prior unacked session against the ledger (the first
    /// thing a reconnecting mobile does). If the session had installed,
    /// its remaining re-execution is completed and the already-committed
    /// prefix is trimmed from the mobile's persisted log. Returns `false`
    /// when the status exchange itself exhausted the retry budget.
    fn recover_unacked(&mut self, i: usize, tick: u64, retries: &mut u32, work: &mut f64) -> bool {
        let Some(unacked) = self.mobiles[i].unacked() else {
            return true;
        };
        // Status query (mobile → base), retransmitted on loss; any other
        // delivery (including duplicated or reordered copies) gets through.
        while let Delivery::Dropped = self.roll_delivery(i, tick) {
            if !self.consume_retry(retries) {
                return false;
            }
        }
        if self.ledger.contains(i, unacked.seq) {
            // The session reached its install: finish whatever
            // re-execution remains, then drop the committed prefix. The
            // surviving suffix ran from a state including that prefix, so
            // trim_prefix marks the origin dirty and the next plan
            // reprocesses it.
            self.metrics.fault.recovered_sessions += 1;
            self.config.tracer.emit(|| TraceEvent::SessionStep {
                tick,
                mobile: i,
                seq: unacked.seq,
                step: SessionStepKind::Resume,
            });
            *work += self.resume_or_degrade(i, unacked.seq, tick);
            self.mobiles[i].trim_prefix(unacked.offered);
            self.metrics.fault.trimmed_txns += unacked.offered;
            // The status exchange doubles as the lost ack: the resolved
            // session's ledger records can go.
            self.prune_after_ack(i, unacked.seq);
        }
        // else: nothing durable ever happened; the whole log is still
        // pending and the fresh session below covers it.
        self.mobiles[i].ack_session();
        true
    }

    /// Completes a ledger-recorded session: re-executes whatever remains
    /// of its plan (progress is durable per step) and emits its metrics
    /// record exactly once. Returns the base work units to account, 0.0
    /// if the session had already completed.
    ///
    /// A missing ledger record is reported as [`LedgerGap`] instead of
    /// panicking: a record the protocol expects can be absent after a
    /// partial recovery, and the caller degrades to legacy reprocessing
    /// rather than aborting the run.
    fn resume_session(&mut self, i: usize, seq: u64, tick: u64) -> Result<f64, LedgerGap> {
        let Some(record) = self.ledger.get(i, seq).cloned() else {
            return Err(LedgerGap { mobile: i, seq });
        };
        if record.completed {
            return Ok(0.0);
        }
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        for idx in record.reexec_done..record.plan.reexecute.len() {
            let id = record.plan.reexecute[idx];
            self.base.reexecute(&mut self.arena, id);
            self.mark_resolved(id);
            if let Some(entry) = self.ledger.get_mut(i, seq) {
                entry.reexec_done = idx + 1;
            }
            self.wal_sync_commits();
            self.wal_append(|| WalRecord::ReexecAdvance {
                mobile: i as u64,
                seq,
                done: (idx + 1) as u64,
            });
            self.config.tracer.emit(|| TraceEvent::SessionStep {
                tick,
                mobile: i,
                seq,
                step: SessionStepKind::Reexecute,
            });
        }
        if let Some(entry) = self.ledger.get_mut(i, seq) {
            entry.completed = true;
        }
        self.wal_append(|| WalRecord::SessionComplete { mobile: i as u64, seq });
        tracer.span_end(Phase::Reexecute, span);
        let mut sync = record.sync;
        sync.tick = tick;
        self.metrics.record(sync, record.cost);
        Ok(record.cost.base_cpu + record.cost.base_io)
    }

    /// Runs [`Simulation::resume_session`], degrading a [`LedgerGap`] to
    /// legacy reprocessing of the mobile's pending log: the base has no
    /// durable memory of the session, so the safe move is the \[GHOS96\]
    /// fallback, not a crash.
    fn resume_or_degrade(&mut self, i: usize, seq: u64, tick: u64) -> f64 {
        match self.resume_session(i, seq, tick) {
            Ok(work) => work,
            Err(gap) => {
                self.metrics.fault.ledger_gaps += 1;
                self.config.tracer.emit(|| TraceEvent::Invariant {
                    name: "ledger-gap",
                    tick,
                    mobile: gap.mobile,
                    seq: gap.seq,
                });
                // This path bypasses `plan_sync`, so the autopsy (when
                // enabled) is emitted here.
                if self.config.telemetry.autopsy && self.config.tracer.enabled() {
                    self.last_plan_ns = 0;
                    self.emit_reprocess_autopsy(gap.mobile, tick, ReprocessReason::LedgerGap);
                }
                self.reprocess_all(gap.mobile, tick, ReprocessReason::LedgerGap)
            }
        }
    }

    /// Turns a non-trivial sync decision into the durable session record
    /// written at install time: the install plan, the metrics record to
    /// emit at completion, and the session's cost report.
    fn build_record(&mut self, i: usize, decision: SyncDecision) -> SessionRecord {
        match decision {
            SyncDecision::Refresh => unreachable!("refresh sessions write no record"),
            SyncDecision::Merge { hm, hb_len, outcome, retroactive } => {
                let backed_out_stmts = outcome
                    .backed_out
                    .iter()
                    .map(|id| self.arena.get(*id).program().statement_count())
                    .sum();
                let stats = self.merge_stats(&hm, hb_len, &outcome, backed_out_stmts);
                let cost = merging_cost(&self.config.cost, &stats);
                SessionRecord {
                    retro_from: retroactive.then(|| self.mobiles[i].origin_index()),
                    sync: SyncRecord {
                        tick: 0, // filled at emission
                        mobile: i,
                        pending: hm.len(),
                        hb_len,
                        saved: outcome.saved.len(),
                        backed_out: outcome.backed_out.len(),
                        reprocessed: 0,
                        merge_failed: false,
                        sync_ns: 0,
                    },
                    plan: outcome.install_plan(),
                    cost,
                    reexec_done: 0,
                    completed: false,
                }
            }
            SyncDecision::Reprocess { cause } => {
                let pending: Vec<TxnId> = self.mobiles[i].history().iter().collect();
                let total_stmts: usize =
                    pending.iter().map(|id| self.arena.get(*id).program().statement_count()).sum();
                let cost = reprocessing_cost(
                    &self.config.cost,
                    &ReprocessStats { n_txns: pending.len(), total_stmts },
                );
                SessionRecord {
                    sync: SyncRecord {
                        tick: 0, // filled at emission
                        mobile: i,
                        pending: pending.len(),
                        hb_len: 0,
                        saved: 0,
                        backed_out: 0,
                        reprocessed: pending.len(),
                        merge_failed: cause.merge_failed(),
                        sync_ns: 0,
                    },
                    plan: InstallPlan {
                        forwarded: DbState::new(),
                        reexecute: pending,
                        saved: Vec::new(),
                    },
                    retro_from: None,
                    cost,
                    reexec_done: 0,
                    completed: false,
                }
            }
        }
    }

    /// Protocol step 5 under the session path: commits forwarded updates
    /// and the durable session record in one (modeled) write-ahead
    /// transaction. An empty forwarded set (a reprocess plan) commits
    /// nothing, exactly like the legacy path.
    fn session_install(&mut self, i: usize, seq: u64, record: SessionRecord, tick: u64) {
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        if let Some(from) = record.retro_from {
            self.base
                .base_mut()
                .retro_patch(&self.arena, from, &record.plan.forwarded)
                .expect("snapshot origin index lies within the base log");
            self.metrics.retro_patches += 1;
            self.wal_append(|| WalRecord::RetroPatch {
                from_index: from as u64,
                updates: record.plan.forwarded.clone(),
            });
        } else {
            let _ = self.base.install_updates(&mut self.arena, &record.plan.forwarded);
            self.wal_sync_commits();
        }
        for idx in 0..record.plan.saved.len() {
            self.mark_resolved(record.plan.saved[idx]);
        }
        self.wal_append(|| WalRecord::SessionInstall {
            mobile: i as u64,
            seq,
            record: record.clone(),
        });
        tracer.span_end(Phase::Install, span);
        let inserted = self.ledger.insert(i, seq, record);
        if inserted {
            self.config.tracer.emit(|| TraceEvent::SessionStep {
                tick,
                mobile: i,
                seq,
                step: SessionStepKind::Install,
            });
        } else {
            // A second install slipping past the ledger guard is a protocol
            // bug. The counter (checked in release builds too, unlike the
            // debug assertion it replaced) surfaces it through the metrics
            // oracle; the event carries the session id for the recorder.
            self.metrics.fault.double_resolutions += 1;
            self.config.tracer.emit(|| TraceEvent::Invariant {
                name: "double-install",
                tick,
                mobile: i,
                seq,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultRates};
    use crate::metrics::StormStats;

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
            backlog_sample_every: 10,
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
        let mut cfg =
            config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 20 }, 5);
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
        let mut cfg =
            config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 50 }, 17);
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
        let mut cfg =
            config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 2);
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
        cfg.fault =
            FaultPlan::seeded(23, crate::fault::FaultRates::only(FaultKind::MessageLoss, 1.0));
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
        cfg.fault = FaultPlan::seeded(
            29,
            crate::fault::FaultRates::only(FaultKind::MessageDuplication, 1.0),
        );
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
        assert_eq!(
            sim.resume_session(0, 99, 0),
            Err(LedgerGap { mobile: 0, seq: 99 }),
            "missing record is a structured error"
        );
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
        let mut cfg =
            config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 3);
        cfg.fault =
            FaultPlan::seeded(3, crate::fault::FaultRates { drop: -0.5, ..FaultRates::zero() });
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
        let mut cfg =
            config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 3);
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
            plan: InstallPlan {
                forwarded: DbState::new(),
                reexecute: Vec::new(),
                saved: Vec::new(),
            },
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
        assert_eq!(recovered.epoch, durable.epoch);
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
        cfg.fault =
            FaultPlan::seeded(19, crate::fault::FaultRates::only(FaultKind::BaseCrash, 1.0));
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
            let mut c =
                config(Protocol::Reprocessing, SyncStrategy::WindowStart { window: 100 }, 11);
            c.n_mobiles = 2;
            c.base_capacity = 30.0;
            Simulation::new(c).expect("valid sim config").run()
        };
        let large = {
            let mut c =
                config(Protocol::Reprocessing, SyncStrategy::WindowStart { window: 100 }, 11);
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
        let base =
            config(Protocol::merging_default(), SyncStrategy::WindowStart { window: 100 }, 41);
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
        cfg.fault =
            FaultPlan::seeded(61, crate::fault::FaultRates::only(FaultKind::MessageLoss, 1.0));
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
}
