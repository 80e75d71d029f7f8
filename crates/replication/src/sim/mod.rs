//! The discrete-time two-tier replication simulation.
//!
//! One `impl Simulation` spread over its seams: `config` (the settings
//! and their validator), `fleet` (the tick's events, scheduling,
//! admission and the reconnect cohort), `plan` (what a sync decides),
//! `handshake` (the one install path, driven by the legacy handshake or
//! the session protocol), `durable` (write-ahead-log hooks) and
//! `telemetry` (time-series samples and merge autopsies).

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use histmerge_core::merge::{MergeConfig, MergeScratch, Merger};
use histmerge_core::prune::PruneMethod;
use histmerge_core::rewrite::{FixMode, RewriteAlgorithm};
use histmerge_history::{DenseBits, TwoCycleOptimal, TxnArena};
use histmerge_obs::{Phase, TraceEvent};
use histmerge_semantics::{OracleStack, SemanticOracle, StaticAnalyzer};
use histmerge_txn::{DbState, TxnId, TxnKind};
use histmerge_workload::canned_mix::CannedMix;
use histmerge_workload::generator::TxnFactory;

use crate::base::{BaseNode, ClusterStats};
use crate::connectivity::LinkTrace;
use crate::metrics::Metrics;
use crate::mobile::MobileNode;
use crate::sched::{Event, EventKind, EventQueue};
use crate::session::SessionLedger;
use crate::sync::SyncStrategy;
use crate::wal::{Snapshot, VecStorage, Wal, WalRecordRef};

mod config;
mod durable;
mod fleet;
mod handshake;
mod plan;
mod telemetry;
#[cfg(test)]
mod tests;

pub use config::{Protocol, SimConfig, SimConfigError, TelemetryConfig};

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
    pub cluster: ClusterStats,
    /// The convergence-oracle verdict, when
    /// [`SimConfig::check_convergence`] was set.
    pub convergence: Option<ConvergenceReport>,
    /// Session-ledger records still live at the end of the run. Acked
    /// sessions are pruned, so this tracks in-flight sessions, not run
    /// length.
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

/// The simulation state. Construct with [`Simulation::new`] and consume
/// with [`Simulation::run`].
pub struct Simulation {
    config: SimConfig,
    arena: TxnArena,
    base: BaseNode,
    mobiles: Vec<MobileNode>,
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
    /// The fault event stream (session path; untouched when the plan is
    /// inactive, keeping fault-free runs byte-identical).
    fault_rng: StdRng,
    /// The base's durable session table (session path).
    ledger: SessionLedger,
    /// Tentative transactions already installed or re-executed, one bit
    /// per arena id (ids are dense) — the double-resolution guard behind
    /// the convergence oracle.
    resolved: DenseBits,
    /// The initial master state, kept for the oracle's replay: the base's
    /// first window-start state, shared rather than copied.
    initial: Arc<DbState>,
    /// The write-ahead log, when [`SimConfig::durability`] is enabled.
    wal: Option<Wal<VecStorage>>,
    /// How many entries of the base log are already WAL-logged as
    /// [`crate::wal::WalRecord::Commit`] records.
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
    /// Returns the [`SimConfigError`] that [`SimConfig::validate`] finds.
    /// Callers that cannot recover should `.expect("valid sim config")`.
    pub fn new(config: SimConfig) -> Result<Self, SimConfigError> {
        config.validate()?;
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
        // The base's window-start state is the one copy of the initial
        // state: the mobiles' origins and the oracle's replay share it.
        let base = BaseNode::new(initial, config.base_nodes, lean);
        let initial = Arc::clone(base.shared_epoch_state());
        let mut rng = StdRng::seed_from_u64(config.workload.seed ^ 0x5151_5151);
        let mobiles: Vec<MobileNode> = (0..config.n_mobiles)
            .map(|i| {
                let first = if config.synchronized_reconnects {
                    config.connect_every
                } else {
                    1 + rng.gen_range(0..config.connect_every)
                };
                // A first connect drawn into a down-link epoch slides to
                // the next up tick (identity under AlwaysOn).
                let first = config.connectivity.next_up(i, first).max(1);
                MobileNode::new(i, Arc::clone(&initial), 0, first)
            })
            .collect();
        let n = config.n_mobiles;
        let wal = config.durability.enabled.then(|| {
            Wal::new(VecStorage::new(), &Snapshot::genesis((*initial).clone()))
                .with_tracer(config.tracer.clone())
        });
        let mut sim = Simulation {
            arena: TxnArena::new(),
            base,
            source,
            merger,
            rng,
            metrics: Metrics::default(),
            backlog: 0.0,
            base_accum: 0.0,
            fault_rng: config.fault.rng(),
            ledger: SessionLedger::new(),
            resolved: DenseBits::new(),
            initial,
            wal,
            logged_commits: 0,
            last_window_tick: 0,
            merge_scratch: MergeScratch::new(),
            events: EventQueue::new(),
            gen_acc: 0.0,
            gen_count: 0,
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
        let (base_commits, ledger_len) = (self.base.committed(), self.ledger.len());
        let (epoch, epoch_start) = (self.base.epoch(), self.base.epoch_start());
        // The run's artifacts move into the report and everything else is
        // dropped, inside a span of its own so the teardown is attributed.
        // The mobiles go first: they share the window-start states, which
        // the durable report then takes without copying.
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        let Simulation {
            arena,
            base,
            mobiles,
            source,
            merger,
            ledger,
            initial,
            wal,
            metrics,
            merge_scratch,
            events,
            ..
        } = self;
        drop((mobiles, source, merger, merge_scratch, events));
        let (final_master, log, epoch_state, cluster) = base.into_parts();
        let durable = match wal {
            Some(wal) => Some(DurableReport {
                storage: wal.into_storage(),
                log,
                epoch,
                epoch_start,
                epoch_state: Arc::unwrap_or_clone(epoch_state),
                ledger,
                arena,
                initial: Arc::unwrap_or_clone(initial),
            }),
            None => {
                drop((log, epoch_state, ledger, arena, initial));
                None
            }
        };
        tracer.span_end(Phase::Teardown, span);
        SimReport { base_commits, final_master, cluster, ledger_len, metrics, convergence, durable }
    }

    /// Replays the recorded commit order through the serial path from the
    /// initial state and compares against the master — the convergence
    /// oracle. Inapplicable when retroactive installs patched the master
    /// outside the committed history (Strategy-1 merges).
    fn convergence_report(&self) -> ConvergenceReport {
        let applicable = self.metrics.retro_patches == 0;
        let full = self.base.full_history();
        let commits = full.len();
        let converged = applicable
            && match histmerge_history::run_to_final(&self.arena, &full, &self.initial) {
                Ok(state) => &state == self.base.master(),
                Err(_) => false,
            };
        ConvergenceReport {
            applicable,
            converged,
            commits,
            double_resolutions: self.metrics.fault.double_resolutions,
        }
    }

    fn step(&mut self, tick: u64) {
        let mut tick_base_work = 0.0;
        self.tick_cohort = 0;

        // Window boundary (Strategy 2, fixed or adaptive).
        let rolled = match self.config.strategy {
            SyncStrategy::WindowStart { window } => tick > 0 && tick.is_multiple_of(window),
            SyncStrategy::AdaptiveWindow { max_hb } => self.base.epoch_len() >= max_hb,
            SyncStrategy::PerDisconnectSnapshot => false,
        };
        if rolled {
            self.base.start_window();
            self.wal_append(|| WalRecordRef::WindowStart);
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

        // Fleet telemetry: one bounded time-series sample per collector
        // stride. Observation-only — reads state, touches nothing.
        self.sample_telemetry(tick);

        // Durability: checkpoint at tick boundaries once enough records
        // accumulated.
        self.wal_maybe_checkpoint();
    }
}
