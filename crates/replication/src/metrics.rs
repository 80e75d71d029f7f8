//! Simulation metrics and per-sync records.

use histmerge_workload::cost::CostReport;

/// Counters of injected faults and the recovery machinery they exercised.
/// All zero on the legacy path and under [`FaultPlan::none`].
///
/// [`FaultPlan::none`]: crate::fault::FaultPlan::none
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Handshake messages dropped in transit.
    pub dropped: usize,
    /// Handshake messages delivered twice.
    pub duplicated: usize,
    /// Stale out-of-order copies rejected by sequence number.
    pub reordered: usize,
    /// Mobiles that disconnected while the base computed their merge.
    pub mid_merge_disconnects: usize,
    /// Base crashes between install and re-execution.
    pub base_crashes: usize,
    /// Session-step retries consumed (bounded by
    /// [`SessionConfig::max_retries`] per reconnection).
    ///
    /// [`SessionConfig::max_retries`]: crate::session::SessionConfig::max_retries
    pub retries: usize,
    /// Sessions abandoned after exhausting their retry budget. Never
    /// silent: each abandon also emits a `session-abandoned` invariant
    /// trace event, and the mobile's persisted log converges at its next
    /// reconnection (regression-tested in `tests/fault_property.rs`).
    pub abandoned_sessions: usize,
    /// Retransmitted offers absorbed by the session ledger (the install
    /// already committed; only re-execution and the ack were replayed).
    pub ledger_resumes: usize,
    /// Duplicated offer copies rejected post-install by the ledger guard —
    /// the no-double-install counter.
    pub duplicate_installs_suppressed: usize,
    /// Unacked sessions resolved against the ledger at a later
    /// reconnection.
    pub recovered_sessions: usize,
    /// Tentative transactions trimmed from a mobile's persisted log
    /// because a recovered session had already committed them.
    pub trimmed_txns: usize,
    /// Tentative transactions resolved (installed or re-executed) more
    /// than once — any non-zero value is a protocol-idempotence bug.
    pub double_resolutions: usize,
    /// Session resumptions that found their ledger record missing and
    /// degraded to legacy reprocessing instead of aborting the run.
    pub ledger_gaps: usize,
}

/// Write-ahead-log counters (durability enabled only; all zero
/// otherwise). WAL volume depends on checkpoint cadence, not on the
/// logical outcome of the run, so [`Metrics::normalized`] zeroes the
/// whole block for byte-identity comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (checkpoints included).
    pub records: u64,
    /// Total framed bytes written (retired segments included).
    pub bytes: u64,
    /// Checkpoints performed after genesis.
    pub checkpoints: u64,
    /// Segments retired by checkpoint compaction.
    pub segments_retired: u64,
    /// Session-ledger records pruned after their mobile's ack.
    pub pruned_records: u64,
    /// In-run shadow recoveries: simulated base crashes where the durable
    /// state was recovered from the WAL and checked against the live
    /// state.
    pub shadow_recoveries: u64,
}

/// Scheduler counters: how much work the event queue did. Purely
/// mechanical, so [`Metrics::normalized`] zeroes the whole block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events scheduled on the event queue.
    pub events_pushed: u64,
    /// Events popped off the event queue.
    pub events_popped: u64,
}

/// Cohort install counters: how much merge work the fast path and the
/// epoch edge cache absorbed. Pure mechanism — they describe how a run
/// was computed, not what it committed — so [`Metrics::normalized`]
/// zeroes the whole block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohortStats {
    /// Merges that took the conflict-free fast path (pending history
    /// footprint-disjoint from the entire concurrent base slice — graph
    /// and closure construction skipped).
    pub fastpath_merges: u64,
    /// Always 0: cohort members merge live in install order, so no
    /// speculative outcome goes stale and no wave re-merges one. Kept so
    /// the metrics JSON and the benchmark's per-layer rows keep their
    /// shape.
    pub wave_rounds: u64,
    /// Base transactions appended to the epoch edge cache incrementally.
    pub edge_cache_appends: u64,
}

/// Storm-robustness counters: what the admission controller and the
/// retry backoff did. All zero with admission control disabled and
/// backoff off (the defaults), so the differential suites are untouched;
/// with them on, these are *behavioral* counters (deferral changes when
/// each mobile merges), so [`Metrics::normalized`] keeps them — two runs
/// that defer differently are genuinely different runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormStats {
    /// Reconnects shed past the per-tick admission cap into the deferred
    /// queue.
    pub shed: u64,
    /// Admissions served from the deferred queue (equals `shed` once the
    /// queue fully drained).
    pub deferred_drained: u64,
    /// Peak length of the deferred queue — the storm's high-water mark.
    pub deferred_peak: u64,
    /// Total ticks deferred mobiles waited between arrival and admission.
    pub defer_wait_ticks: u64,
    /// The longest single deferral, in ticks.
    pub defer_wait_max: u64,
    /// Reconnections rescheduled early by the capped exponential backoff
    /// after an abandoned session.
    pub backoff_reschedules: u64,
    /// Total backoff delay scheduled, in ticks (jitter included).
    pub backoff_delay_ticks: u64,
}

/// One synchronization event (a reconnection), for time-series plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncRecord {
    /// Simulation tick.
    pub tick: u64,
    /// Mobile node id.
    pub mobile: usize,
    /// Tentative transactions pending at reconnect.
    pub pending: usize,
    /// Length of the base history the merge ran against (0 for
    /// reprocessing).
    pub hb_len: usize,
    /// Transactions whose work was saved by merging.
    pub saved: usize,
    /// Transactions backed out and re-executed.
    pub backed_out: usize,
    /// Transactions reprocessed the old way (reprocessing protocol, or a
    /// merge that fell back).
    pub reprocessed: usize,
    /// `true` if a Strategy-1 merge failed (snapshot invalidated) and fell
    /// back to reprocessing.
    pub merge_failed: bool,
    /// Span-derived wall-clock nanoseconds this synchronization took at
    /// the base (0 when the run is untraced). Timing only — zeroed by
    /// [`Metrics::normalized`] like [`Metrics::parallel_merge_ns`].
    pub sync_ns: u64,
}

/// Aggregated simulation metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Tentative transactions generated across all mobiles.
    pub tentative_generated: usize,
    /// Base transactions generated by the base tier's own load.
    pub base_generated: usize,
    /// Total transactions saved by merging.
    pub saved: usize,
    /// Total transactions backed out by merging (then re-executed).
    pub backed_out: usize,
    /// Total transactions reprocessed the old way.
    pub reprocessed: usize,
    /// Synchronizations performed.
    pub syncs: usize,
    /// Strategy-1 merge failures (snapshot invalidated).
    pub merge_failures: usize,
    /// Mobiles whose window expired before they reconnected (their history
    /// is reprocessed per Section 2.2).
    pub window_misses: usize,
    /// Accumulated cost report (Section 7.1 decomposition).
    pub cost: CostReport,
    /// Peak base-node work backlog (pending base work units).
    pub peak_backlog: f64,
    /// Per-sync records, in time order.
    pub records: Vec<SyncRecord>,
    /// Size of each reconnect batch (mobiles syncing in the same tick), in
    /// time order.
    pub batch_sizes: Vec<usize>,
    /// Always 0: every merge is planned live on the simulation thread, so
    /// no concurrent merge phase runs. Kept, like the two speculation
    /// counters below, so the metrics JSON and the benchmark's per-layer
    /// rows keep their shape. Timing only — zeroed by
    /// [`Metrics::normalized`].
    pub parallel_merge_ns: u64,
    /// Always 0: no cohort member merges speculatively.
    pub speculative_hits: usize,
    /// Always 0: no cohort member merges speculatively.
    pub speculative_retries: usize,
    /// Strategy-1 retroactive installs performed (each edits recorded
    /// after-states in place, so replay-based convergence checks do not
    /// apply to runs where this is non-zero).
    pub retro_patches: usize,
    /// Injected-fault and recovery counters (session path only).
    pub fault: FaultStats,
    /// Write-ahead-log counters (durability enabled only). Volume-only —
    /// excluded from determinism comparisons.
    pub wal: WalStats,
    /// Scheduler counters. Mechanism-only — excluded from determinism
    /// comparisons.
    pub sched: SchedStats,
    /// Cohort install-pipeline counters. Mechanism-only — excluded from
    /// determinism comparisons.
    pub cohort: CohortStats,
    /// Admission-control and retry-backoff counters. Behavioral (not
    /// mechanism-only): kept by [`Metrics::normalized`], and all zero
    /// with admission and backoff at their defaults.
    pub storm: StormStats,
    /// Per-deferral wait in ticks, one entry per admission served from
    /// the deferred queue, in admission order — the series behind E21's
    /// p99 sync-latency figure (non-deferred syncs wait 0 ticks).
    pub defer_waits: Vec<u64>,
}

impl Metrics {
    /// Records a sync event, folding it into the aggregates.
    pub fn record(&mut self, record: SyncRecord, cost: CostReport) {
        self.saved += record.saved;
        self.backed_out += record.backed_out;
        self.reprocessed += record.reprocessed;
        self.syncs += 1;
        if record.merge_failed {
            self.merge_failures += 1;
        }
        self.cost = self.cost.add(&cost);
        self.records.push(record);
    }

    /// Fraction of tentative transactions whose work was saved. Guarded:
    /// a run that resolved nothing (or reprocessed everything without a
    /// single save) reports 0.0, never NaN.
    pub fn save_ratio(&self) -> f64 {
        let done = self.saved + self.backed_out + self.reprocessed;
        if done == 0 {
            0.0
        } else {
            self.saved as f64 / done as f64
        }
    }

    /// Exact p50/p99 of the per-deferral waits ([`Metrics::defer_waits`])
    /// in ticks, `(0, 0)` when nothing was deferred. Computed over a
    /// sorted copy with the nearest-rank method — the series is bounded
    /// by the number of deferred admissions, so exact quantiles are
    /// affordable wherever they're read (telemetry samples, the pinned
    /// metrics JSON).
    pub fn defer_wait_quantiles(&self) -> (u64, u64) {
        if self.defer_waits.is_empty() {
            return (0, 0);
        }
        let mut sorted = self.defer_waits.clone();
        sorted.sort_unstable();
        let rank = |q: f64| {
            let idx = ((sorted.len() as f64) * q).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        (rank(0.50), rank(0.99))
    }

    /// A copy suitable for byte-for-byte run comparisons:
    /// [`Metrics::parallel_merge_ns`] is wall-clock timing,
    /// [`Metrics::wal`] is log volume, and [`Metrics::sched`] and
    /// [`Metrics::cohort`] are mechanism — all
    /// orthogonal to the logical outcome of a run (a durability-enabled
    /// run must equal the plain run everywhere else) and zeroed out here.
    pub fn normalized(&self) -> Metrics {
        let mut normalized = Metrics {
            parallel_merge_ns: 0,
            wal: WalStats::default(),
            sched: SchedStats::default(),
            cohort: CohortStats::default(),
            ..self.clone()
        };
        for record in &mut normalized.records {
            record.sync_ns = 0;
        }
        normalized
    }

    /// Renders the metrics as one JSON object with a pinned field order.
    /// The shape is covered by a snapshot test; extend it when adding
    /// fields so downstream artifact consumers see breaks early.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!("\"tentative_generated\":{}", self.tentative_generated));
        out.push_str(&format!(",\"base_generated\":{}", self.base_generated));
        out.push_str(&format!(",\"saved\":{}", self.saved));
        out.push_str(&format!(",\"backed_out\":{}", self.backed_out));
        out.push_str(&format!(",\"reprocessed\":{}", self.reprocessed));
        out.push_str(&format!(",\"syncs\":{}", self.syncs));
        out.push_str(&format!(",\"merge_failures\":{}", self.merge_failures));
        out.push_str(&format!(",\"window_misses\":{}", self.window_misses));
        out.push_str(&format!(
            ",\"cost\":{{\"comm\":{:.3},\"base_cpu\":{:.3},\"base_io\":{:.3},\"mobile_cpu\":{:.3}}}",
            self.cost.comm, self.cost.base_cpu, self.cost.base_io, self.cost.mobile_cpu
        ));
        out.push_str(&format!(",\"peak_backlog\":{:.3}", self.peak_backlog));
        out.push_str(&format!(",\"records\":{}", self.records.len()));
        out.push_str(&format!(",\"batches\":{}", self.batch_sizes.len()));
        out.push_str(&format!(",\"parallel_merge_ns\":{}", self.parallel_merge_ns));
        out.push_str(&format!(",\"speculative_hits\":{}", self.speculative_hits));
        out.push_str(&format!(",\"speculative_retries\":{}", self.speculative_retries));
        out.push_str(&format!(",\"retro_patches\":{}", self.retro_patches));
        let f = &self.fault;
        out.push_str(&format!(
            ",\"fault\":{{\"dropped\":{},\"duplicated\":{},\"reordered\":{},\
             \"mid_merge_disconnects\":{},\"base_crashes\":{},\"retries\":{},\
             \"abandoned_sessions\":{},\"ledger_resumes\":{},\"duplicate_installs_suppressed\":{},\
             \"recovered_sessions\":{},\"trimmed_txns\":{},\"double_resolutions\":{},\
             \"ledger_gaps\":{}}}",
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
            f.ledger_gaps
        ));
        let w = &self.wal;
        out.push_str(&format!(
            ",\"wal\":{{\"records\":{},\"bytes\":{},\"checkpoints\":{},\
             \"segments_retired\":{},\"pruned_records\":{},\"shadow_recoveries\":{}}}",
            w.records,
            w.bytes,
            w.checkpoints,
            w.segments_retired,
            w.pruned_records,
            w.shadow_recoveries
        ));
        let s = &self.sched;
        out.push_str(&format!(
            ",\"sched\":{{\"events_pushed\":{},\"events_popped\":{}}}",
            s.events_pushed, s.events_popped
        ));
        let co = &self.cohort;
        out.push_str(&format!(
            ",\"cohort\":{{\"fastpath_merges\":{},\"wave_rounds\":{},\"edge_cache_appends\":{}}}",
            co.fastpath_merges, co.wave_rounds, co.edge_cache_appends
        ));
        let st = &self.storm;
        out.push_str(&format!(
            ",\"storm\":{{\"shed\":{},\"deferred_drained\":{},\"deferred_peak\":{},\
             \"defer_wait_ticks\":{},\"defer_wait_max\":{},\"backoff_reschedules\":{},\
             \"backoff_delay_ticks\":{}}}",
            st.shed,
            st.deferred_drained,
            st.deferred_peak,
            st.defer_wait_ticks,
            st.defer_wait_max,
            st.backoff_reschedules,
            st.backoff_delay_ticks
        ));
        let (p50, p99) = self.defer_wait_quantiles();
        out.push_str(&format!(
            ",\"defer_waits\":{{\"count\":{},\"p50\":{},\"p99\":{}}}",
            self.defer_waits.len(),
            p50,
            p99
        ));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_folds_into_aggregates() {
        let mut m = Metrics::default();
        m.record(
            SyncRecord {
                tick: 5,
                mobile: 0,
                pending: 4,
                hb_len: 2,
                saved: 3,
                backed_out: 1,
                reprocessed: 0,
                merge_failed: false,
                sync_ns: 0,
            },
            CostReport { comm: 1.0, ..Default::default() },
        );
        m.record(
            SyncRecord {
                tick: 9,
                mobile: 1,
                pending: 2,
                hb_len: 0,
                saved: 0,
                backed_out: 0,
                reprocessed: 2,
                merge_failed: true,
                sync_ns: 0,
            },
            CostReport { comm: 2.0, ..Default::default() },
        );
        assert_eq!(m.saved, 3);
        assert_eq!(m.backed_out, 1);
        assert_eq!(m.reprocessed, 2);
        assert_eq!(m.syncs, 2);
        assert_eq!(m.merge_failures, 1);
        assert_eq!(m.cost.comm, 3.0);
        assert_eq!(m.records.len(), 2);
        assert!((m.save_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_ratio_is_zero() {
        assert_eq!(Metrics::default().save_ratio(), 0.0);
    }

    #[test]
    fn all_reprocessing_run_has_finite_zero_ratio() {
        // A run where every sync reprocessed (the 0-saved regime the ratio
        // must not turn into NaN).
        let mut m = Metrics::default();
        for tick in 0..3 {
            m.record(
                SyncRecord {
                    tick,
                    mobile: 0,
                    pending: 2,
                    hb_len: 0,
                    saved: 0,
                    backed_out: 0,
                    reprocessed: 2,
                    merge_failed: false,
                    sync_ns: 0,
                },
                CostReport::default(),
            );
        }
        assert_eq!(m.saved, 0);
        assert_eq!(m.reprocessed, 6);
        assert_eq!(m.save_ratio(), 0.0);
        assert!(m.save_ratio().is_finite());
    }

    #[test]
    fn normalized_strips_wall_clock_only() {
        let a = Metrics { parallel_merge_ns: 12345, ..Metrics::default() };
        let mut b = Metrics { parallel_merge_ns: 99999, ..Metrics::default() };
        assert_ne!(a, b);
        assert_eq!(a.normalized(), b.normalized());
        // Per-record sync durations are timing too.
        let record = SyncRecord {
            tick: 1,
            mobile: 0,
            pending: 1,
            hb_len: 0,
            saved: 1,
            backed_out: 0,
            reprocessed: 0,
            merge_failed: false,
            sync_ns: 777,
        };
        let mut traced = Metrics::default();
        traced.record(record, CostReport::default());
        let mut untraced = Metrics::default();
        untraced.record(SyncRecord { sync_ns: 0, ..record }, CostReport::default());
        assert_ne!(traced, untraced);
        assert_eq!(traced.normalized(), untraced.normalized());
        // Real counters still distinguish runs.
        b.saved = 1;
        assert_ne!(a.normalized(), b.normalized());
        assert_eq!(FaultStats::default(), a.fault);
    }

    #[test]
    fn normalized_strips_wal_volume() {
        // A durability-enabled run differs from the legacy run only in
        // WAL counters; normalization must erase exactly that difference.
        let legacy = Metrics::default();
        let durable = Metrics {
            wal: WalStats {
                records: 100,
                bytes: 4096,
                checkpoints: 2,
                segments_retired: 2,
                pruned_records: 7,
                shadow_recoveries: 1,
            },
            ..Metrics::default()
        };
        assert_ne!(legacy, durable);
        assert_eq!(legacy.normalized(), durable.normalized());
    }

    #[test]
    fn normalized_strips_cohort_mechanism() {
        // Two runs whose pipelines engaged differently differ only in the
        // cohort block; normalization must erase exactly that difference.
        let legacy = Metrics::default();
        let pipelined = Metrics {
            cohort: CohortStats { fastpath_merges: 9, wave_rounds: 2, edge_cache_appends: 31 },
            ..Metrics::default()
        };
        assert_ne!(legacy, pipelined);
        assert_eq!(legacy.normalized(), pipelined.normalized());
        assert!(pipelined.to_json().contains("\"cohort\":{\"fastpath_merges\":9"));
    }

    #[test]
    fn normalized_keeps_storm_behavior() {
        // Admission control changes *when* mobiles merge — deferral is
        // behavior, not mechanism — so normalization must NOT erase the
        // storm block: an admission-bounded run is a different run.
        let calm = Metrics::default();
        let stormy = Metrics {
            storm: StormStats { shed: 12, deferred_drained: 12, ..StormStats::default() },
            defer_waits: vec![1, 1, 2],
            ..Metrics::default()
        };
        assert_ne!(calm.normalized(), stormy.normalized());
        assert!(stormy.to_json().contains("\"storm\":{\"shed\":12"));
    }

    #[test]
    fn normalized_strips_scheduler_mechanism() {
        // Queue traffic is mechanism; normalization must erase it.
        let quiet = Metrics::default();
        let evented = Metrics {
            sched: SchedStats { events_pushed: 40, events_popped: 36 },
            ..Metrics::default()
        };
        assert_ne!(quiet, evented);
        assert_eq!(quiet.normalized(), evented.normalized());
    }
}
