//! Fleet telemetry (`SimConfig::telemetry`): time-series samples and
//! merge autopsies. Observation-only: every function below reads
//! simulation state and emits samples or trace events; none touches RNG
//! streams, metrics, or control flow.

use std::collections::BTreeSet;

use histmerge_core::merge::MergeOutcome;
use histmerge_history::{closure_weights_for, EdgeKind, SerialHistory};
use histmerge_obs::{Phase, TickSample, TraceEvent, NO_PARTNER};
use histmerge_txn::TxnId;

use super::plan::{ReprocessReason, SyncDecision};
use super::Simulation;
use crate::wal::Wal;

impl Simulation {
    /// Records one [`TickSample`] of fleet gauges into the configured
    /// time series, if any. The closure only runs on collector-stride
    /// ticks, so off-stride ticks cost one branch.
    pub(super) fn sample_telemetry(&mut self, tick: u64) {
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

    /// Emits the structured autopsy for a freshly planned sync decision,
    /// when telemetry asks for one and a tracer is listening. A refresh
    /// plan (nothing pending) emits nothing.
    pub(super) fn emit_autopsy(&self, i: usize, tick: u64, decision: &SyncDecision) {
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
    /// targeted lookups — a subset closure pass for the weights and, per
    /// casualty, its latest base partner from the epoch cache's per-item
    /// index (a reverse scan of the log suffix for snapshot merges) —
    /// instead of rebuilding the planner's full graph and closure table,
    /// so a telemetry-enabled run does not pay the merge's planning cost
    /// twice. Pure re-derivation either way: the plan itself is
    /// untouched.
    fn emit_merge_autopsy(
        &self,
        i: usize,
        tick: u64,
        hm: &SerialHistory,
        outcome: &MergeOutcome,
        retroactive: bool,
    ) {
        let tracer = self.config.tracer.clone();
        // A window merge planned against the epoch cache, which still
        // holds exactly the epoch history; a snapshot merge against the
        // log suffix from the mobile's origin.
        let suffix;
        let hb: &[TxnId] = if retroactive {
            suffix = self.base.history_suffix(self.mobiles[i].origin_index());
            &suffix
        } else {
            debug_assert_eq!(self.base.epoch_cache().len(), self.base.epoch_len());
            self.base.epoch_cache().history().order()
        };
        let bad: BTreeSet<TxnId> = outcome.backed_out.iter().copied().collect();
        let weights = closure_weights_for(&self.arena, hm, &bad);
        let hm_rev: Vec<TxnId> = hm.iter().collect();
        for &t in &outcome.backed_out {
            // Prefer the partner that names a base commit: the latest
            // base transaction t draws a precedence edge with (a pure
            // cross write-write overlap draws none). Fall back to the
            // latest conflicting mobile partner — an affected-set
            // casualty always has one, because its taint came in through
            // a read of another casualty's write.
            let base_partner = if retroactive {
                hb.iter().rev().copied().find(|&b| {
                    self.arena.reads_overlap_writes(t, b) || self.arena.reads_overlap_writes(b, t)
                })
            } else {
                self.base.epoch_cache().latest_rule3_partner(&self.arena, t)
            };
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
        let clusters = self.count_clusters(hm, hb);
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
    fn count_clusters(&self, hm: &SerialHistory, hb: &[TxnId]) -> usize {
        let nodes: Vec<TxnId> = hm.iter().chain(hb.iter().copied()).collect();
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
            let partner = self.base.latest_conflicting_commit(&self.arena, t, &pending_set);
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
}
