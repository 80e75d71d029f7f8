//! Sync planning: what a reconnection decides, before anything is
//! applied, and the durable record that decision installs.

use std::sync::Arc;

use histmerge_core::merge::{InstallPlan, MergeOutcome};
use histmerge_history::SerialHistory;
use histmerge_obs::Phase;
use histmerge_txn::{DbState, TxnId};
use histmerge_workload::cost::{merging_cost, reprocessing_cost, MergeStats, ReprocessStats};

use super::{Protocol, Simulation};
use crate::metrics::SyncRecord;
use crate::session::SessionRecord;
use crate::sync::SyncStrategy;

/// What a reconnection decided to do, computed by [`Simulation::plan_sync`]
/// and applied by either path. Separating the decision from its
/// application is what lets the session protocol retain a computed merge
/// across a mid-merge disconnect and resume it without recomputation.
pub(super) enum SyncDecision {
    /// Nothing pending: just refresh the mobile's origin.
    Refresh,
    /// Merge the pending history (protocol steps 1–5; the base
    /// re-executes the back-outs, step 6).
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
pub(super) enum ReprocessReason {
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
    pub(super) fn name(self) -> &'static str {
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

impl Simulation {
    /// Decides what this reconnection does, without applying anything,
    /// and emits the decision's merge autopsy when telemetry asks for
    /// one. Autopsies are per *plan*: on the session path a plan whose
    /// session is later abandoned is re-planned (and re-explained) at the
    /// next reconnect, so in faulted runs plans can outnumber
    /// resolutions.
    pub(super) fn plan_sync(&mut self, i: usize, tick: u64) -> SyncDecision {
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
                    if self.mobiles[i].origin_epoch() != self.base.epoch() {
                        // Reconnected after its window closed: the history
                        // cannot be merged (Section 2.2) and is reprocessed
                        // instead.
                        self.metrics.window_misses += 1;
                        SyncDecision::Reprocess { cause: ReprocessReason::WindowMiss }
                    } else {
                        let appended = self.base.sync_epoch_cache(&self.arena);
                        self.metrics.cohort.edge_cache_appends += appended as u64;
                        let s0 = Arc::clone(self.base.shared_epoch_state());
                        self.plan_merge(i, None, s0)
                    }
                }
                SyncStrategy::PerDisconnectSnapshot => self.plan_merge_snapshot(i),
            },
        }
    }

    /// The one merge planning call. A Strategy 2 window merge (`snapshot`
    /// is `None`) runs against the epoch history from the shared
    /// window-start state and borrows both `H_b` and the epoch's
    /// base-edge cache from the base, whose epoch cache holds exactly the
    /// epoch history after
    /// [`BaseNode::sync_epoch_cache`](crate::BaseNode::sync_epoch_cache);
    /// a Strategy 1
    /// snapshot merge runs against the log suffix from the mobile's
    /// snapshot (`Some`), which no cache covers, so the merger builds its
    /// own. The merger never executes `H_b` and stops at the install
    /// plan, so a merge pays for its own conflict slice, not for all of
    /// `|H_b|`.
    fn plan_merge(
        &mut self,
        i: usize,
        snapshot: Option<SerialHistory>,
        s0: Arc<DbState>,
    ) -> SyncDecision {
        let Some(merger) = &self.merger else {
            return SyncDecision::Reprocess { cause: ReprocessReason::ProtocolBaseline };
        };
        let hm = self.mobiles[i].history().clone();
        let (hb, base_edges) = match &snapshot {
            Some(hb) => (hb, None),
            None => (self.base.epoch_cache().history(), Some(self.base.epoch_cache())),
        };
        let hb_len = hb.len();
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        let planned = merger.merge_traced_scratch(
            &self.arena,
            &hm,
            hb,
            &s0,
            base_edges,
            &tracer,
            &mut self.merge_scratch,
        );
        self.last_plan_ns = tracer.span_end(Phase::MergePlan, span);
        match planned {
            Ok(outcome) => {
                // Only a borrowed epoch cache gates the fast path.
                if outcome.fast_path {
                    self.metrics.cohort.fastpath_merges += 1;
                }
                let retroactive = snapshot.is_some();
                SyncDecision::Merge { hm, hb_len, outcome: Box::new(outcome), retroactive }
            }
            Err(_) => SyncDecision::Reprocess { cause: ReprocessReason::MergeFailed },
        }
    }

    /// Strategy 1 merge decision: merges against the base log suffix from
    /// the mobile's own snapshot, if that snapshot is still a valid cut of
    /// the base history.
    fn plan_merge_snapshot(&mut self, i: usize) -> SyncDecision {
        let hb: SerialHistory =
            self.base.history_suffix(self.mobiles[i].origin_index()).into_iter().collect();
        let s0 = Arc::clone(self.mobiles[i].shared_origin());
        // Validity: replaying the suffix from the snapshot must reproduce
        // the current master. Only the final state matters, so the replay
        // skips the augmented log. Retro-patched installs from other
        // mobiles' merges break this — the Strategy-1 failure mode.
        let valid = match histmerge_history::run_to_final(&self.arena, &hb, &s0) {
            Ok(state) => &state == self.base.master(),
            Err(_) => false,
        };
        if !valid {
            return SyncDecision::Reprocess { cause: ReprocessReason::MergeFailed };
        }
        self.plan_merge(i, Some(hb), s0)
    }

    fn merge_stats(&self, hm: &SerialHistory, hb_len: usize, outcome: &MergeOutcome) -> MergeStats {
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
            graph_edges: outcome.rule1_edges,
            full_graph_edges: outcome.graph_edges,
            n_saved: outcome.saved.len(),
            n_backed_out: outcome.backed_out.len(),
            backed_out_stmts: self.statement_count(&outcome.backed_out),
            forwarded_items: outcome.forwarded.len(),
        }
    }

    /// Turns a sync decision into the record both paths install: the
    /// install plan, the metrics record to emit at completion, and the
    /// sync's cost report. `None` for a refresh, which installs nothing.
    pub(super) fn build_record(&self, i: usize, decision: SyncDecision) -> Option<SessionRecord> {
        let (sync, plan, retro_from, cost) = match decision {
            SyncDecision::Refresh => return None,
            SyncDecision::Merge { hm, hb_len, outcome, retroactive } => {
                let stats = self.merge_stats(&hm, hb_len, &outcome);
                let sync = SyncRecord {
                    tick: 0, // filled at emission
                    mobile: i,
                    pending: hm.len(),
                    hb_len,
                    saved: outcome.saved.len(),
                    backed_out: outcome.backed_out.len(),
                    reprocessed: 0,
                    merge_failed: false,
                    sync_ns: 0,
                };
                let retro_from = retroactive.then(|| self.mobiles[i].origin_index());
                (sync, outcome.install_plan(), retro_from, merging_cost(&self.config.cost, &stats))
            }
            SyncDecision::Reprocess { cause } => {
                let pending: Vec<TxnId> = self.mobiles[i].history().iter().collect();
                let stats = ReprocessStats {
                    n_txns: pending.len(),
                    total_stmts: self.statement_count(&pending),
                };
                let sync = SyncRecord {
                    tick: 0, // filled at emission
                    mobile: i,
                    pending: pending.len(),
                    hb_len: 0,
                    saved: 0,
                    backed_out: 0,
                    reprocessed: pending.len(),
                    merge_failed: cause.merge_failed(),
                    sync_ns: 0,
                };
                let plan = InstallPlan {
                    forwarded: DbState::new(),
                    reexecute: pending,
                    saved: Vec::new(),
                };
                (sync, plan, None, reprocessing_cost(&self.config.cost, &stats))
            }
        };
        Some(SessionRecord { plan, retro_from, sync, cost, reexec_done: 0, completed: false })
    }

    /// Total statements of `ids`' programs (the §7.1 re-execution cost).
    fn statement_count(&self, ids: &[TxnId]) -> usize {
        ids.iter().map(|id| self.arena.get(*id).program().statement_count()).sum()
    }
}
