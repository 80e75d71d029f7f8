//! Installing a sync: protocol steps 5 and 6, written once and driven
//! either by the legacy atomic handshake or by the resumable session
//! protocol ([`crate::sync::SyncPath`]).

use std::sync::Arc;

use histmerge_core::merge::InstallPlan;
use histmerge_obs::{Phase, SessionStepKind, TraceEvent};
use histmerge_txn::TxnId;

use super::plan::{ReprocessReason, SyncDecision};
use super::Simulation;
use crate::connectivity::LinkTrace;
use crate::fault::{Delivery, FaultPlan};
use crate::metrics::SyncRecord;
use crate::session::SessionRecord;
use crate::sync::SyncStrategy;
use crate::wal::WalRecordRef;

impl Simulation {
    /// Synchronizes mobile `i` through the legacy atomic handshake;
    /// returns the base-side work units incurred.
    pub(super) fn sync_mobile(&mut self, i: usize, tick: u64) -> f64 {
        let decision = self.plan_sync(i, tick);
        self.apply_decision(i, tick, decision)
    }

    /// Applies a sync decision in one atomic step: installs its record,
    /// re-executes what it backed out, records its metrics and refreshes
    /// the mobile's origin. Returns base work units. The legacy handshake
    /// runs this, and so does the session protocol's ledger-gap fallback.
    pub(super) fn apply_decision(&mut self, i: usize, tick: u64, decision: SyncDecision) -> f64 {
        let Some(record) = self.build_record(i, decision) else {
            self.refresh_origin(i);
            return 0.0;
        };
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        self.install(&record.plan, record.retro_from);
        tracer.span_end(Phase::Install, span);
        let span = tracer.span_start();
        for &id in &record.plan.reexecute {
            self.reexecute(id);
        }
        tracer.span_end(Phase::Reexecute, span);
        let work = self.report_sync(&record, tick);
        self.refresh_origin(i);
        work
    }

    /// Protocol step 5: installs a plan's forwarded updates — patched in
    /// at `retro_from` (a Strategy-1 retroactive install), or committed as
    /// one base transaction — and marks the saved transactions resolved.
    /// An empty forwarded set (a reprocess plan) commits nothing.
    fn install(&mut self, plan: &InstallPlan, retro_from: Option<usize>) {
        if let Some(from) = retro_from {
            self.base
                .retro_patch(&self.arena, from, &plan.forwarded)
                .expect("snapshot origin index lies within the base log");
            self.metrics.retro_patches += 1;
            self.wal_append(|| WalRecordRef::RetroPatch {
                from_index: from as u64,
                updates: &plan.forwarded,
            });
        } else {
            let _ = self.base.install_updates(&mut self.arena, &plan.forwarded);
            self.wal_sync_commits();
        }
        for &id in &plan.saved {
            self.mark_resolved(id);
        }
    }

    /// Protocol step 6 for one transaction: re-executes it as a base
    /// transaction, marks it resolved and logs the commit.
    fn reexecute(&mut self, id: TxnId) {
        self.base.reexecute(&mut self.arena, id);
        self.mark_resolved(id);
        self.wal_sync_commits();
    }

    /// Emits a finished sync's metrics record, stamped with `tick`, and
    /// returns its base work units.
    fn report_sync(&mut self, record: &SessionRecord, tick: u64) -> f64 {
        self.metrics.record(SyncRecord { tick, ..record.sync }, record.cost);
        record.cost.base_cpu + record.cost.base_io
    }

    /// Resets mobile `i`'s origin according to the strategy.
    fn refresh_origin(&mut self, i: usize) {
        match self.config.strategy {
            SyncStrategy::WindowStart { .. } | SyncStrategy::AdaptiveWindow { .. } => {
                // Strategy 2: new tentative histories within the window
                // keep the window-start state as their origin — one shared
                // snapshot, an Arc clone per resync.
                let origin = Arc::clone(self.base.shared_epoch_state());
                self.mobiles[i].resync(origin, 0, self.base.epoch());
            }
            SyncStrategy::PerDisconnectSnapshot => {
                // Strategy 1: snapshot the current master.
                let origin = Arc::new(self.base.master().clone());
                let index = self.base.committed();
                self.mobiles[i].resync(origin, index, self.base.epoch());
            }
        }
    }

    /// Tracks a tentative transaction's resolution (install or
    /// re-execution); a second resolution of the same id is the
    /// idempotence violation the convergence oracle reports.
    pub(super) fn mark_resolved(&mut self, id: TxnId) {
        if self.resolved.get(id.index()) {
            self.metrics.fault.double_resolutions += 1;
        } else {
            self.resolved.set(id.index());
        }
    }

    // ------------------------------------------------------------------
    // The resumable sync-session protocol (SyncPath::Session).
    // ------------------------------------------------------------------

    /// Traces step `step` of mobile `i`'s session `seq`.
    pub(super) fn session_step(&self, tick: u64, i: usize, seq: u64, step: SessionStepKind) {
        self.config.tracer.emit(|| TraceEvent::SessionStep { tick, mobile: i, seq, step });
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
        self.session_step(tick, i, seq, SessionStepKind::Abandon);
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
    pub(super) fn sync_session(&mut self, i: usize, tick: u64) -> f64 {
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
            self.session_step(tick, i, seq, SessionStepKind::Offer);
            // Base-side handling, idempotent by (mobile, seq).
            if self.ledger.contains(i, seq) {
                // A retransmitted offer for a session that already
                // installed: the durable record suppresses a second
                // install; only whatever re-execution remains is run.
                self.metrics.fault.ledger_resumes += 1;
                self.session_step(tick, i, seq, SessionStepKind::Resume);
                work += self.resume_or_degrade(i, seq, tick);
            } else {
                let planned = match decision.take() {
                    Some(d) => d,
                    None => {
                        let d = self.plan_sync(i, tick);
                        self.session_step(tick, i, seq, SessionStepKind::Merge);
                        d
                    }
                };
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
                    decision = Some(planned);
                    continue;
                }
                // A refresh has nothing durable to do.
                if let Some(record) = self.build_record(i, planned) {
                    self.session_install(i, seq, record, tick);
                    if self.effective_fault(i, tick).base_crash(&mut self.fault_rng) {
                        // Crash between install and re-execution: the log
                        // and ledger survive, in-flight scratch does not.
                        // The retry's offer finds the ledger record and
                        // resumes from it. With durability enabled,
                        // "survive" is checked for real: the WAL is
                        // recovered and compared to the live state at
                        // exactly this crash point.
                        self.metrics.fault.base_crashes += 1;
                        self.config.tracer.emit(|| TraceEvent::Fault { tick, kind: "base-crash" });
                        self.shadow_recovery_check();
                        if !self.consume_retry(&mut retries) {
                            return self.abandon(i, tick, seq, work);
                        }
                        continue;
                    }
                    work += self.resume_or_degrade(i, seq, tick);
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
                    self.session_step(tick, i, seq, SessionStepKind::Ack);
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
            self.session_step(tick, i, unacked.seq, SessionStepKind::Resume);
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
    /// if the session had already completed, and `None` when the ledger
    /// has no record of the session: one the protocol expects can be
    /// absent after a partial recovery, and the caller degrades rather
    /// than aborting the run.
    pub(super) fn resume_session(&mut self, i: usize, seq: u64, tick: u64) -> Option<f64> {
        let record = self.ledger.get(i, seq).cloned()?;
        if record.completed {
            return Some(0.0);
        }
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        for idx in record.reexec_done..record.plan.reexecute.len() {
            self.reexecute(record.plan.reexecute[idx]);
            if let Some(entry) = self.ledger.get_mut(i, seq) {
                entry.reexec_done = idx + 1;
            }
            self.wal_append(|| WalRecordRef::ReexecAdvance {
                mobile: i as u64,
                seq,
                done: (idx + 1) as u64,
            });
            self.session_step(tick, i, seq, SessionStepKind::Reexecute);
        }
        if let Some(entry) = self.ledger.get_mut(i, seq) {
            entry.completed = true;
        }
        self.wal_append(|| WalRecordRef::SessionComplete { mobile: i as u64, seq });
        tracer.span_end(Phase::Reexecute, span);
        Some(self.report_sync(&record, tick))
    }

    /// Runs [`Simulation::resume_session`], degrading a missing ledger
    /// record to the legacy handshake's reprocessing of the mobile's
    /// pending log: the base has no durable memory of the session, so the
    /// safe move is the \[GHOS96\] fallback, not a crash.
    pub(super) fn resume_or_degrade(&mut self, i: usize, seq: u64, tick: u64) -> f64 {
        if let Some(work) = self.resume_session(i, seq, tick) {
            return work;
        }
        self.metrics.fault.ledger_gaps += 1;
        self.config.tracer.emit(|| TraceEvent::Invariant {
            name: "ledger-gap",
            tick,
            mobile: i,
            seq,
        });
        // This path bypasses `plan_sync`, so the autopsy (when enabled) is
        // emitted here.
        let decision = SyncDecision::Reprocess { cause: ReprocessReason::LedgerGap };
        self.last_plan_ns = 0;
        self.emit_autopsy(i, tick, &decision);
        self.apply_decision(i, tick, decision)
    }

    /// Protocol step 5 under the session path: commits forwarded updates
    /// and the durable session record in one (modeled) write-ahead
    /// transaction.
    pub(super) fn session_install(&mut self, i: usize, seq: u64, record: SessionRecord, tick: u64) {
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        self.install(&record.plan, record.retro_from);
        self.wal_append(|| WalRecordRef::SessionInstall { mobile: i as u64, seq, record: &record });
        tracer.span_end(Phase::Install, span);
        if self.ledger.insert(i, seq, record) {
            self.session_step(tick, i, seq, SessionStepKind::Install);
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
