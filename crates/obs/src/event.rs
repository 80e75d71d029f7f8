//! The typed event taxonomy and its JSONL rendering.

use crate::json::push_escaped;

/// A named pipeline phase, for span timing. The set covers every choke
/// point of the merge/session/WAL stack; [`Phase::ALL`] fixes the report
/// order of per-phase breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Executing histories (deriving `H_m`'s log and `H_b`'s final state)
    /// before step 1.
    Exec,
    /// Step 1: building the precedence graph `G(H_m, H_b)`.
    GraphBuild,
    /// Step 2: computing the back-out set (cycle breaking).
    Backout,
    /// Step 3: rewriting the tentative history.
    Rewrite,
    /// Step 4: pruning (undo or compensation).
    Prune,
    /// The whole merge-plan computation (steps 1–4 plus execution).
    MergePlan,
    /// Step 5: installing forwarded updates on the base.
    Install,
    /// Step 6: re-executing backed-out transactions.
    Reexecute,
    /// One whole synchronization (a reconnection, any path).
    Sync,
    /// Never emitted: reconnect cohorts merge one member at a time inside
    /// [`Phase::Sync`]. Kept so span reports keep their row set.
    ParallelMerge,
    /// Framing and appending one WAL record.
    WalAppend,
    /// Writing a checkpoint snapshot and compacting segments.
    Checkpoint,
    /// Rebuilding base-tier state from the WAL.
    Recovery,
    /// One Strategy-2 window (virtual clock: ticks, not nanoseconds).
    Window,
    /// Draining the event queue and dispatching a tick's scheduled mobile
    /// work (event-driven scheduler only).
    Scheduler,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 15] = [
        Phase::Exec,
        Phase::GraphBuild,
        Phase::Backout,
        Phase::Rewrite,
        Phase::Prune,
        Phase::MergePlan,
        Phase::Install,
        Phase::Reexecute,
        Phase::Sync,
        Phase::ParallelMerge,
        Phase::WalAppend,
        Phase::Checkpoint,
        Phase::Recovery,
        Phase::Window,
        Phase::Scheduler,
    ];

    /// Stable snake-case name, used as the JSONL `phase` field and the
    /// registry key.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Exec => "exec",
            Phase::GraphBuild => "graph_build",
            Phase::Backout => "backout",
            Phase::Rewrite => "rewrite",
            Phase::Prune => "prune",
            Phase::MergePlan => "merge_plan",
            Phase::Install => "install",
            Phase::Reexecute => "reexecute",
            Phase::Sync => "sync",
            Phase::ParallelMerge => "parallel_merge",
            Phase::WalAppend => "wal_append",
            Phase::Checkpoint => "checkpoint",
            Phase::Recovery => "recovery",
            Phase::Window => "window",
            Phase::Scheduler => "scheduler",
        }
    }

    /// The phase's index into [`Phase::ALL`] (registry slot).
    pub(crate) fn index(&self) -> usize {
        Phase::ALL.iter().position(|p| p == self).expect("every phase is listed in ALL")
    }
}

/// One step of the resumable session protocol, as observed by the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStepKind {
    /// The mobile's offer arrived.
    Offer,
    /// The base computed (or reused) the merge decision.
    Merge,
    /// The install committed, with the durable session record.
    Install,
    /// A backed-out transaction was re-executed.
    Reexecute,
    /// The ack reached the mobile; the session is done.
    Ack,
    /// A prior unacked session was resolved against the ledger.
    Resume,
    /// The retry budget ran out; the session was abandoned.
    Abandon,
    /// An abandoned mobile's next attempt was rescheduled early on the
    /// capped exponential backoff ladder.
    Backoff,
}

impl SessionStepKind {
    /// Stable snake-case name for the JSONL `step` field.
    pub fn name(&self) -> &'static str {
        match self {
            SessionStepKind::Offer => "offer",
            SessionStepKind::Merge => "merge",
            SessionStepKind::Install => "install",
            SessionStepKind::Reexecute => "reexecute",
            SessionStepKind::Ack => "ack",
            SessionStepKind::Resume => "resume",
            SessionStepKind::Abandon => "abandon",
            SessionStepKind::Backoff => "backoff",
        }
    }
}

/// Sentinel partner id for autopsy events that found no concrete
/// conflict edge: `lost_to` is this value and `rule` is `"none"`.
pub const NO_PARTNER: u64 = u64::MAX;

/// A structured trace event. Every variant renders as one JSONL object
/// with a `type` discriminant; payloads are counts and names only — no
/// histories or states, so recording is cheap and rings stay small.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Step 1 finished: the precedence graph was built.
    GraphBuilt {
        /// Tentative-history length.
        hm_len: usize,
        /// Base-history length the merge ran against.
        hb_len: usize,
        /// Edges in the full graph.
        edges: usize,
    },
    /// Step 2 finished: the back-out set was selected.
    CycleBreak {
        /// Size of the back-out set `B`.
        backed_out: usize,
        /// Size of the affected set `AG(B)`.
        affected: usize,
    },
    /// Step 3 finished: the history was rewritten.
    Rewrite {
        /// Transactions the rewrite kept (work saved).
        saved: usize,
        /// Transactions moved to the back-out suffix.
        backed_out: usize,
    },
    /// Step 4 finished: the repaired state was pruned.
    Prune {
        /// The pruning method ("undo" or "compensate").
        method: &'static str,
    },
    /// One session-protocol step completed at the base.
    SessionStep {
        /// Simulation tick.
        tick: u64,
        /// Mobile node id.
        mobile: usize,
        /// Session sequence number.
        seq: u64,
        /// Which step.
        step: SessionStepKind,
    },
    /// The fault plan injected an event into the handshake.
    Fault {
        /// Simulation tick.
        tick: u64,
        /// The fault kind's short name.
        kind: &'static str,
    },
    /// One record was appended to the WAL.
    WalAppend {
        /// The record kind's short name.
        kind: &'static str,
        /// Framed bytes written.
        bytes: usize,
    },
    /// A checkpoint snapshot was written.
    WalCheckpoint {
        /// Records appended since the previous checkpoint.
        records: u64,
    },
    /// Checkpoint compaction retired old segments.
    WalCompaction {
        /// Segments deleted.
        retired: u64,
    },
    /// Recovery replayed the WAL tail after a checkpoint.
    RecoveryReplay {
        /// Records replayed after the checkpoint.
        records: usize,
        /// `true` when a torn or corrupt suffix was discarded.
        torn: bool,
    },
    /// A runtime invariant was violated (always paired with a metrics
    /// counter — the event carries the context the counter cannot).
    Invariant {
        /// The invariant's stable name (e.g. `double-install`).
        name: &'static str,
        /// Simulation tick.
        tick: u64,
        /// Mobile node id.
        mobile: usize,
        /// Session sequence number.
        seq: u64,
    },
    /// The admission controller resolved one tick's reconnect cohort:
    /// how many mobiles it admitted (deferred-queue drains first, then
    /// fresh arrivals) and how many it shed. Emitted only on ticks where
    /// the controller actually deferred or drained, so unbounded runs
    /// record nothing.
    Admission {
        /// Simulation tick.
        tick: u64,
        /// Mobiles admitted to this tick's merge cohort.
        admitted: usize,
        /// Fresh reconnects shed into the deferred queue this tick.
        shed: usize,
        /// Deferred-queue length after this tick's admissions.
        deferred: usize,
    },
    /// Merge autopsy: one transaction was backed out, and this is the
    /// precedence edge that doomed it — the rule that drew the edge, both
    /// footprint summary masks, the base/bad partner it lost to, and the
    /// reads-from weight the cycle breaker charged for it.
    BackoutEdge {
        /// Simulation tick of the merge.
        tick: u64,
        /// Mobile node id.
        mobile: usize,
        /// The backed-out transaction's raw id.
        txn: u64,
        /// The partner transaction's raw id ([`NO_PARTNER`] when the
        /// attribution found no single edge to pin it on).
        lost_to: u64,
        /// The precedence rule that drew the edge (`mobile-conflict`,
        /// `base-conflict`, `mobile-read-base`, `base-read-mobile`, or
        /// `none`).
        rule: &'static str,
        /// The backed-out transaction's read|write summary mask.
        txn_mask: u64,
        /// The partner's read|write summary mask (0 when none).
        other_mask: u64,
        /// The reads-from closure weight that decided the back-out.
        weight: u64,
    },
    /// Merge autopsy: one pending transaction was reprocessed wholesale
    /// (no merge ran, or the merge failed), with the decision cause and —
    /// when one exists — the concrete base commit it conflicts with.
    ReprocessCause {
        /// Simulation tick of the sync.
        tick: u64,
        /// Mobile node id.
        mobile: usize,
        /// The reprocessed transaction's raw id.
        txn: u64,
        /// Why the whole history was reprocessed (`dirty-origin`,
        /// `protocol-reprocessing`, `window-miss`, `merge-failed`,
        /// `ledger-gap`).
        cause: &'static str,
        /// The conflicting base commit's raw id ([`NO_PARTNER`] when no
        /// base commit overlaps this transaction's footprint).
        lost_to: u64,
        /// The conflict rule relating them (`none` when no partner).
        rule: &'static str,
        /// The reprocessed transaction's read|write summary mask.
        txn_mask: u64,
        /// The partner's read|write summary mask (0 when none).
        other_mask: u64,
    },
    /// Merge autopsy: the per-sync summary closing the preceding
    /// [`TraceEvent::BackoutEdge`]/[`TraceEvent::ReprocessCause`] run.
    /// Counts match `Metrics`.
    MergeSummary {
        /// Simulation tick.
        tick: u64,
        /// Mobile node id.
        mobile: usize,
        /// Pending tentative transactions offered.
        pending: usize,
        /// Transactions saved from reprocessing.
        saved: usize,
        /// Transactions backed out and re-executed.
        backed_out: usize,
        /// Transactions reprocessed wholesale.
        reprocessed: usize,
        /// Precedence clusters the planner saw (0 when no merge ran).
        clusters: usize,
        /// Wall-clock nanoseconds of the merge-plan span (0 when no plan
        /// was computed — plain reprocessing).
        plan_ns: u64,
    },
    /// A wall-clock span: `phase` took `ns` nanoseconds.
    Span {
        /// The timed phase.
        phase: Phase,
        /// Wall-clock nanoseconds.
        ns: u64,
    },
    /// A virtual-clock span: `phase` lasted `ticks` simulation ticks.
    TickSpan {
        /// The timed phase.
        phase: Phase,
        /// Simulation ticks.
        ticks: u64,
    },
}

impl TraceEvent {
    /// The event's `type` discriminant, as rendered in JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::GraphBuilt { .. } => "graph_built",
            TraceEvent::CycleBreak { .. } => "cycle_break",
            TraceEvent::Rewrite { .. } => "rewrite",
            TraceEvent::Prune { .. } => "prune",
            TraceEvent::SessionStep { .. } => "session_step",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::WalAppend { .. } => "wal_append",
            TraceEvent::WalCheckpoint { .. } => "wal_checkpoint",
            TraceEvent::WalCompaction { .. } => "wal_compaction",
            TraceEvent::RecoveryReplay { .. } => "recovery_replay",
            TraceEvent::Invariant { .. } => "invariant",
            TraceEvent::Admission { .. } => "admission",
            TraceEvent::BackoutEdge { .. } => "backout_edge",
            TraceEvent::ReprocessCause { .. } => "reprocess_cause",
            TraceEvent::MergeSummary { .. } => "merge_summary",
            TraceEvent::Span { .. } => "span",
            TraceEvent::TickSpan { .. } => "tick_span",
        }
    }

    /// Renders the event as one JSON object (no trailing newline). Field
    /// order is fixed per variant, so dumps diff cleanly across runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"type\":\"");
        out.push_str(self.kind());
        out.push('"');
        match self {
            TraceEvent::GraphBuilt { hm_len, hb_len, edges } => {
                push_field_u64(&mut out, "hm_len", *hm_len as u64);
                push_field_u64(&mut out, "hb_len", *hb_len as u64);
                push_field_u64(&mut out, "edges", *edges as u64);
            }
            TraceEvent::CycleBreak { backed_out, affected } => {
                push_field_u64(&mut out, "backed_out", *backed_out as u64);
                push_field_u64(&mut out, "affected", *affected as u64);
            }
            TraceEvent::Rewrite { saved, backed_out } => {
                push_field_u64(&mut out, "saved", *saved as u64);
                push_field_u64(&mut out, "backed_out", *backed_out as u64);
            }
            TraceEvent::Prune { method } => push_field_str(&mut out, "method", method),
            TraceEvent::SessionStep { tick, mobile, seq, step } => {
                push_field_u64(&mut out, "tick", *tick);
                push_field_u64(&mut out, "mobile", *mobile as u64);
                push_field_u64(&mut out, "seq", *seq);
                push_field_str(&mut out, "step", step.name());
            }
            TraceEvent::Fault { tick, kind } => {
                push_field_u64(&mut out, "tick", *tick);
                push_field_str(&mut out, "kind", kind);
            }
            TraceEvent::WalAppend { kind, bytes } => {
                push_field_str(&mut out, "kind", kind);
                push_field_u64(&mut out, "bytes", *bytes as u64);
            }
            TraceEvent::WalCheckpoint { records } => {
                push_field_u64(&mut out, "records", *records);
            }
            TraceEvent::WalCompaction { retired } => {
                push_field_u64(&mut out, "retired", *retired);
            }
            TraceEvent::RecoveryReplay { records, torn } => {
                push_field_u64(&mut out, "records", *records as u64);
                out.push_str(",\"torn\":");
                out.push_str(if *torn { "true" } else { "false" });
            }
            TraceEvent::Invariant { name, tick, mobile, seq } => {
                push_field_str(&mut out, "name", name);
                push_field_u64(&mut out, "tick", *tick);
                push_field_u64(&mut out, "mobile", *mobile as u64);
                push_field_u64(&mut out, "seq", *seq);
            }
            TraceEvent::Admission { tick, admitted, shed, deferred } => {
                push_field_u64(&mut out, "tick", *tick);
                push_field_u64(&mut out, "admitted", *admitted as u64);
                push_field_u64(&mut out, "shed", *shed as u64);
                push_field_u64(&mut out, "deferred", *deferred as u64);
            }
            TraceEvent::BackoutEdge {
                tick,
                mobile,
                txn,
                lost_to,
                rule,
                txn_mask,
                other_mask,
                weight,
            } => {
                push_field_u64(&mut out, "tick", *tick);
                push_field_u64(&mut out, "mobile", *mobile as u64);
                push_field_u64(&mut out, "txn", *txn);
                push_field_u64(&mut out, "lost_to", *lost_to);
                push_field_str(&mut out, "rule", rule);
                push_field_u64(&mut out, "txn_mask", *txn_mask);
                push_field_u64(&mut out, "other_mask", *other_mask);
                push_field_u64(&mut out, "weight", *weight);
            }
            TraceEvent::ReprocessCause {
                tick,
                mobile,
                txn,
                cause,
                lost_to,
                rule,
                txn_mask,
                other_mask,
            } => {
                push_field_u64(&mut out, "tick", *tick);
                push_field_u64(&mut out, "mobile", *mobile as u64);
                push_field_u64(&mut out, "txn", *txn);
                push_field_str(&mut out, "cause", cause);
                push_field_u64(&mut out, "lost_to", *lost_to);
                push_field_str(&mut out, "rule", rule);
                push_field_u64(&mut out, "txn_mask", *txn_mask);
                push_field_u64(&mut out, "other_mask", *other_mask);
            }
            TraceEvent::MergeSummary {
                tick,
                mobile,
                pending,
                saved,
                backed_out,
                reprocessed,
                clusters,
                plan_ns,
            } => {
                push_field_u64(&mut out, "tick", *tick);
                push_field_u64(&mut out, "mobile", *mobile as u64);
                push_field_u64(&mut out, "pending", *pending as u64);
                push_field_u64(&mut out, "saved", *saved as u64);
                push_field_u64(&mut out, "backed_out", *backed_out as u64);
                push_field_u64(&mut out, "reprocessed", *reprocessed as u64);
                push_field_u64(&mut out, "clusters", *clusters as u64);
                push_field_u64(&mut out, "plan_ns", *plan_ns);
            }
            TraceEvent::Span { phase, ns } => {
                push_field_str(&mut out, "phase", phase.name());
                push_field_u64(&mut out, "ns", *ns);
            }
            TraceEvent::TickSpan { phase, ticks } => {
                push_field_str(&mut out, "phase", phase.name());
                push_field_u64(&mut out, "ticks", *ticks);
            }
        }
        out.push('}');
        out
    }
}

fn push_field_u64(out: &mut String, key: &str, v: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

fn push_field_str(out: &mut String, key: &str, v: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    push_escaped(out, v);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json_line;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::GraphBuilt { hm_len: 4, hb_len: 2, edges: 7 },
            TraceEvent::CycleBreak { backed_out: 1, affected: 2 },
            TraceEvent::Rewrite { saved: 3, backed_out: 1 },
            TraceEvent::Prune { method: "undo" },
            TraceEvent::SessionStep { tick: 42, mobile: 1, seq: 3, step: SessionStepKind::Install },
            TraceEvent::Fault { tick: 9, kind: "loss" },
            TraceEvent::WalAppend { kind: "commit", bytes: 128 },
            TraceEvent::WalCheckpoint { records: 64 },
            TraceEvent::WalCompaction { retired: 2 },
            TraceEvent::RecoveryReplay { records: 17, torn: true },
            TraceEvent::Invariant { name: "double-install", tick: 5, mobile: 0, seq: 1 },
            TraceEvent::Admission { tick: 80, admitted: 8, shed: 3, deferred: 11 },
            TraceEvent::BackoutEdge {
                tick: 90,
                mobile: 2,
                txn: 17,
                lost_to: 4,
                rule: "mobile-read-base",
                txn_mask: 0b1010,
                other_mask: 0b0010,
                weight: 3,
            },
            TraceEvent::ReprocessCause {
                tick: 91,
                mobile: 3,
                txn: 21,
                cause: "window-miss",
                lost_to: NO_PARTNER,
                rule: "none",
                txn_mask: 0b100,
                other_mask: 0,
            },
            TraceEvent::MergeSummary {
                tick: 92,
                mobile: 2,
                pending: 6,
                saved: 4,
                backed_out: 2,
                reprocessed: 0,
                clusters: 3,
                plan_ns: 4321,
            },
            TraceEvent::Span { phase: Phase::Install, ns: 1234 },
            TraceEvent::TickSpan { phase: Phase::Window, ticks: 100 },
        ]
    }

    #[test]
    fn every_variant_renders_valid_json_with_its_kind() {
        for event in samples() {
            let line = event.to_jsonl();
            validate_json_line(&line)
                .unwrap_or_else(|e| panic!("{}: invalid JSON {line}: {e}", event.kind()));
            assert!(
                line.starts_with(&format!("{{\"type\":\"{}\"", event.kind())),
                "{line} does not lead with its discriminant"
            );
        }
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds: std::collections::BTreeSet<&str> = samples().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), samples().len());
    }

    #[test]
    fn rendering_is_exact_for_pinned_variants() {
        assert_eq!(
            TraceEvent::SessionStep { tick: 1, mobile: 2, seq: 3, step: SessionStepKind::Ack }
                .to_jsonl(),
            r#"{"type":"session_step","tick":1,"mobile":2,"seq":3,"step":"ack"}"#
        );
        assert_eq!(
            TraceEvent::Span { phase: Phase::WalAppend, ns: 500 }.to_jsonl(),
            r#"{"type":"span","phase":"wal_append","ns":500}"#
        );
        assert_eq!(
            TraceEvent::RecoveryReplay { records: 3, torn: false }.to_jsonl(),
            r#"{"type":"recovery_replay","records":3,"torn":false}"#
        );
        assert_eq!(
            TraceEvent::Admission { tick: 80, admitted: 8, shed: 3, deferred: 11 }.to_jsonl(),
            r#"{"type":"admission","tick":80,"admitted":8,"shed":3,"deferred":11}"#
        );
        assert_eq!(
            TraceEvent::SessionStep { tick: 4, mobile: 0, seq: 2, step: SessionStepKind::Backoff }
                .to_jsonl(),
            r#"{"type":"session_step","tick":4,"mobile":0,"seq":2,"step":"backoff"}"#
        );
        assert_eq!(
            TraceEvent::BackoutEdge {
                tick: 7,
                mobile: 1,
                txn: 9,
                lost_to: 2,
                rule: "base-conflict",
                txn_mask: 5,
                other_mask: 4,
                weight: 6,
            }
            .to_jsonl(),
            "{\"type\":\"backout_edge\",\"tick\":7,\"mobile\":1,\"txn\":9,\"lost_to\":2,\
             \"rule\":\"base-conflict\",\"txn_mask\":5,\"other_mask\":4,\"weight\":6}"
        );
        assert_eq!(
            TraceEvent::ReprocessCause {
                tick: 8,
                mobile: 0,
                txn: 3,
                cause: "merge-failed",
                lost_to: 1,
                rule: "mobile-read-base",
                txn_mask: 2,
                other_mask: 3,
            }
            .to_jsonl(),
            "{\"type\":\"reprocess_cause\",\"tick\":8,\"mobile\":0,\"txn\":3,\
             \"cause\":\"merge-failed\",\"lost_to\":1,\"rule\":\"mobile-read-base\",\
             \"txn_mask\":2,\"other_mask\":3}"
        );
        assert_eq!(
            TraceEvent::MergeSummary {
                tick: 9,
                mobile: 4,
                pending: 5,
                saved: 3,
                backed_out: 1,
                reprocessed: 1,
                clusters: 2,
                plan_ns: 77,
            }
            .to_jsonl(),
            "{\"type\":\"merge_summary\",\"tick\":9,\"mobile\":4,\"pending\":5,\"saved\":3,\
             \"backed_out\":1,\"reprocessed\":1,\"clusters\":2,\"plan_ns\":77}"
        );
    }

    #[test]
    fn phase_names_are_distinct_and_indexed() {
        let names: std::collections::BTreeSet<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Phase::ALL.len());
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }
}
