//! Assembled merge autopsies.
//!
//! The simulator emits autopsy evidence as plain [`crate::TraceEvent`]s
//! — a run of [`crate::TraceEvent::BackoutEdge`] /
//! [`crate::TraceEvent::ReprocessCause`] lines closed by one
//! [`crate::TraceEvent::MergeSummary`]. The flight recorder reassembles
//! those runs into [`MergeAutopsy`] values so tests and experiment bins
//! can assert on structured explanations ("which conflict edge doomed
//! this transaction, against which base commit") instead of grepping
//! JSONL.

use crate::event::NO_PARTNER;
use crate::json::push_escaped;

/// Why one transaction was not saved: the conflict edge (or wholesale
/// reprocessing cause) the merge charged it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutopsyEdge {
    /// The transaction's raw id.
    pub txn: u64,
    /// The decision: `"backed-out"` for a merge back-out, otherwise the
    /// reprocessing cause (`dirty-origin`, `protocol-reprocessing`,
    /// `window-miss`, `merge-failed`, `ledger-gap`).
    pub cause: &'static str,
    /// The partner it lost to, `None` when no concrete edge was found.
    pub lost_to: Option<u64>,
    /// The precedence/conflict rule relating them (`"none"` when no
    /// partner).
    pub rule: &'static str,
    /// The transaction's read|write summary mask.
    pub txn_mask: u64,
    /// The partner's read|write summary mask (0 when none).
    pub other_mask: u64,
    /// The reads-from closure weight charged (0 for reprocessing).
    pub weight: u64,
}

impl AutopsyEdge {
    /// `true` when the edge names a concrete partner transaction.
    pub fn is_concrete(&self) -> bool {
        self.lost_to.is_some()
    }

    pub(crate) fn from_backout(
        txn: u64,
        lost_to: u64,
        rule: &'static str,
        txn_mask: u64,
        other_mask: u64,
        weight: u64,
    ) -> AutopsyEdge {
        AutopsyEdge {
            txn,
            cause: "backed-out",
            lost_to: (lost_to != NO_PARTNER).then_some(lost_to),
            rule,
            txn_mask,
            other_mask,
            weight,
        }
    }

    pub(crate) fn from_reprocess(
        txn: u64,
        cause: &'static str,
        lost_to: u64,
        rule: &'static str,
        txn_mask: u64,
        other_mask: u64,
    ) -> AutopsyEdge {
        AutopsyEdge {
            txn,
            cause,
            lost_to: (lost_to != NO_PARTNER).then_some(lost_to),
            rule,
            txn_mask,
            other_mask,
            weight: 0,
        }
    }
}

/// One synchronization's assembled autopsy: the per-sync summary plus
/// every conflict edge charged against a transaction that was not saved.
/// Counts match `Metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeAutopsy {
    /// Simulation tick of the sync.
    pub tick: u64,
    /// Mobile node id.
    pub mobile: usize,
    /// Pending tentative transactions offered.
    pub pending: usize,
    /// Transactions saved from reprocessing.
    pub saved: usize,
    /// Transactions backed out and re-executed.
    pub backed_out: usize,
    /// Transactions reprocessed wholesale.
    pub reprocessed: usize,
    /// Precedence clusters the planner saw (0 when no merge ran).
    pub clusters: usize,
    /// Merge-plan span nanoseconds (0 when no plan was computed).
    pub plan_ns: u64,
    /// One edge per backed-out or reprocessed transaction.
    pub edges: Vec<AutopsyEdge>,
}

impl MergeAutopsy {
    /// Edges charged to merge back-outs.
    pub fn backout_edges(&self) -> impl Iterator<Item = &AutopsyEdge> {
        self.edges.iter().filter(|e| e.cause == "backed-out")
    }

    /// Edges charged to wholesale reprocessing.
    pub fn reprocess_edges(&self) -> impl Iterator<Item = &AutopsyEdge> {
        self.edges.iter().filter(|e| e.cause != "backed-out")
    }

    /// Renders the autopsy as one JSON object (stable key order), for
    /// embedding in the HTML report's data blob.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.edges.len() * 120);
        out.push_str("{\"tick\":");
        out.push_str(&self.tick.to_string());
        push_num(&mut out, "mobile", self.mobile as u64);
        push_num(&mut out, "pending", self.pending as u64);
        push_num(&mut out, "saved", self.saved as u64);
        push_num(&mut out, "backed_out", self.backed_out as u64);
        push_num(&mut out, "reprocessed", self.reprocessed as u64);
        push_num(&mut out, "clusters", self.clusters as u64);
        push_num(&mut out, "plan_ns", self.plan_ns);
        out.push_str(",\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"txn\":");
            out.push_str(&e.txn.to_string());
            out.push_str(",\"cause\":\"");
            push_escaped(&mut out, e.cause);
            out.push('"');
            out.push_str(",\"lost_to\":");
            match e.lost_to {
                Some(id) => out.push_str(&id.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"rule\":\"");
            push_escaped(&mut out, e.rule);
            out.push('"');
            push_num(&mut out, "txn_mask", e.txn_mask);
            push_num(&mut out, "other_mask", e.other_mask);
            push_num(&mut out, "weight", e.weight);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn push_num(out: &mut String, key: &str, v: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json_line;

    fn autopsy() -> MergeAutopsy {
        MergeAutopsy {
            tick: 40,
            mobile: 1,
            pending: 5,
            saved: 3,
            backed_out: 1,
            reprocessed: 1,
            clusters: 2,
            plan_ns: 999,
            edges: vec![
                AutopsyEdge::from_backout(7, 2, "mobile-read-base", 0b11, 0b10, 4),
                AutopsyEdge::from_reprocess(9, "merge-failed", NO_PARTNER, "none", 0b100, 0),
            ],
        }
    }

    #[test]
    fn sentinel_partner_becomes_none() {
        let a = autopsy();
        assert_eq!(a.edges[0].lost_to, Some(2));
        assert!(a.edges[0].is_concrete());
        assert_eq!(a.edges[1].lost_to, None);
        assert!(!a.edges[1].is_concrete());
        assert_eq!(a.backout_edges().count(), 1);
        assert_eq!(a.reprocess_edges().count(), 1);
    }

    #[test]
    fn json_rendering_is_valid_and_pinned() {
        let json = autopsy().to_json();
        validate_json_line(&json).unwrap_or_else(|e| panic!("invalid JSON {json}: {e}"));
        assert_eq!(
            json,
            "{\"tick\":40,\"mobile\":1,\"pending\":5,\"saved\":3,\"backed_out\":1,\
             \"reprocessed\":1,\"clusters\":2,\"plan_ns\":999,\"edges\":[\
             {\"txn\":7,\"cause\":\"backed-out\",\"lost_to\":2,\"rule\":\"mobile-read-base\",\
             \"txn_mask\":3,\"other_mask\":2,\"weight\":4},\
             {\"txn\":9,\"cause\":\"merge-failed\",\"lost_to\":null,\"rule\":\"none\",\
             \"txn_mask\":4,\"other_mask\":0,\"weight\":0}]}"
        );
    }
}
