//! Per-layer metrics from the traced run: busy time per layer as a
//! share of the run's wall time, work counts from the trace events and
//! the report, and the sync latency distribution.
//!
//! Busy times are shares (`%`), not milliseconds: a layer a workload
//! never enters reads exactly 0, and a share stays comparable across
//! hosts of different speed. `run.wall_ms` converts them back.

use histmerge_obs::Phase;
use histmerge_replication::SimReport;

use crate::report::Metric;
use crate::spans::{Counts, Tree};

/// The merge plan's wall time split into its sub-steps plus the part no
/// sub-step covers. The parts sum to `plan` by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSplit {
    /// Σ `MergePlan` span durations.
    pub plan: u64,
    /// History execution before step 1.
    pub exec: u64,
    /// Step 1, the precedence graph.
    pub graph: u64,
    /// Step 2, the back-out set.
    pub backout: u64,
    /// Step 3, the rewrite.
    pub rewrite: u64,
    /// Step 4, pruning.
    pub prune: u64,
    /// Step 6's re-execution check inside the plan.
    pub reexec_check: u64,
    /// `MergePlan` self time.
    pub unattributed: u64,
}

impl PlanSplit {
    /// Splits the tree's merge plans.
    pub fn of(tree: &Tree) -> PlanSplit {
        let in_plan = |phase| tree.total(phase, |p| p == Some(Phase::MergePlan));
        PlanSplit {
            plan: tree.total(Phase::MergePlan, |_| true),
            exec: in_plan(Phase::Exec),
            graph: in_plan(Phase::GraphBuild),
            backout: in_plan(Phase::Backout),
            rewrite: in_plan(Phase::Rewrite),
            prune: in_plan(Phase::Prune),
            reexec_check: in_plan(Phase::Reexecute),
            unattributed: tree.self_total(Phase::MergePlan),
        }
    }
}

/// Every per-layer metric of one traced run. `wall_ns` is the traced
/// `run()` wall time, `recovery_ns` the benchmark-timed end-of-run
/// `recover()`.
pub fn per_layer(
    tree: &Tree,
    counts: &Counts,
    report: &SimReport,
    wall_ns: u64,
    recovery_ns: u64,
) -> Vec<Metric> {
    let pct = |ns: u64| 100.0 * ns as f64 / wall_ns.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let total = |phase| tree.total(phase, |_| true);
    let outside_plan = |p: Option<Phase>| p != Some(Phase::MergePlan);
    let m = &report.metrics;
    let split = PlanSplit::of(tree);
    let plans = tree.count(Phase::MergePlan, |_| true) as f64;
    let syncs = tree.durations(Phase::Sync);
    let merged: Vec<f64> =
        m.records.iter().filter(|r| r.reprocessed == 0).map(|r| r.hb_len as f64).collect();
    let attempted = (m.syncs + m.fault.abandoned_sessions) as f64;
    let failed = (m.fault.abandoned_sessions + m.fault.ledger_gaps) as f64;
    let spec = (m.speculative_hits + m.speculative_retries) as f64;
    vec![
        Metric::new("run.wall_ms", "ms", wall_ns as f64 / 1e6),
        Metric::new("run.unattributed_pct", "%", pct(wall_ns.saturating_sub(tree.root_total()))),
        Metric::new("core.merge.plans", "count", plans),
        Metric::new("core.merge.plan_pct", "%", pct(split.plan)),
        Metric::new("core.merge.unattributed_pct", "%", pct(split.unattributed)),
        Metric::new("core.merge.reexec_check_pct", "%", pct(split.reexec_check)),
        Metric::new("core.merge.fastpath_merges", "count", m.cohort.fastpath_merges as f64),
        Metric::new("txn.exec.pct", "%", pct(split.exec)),
        Metric::new("history.precedence.pct", "%", pct(split.graph)),
        Metric::new("history.precedence.edges", "count", counts.edges as f64),
        Metric::new(
            "history.precedence.edges_per_plan",
            "edges/plan",
            ratio(counts.edges as f64, plans),
        ),
        Metric::new("history.backout.pct", "%", pct(split.backout)),
        Metric::new("history.backout.backed_out", "count", counts.backed_out as f64),
        Metric::new("history.backout.affected", "count", counts.affected as f64),
        Metric::new("core.rewrite.pct", "%", pct(split.rewrite)),
        Metric::new("core.rewrite.saved", "count", counts.saved as f64),
        Metric::new("core.rewrite.save_ratio", "ratio", m.save_ratio()),
        Metric::new("core.prune.pct", "%", pct(split.prune)),
        Metric::new("replication.batch.parallel_merge_pct", "%", pct(total(Phase::ParallelMerge))),
        Metric::new("replication.batch.batches", "count", m.batch_sizes.len() as f64),
        Metric::new(
            "replication.batch.batch_max",
            "count",
            m.batch_sizes.iter().max().copied().unwrap_or(0) as f64,
        ),
        Metric::new("replication.batch.spec_hits", "count", m.speculative_hits as f64),
        Metric::new("replication.batch.spec_retries", "count", m.speculative_retries as f64),
        Metric::new(
            "replication.batch.spec_hit_ratio",
            "ratio",
            ratio(m.speculative_hits as f64, spec),
        ),
        Metric::new("replication.batch.wave_rounds", "count", m.cohort.wave_rounds as f64),
        Metric::new("replication.sync.count", "count", syncs.len() as f64),
        Metric::new("replication.sync.p50_us", "us", quantile(&syncs, 0.50) / 1e3),
        Metric::new("replication.sync.p99_us", "us", quantile(&syncs, 0.99) / 1e3),
        Metric::new("replication.sync.unattributed_pct", "%", pct(tree.self_total(Phase::Sync))),
        Metric::new(
            "replication.sync.hb_len_mean",
            "txns",
            ratio(merged.iter().sum(), merged.len() as f64),
        ),
        Metric::new("replication.install.pct", "%", pct(total(Phase::Install))),
        Metric::new(
            "replication.reexecute.pct",
            "%",
            pct(tree.total(Phase::Reexecute, outside_plan)),
        ),
        Metric::new(
            "replication.reexecute.count",
            "count",
            tree.count(Phase::Reexecute, outside_plan) as f64,
        ),
        Metric::new("replication.sched.drain_pct", "%", pct(total(Phase::Scheduler))),
        Metric::new("replication.sched.events_popped", "count", m.sched.events_popped as f64),
        Metric::new("replication.wal.append_pct", "%", pct(total(Phase::WalAppend))),
        Metric::new("replication.wal.records", "count", m.wal.records as f64),
        Metric::new("replication.wal.bytes", "bytes", m.wal.bytes as f64),
        Metric::new(
            "replication.wal.bytes_per_commit",
            "bytes",
            ratio(m.wal.bytes as f64, report.base_commits as f64),
        ),
        Metric::new("replication.wal.checkpoints", "count", m.wal.checkpoints as f64),
        Metric::new("replication.wal.checkpoint_pct", "%", pct(total(Phase::Checkpoint))),
        Metric::new("replication.recovery.shadow_count", "count", m.wal.shadow_recoveries as f64),
        Metric::new("replication.recovery.shadow_pct", "%", pct(total(Phase::Recovery))),
        Metric::new("replication.recovery.final_pct", "%", pct(recovery_ns)),
        Metric::new("replication.session.retries", "count", m.fault.retries as f64),
        Metric::new("replication.session.ledger_resumes", "count", m.fault.ledger_resumes as f64),
        Metric::new(
            "replication.session.duplicate_installs_suppressed",
            "count",
            m.fault.duplicate_installs_suppressed as f64,
        ),
        Metric::new("replication.session.failed_sync_ratio", "ratio", ratio(failed, attempted)),
        Metric::new("replication.admission.shed", "count", m.storm.shed as f64),
        Metric::new("replication.admission.defer_peak", "count", m.storm.deferred_peak as f64),
        Metric::new(
            "replication.admission.defer_wait_p99_ticks",
            "ticks",
            m.defer_wait_quantiles().1 as f64,
        ),
    ]
}

/// Nearest-rank quantile of sorted nanoseconds (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    fn span(phase: Phase, start: u64, end: u64) -> Span {
        Span { phase, start, end }
    }

    #[test]
    fn plan_children_and_unattributed_sum_to_the_plan() {
        let tree = Tree::build(vec![
            span(Phase::Exec, 1, 4),
            span(Phase::GraphBuild, 4, 9),
            span(Phase::Backout, 10, 12),
            span(Phase::Rewrite, 12, 13),
            span(Phase::Prune, 14, 18),
            span(Phase::Reexecute, 19, 21),
            span(Phase::MergePlan, 0, 30),
            span(Phase::Install, 31, 33),
            span(Phase::Reexecute, 34, 40),
            span(Phase::Sync, 0, 41),
        ]);
        let s = PlanSplit::of(&tree);
        assert_eq!(s.plan, 30);
        assert_eq!(s.reexec_check, 2, "only the Reexecute nested in the plan");
        assert_eq!(s.unattributed, 30 - 3 - 5 - 2 - 1 - 4 - 2);
        let parts = s.exec + s.graph + s.backout + s.rewrite + s.prune + s.reexec_check;
        assert_eq!(parts + s.unattributed, s.plan);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let ns: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&ns, 0.5), 50.0);
        assert_eq!(quantile(&ns, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.99), 0.0);
    }
}
