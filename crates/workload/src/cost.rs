//! The cost model of Section 7.1.
//!
//! The paper compares the merging protocol against plain two-tier
//! reprocessing by decomposing both into (1) communication between mobile
//! and base nodes, (2) computing at the mobile node, and (3) computing at
//! the base node (CPU and forced-log I/O). This module renders that
//! decomposition executable: experiments plug in measured aggregates
//! (history lengths, saved counts, read/write set sizes, precedence-graph
//! size) and obtain comparable cost reports.
//!
//! Absolute constants are configurable and deliberately unit-free; the
//! experiments report *shapes* — who wins as `|SAV|` grows, where the
//! crossover sits — not wall-clock times.

/// Tunable cost constants. Defaults are chosen to reflect the paper's
/// qualitative discussion: per-transaction query processing and forced-log
/// I/O dominate base-node costs, communication is per-message plus
/// per-byte, and mobile-side graph/rewrite work is cheap per entry but
/// quadratic in history length for rewriting.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Fixed cost per message exchanged between a mobile and a base node.
    pub cost_per_message: f64,
    /// Cost per byte transmitted.
    pub cost_per_byte: f64,
    /// Bytes to ship one transaction's code and input arguments
    /// (reprocessing; canned systems may send a type tag instead — lower
    /// this constant to model that).
    pub bytes_txn_code: u64,
    /// Bytes to ship one transaction's execution result back.
    pub bytes_result: u64,
    /// Bytes per read/write-set entry shipped for graph construction.
    pub bytes_rw_entry: u64,
    /// Bytes per forwarded update entry (item id + value).
    pub bytes_update_entry: u64,
    /// Bytes per precedence-graph edge of `G(H_m)` shipped to the base.
    pub bytes_graph_edge: u64,
    /// Base CPU: transforming one tentative transaction into a base
    /// transaction.
    pub base_transform_per_txn: f64,
    /// Base CPU: query processing (parse, validate, optimize, execute) per
    /// statement.
    pub base_query_per_stmt: f64,
    /// Base CPU: concurrency control per transaction.
    pub base_cc_per_txn: f64,
    /// Base I/O: one forced log write.
    pub base_io_force: f64,
    /// Base CPU: building `G(H_m, H_b)` per log entry scanned.
    pub base_graph_per_entry: f64,
    /// Base CPU: computing `B`, per precedence-graph edge — Davidson's
    /// back-out strategies (two-cycle detection, greedy cycle breaking)
    /// are near-linear in the number of conflict edges.
    pub base_backout_per_edge: f64,
    /// Mobile CPU: building `G(H_m)` per log entry.
    pub mobile_graph_per_entry: f64,
    /// Mobile CPU: rewriting, per transaction pair (Algorithms 1 and 2 are
    /// `O(n^2)`).
    pub mobile_rewrite_per_pair: f64,
    /// Mobile CPU: pruning, per pruned transaction.
    pub mobile_prune_per_txn: f64,
    /// Mobile CPU: informing the user about one re-executed transaction.
    pub mobile_inform_per_txn: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cost_per_message: 50.0,
            cost_per_byte: 0.01,
            bytes_txn_code: 512,
            bytes_result: 64,
            bytes_rw_entry: 8,
            bytes_update_entry: 16,
            bytes_graph_edge: 8,
            base_transform_per_txn: 5.0,
            base_query_per_stmt: 10.0,
            base_cc_per_txn: 3.0,
            base_io_force: 20.0,
            base_graph_per_entry: 0.5,
            base_backout_per_edge: 0.05,
            mobile_graph_per_entry: 0.5,
            mobile_rewrite_per_pair: 0.05,
            mobile_prune_per_txn: 2.0,
            mobile_inform_per_txn: 0.5,
        }
    }
}

/// A cost report, decomposed as in Section 7.1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostReport {
    /// Communication between the mobile node and the base nodes.
    pub comm: f64,
    /// CPU at the base node.
    pub base_cpu: f64,
    /// Forced-log I/O at the base node.
    pub base_io: f64,
    /// CPU at the mobile node.
    pub mobile_cpu: f64,
}

impl CostReport {
    /// Total cost across all components.
    pub fn total(&self) -> f64 {
        self.comm + self.base_cpu + self.base_io + self.mobile_cpu
    }

    /// Component-wise sum.
    pub fn add(&self, other: &CostReport) -> CostReport {
        CostReport {
            comm: self.comm + other.comm,
            base_cpu: self.base_cpu + other.base_cpu,
            base_io: self.base_io + other.base_io,
            mobile_cpu: self.mobile_cpu + other.mobile_cpu,
        }
    }
}

/// Aggregates describing a batch of transactions to reprocess the old way.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReprocessStats {
    /// Number of transactions re-executed at the base.
    pub n_txns: usize,
    /// Total statements across those transactions.
    pub total_stmts: usize,
}

/// Cost of reprocessing `stats.n_txns` tentative transactions under plain
/// two-tier replication: ship code and arguments up, execute each as a
/// fresh base transaction (query processing, concurrency control, one
/// forced log write per commit), ship results back, inform the user.
pub fn reprocessing_cost(p: &CostParams, stats: &ReprocessStats) -> CostReport {
    let n = stats.n_txns as f64;
    if stats.n_txns == 0 {
        return CostReport::default();
    }
    let bytes = n * (p.bytes_txn_code + p.bytes_result) as f64;
    CostReport {
        comm: 2.0 * p.cost_per_message + bytes * p.cost_per_byte,
        base_cpu: n * (p.base_transform_per_txn + p.base_cc_per_txn)
            + stats.total_stmts as f64 * p.base_query_per_stmt,
        base_io: n * p.base_io_force,
        mobile_cpu: n * p.mobile_inform_per_txn,
    }
}

/// Aggregates describing one merge.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeStats {
    /// Tentative history length.
    pub hm_len: usize,
    /// Base history length (the sub-history since the common start state).
    pub hb_len: usize,
    /// Total read/write-set entries across `H_m` (shipped for graph
    /// construction).
    pub rw_entries: usize,
    /// Edges of the mobile-side precedence graph `G(H_m)` (shipped to the
    /// base for graph construction).
    pub graph_edges: usize,
    /// Edges of the full precedence graph `G(H_m, H_b)` (back-out input).
    pub full_graph_edges: usize,
    /// Transactions saved by the rewrite.
    pub n_saved: usize,
    /// Transactions backed out (will be reprocessed the old way).
    pub n_backed_out: usize,
    /// Total statements across backed-out transactions.
    pub backed_out_stmts: usize,
    /// Distinct items whose final values are forwarded (step 5).
    pub forwarded_items: usize,
}

/// Cost of the merging protocol (Section 2.1 steps 1–6) for one merge.
///
/// Includes the old-way reprocessing of the backed-out transactions
/// (step 6), so a merge that saves nothing costs strictly more than plain
/// reprocessing — matching the paper's conclusion that "when the size of
/// SAV is very small the merging protocol will probably lose".
pub fn merging_cost(p: &CostParams, stats: &MergeStats) -> CostReport {
    // Step 1 communication: ship read/write sets and G(H_m); step 2 reply:
    // ship B back; step 5: forward updates (one message, one forced log).
    let up_bytes = stats.rw_entries as f64 * p.bytes_rw_entry as f64
        + stats.graph_edges as f64 * p.bytes_graph_edge as f64;
    let b_bytes = stats.n_backed_out as f64 * p.bytes_rw_entry as f64;
    let fwd_bytes = stats.forwarded_items as f64 * p.bytes_update_entry as f64;
    let comm = 3.0 * p.cost_per_message + (up_bytes + b_bytes + fwd_bytes) * p.cost_per_byte;

    // Base: build G(H_m, H_b) from the logs, compute B, install the
    // forwarded updates within a single transaction (one forced log write).
    let nodes = (stats.hm_len + stats.hb_len) as f64;
    let base_cpu = nodes * p.base_graph_per_entry
        + stats.full_graph_edges as f64 * p.base_backout_per_edge
        + stats.forwarded_items as f64 * p.base_query_per_stmt
        + p.base_cc_per_txn;
    let base_io = p.base_io_force;

    // Mobile: build G(H_m), rewrite (O(n^2)), prune the suffix.
    let n = stats.hm_len as f64;
    let mobile_cpu = n * p.mobile_graph_per_entry
        + n * n * p.mobile_rewrite_per_pair
        + stats.n_backed_out as f64 * p.mobile_prune_per_txn;

    let merge = CostReport { comm, base_cpu, base_io, mobile_cpu };
    // Step 6: reprocess the backed-out transactions the old way.
    let reexec = reprocessing_cost(
        p,
        &ReprocessStats { n_txns: stats.n_backed_out, total_stmts: stats.backed_out_stmts },
    );
    merge.add(&reexec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_transactions_cost_nothing_to_reprocess() {
        let p = CostParams::default();
        let r = reprocessing_cost(&p, &ReprocessStats::default());
        assert_eq!(r.total(), 0.0);
    }

    #[test]
    fn reprocessing_scales_linearly() {
        let p = CostParams::default();
        let one = reprocessing_cost(&p, &ReprocessStats { n_txns: 1, total_stmts: 3 });
        let ten = reprocessing_cost(&p, &ReprocessStats { n_txns: 10, total_stmts: 30 });
        // Linear in everything except the fixed two messages.
        let fixed = 2.0 * p.cost_per_message;
        assert!((ten.total() - fixed - 10.0 * (one.total() - fixed)).abs() < 1e-9);
        assert!(ten.base_io > one.base_io);
    }

    #[test]
    fn merging_wins_when_sav_is_large() {
        // 100 tentative transactions, all saved: merging pays one forced
        // log write instead of 100.
        let p = CostParams::default();
        let merge = merging_cost(
            &p,
            &MergeStats {
                hm_len: 100,
                hb_len: 50,
                rw_entries: 400,
                graph_edges: 300,
                full_graph_edges: 900,
                n_saved: 100,
                n_backed_out: 0,
                backed_out_stmts: 0,
                forwarded_items: 120,
            },
        );
        let reprocess = reprocessing_cost(&p, &ReprocessStats { n_txns: 100, total_stmts: 300 });
        assert!(
            merge.total() < reprocess.total(),
            "merge {} !< reprocess {}",
            merge.total(),
            reprocess.total()
        );
        assert!(merge.base_io < reprocess.base_io);
    }

    #[test]
    fn merging_loses_when_sav_is_empty() {
        // Everything backed out: the merge machinery is pure overhead on
        // top of the reprocessing it still has to do.
        let p = CostParams::default();
        let merge = merging_cost(
            &p,
            &MergeStats {
                hm_len: 20,
                hb_len: 50,
                rw_entries: 80,
                graph_edges: 60,
                full_graph_edges: 400,
                n_saved: 0,
                n_backed_out: 20,
                backed_out_stmts: 60,
                forwarded_items: 0,
            },
        );
        let reprocess = reprocessing_cost(&p, &ReprocessStats { n_txns: 20, total_stmts: 60 });
        assert!(merge.total() > reprocess.total());
    }

    #[test]
    fn report_arithmetic() {
        let a = CostReport { comm: 1.0, base_cpu: 2.0, base_io: 3.0, mobile_cpu: 4.0 };
        let b = CostReport { comm: 10.0, ..Default::default() };
        let c = a.add(&b);
        assert_eq!(c.comm, 11.0);
        assert_eq!(c.total(), 20.0);
        assert_eq!(a.total(), 10.0);
    }

    #[test]
    fn default_params_are_positive() {
        let p = CostParams::default();
        assert!(p.cost_per_message > 0.0);
        assert!(p.base_io_force > 0.0);
        assert!(p.base_backout_per_edge > 0.0);
        assert!(p.mobile_rewrite_per_pair > 0.0);
    }
}
