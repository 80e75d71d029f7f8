//! The base tier: master data, the committed base history, its window
//! and the partitions' commit accounting.
//!
//! The paper's base transactions "involve at most one connected-mobile
//! node and may involve several base nodes": master copies are
//! partitioned across always-connected base nodes, and a transaction
//! touching items mastered on several nodes commits with a two-phase
//! protocol. The nodes still produce ONE serializable base history (the
//! paper's lazy-master scheme gives "ACID serializability" at the base
//! tier), so the partitions matter only for *accounting* — per-node load
//! balance and base-to-base coordination messages — which
//! [`BaseNode::commit`] keeps beside the history.

use std::sync::Arc;

use histmerge_history::{BaseEdgeCache, SerialHistory, TxnArena};
use histmerge_txn::{
    DbState, Expr, Fix, Program, ProgramBuilder, Statement, Transaction, TxnId, TxnKind, VarId,
    VarSet,
};

/// Statistics of a partitioned base tier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Commits each node participated in.
    pub per_node_commits: Vec<u64>,
    /// Base-to-base messages spent on two-phase commit: `4 × (p − 1)` per
    /// transaction with `p > 1` participants (prepare, vote, decide, ack).
    pub two_pc_messages: u64,
    /// Transactions that needed more than one participant.
    pub distributed_txns: u64,
}

impl ClusterStats {
    /// Load imbalance: max participation divided by the mean (1.0 =
    /// perfectly balanced). Returns 0.0 before any commit.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.per_node_commits.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.per_node_commits.len() as f64;
        let max = *self.per_node_commits.iter().max().expect("non-empty") as f64;
        max / mean
    }
}

/// The base tier: the master copy of every data item, the committed base
/// history with per-commit write deltas, the current window (Section
/// 2.2, Strategy 2) with its conflict index, and the commit accounting of
/// the `n_nodes` partitions the items are mastered on.
///
/// Items are assigned to partitions by index modulo `n_nodes` (the
/// hash-partitioning a 1999 deployment would use).
#[derive(Debug, Clone)]
pub struct BaseNode {
    master: DbState,
    /// Committed history since the start of the simulation: `(txn,
    /// writes)` per commit, where `writes` holds the committed values of
    /// the transaction's write set — a redo log, the "final written
    /// values" protocol step 5 forwards.
    log: Vec<(TxnId, DbState)>,
    /// The window (epoch) counter: windows started since the run began.
    epoch: u64,
    /// Index into `log` where the current window began, and the master
    /// state at that point — the common start state every merge in this
    /// window uses (Section 2.2, Strategy 2). One allocation per window:
    /// the mobiles' origins, each merge and its augmented `H_m` all share
    /// it.
    epoch_start: usize,
    epoch_state: Arc<DbState>,
    /// The window's conflict index: rule-2 edges, reachability and the
    /// per-item reader/writer lists of a prefix of the window's history,
    /// extended only when a window merge plans
    /// ([`BaseNode::sync_epoch_cache`]) and emptied when a window starts.
    epoch_cache: BaseEdgeCache,
    /// When `true`, commits record only transaction ids in the log — the
    /// per-commit write deltas stay empty. Only the write-ahead log reads
    /// the deltas (merges need ids and the window-start state, Strategy-1
    /// retro-patching needs ids for its write-set mask), so
    /// [`Simulation::new`] sets this exactly when durability is off.
    ///
    /// [`Simulation::new`]: crate::Simulation::new
    lean: bool,
    /// The partitions' accumulated commit accounting.
    stats: ClusterStats,
    /// Per partition, one past the log index of the last commit it
    /// participated in: the accounting's distinct-participant test,
    /// reused by every commit instead of building a participant set.
    last_commit: Vec<usize>,
}

impl BaseNode {
    /// Creates a base tier of `n_nodes` partitions owning `initial` as the
    /// master state. With `lean`, the commit log keeps transaction ids
    /// only (see [`BaseNode::log`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero —
    /// [`SimConfig::validate`](crate::SimConfig::validate) rejects that.
    pub fn new(initial: DbState, n_nodes: usize, lean: bool) -> Self {
        assert!(n_nodes > 0, "a base tier has at least one node");
        BaseNode {
            master: initial.clone(),
            log: Vec::new(),
            epoch: 0,
            epoch_start: 0,
            epoch_state: Arc::new(initial),
            epoch_cache: BaseEdgeCache::new(),
            lean,
            stats: ClusterStats { per_node_commits: vec![0; n_nodes], ..ClusterStats::default() },
            last_commit: vec![0; n_nodes],
        }
    }

    /// Rebuilds a one-partition base node from recovered durable state
    /// (checkpoint snapshot plus replayed WAL records). Recovery-only.
    pub(crate) fn from_parts(
        master: DbState,
        log: Vec<(TxnId, DbState)>,
        epoch: u64,
        epoch_start: usize,
        epoch_state: DbState,
    ) -> Self {
        BaseNode {
            master,
            log,
            epoch,
            epoch_start,
            epoch_state: Arc::new(epoch_state),
            ..BaseNode::new(DbState::new(), 1, false)
        }
    }

    /// Takes the base apart at the end of a run: the master, the committed
    /// log, the window-start state and the commit accounting, moved out
    /// instead of copied.
    pub(crate) fn into_parts(self) -> (DbState, Vec<(TxnId, DbState)>, Arc<DbState>, ClusterStats) {
        (self.master, self.log, self.epoch_state, self.stats)
    }

    /// Re-appends a recovered commit: the durable log stores each commit's
    /// write delta, so replay applies it to the master instead of
    /// re-running the transaction. Recovery-only.
    pub(crate) fn restore_commit(&mut self, txn: TxnId, writes: DbState) {
        self.master.apply(&writes);
        self.log.push((txn, writes));
    }

    /// The current master state.
    pub fn master(&self) -> &DbState {
        &self.master
    }

    /// The master state at the start of the current window.
    pub fn epoch_state(&self) -> &DbState {
        &self.epoch_state
    }

    /// The shared handle to [`BaseNode::epoch_state`]: cloning it shares
    /// the window-start state instead of copying it.
    pub fn shared_epoch_state(&self) -> &Arc<DbState> {
        &self.epoch_state
    }

    /// Number of committed base transactions since the simulation start.
    pub fn committed(&self) -> usize {
        self.log.len()
    }

    /// The committed log since simulation start: `(txn, writes)` per
    /// commit — the durable content a WAL checkpoint snapshots. The write
    /// deltas are empty in a lean log.
    pub fn log(&self) -> &[(TxnId, DbState)] {
        &self.log
    }

    /// The window (epoch) counter: [`BaseNode::start_window`] calls since
    /// the run began.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Index into the committed log where the current window began.
    pub fn epoch_start(&self) -> usize {
        self.epoch_start
    }

    /// Length of the base history since the window start — the `H_b` every
    /// merge in this window runs against.
    pub fn epoch_len(&self) -> usize {
        self.log.len() - self.epoch_start
    }

    /// The full committed history since simulation start.
    pub fn full_history(&self) -> SerialHistory {
        self.log.iter().map(|(t, _)| *t).collect()
    }

    /// The committed transaction ids from log index `from` to the end —
    /// the commits the epoch edge cache has not seen yet. O(suffix),
    /// where materializing [`BaseNode::full_history`] and slicing it was
    /// O(total log) per sync (quadratic over a run).
    pub fn history_suffix(&self, from: usize) -> Vec<TxnId> {
        self.log[from..].iter().map(|(t, _)| *t).collect()
    }

    /// The most recent committed transaction whose footprint conflicts
    /// with `txn`'s (a shared item with at least one write), skipping
    /// `txn` itself and everything in `exclude`. Telemetry-only: the
    /// merge autopsy uses this to name the concrete base commit a
    /// reprocessed tentative transaction lost to. Scans newest-first so
    /// the partner named is the latest offender.
    pub fn latest_conflicting_commit(
        &self,
        arena: &TxnArena,
        txn: TxnId,
        exclude: &std::collections::BTreeSet<TxnId>,
    ) -> Option<TxnId> {
        self.log
            .iter()
            .rev()
            .map(|(t, _)| *t)
            .find(|&t| t != txn && !exclude.contains(&t) && arena.conflicts(txn, t))
    }

    /// Executes and commits a base transaction on the master: the
    /// transaction's write delta is applied in place, so a commit costs
    /// O(footprint), not a copy of the master.
    ///
    /// # Panics
    ///
    /// Panics if the transaction cannot execute — base transactions run
    /// against the always-consistent master, so failure indicates a
    /// harness bug.
    pub fn commit(&mut self, arena: &TxnArena, id: TxnId) {
        let txn = arena.get(id);
        let delta =
            txn.execute_delta(&self.master, &Fix::empty()).expect("base transaction executes");
        self.master.apply_writes(&delta.writes);
        let writes = if self.lean { DbState::new() } else { self.master.project(txn.writeset()) };
        self.account(txn.footprint());
        self.log.push((id, writes));
    }

    /// Accounts one commit to every partition its footprint touches, and
    /// its two-phase-commit messages when there is more than one. Stamps
    /// each partition with the commit instead of collecting a participant
    /// set, so it allocates nothing.
    fn account(&mut self, footprint: &VarSet) {
        let stamp = self.log.len() + 1;
        let mut participants = 0u64;
        for var in footprint.iter() {
            let node = self.node_of(var);
            if self.last_commit[node] != stamp {
                self.last_commit[node] = stamp;
                self.stats.per_node_commits[node] += 1;
                participants += 1;
            }
        }
        if participants > 1 {
            self.stats.distributed_txns += 1;
            self.stats.two_pc_messages += 4 * (participants - 1);
        }
    }

    /// The partition mastering `var`.
    pub fn node_of(&self, var: VarId) -> usize {
        var.index() as usize % self.last_commit.len()
    }

    /// Number of partitions.
    pub fn n_nodes(&self) -> usize {
        self.last_commit.len()
    }

    /// The partitions' accumulated commit accounting.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Installs forwarded updates (protocol step 5) as a single *install*
    /// base transaction that reads and overwrites the forwarded items, and
    /// commits it. Returns the install transaction's id, or `None` when
    /// every forwarded value already matches the master (a no-op install
    /// would only manufacture conflicts for later merges in the window,
    /// and costs no accounting). The install touches every partition
    /// mastering a changed item — a merge's single wide transaction,
    /// versus reprocessing's many narrow ones.
    pub fn install_updates(&mut self, arena: &mut TxnArena, forwarded: &DbState) -> Option<TxnId> {
        let changed: DbState = forwarded
            .iter()
            .filter(|(var, value)| self.master.try_get(*var) != Some(*value))
            .collect();
        if changed.is_empty() {
            return None;
        }
        let program = install_program(&changed);
        let id = arena.alloc(|id| {
            Transaction::new(
                id,
                format!("install@{}", self.log.len()),
                TxnKind::Base,
                program,
                vec![],
            )
        });
        self.commit(arena, id);
        Some(id)
    }

    /// Re-registers a backed-out tentative transaction as a base
    /// transaction (protocol step 6 / reprocessing) and commits it.
    /// Returns the new base transaction's id.
    pub fn reexecute(&mut self, arena: &mut TxnArena, tentative: TxnId) -> TxnId {
        let source = arena.get(tentative).clone();
        let id = arena.alloc(|id| source.with_id(id).with_kind(TxnKind::Base));
        self.commit(arena, id);
        id
    }

    /// Starts a new window: the current master becomes the shared original
    /// state for every tentative history begun in this window
    /// (Section 2.2's periodic resynchronization).
    pub fn start_window(&mut self) {
        self.epoch += 1;
        self.epoch_start = self.log.len();
        self.epoch_state = Arc::new(self.master.clone());
        self.epoch_cache.clear();
    }

    /// Brings the window's conflict index up to date with the window's
    /// history and returns how many commits it appended. O(appended): the
    /// index already covers a prefix of the window, so only the log
    /// suffix it has not seen is walked. Called only when a window merge
    /// plans, so runs that never merge never build the index. Afterwards
    /// [`BaseNode::epoch_cache`] holds exactly the window's history.
    pub(crate) fn sync_epoch_cache(&mut self, arena: &TxnArena) -> usize {
        let from = self.epoch_start + self.epoch_cache.len();
        self.epoch_cache.extend(arena, self.log[from..].iter().map(|(t, _)| *t));
        self.log.len() - from
    }

    /// The window's conflict index, covering the window's history up to
    /// the last [`BaseNode::sync_epoch_cache`]. Its
    /// [`history`](BaseEdgeCache::history) is the `H_b` a window merge
    /// borrows.
    pub(crate) fn epoch_cache(&self) -> &BaseEdgeCache {
        &self.epoch_cache
    }

    /// Strategy 1 support: patches the master with the given updates,
    /// *except* items base transactions from `from_index` onward wrote
    /// themselves. This models retroactively inserting merged tentative
    /// updates at their serialization point, which is exactly what
    /// invalidates other mobiles' snapshots (Section 2.2's argument
    /// against Strategy 1). The log is left alone: each entry holds only
    /// its own transaction's writes, and those items are all masked.
    ///
    /// Fails when `from_index` lies beyond the committed log: such an
    /// index names a serialization point that does not exist, and patching
    /// the master anyway would change it without any matching history
    /// entry.
    pub fn retro_patch(
        &mut self,
        arena: &TxnArena,
        from_index: usize,
        updates: &DbState,
    ) -> Result<(), RetroPatchError> {
        if from_index > self.log.len() {
            return Err(RetroPatchError { from_index, log_len: self.log.len() });
        }
        let mut masked = VarSet::new();
        for (txn, _) in &self.log[from_index..] {
            masked.extend_from(arena.get(*txn).writeset());
        }
        for (var, value) in updates.iter() {
            if !masked.contains(var) {
                self.master.set(var, value);
            }
        }
        Ok(())
    }
}

/// A retroactive patch named a serialization point beyond the committed
/// log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetroPatchError {
    /// The out-of-range index the patch asked for.
    pub from_index: usize,
    /// The committed log length at the time of the call.
    pub log_len: usize,
}

impl std::fmt::Display for RetroPatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retro-patch from index {} exceeds the committed log (length {})",
            self.from_index, self.log_len
        )
    }
}

impl std::error::Error for RetroPatchError {}

/// Builds the install program for forwarded updates.
///
/// The install READS every item before overwriting it. This is not
/// cosmetic: protocol step 5's forwarding rule ("we only need the value of
/// d in the final state of the repaired history") is only sound while the
/// base history contains no blind writes — a blind-writing install would
/// let a later mobile's transaction that merely *reads* an installed item
/// serialize before the install without forming a cycle, and that mobile's
/// forwarded values would then silently clobber the newer install.
/// Reading first turns any write-write overlap into a 2-cycle, forcing the
/// conflicting tentative transaction to be backed out instead.
fn install_program(forwarded: &DbState) -> Arc<Program> {
    let mut builder = ProgramBuilder::new("install");
    for (var, _) in forwarded.iter() {
        builder = builder.read(var);
    }
    for (var, value) in forwarded.iter() {
        builder = builder.statement(Statement::Update { target: var, expr: Expr::konst(value) });
    }
    Arc::new(builder.build().expect("install program is well formed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{Expr, VarId};

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn inc(arena: &mut TxnArena, name: &str, var: u32, k: i64) -> TxnId {
        let p: Arc<Program> = Arc::new(
            ProgramBuilder::new(name)
                .read(v(var))
                .update(v(var), Expr::var(v(var)) + Expr::konst(k))
                .build()
                .unwrap(),
        );
        arena.alloc(|id| Transaction::new(id, name, TxnKind::Base, p, vec![]))
    }

    #[test]
    fn commit_advances_master_and_log() {
        let mut arena = TxnArena::new();
        let mut base = BaseNode::new(DbState::uniform(2, 0), 1, false);
        let t = inc(&mut arena, "t", 0, 5);
        base.commit(&arena, t);
        assert_eq!(base.master().get(v(0)), 5);
        assert_eq!(base.committed(), 1);
        assert_eq!(base.log()[0].1, [(v(0), 5)].into_iter().collect(), "log keeps the write delta");
        assert_eq!(base.full_history().order(), &[t]);
    }

    #[test]
    fn delta_commit_matches_full_execution() {
        // The in-place delta commit leaves the master and the logged write
        // delta exactly where executing against a copy of the master puts
        // them: `execute(..).after` and its write-set projection.
        let mut arena = TxnArena::new();
        let mut base = BaseNode::new(DbState::uniform(4, 3), 1, false);
        let guarded: Arc<Program> = Arc::new(
            ProgramBuilder::new("guarded")
                .read(v(0))
                .read(v(1))
                .read(v(2))
                .branch(
                    Expr::var(v(0)).gt(Expr::konst(3)),
                    |b| b.update(v(1), Expr::var(v(1)) + Expr::var(v(2))),
                    |b| b.update(v(2), Expr::var(v(2)) - Expr::konst(1)),
                )
                .build()
                .unwrap(),
        );
        let g = arena.alloc(|id| Transaction::new(id, "g", TxnKind::Base, guarded, vec![]));
        let ids = [inc(&mut arena, "a", 0, 5), g, inc(&mut arena, "b", 3, -2), g];
        for id in ids {
            let expected = arena.get(id).execute(base.master(), &Fix::empty()).unwrap();
            base.commit(&arena, id);
            assert_eq!(base.master(), &expected.after, "master after {id}");
            let delta = &base.log().last().unwrap().1;
            assert_eq!(delta, &expected.after.project(arena.get(id).writeset()), "delta of {id}");
        }
    }

    #[test]
    fn lean_log_keeps_ids_but_no_write_deltas() {
        let mut arena = TxnArena::new();
        let mut base = BaseNode::new(DbState::uniform(2, 0), 1, true);
        let t = inc(&mut arena, "t", 0, 5);
        base.commit(&arena, t);
        assert_eq!(base.master().get(v(0)), 5, "master still advances");
        assert_eq!(base.full_history().order(), &[t]);
        assert!(base.log()[0].1.is_empty(), "lean log records no write delta");
        let t2 = inc(&mut arena, "u", 1, 2);
        base.commit(&arena, t2);
        assert_eq!(base.history_suffix(1), vec![t2]);
        assert_eq!(base.history_suffix(0), base.full_history().order().to_vec());
        assert_eq!(base.history_suffix(2), Vec::new());
    }

    #[test]
    fn windows_reset_epoch() {
        let mut arena = TxnArena::new();
        let mut base = BaseNode::new(DbState::uniform(1, 0), 1, false);
        let t1 = inc(&mut arena, "a", 0, 1);
        base.commit(&arena, t1);
        assert_eq!(base.epoch_len(), 1);
        base.start_window();
        assert_eq!(base.epoch_len(), 0);
        assert_eq!(base.epoch_state().get(v(0)), 1);
        assert!(std::ptr::eq(base.epoch_state(), &**base.shared_epoch_state()));
        let t2 = inc(&mut arena, "b", 0, 1);
        base.commit(&arena, t2);
        assert_eq!(base.history_suffix(base.epoch_start()), vec![t2]);
        assert_eq!(base.committed(), 2);
    }

    #[test]
    fn start_window_resets_the_epoch_index() {
        // A window start bumps the counter and empties the conflict
        // index; the next lazy sync covers exactly the new window.
        let mut arena = TxnArena::new();
        let mut base = BaseNode::new(DbState::uniform(2, 0), 1, false);
        let t1 = inc(&mut arena, "a", 0, 1);
        base.commit(&arena, t1);
        assert_eq!(base.epoch(), 0);
        assert!(base.epoch_cache().is_empty(), "the index is built only on demand");
        assert_eq!(base.sync_epoch_cache(&arena), 1);
        assert_eq!(base.epoch_cache().history().order(), &[t1]);
        assert_eq!(base.sync_epoch_cache(&arena), 0, "an up-to-date index appends nothing");

        base.start_window();
        assert_eq!(base.epoch(), 1);
        assert!(base.epoch_cache().is_empty());
        let t2 = inc(&mut arena, "b", 0, 1);
        base.commit(&arena, t2);
        let t3 = inc(&mut arena, "c", 1, 1);
        base.commit(&arena, t3);
        assert_eq!(base.sync_epoch_cache(&arena), 2);
        let window = base.history_suffix(base.epoch_start());
        assert_eq!(base.epoch_cache().history().order(), &window[..]);
        assert_eq!(window, vec![t2, t3]);
        assert_eq!(base.epoch_cache().len(), base.epoch_len());
    }

    #[test]
    fn install_blind_writes_values() {
        let mut arena = TxnArena::new();
        let mut base = BaseNode::new(DbState::uniform(3, 0), 1, false);
        let updates: DbState = [(v(0), 10), (v(2), 30)].into_iter().collect();
        let id = base.install_updates(&mut arena, &updates).expect("values changed");
        assert_eq!(base.master().get(v(0)), 10);
        assert_eq!(base.master().get(v(1)), 0);
        assert_eq!(base.master().get(v(2)), 30);
        assert_eq!(arena.get(id).kind(), TxnKind::Base);
        // Re-installing identical values is a no-op (no new base txn).
        assert!(base.install_updates(&mut arena, &updates).is_none());
        // A mixed patch installs only the changed item.
        let mixed: DbState = [(v(0), 10), (v(2), 99)].into_iter().collect();
        let id2 = base.install_updates(&mut arena, &mixed).expect("one value changed");
        assert_eq!(arena.get(id2).writeset().len(), 1);
        assert_eq!(base.master().get(v(2)), 99);
        // Installs must NOT blind-write (forwarding soundness; see
        // `install_program`).
        assert!(!arena.get(id).program().has_blind_writes());
        assert_eq!(arena.get(id).readset(), arena.get(id).writeset());
    }

    #[test]
    fn reexecute_rebrands_as_base() {
        let mut arena = TxnArena::new();
        let mut base = BaseNode::new(DbState::uniform(1, 0), 1, false);
        let p: Arc<Program> = Arc::new(
            ProgramBuilder::new("m")
                .read(v(0))
                .update(v(0), Expr::var(v(0)) + Expr::konst(7))
                .build()
                .unwrap(),
        );
        let tentative = arena.alloc(|id| Transaction::new(id, "m", TxnKind::Tentative, p, vec![]));
        let reexec = base.reexecute(&mut arena, tentative);
        assert_ne!(reexec, tentative);
        assert_eq!(arena.get(reexec).kind(), TxnKind::Base);
        assert_eq!(arena.get(tentative).kind(), TxnKind::Tentative);
        assert_eq!(base.master().get(v(0)), 7);
    }

    #[test]
    fn retro_patch_skips_overwritten_items() {
        let mut arena = TxnArena::new();
        let mut base = BaseNode::new(DbState::uniform(3, 0), 1, false);
        let t1 = inc(&mut arena, "a", 0, 1); // writes d0
        base.commit(&arena, t1);
        let t2 = inc(&mut arena, "b", 1, 1); // writes d1
        base.commit(&arena, t2);
        let log_before = base.log().to_vec();
        // Patch from index 1: only t2's d1 is masked, so d0 and d2 take
        // the patched values while d1 keeps t2's write.
        let updates: DbState = [(v(0), 100), (v(1), 50), (v(2), 7)].into_iter().collect();
        base.retro_patch(&arena, 1, &updates).unwrap();
        assert_eq!(base.log(), &log_before[..], "log entries hold only their own writes");
        assert_eq!(base.master().get(v(0)), 100);
        assert_eq!(base.master().get(v(1)), 1); // masked by t2's write
        assert_eq!(base.master().get(v(2)), 7);
        // From index 0, t1's d0 is masked as well.
        let updates: DbState = [(v(0), 200), (v(1), 60), (v(2), 8)].into_iter().collect();
        base.retro_patch(&arena, 0, &updates).unwrap();
        assert_eq!(base.log(), &log_before[..]);
        assert_eq!(base.master().get(v(0)), 100);
        assert_eq!(base.master().get(v(1)), 1);
        assert_eq!(base.master().get(v(2)), 8);
    }

    #[test]
    fn retro_patch_rejects_out_of_range_index() {
        // Regression: an index past the log used to skip the masking loop
        // entirely and patch the master anyway — a silent no-op on the
        // history but a real (untracked) master mutation.
        let mut arena = TxnArena::new();
        let mut base = BaseNode::new(DbState::uniform(2, 0), 1, false);
        let t = inc(&mut arena, "a", 0, 1);
        base.commit(&arena, t);
        let log_before = base.log().to_vec();
        let updates: DbState = [(v(1), 50)].into_iter().collect();
        let err = base.retro_patch(&arena, 2, &updates).unwrap_err();
        assert_eq!(err.from_index, 2);
        assert_eq!(err.log_len, 1);
        assert!(err.to_string().contains("exceeds the committed log"));
        // Nothing changed — neither the log nor the master.
        assert_eq!(base.master().get(v(1)), 0);
        assert_eq!(base.log(), &log_before[..]);
        // The boundary index (== log length) is legal: it masks nothing
        // and legitimately extends the final state.
        base.retro_patch(&arena, 1, &updates).unwrap();
        assert_eq!(base.master().get(v(1)), 50);
        assert_eq!(base.log(), &log_before[..]);
    }

    fn txn_on(arena: &mut TxnArena, vars: &[u32]) -> TxnId {
        let mut b = ProgramBuilder::new("t");
        for i in vars {
            b = b.read(v(*i));
        }
        for i in vars {
            b = b.update(v(*i), Expr::var(v(*i)) + Expr::konst(1));
        }
        let p: Arc<Program> = Arc::new(b.build().unwrap());
        arena.alloc(|id| Transaction::new(id, "t", TxnKind::Base, p, vec![]))
    }

    #[test]
    fn partitioning_is_modular() {
        let c = BaseNode::new(DbState::uniform(8, 0), 3, false);
        assert_eq!(c.node_of(v(0)), 0);
        assert_eq!(c.node_of(v(4)), 1);
        assert_eq!(c.node_of(v(5)), 2);
        assert_eq!(c.n_nodes(), 3);
    }

    #[test]
    fn single_partition_txn_needs_no_2pc() {
        let mut arena = TxnArena::new();
        let mut c = BaseNode::new(DbState::uniform(8, 0), 4, false);
        let t = txn_on(&mut arena, &[0, 4]); // both on node 0
        c.commit(&arena, t);
        assert_eq!(c.stats().two_pc_messages, 0);
        assert_eq!(c.stats().distributed_txns, 0);
        assert_eq!(c.stats().per_node_commits, vec![1, 0, 0, 0]);
        assert_eq!(c.master().get(v(0)), 1);
    }

    #[test]
    fn distributed_txn_pays_2pc() {
        let mut arena = TxnArena::new();
        let mut c = BaseNode::new(DbState::uniform(8, 0), 4, false);
        let t = txn_on(&mut arena, &[0, 1, 2]); // nodes 0, 1, 2
        c.commit(&arena, t);
        assert_eq!(c.stats().per_node_commits, vec![1, 1, 1, 0]);
        assert_eq!(c.stats().distributed_txns, 1);
        assert_eq!(c.stats().two_pc_messages, 8); // 4 × (3 − 1)
    }

    #[test]
    fn install_is_one_wide_transaction() {
        let mut arena = TxnArena::new();
        let mut c = BaseNode::new(DbState::uniform(8, 0), 4, false);
        let forwarded: DbState = [(v(0), 5), (v(1), 6), (v(2), 7), (v(3), 8)].into_iter().collect();
        c.install_updates(&mut arena, &forwarded);
        assert_eq!(c.stats().distributed_txns, 1);
        assert_eq!(c.stats().two_pc_messages, 12); // 4 × (4 − 1)
        assert_eq!(c.master().get(v(3)), 8);
        // Reprocessing the same items as four narrow transactions instead:
        let mut c2 = BaseNode::new(DbState::uniform(8, 0), 4, false);
        for i in 0..4u32 {
            let t = txn_on(&mut arena, &[i]);
            c2.reexecute(&mut arena, t);
        }
        assert_eq!(c2.stats().two_pc_messages, 0, "narrow txns never coordinate");
        assert_eq!(c2.stats().per_node_commits, vec![1, 1, 1, 1]);
    }

    #[test]
    fn imbalance_measured() {
        let mut arena = TxnArena::new();
        let mut c = BaseNode::new(DbState::uniform(8, 0), 2, false);
        assert_eq!(c.stats().imbalance(), 0.0);
        for _ in 0..3 {
            let t = txn_on(&mut arena, &[0]); // always node 0
            c.commit(&arena, t);
        }
        // node 0: 3 commits, node 1: 0 → max/mean = 3 / 1.5 = 2.
        assert!((c.stats().imbalance() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_node_cluster_degenerates_to_base_node() {
        let mut arena = TxnArena::new();
        let mut c = BaseNode::new(DbState::uniform(4, 0), 1, false);
        let t = txn_on(&mut arena, &[0, 1, 2, 3]);
        c.commit(&arena, t);
        assert_eq!(c.stats().two_pc_messages, 0);
        assert_eq!(c.stats().imbalance(), 1.0);
    }
}
