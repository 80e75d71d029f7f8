//! The mobile tier: disconnected nodes running tentative transactions.

use std::collections::BTreeMap;
use std::sync::Arc;

use histmerge_history::{SerialHistory, TxnArena};
use histmerge_txn::{DbState, Fix, StateRead, TxnId, Value, VarId};

use crate::session::UnackedSession;

/// A mobile node: a local tentative copy of the database plus the tentative
/// history accumulated since the node last synchronized.
///
/// The local copy is stored compactly: a shared, immutable origin snapshot
/// (under Strategy 2, every mobile in a window points at the *same*
/// window-start state) plus a sparse patch of the items the node's own
/// tentative transactions wrote. A fleet of a million mostly-idle mobiles
/// costs a million `Arc` pointers and their (tiny) write patches, not a
/// million full database clones.
#[derive(Debug, Clone)]
pub struct MobileNode {
    /// Stable identifier (index in the simulation).
    id: usize,
    /// The original state the current tentative history began from,
    /// shared with the base tier (and, under Strategy 2, with every other
    /// mobile resynchronized in the same window).
    origin: Arc<DbState>,
    /// Writes accumulated by the tentative history since `origin`: the
    /// local tentative state is `origin` overlaid with this patch.
    patch: BTreeMap<VarId, Value>,
    /// The tentative history since the last synchronization.
    history: SerialHistory,
    /// For Strategy 1: the base-log index the origin snapshot was taken at.
    origin_index: usize,
    /// Simulation tick of the next reconnection.
    next_connect: u64,
    /// Next session sequence number (session path).
    next_seq: u64,
    /// A session that performed its offer but was never acknowledged; its
    /// fate is resolved against the base's ledger at the next reconnection.
    unacked: Option<UnackedSession>,
    /// `true` after a recovered session trimmed the committed prefix from
    /// the persisted log: the remaining suffix ran from a state that
    /// already included committed work, so it is unmergeable and must be
    /// reprocessed. Cleared by the next [`MobileNode::resync`].
    dirty_origin: bool,
}

/// Read view of a mobile's tentative state: its write patch over the
/// shared origin snapshot.
struct PatchView<'a> {
    origin: &'a DbState,
    patch: &'a BTreeMap<VarId, Value>,
}

impl StateRead for PatchView<'_> {
    fn read(&self, var: VarId) -> Option<Value> {
        self.patch.get(&var).copied().or_else(|| self.origin.try_get(var))
    }
}

impl MobileNode {
    /// Creates a mobile node with the given (shared) origin snapshot.
    pub fn new(id: usize, origin: Arc<DbState>, origin_index: usize, next_connect: u64) -> Self {
        MobileNode {
            id,
            origin,
            patch: BTreeMap::new(),
            history: SerialHistory::new(),
            origin_index,
            next_connect,
            next_seq: 0,
            unacked: None,
            dirty_origin: false,
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The original state of the current tentative history.
    pub fn origin(&self) -> &DbState {
        &self.origin
    }

    /// The base-log index the origin was snapshotted at (Strategy 1).
    pub fn origin_index(&self) -> usize {
        self.origin_index
    }

    /// The current tentative state, materialized (origin plus the node's
    /// write patch). Test/diagnostic accessor — the hot path never needs
    /// the full state.
    pub fn tentative_state(&self) -> DbState {
        let mut state = (*self.origin).clone();
        for (var, value) in &self.patch {
            state.set(*var, *value);
        }
        state
    }

    /// Number of items the tentative history has written locally.
    pub fn patch_len(&self) -> usize {
        self.patch.len()
    }

    /// The tentative history since last synchronization.
    pub fn history(&self) -> &SerialHistory {
        &self.history
    }

    /// Number of pending tentative transactions.
    pub fn pending(&self) -> usize {
        self.history.len()
    }

    /// The tick at which this node next reconnects.
    pub fn next_connect(&self) -> u64 {
        self.next_connect
    }

    /// Schedules the next reconnection.
    pub fn set_next_connect(&mut self, tick: u64) {
        self.next_connect = tick;
    }

    /// Runs a tentative transaction against the local copy: executes it
    /// against the patched view and folds its write delta into the patch.
    ///
    /// # Panics
    ///
    /// Panics if execution fails (the local copy is always total over the
    /// workload's variable space).
    pub fn run_tentative(&mut self, arena: &TxnArena, id: TxnId) {
        let txn = arena.get(id);
        let delta = txn
            .execute_delta(&PatchView { origin: &self.origin, patch: &self.patch }, &Fix::empty())
            .expect("tentative transaction executes locally");
        for (var, value) in delta.writes {
            self.patch.insert(var, value);
        }
        self.history.push(id);
    }

    /// Resets the node after a synchronization: the new tentative history
    /// starts from `origin` (under Strategy 2, the shared window-start
    /// state; under Strategy 1, the current master snapshot).
    pub fn resync(&mut self, origin: Arc<DbState>, origin_index: usize) {
        self.origin = origin;
        self.patch.clear();
        self.origin_index = origin_index;
        self.history = SerialHistory::new();
        self.dirty_origin = false;
    }

    /// Opens a new sync session over the current pending log: allocates
    /// the session's sequence number and marks it unacked until the base's
    /// acknowledgment arrives.
    pub fn begin_session(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked = Some(UnackedSession { seq, offered: self.history.len() });
        seq
    }

    /// The session awaiting acknowledgment, if any.
    pub fn unacked(&self) -> Option<UnackedSession> {
        self.unacked
    }

    /// Marks the outstanding session acknowledged (or resolved against the
    /// ledger): the node no longer owes the base a status query.
    pub fn ack_session(&mut self) {
        self.unacked = None;
    }

    /// Drops the first `n` pending transactions — a recovered session
    /// proved the base already committed them. The surviving suffix was
    /// executed from a state that included the trimmed prefix (the write
    /// patch keeps the prefix's effects), so its origin is marked dirty
    /// (forcing reprocessing at the next sync).
    pub fn trim_prefix(&mut self, n: usize) {
        self.history = self.history.iter().skip(n).collect();
        self.dirty_origin = true;
    }

    /// `true` when the pending log's origin no longer matches any base
    /// snapshot (see [`MobileNode::trim_prefix`]).
    pub fn dirty_origin(&self) -> bool {
        self.dirty_origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{Expr, Program, ProgramBuilder, Transaction, TxnKind};

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn tentative_execution_accumulates() {
        let mut arena = TxnArena::new();
        let p: Arc<Program> = Arc::new(
            ProgramBuilder::new("inc")
                .read(v(0))
                .update(v(0), Expr::var(v(0)) + Expr::konst(1))
                .build()
                .unwrap(),
        );
        let t1 =
            arena.alloc(|id| Transaction::new(id, "t1", TxnKind::Tentative, p.clone(), vec![]));
        let t2 =
            arena.alloc(|id| Transaction::new(id, "t2", TxnKind::Tentative, p.clone(), vec![]));
        let origin = Arc::new(DbState::uniform(1, 10));
        let mut node = MobileNode::new(3, origin.clone(), 0, 5);
        assert_eq!(node.id(), 3);
        assert_eq!(node.next_connect(), 5);
        node.run_tentative(&arena, t1);
        node.run_tentative(&arena, t2);
        assert_eq!(node.pending(), 2);
        assert_eq!(node.tentative_state().get(v(0)), 12);
        assert_eq!(node.patch_len(), 1, "one written item, not a full clone");
        assert_eq!(node.origin(), &*origin, "origin snapshot untouched");
        assert_eq!(node.history().order(), &[t1, t2]);

        let new_origin = Arc::new(DbState::uniform(1, 99));
        node.resync(new_origin.clone(), 7);
        assert_eq!(node.pending(), 0);
        assert_eq!(node.patch_len(), 0);
        assert_eq!(node.tentative_state(), *new_origin);
        assert_eq!(node.origin_index(), 7);
        node.set_next_connect(20);
        assert_eq!(node.next_connect(), 20);
    }

    #[test]
    fn patched_view_matches_full_execution() {
        // The compact representation must read exactly like the owned
        // tentative state the node used to carry: a chain of dependent
        // transactions through the patch equals executing them against
        // materialized full states.
        let mut arena = TxnArena::new();
        let double: Arc<Program> = Arc::new(
            ProgramBuilder::new("double")
                .read(v(0))
                .update(v(0), Expr::var(v(0)) + Expr::var(v(0)))
                .build()
                .unwrap(),
        );
        let carry: Arc<Program> = Arc::new(
            ProgramBuilder::new("carry")
                .read(v(0))
                .read(v(1))
                .update(v(1), Expr::var(v(0)) + Expr::var(v(1)))
                .build()
                .unwrap(),
        );
        let ids: Vec<TxnId> = [double.clone(), carry.clone(), double]
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let p = p.clone();
                arena.alloc(move |id| {
                    Transaction::new(id, format!("t{k}"), TxnKind::Tentative, p, vec![])
                })
            })
            .collect();
        let origin = DbState::uniform(2, 3);
        let mut node = MobileNode::new(0, Arc::new(origin.clone()), 0, 1);
        let mut reference = origin;
        for id in &ids {
            node.run_tentative(&arena, *id);
            let out = arena.get(*id).execute(&reference, &Fix::empty()).unwrap();
            reference = out.after;
        }
        assert_eq!(node.tentative_state(), reference);
    }

    #[test]
    fn session_bookkeeping_tracks_acks_and_trims() {
        let mut arena = TxnArena::new();
        let p: Arc<Program> = Arc::new(
            ProgramBuilder::new("inc")
                .read(v(0))
                .update(v(0), Expr::var(v(0)) + Expr::konst(1))
                .build()
                .unwrap(),
        );
        let ids: Vec<_> = (0..3)
            .map(|k| {
                arena.alloc(|id| {
                    Transaction::new(id, format!("t{k}"), TxnKind::Tentative, p.clone(), vec![])
                })
            })
            .collect();
        let mut node = MobileNode::new(0, Arc::new(DbState::uniform(1, 0)), 0, 1);
        assert!(node.unacked().is_none());
        assert!(!node.dirty_origin());
        for id in &ids {
            node.run_tentative(&arena, *id);
        }

        // Sequence numbers are consecutive; each session offers the
        // then-pending log length.
        let s0 = node.begin_session();
        assert_eq!(s0, 0);
        let unacked = node.unacked().expect("offer outstanding");
        assert_eq!(unacked.seq, 0);
        assert_eq!(unacked.offered, 3);
        node.ack_session();
        assert!(node.unacked().is_none());
        assert_eq!(node.begin_session(), 1);

        // A recovered session trims its committed prefix and dirties the
        // origin; resync cleans the node again.
        node.trim_prefix(2);
        assert_eq!(node.pending(), 1);
        assert_eq!(node.history().order(), &ids[2..]);
        assert!(node.dirty_origin());
        assert_eq!(node.patch_len(), 1, "trim keeps the prefix's local effects");
        node.resync(Arc::new(DbState::uniform(1, 5)), 0);
        assert!(!node.dirty_origin());
        assert_eq!(node.pending(), 0);
        // Sequence numbers never reset.
        assert_eq!(node.begin_session(), 2);
    }
}
