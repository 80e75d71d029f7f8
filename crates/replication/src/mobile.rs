//! The mobile tier: disconnected nodes recording tentative transactions.
//!
//! A mobile keeps only what the protocol reads: the origin its pending
//! history started from and that history. The simulator executes a
//! tentative transaction only where its result is read — in the merge's
//! Exec step or in the base's re-execution — never at generation.

use std::sync::Arc;

use histmerge_history::SerialHistory;
use histmerge_txn::{DbState, TxnId};

use crate::session::UnackedSession;

/// A mobile node: the origin snapshot its tentative history began from
/// plus that history, accumulated since the node last synchronized.
///
/// The origin is a shared, immutable snapshot (under Strategy 2, every
/// mobile in a window points at the *same* window-start state), so a fleet
/// of a million mostly-idle mobiles costs a million `Arc` pointers and
/// their pending id lists, not a million database clones. The node's
/// index in the simulation's fleet is its identifier.
#[derive(Debug, Clone)]
pub struct MobileNode {
    /// The original state the current tentative history began from,
    /// shared with the base tier (and, under Strategy 2, with every other
    /// mobile resynchronized in the same window).
    origin: Arc<DbState>,
    /// The tentative history since the last synchronization.
    history: SerialHistory,
    /// For Strategy 1: the base-log index the origin snapshot was taken at.
    origin_index: usize,
    /// The base window (epoch) the origin was taken in: under Strategy 2
    /// the pending history merges only while that window is still open.
    origin_epoch: u64,
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

impl MobileNode {
    /// Creates a mobile node with the given (shared) origin snapshot,
    /// taken at base-log index 0 in the base's first window (epoch 0).
    pub fn new(origin: Arc<DbState>) -> Self {
        MobileNode {
            origin,
            history: SerialHistory::new(),
            origin_index: 0,
            origin_epoch: 0,
            next_seq: 0,
            unacked: None,
            dirty_origin: false,
        }
    }

    /// The original state of the current tentative history.
    pub fn origin(&self) -> &DbState {
        &self.origin
    }

    /// The shared handle to [`MobileNode::origin`]: a merge borrows the
    /// origin through it instead of copying it.
    pub fn shared_origin(&self) -> &Arc<DbState> {
        &self.origin
    }

    /// The base-log index the origin was snapshotted at (Strategy 1).
    pub fn origin_index(&self) -> usize {
        self.origin_index
    }

    /// The base window (epoch) the origin was taken in.
    pub(crate) fn origin_epoch(&self) -> u64 {
        self.origin_epoch
    }

    /// The tentative history since last synchronization.
    pub fn history(&self) -> &SerialHistory {
        &self.history
    }

    /// Number of pending tentative transactions.
    pub fn pending(&self) -> usize {
        self.history.len()
    }

    /// Appends a tentative transaction to the pending history. Nothing
    /// executes here: the merge's Exec step runs the history from the
    /// origin, and reprocessing re-executes each transaction at the base.
    pub fn push_tentative(&mut self, id: TxnId) {
        self.history.push(id);
    }

    /// Resets the node after a synchronization: the new tentative history
    /// starts from `origin` (under Strategy 2, the shared window-start
    /// state; under Strategy 1, the current master snapshot), taken at
    /// base-log index `origin_index` in base window `origin_epoch`.
    pub fn resync(&mut self, origin: Arc<DbState>, origin_index: usize, origin_epoch: u64) {
        self.origin = origin;
        self.origin_index = origin_index;
        self.origin_epoch = origin_epoch;
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
    /// proved the base already committed them. In the modelled world the
    /// surviving suffix ran after the trimmed prefix, from a state that
    /// included its effects, so its origin is marked dirty (forcing
    /// reprocessing at the next sync).
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

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    #[test]
    fn tentative_history_accumulates() {
        let origin = Arc::new(DbState::uniform(1, 10));
        let mut node = MobileNode::new(origin.clone());
        node.push_tentative(t(0));
        node.push_tentative(t(1));
        assert_eq!(node.pending(), 2);
        assert_eq!(node.origin(), &*origin, "origin snapshot untouched");
        assert_eq!(node.history().order(), &[t(0), t(1)]);

        let new_origin = Arc::new(DbState::uniform(1, 99));
        assert_eq!(node.origin_epoch(), 0);
        node.resync(new_origin.clone(), 7, 2);
        assert_eq!(node.pending(), 0);
        assert_eq!(node.origin(), &*new_origin);
        assert_eq!(node.origin_index(), 7);
        assert_eq!(node.origin_epoch(), 2);
    }

    #[test]
    fn session_bookkeeping_tracks_acks_and_trims() {
        let ids: Vec<TxnId> = (0..3).map(t).collect();
        let mut node = MobileNode::new(Arc::new(DbState::uniform(1, 0)));
        assert!(node.unacked().is_none());
        assert!(!node.dirty_origin());
        for id in &ids {
            node.push_tentative(*id);
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
        node.resync(Arc::new(DbState::uniform(1, 5)), 0, 0);
        assert!(!node.dirty_origin());
        assert_eq!(node.pending(), 0);
        // Sequence numbers never reset.
        assert_eq!(node.begin_session(), 2);
    }
}
