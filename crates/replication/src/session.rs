//! The resumable sync-session protocol.
//!
//! The legacy sync path modeled a reconnection as one atomic, infallible
//! in-process call — a mobile that drops mid-merge was unrepresentable.
//! This module splits the handshake into an explicit five-step session
//!
//! ```text
//! offer → merge → install → re-execute → ack
//! ```
//!
//! with per-session identifiers `(mobile, seq)` so every step is
//! idempotent:
//!
//! * the **offer** registers the session; a duplicate offer for a
//!   registered session is ignored;
//! * the **merge** is pure computation; a mobile that disconnects mid-merge
//!   retries and the base *resumes* from the retained outcome instead of
//!   recomputing;
//! * the **install** commits the forwarded values together with a durable
//!   [`SessionRecord`] (write-ahead); a retransmitted install request finds
//!   the record and is suppressed — the no-double-install guarantee;
//! * **re-execution** progress is tracked in the record, so a base crash
//!   between install and re-execute resumes exactly where it stopped;
//! * the **ack** releases the mobile; a lost ack leaves the mobile's
//!   tentative log intact, and its next reconnection first queries the
//!   ledger: a completed session's prefix is trimmed from the persisted
//!   log and the stale-origin remainder is reprocessed.
//!
//! A session interrupted at any point is retried with a bounded budget
//! ([`SessionConfig::max_retries`]); once exhausted it is abandoned and the
//! mobile restarts from its persisted tentative log at the next
//! reconnection. The driver lives in `sim.rs` (`Simulation::sync_session`);
//! this module owns the protocol vocabulary and the base-side ledger.

use std::collections::BTreeMap;

use histmerge_core::merge::InstallPlan;
use histmerge_workload::cost::CostReport;

use crate::metrics::SyncRecord;

/// Session-protocol knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// How many times a session step is retried (bounded backoff) before
    /// the session is abandoned and the mobile falls back to its persisted
    /// tentative log at the next reconnection.
    pub max_retries: u32,
    /// What happens *after* an abandon: with backoff disabled (the
    /// default, byte-identical to the pre-backoff simulator) the mobile
    /// silently waits out its full reconnect cadence; enabled, its next
    /// attempt is rescheduled on a capped exponential delay with seeded
    /// jitter, so a transient fault burst is retried promptly instead of
    /// costing a whole cadence period per strike.
    pub backoff: RetryBackoff,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { max_retries: 3, backoff: RetryBackoff::disabled() }
    }
}

/// Capped exponential backoff for reconnections whose session was
/// abandoned: after `n` consecutive abandons the next attempt runs
/// `min(base_ticks · 2^(n-1), cap_ticks)` ticks later (plus up to 25%
/// seeded jitter to de-synchronize a storm of failing mobiles), never
/// later than the regular cadence would have retried anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBackoff {
    /// Master switch; `false` reproduces the flat cadence wait.
    pub enabled: bool,
    /// Delay after the first abandon, in ticks (>= 1 when enabled).
    pub base_ticks: u64,
    /// Ceiling of the exponential ladder, in ticks.
    pub cap_ticks: u64,
}

impl RetryBackoff {
    /// Backoff off: an abandoned mobile waits out its normal cadence.
    pub fn disabled() -> RetryBackoff {
        RetryBackoff { enabled: false, base_ticks: 2, cap_ticks: 64 }
    }

    /// Backoff on with the default ladder (2, 4, 8, … capped at 64).
    pub fn enabled() -> RetryBackoff {
        RetryBackoff { enabled: true, ..RetryBackoff::disabled() }
    }

    /// The un-jittered delay after `strikes` consecutive abandons
    /// (`strikes >= 1`): `min(base · 2^(strikes-1), cap)`, saturating.
    pub fn delay(&self, strikes: u32) -> u64 {
        let doublings = strikes.saturating_sub(1).min(63);
        self.base_ticks
            .max(1)
            .saturating_mul(1u64.checked_shl(doublings).unwrap_or(u64::MAX))
            .min(self.cap_ticks.max(1))
    }
}

/// The steps of the sync-session state machine, in protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStep {
    /// The mobile offers its pending tentative history (registering the
    /// session at the base).
    Offer,
    /// The base computes the merge (or decides to reprocess).
    Merge,
    /// The base durably installs forwarded updates plus the session
    /// record.
    Install,
    /// The base re-executes backed-out transactions, tracking progress.
    Reexecute,
    /// The base acknowledges completion; the mobile resets its log.
    Ack,
    /// The session completed and was acknowledged.
    Done,
    /// The retry budget ran out; the mobile keeps its tentative log.
    Abandoned,
}

/// A mobile-side note about a session that performed its offer but was
/// never acknowledged — the base may or may not have completed it. The
/// mobile keeps the note (and its tentative log) until the next
/// reconnection resolves the session's fate against the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnackedSession {
    /// The session's sequence number at this mobile.
    pub seq: u64,
    /// How many tentative transactions the session offered — the prefix of
    /// the persisted log to trim if the ledger shows completion.
    pub offered: usize,
}

/// The durable per-session record a base node writes atomically with the
/// install commit (write-ahead). Everything recovery needs: the install
/// plan, re-execution progress, and the completion report to emit once.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// The durable half of the merge outcome (or the reprocess plan:
    /// empty forwarded values, every pending transaction re-executed).
    pub plan: InstallPlan,
    /// Strategy 1 only: the base-log index the retroactive install patched
    /// from (`None` for ordinary window installs).
    pub retro_from: Option<usize>,
    /// The sync record to emit at completion (tick filled in then).
    pub sync: SyncRecord,
    /// The session's cost report, computed at install time.
    pub cost: CostReport,
    /// How many of `plan.reexecute` already committed.
    pub reexec_done: usize,
    /// `true` once re-execution finished and the record was reported.
    pub completed: bool,
}

/// The base-side durable session table: one [`SessionRecord`] per session
/// that reached its install step, keyed by `(mobile, seq)`.
///
/// Write-ahead-logged state: it survives the base crashes that wipe
/// in-flight session scratch (and, with durability enabled, is rebuilt
/// from the WAL by [`crate::recovery`]). Records are small (a
/// forwarded-value map plus transaction ids) and one is written per
/// completed sync; [`SessionLedger::prune_acked`] drops records once
/// their mobile acknowledges, keeping the table bounded by the number of
/// in-flight sessions rather than the run length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionLedger {
    records: BTreeMap<(usize, u64), SessionRecord>,
}

impl SessionLedger {
    /// An empty ledger.
    pub fn new() -> SessionLedger {
        SessionLedger::default()
    }

    /// The record for `(mobile, seq)`, if that session reached install.
    pub fn get(&self, mobile: usize, seq: u64) -> Option<&SessionRecord> {
        self.records.get(&(mobile, seq))
    }

    /// Mutable access to a session's record (recovery progress updates).
    pub fn get_mut(&mut self, mobile: usize, seq: u64) -> Option<&mut SessionRecord> {
        self.records.get_mut(&(mobile, seq))
    }

    /// `true` if the session already installed — the idempotence guard a
    /// retransmitted install request hits.
    pub fn contains(&self, mobile: usize, seq: u64) -> bool {
        self.records.contains_key(&(mobile, seq))
    }

    /// Writes a session's record. Returns `false` (and leaves the existing
    /// record untouched) if one is already present — a double install,
    /// which the caller must treat as a protocol violation.
    pub fn insert(&mut self, mobile: usize, seq: u64, record: SessionRecord) -> bool {
        use std::collections::btree_map::Entry;
        match self.records.entry((mobile, seq)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(record);
                true
            }
        }
    }

    /// Drops every record of `mobile` with `seq <= upto_seq` — the prune
    /// step the mobile's acknowledgement licenses (an acked session can
    /// never be queried again: sequence numbers are monotone and the
    /// mobile's next reconnection starts a fresh session). Returns how
    /// many records were pruned.
    pub fn prune_acked(&mut self, mobile: usize, upto_seq: u64) -> usize {
        let before = self.records.len();
        self.records.retain(|&(m, seq), _| m != mobile || seq > upto_seq);
        before - self.records.len()
    }

    /// Iterates live records as `(mobile, seq, record)`, key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, &SessionRecord)> {
        self.records.iter().map(|(&(mobile, seq), record)| (mobile, seq, record))
    }

    /// Number of sessions that reached their install step.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Number of live records whose session has installed but not yet
    /// completed re-execution — the in-flight sessions the telemetry
    /// layer samples as the `active_sessions` gauge.
    pub fn open_sessions(&self) -> usize {
        self.records.values().filter(|r| !r.completed).count()
    }

    /// `true` when no session installed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::DbState;

    fn record(pending: usize) -> SessionRecord {
        SessionRecord {
            plan: InstallPlan {
                forwarded: DbState::uniform(1, 7),
                reexecute: Vec::new(),
                saved: Vec::new(),
            },
            retro_from: None,
            sync: SyncRecord {
                tick: 0,
                mobile: 2,
                pending,
                hb_len: 0,
                saved: 0,
                backed_out: 0,
                reprocessed: pending,
                merge_failed: false,
                sync_ns: 0,
            },
            cost: CostReport::default(),
            reexec_done: 0,
            completed: false,
        }
    }

    #[test]
    fn ledger_dedupes_double_installs() {
        let mut ledger = SessionLedger::new();
        assert!(ledger.is_empty());
        assert!(!ledger.contains(2, 0));
        assert!(ledger.insert(2, 0, record(3)));
        assert!(ledger.contains(2, 0));
        // Second install of the same session must be refused, keeping the
        // original record intact.
        assert!(!ledger.insert(2, 0, record(99)));
        assert_eq!(ledger.get(2, 0).unwrap().sync.pending, 3);
        assert_eq!(ledger.len(), 1);
        // A different seq is a different session.
        assert!(ledger.insert(2, 1, record(4)));
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn recovery_progress_is_mutable() {
        let mut ledger = SessionLedger::new();
        ledger.insert(0, 5, record(2));
        let rec = ledger.get_mut(0, 5).unwrap();
        rec.reexec_done = 2;
        rec.completed = true;
        assert!(ledger.get(0, 5).unwrap().completed);
        assert!(ledger.get_mut(1, 5).is_none());
    }

    #[test]
    fn default_config_bounds_retries() {
        assert!(SessionConfig::default().max_retries >= 1);
        // Backoff defaults off — the pre-backoff simulator byte-for-byte.
        assert!(!SessionConfig::default().backoff.enabled);
    }

    #[test]
    fn backoff_ladder_doubles_and_caps() {
        let b = RetryBackoff { enabled: true, base_ticks: 2, cap_ticks: 64 };
        assert_eq!(b.delay(1), 2);
        assert_eq!(b.delay(2), 4);
        assert_eq!(b.delay(3), 8);
        assert_eq!(b.delay(6), 64);
        assert_eq!(b.delay(7), 64, "capped");
        assert_eq!(b.delay(200), 64, "no overflow deep into the ladder");
        // Degenerate parameters stay sane instead of panicking.
        let zero = RetryBackoff { enabled: true, base_ticks: 0, cap_ticks: 0 };
        assert_eq!(zero.delay(1), 1);
        assert_eq!(zero.delay(50), 1);
    }

    #[test]
    fn prune_acked_drops_only_the_acked_prefix_of_one_mobile() {
        let mut ledger = SessionLedger::new();
        for seq in 0..4 {
            ledger.insert(0, seq, record(1));
            ledger.insert(1, seq, record(1));
        }
        assert_eq!(ledger.len(), 8);
        // Ack mobile 0 through seq 2: drops 0..=2 of mobile 0 only.
        assert_eq!(ledger.prune_acked(0, 2), 3);
        assert_eq!(ledger.len(), 5);
        assert!(!ledger.contains(0, 2));
        assert!(ledger.contains(0, 3));
        for seq in 0..4 {
            assert!(ledger.contains(1, seq), "mobile 1 untouched");
        }
        // Pruning again is a no-op.
        assert_eq!(ledger.prune_acked(0, 2), 0);
        // Iteration reflects the pruned view, in key order.
        let keys: Vec<(usize, u64)> = ledger.iter().map(|(m, s, _)| (m, s)).collect();
        assert_eq!(keys, vec![(0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]);
    }
}
