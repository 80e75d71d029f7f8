//! Write-ahead logging (`SimConfig::durability`). Every hook is a no-op
//! when durability is disabled, keeping the paths byte-identical.

use crate::recovery;
use crate::wal::{Snapshot, WalRecord};

use super::Simulation;

impl Simulation {
    /// Appends one record to the WAL, if one is open. The record is built
    /// only then, so a run without durability never clones its payload.
    pub(super) fn wal_append(&mut self, record: impl FnOnce() -> WalRecord) {
        if let Some(wal) = self.wal.as_mut() {
            wal.append(&record());
        }
    }

    /// Logs every base-log entry committed since the last call as a
    /// [`WalRecord::Commit`]. Called after each batch of commits (own
    /// load, installs, re-executions), so the WAL's commit order is the
    /// base log's commit order.
    pub(super) fn wal_sync_commits(&mut self) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let log = self.base.log();
        for (txn, writes) in &log[self.logged_commits..] {
            wal.append(&WalRecord::Commit { txn: *txn, writes: writes.clone() });
        }
        self.logged_commits = log.len();
    }

    /// A full snapshot of the durable state, for checkpoint records.
    fn wal_snapshot(&self) -> Snapshot {
        let base = &self.base;
        Snapshot {
            log: base.log().to_vec(),
            master: base.master().clone(),
            epoch_start: base.epoch_start() as u64,
            epoch_state: base.epoch_state().clone(),
            epoch: base.epoch(),
            ledger: self.ledger.iter().map(|(m, s, r)| (m as u64, s, r.clone())).collect(),
        }
    }

    /// Checkpoints (snapshot + segment compaction) when enough records
    /// accumulated since the last one. Evaluated once per tick.
    pub(super) fn wal_maybe_checkpoint(&mut self) {
        let every = self.config.durability.checkpoint_every;
        let due = match &self.wal {
            Some(wal) => every > 0 && wal.since_checkpoint() >= every,
            None => false,
        };
        if due {
            let snapshot = self.wal_snapshot();
            if let Some(wal) = self.wal.as_mut() {
                wal.checkpoint(snapshot);
            }
        }
    }

    /// The in-run recovery oracle: at a simulated base crash, rebuild the
    /// durable state from the WAL and check it matches the live state the
    /// crash is about to resume from. Makes the WAL load-bearing inside
    /// faulted runs, not just in post-hoc torture tests.
    ///
    /// # Panics
    ///
    /// Panics when recovery disagrees with the live state — a durability
    /// bug, never a legitimate simulation outcome.
    pub(super) fn shadow_recovery_check(&mut self) {
        let Some(wal) = &self.wal else {
            return;
        };
        let recovered = recovery::recover_traced(&self.arena, wal.storage(), &self.config.tracer)
            .expect("open WAL has a checkpoint");
        let base = &self.base;
        let checks = [
            ("torn tail", !recovered.torn),
            ("log", recovered.base.log() == base.log()),
            ("master", recovered.base.master() == base.master()),
            ("window start", recovered.base.epoch_start() == base.epoch_start()),
            ("window state", recovered.base.epoch_state() == base.epoch_state()),
            ("epoch", recovered.base.epoch() == base.epoch()),
            ("ledger", recovered.ledger == self.ledger),
        ];
        if let Some((field, _)) = checks.iter().find(|(_, ok)| !ok) {
            // Dump the flight recorder before aborting the run: the last
            // events are the forensic record of how the durable and live
            // states drifted apart.
            if let Some(path) = self.config.tracer.dump_to_dir("shadow-recovery-divergence") {
                eprintln!("shadow recovery diverged; flight recorder at {}", path.display());
            }
            panic!("shadow recovery diverged from the live state: {field}");
        }
        self.metrics.wal.shadow_recoveries += 1;
    }

    /// Prunes mobile `i`'s ledger records through `seq` after its ack,
    /// logging the prune when it dropped anything.
    pub(super) fn prune_after_ack(&mut self, i: usize, seq: u64) {
        let pruned = self.ledger.prune_acked(i, seq);
        if pruned > 0 {
            self.metrics.wal.pruned_records += pruned as u64;
            self.wal_append(|| WalRecord::SessionPrune { mobile: i as u64, upto_seq: seq });
        }
    }
}
