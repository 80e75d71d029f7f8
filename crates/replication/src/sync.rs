//! Multi-history synchronization strategies (Section 2.2).

/// How tentative histories pick their original database state when several
/// mobile nodes are active at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStrategy {
    /// **Strategy 1**: each tentative history starts from the master state
    /// snapshotted at its own disconnect time. Merging one mobile's history
    /// retroactively changes the base states other mobiles snapshotted, so
    /// a later merge "may fail to find a subhistory of `H_b` into which
    /// [the tentative history] can be merged" — the simulator detects this
    /// by comparing the stored snapshot against the (retro-patched) base
    /// log and falls back to reprocessing on mismatch.
    PerDisconnectSnapshot,
    /// **Strategy 2** (the paper's choice): every tentative history in a
    /// window starts from the same state — the master state at the window
    /// start. Merges always find their sub-history; the cost is that the
    /// base history to merge against grows over the window, so the origin
    /// is reset every `window` ticks, and a node that fails to reconnect
    /// within its window gets its history reprocessed instead of merged.
    WindowStart {
        /// Window length in ticks.
        window: u64,
    },
    /// Strategy 2 with the paper's "reset periodically because otherwise
    /// the back-out cost of mergers will increase substantially as the base
    /// history grows longer" rule made quantitative: a new window opens as
    /// soon as the base history since the window start reaches `max_hb`
    /// committed transactions, instead of on a fixed clock.
    AdaptiveWindow {
        /// Maximum base-history length a window is allowed to reach.
        max_hb: usize,
    },
}

impl SyncStrategy {
    /// Short name for experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            SyncStrategy::PerDisconnectSnapshot => "strategy1-per-disconnect",
            SyncStrategy::WindowStart { .. } => "strategy2-window",
            SyncStrategy::AdaptiveWindow { .. } => "strategy2-adaptive",
        }
    }
}

/// Which reconnection machinery the simulation drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPath {
    /// The original in-process handshake: one atomic, infallible call per
    /// reconnection. Cannot represent faults.
    Legacy,
    /// The resumable session protocol (offer → merge → install →
    /// re-execute → ack) with idempotent, individually retryable steps.
    /// With [`FaultPlan::none`] it reproduces the legacy path
    /// byte-for-byte; with an active plan it injects and recovers from
    /// transport and crash faults.
    ///
    /// [`FaultPlan::none`]: crate::fault::FaultPlan::none
    Session,
}

impl SyncPath {
    /// Short name for experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            SyncPath::Legacy => "legacy",
            SyncPath::Session => "session",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(SyncStrategy::PerDisconnectSnapshot.name(), "strategy1-per-disconnect");
        assert_eq!(SyncStrategy::WindowStart { window: 100 }.name(), "strategy2-window");
        assert_eq!(SyncStrategy::AdaptiveWindow { max_hb: 50 }.name(), "strategy2-adaptive");
        assert_eq!(SyncPath::Legacy.name(), "legacy");
        assert_eq!(SyncPath::Session.name(), "session");
    }
}
