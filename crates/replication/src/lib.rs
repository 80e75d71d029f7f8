//! A deterministic two-tier replication simulator.
//!
//! The paper extends the two-tier replication scheme of Gray, Helland,
//! O'Neil and Shasha (SIGMOD 1996): *mobile nodes* are disconnected most of
//! the time and run **tentative** transactions against their local copy;
//! *base nodes* are always connected and own the master data. On
//! reconnection, tentative work is folded into the master either by
//!
//! * **reprocessing** ([`Protocol::Reprocessing`]) — the \[GHOS96\] baseline:
//!   every tentative transaction is re-executed from scratch as a base
//!   transaction; or
//! * **merging** ([`Protocol::Merging`]) — the paper's contribution: the
//!   tentative history is merged into the base history, saving the work of
//!   every transaction the rewrite can keep (Section 2.1).
//!
//! [`sync`] implements the two multi-history synchronization strategies of
//! Section 2.2 (per-disconnect snapshots vs shared window-start states with
//! periodic resynchronization); mobiles reconnecting in the same tick
//! merge and install one at a time, in mobile-id order; [`metrics`]
//! aggregates counts and Section 7.1 cost reports. The simulation is a
//! discrete-time loop, deterministic for a given [`SimConfig`] (seeded
//! RNG). Each tick's due mobile work is popped as timestamped events from
//! a deterministic priority queue ([`sched`]), so a tick costs time in the
//! mobiles due in it rather than in the fleet size, and million-mobile
//! fleets stay affordable.
//!
//! Reconnections can run through two interchangeable paths
//! ([`SyncPath`]): the legacy atomic in-process handshake, or the
//! resumable [`session`] protocol (offer → merge → install → re-execute →
//! ack) whose individually idempotent steps survive the faults a
//! deterministic [`fault::FaultPlan`] injects — message loss, duplication
//! and reordering, mid-merge disconnects, and base crashes between
//! install and re-execution. Fault-free session runs are byte-identical
//! to legacy runs; faulted runs are audited by a convergence oracle
//! ([`ConvergenceReport`]) that replays the recorded commit order through
//! the serial path.
//!
//! The base tier's durable transitions can additionally be written to a
//! real segmented, CRC32-framed write-ahead log ([`wal`]) and recovered —
//! latest checkpoint plus log tail, torn suffixes discarded — by
//! [`recovery`], so crash-point torture tests can kill the base at any
//! record boundary (or mid-record, via torn writes) and assert the
//! recovered state equals the durable prefix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
mod cluster;
mod mobile;
mod sim;

pub mod connectivity;
pub mod fault;
pub mod metrics;
pub mod recovery;
pub mod sched;
pub mod session;
pub mod sync;
pub mod wal;

pub use base::{BaseNode, RetroPatchError};
pub use cluster::{BaseCluster, ClusterStats};
pub use connectivity::{AdmissionConfig, ConnectivityModel, InvalidConnectivity, LinkTrace};
pub use fault::{Delivery, FaultKind, FaultPlan, FaultRates, InvalidFaultRate};
pub use metrics::{CohortStats, FaultStats, SchedStats, StormStats, WalStats};
pub use mobile::MobileNode;
pub use recovery::{recover, recover_traced, Recovered, RecoveryError};
pub use sched::{fork_rng, Event, EventKind, EventQueue};
pub use session::{RetryBackoff, SessionConfig, SessionLedger, SessionRecord, UnackedSession};
pub use sim::{
    ConvergenceReport, DurableReport, Protocol, SimConfig, SimConfigError, SimReport, Simulation,
    TelemetryConfig,
};
pub use sync::{SyncPath, SyncStrategy};
pub use wal::{
    DurabilityConfig, Snapshot, Storage, Tail, Tear, TornStorage, VecStorage, Wal, WalRecord,
};
