//! The deterministic event-driven scheduler.
//!
//! The simulation keeps a priority queue of timestamped events instead of
//! scanning the fleet every tick: a tick only touches the mobiles that
//! actually act on it, so per-tick cost is O(events · log queue) instead
//! of O(fleet) — at million-mobile scale a per-tick scan *is* the
//! simulation.
//!
//! # Determinism contract
//!
//! The scheduler decides when work happens, never what it computes. The
//! golden digests (`tests/golden_digests.rs`, captured while a per-tick
//! fleet scan still existed as the reference) pin whole runs. Three
//! properties carry the argument:
//!
//! 1. **Total event order.** [`Event`] orders by `(time, kind, mobile)`;
//!    [`EventKind::Generate`] sorts before [`EventKind::Connect`], so
//!    generation completes for the whole tier before any sync runs, and
//!    same-tick reconnects pop in mobile-id order. Ties are impossible to
//!    break non-deterministically: the order is total.
//! 2. **Fixed RNG draw order.** Reconnect jitter draws happen when a
//!    batch member is rescheduled, in batch (= mobile-id) order. The
//!    scheduler itself never draws.
//! 3. **One accumulator for the fleet.** Tentative generation runs the
//!    `acc += rate; while acc >= 1.0` float sequence once: every mobile
//!    shares one rate and one starting accumulator, so the whole fleet
//!    shares a single trajectory and one [`EventKind::Generate`] event
//!    per firing tick stands for all of it.
//!
//! [`fork_rng`] supplies domain-separated RNG streams for harness-level
//! sweeps (per-shard workers, fault schedules): child streams are
//! deterministic functions of the parent's position, so adding or
//! removing one consumer never perturbs another's draws.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// What a scheduled event does when it fires.
///
/// Declaration order is load-bearing: the derived [`Ord`] puts
/// [`EventKind::Generate`] before [`EventKind::Connect`], which is how
/// same-tick pops run generation before any sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// The fleet-wide tentative-generation accumulator crossed 1.0: every
    /// mobile runs the tick's tentative transactions.
    Generate,
    /// One mobile reconnects and synchronizes.
    Connect,
}

/// A timestamped scheduler event. The derived [`Ord`] compares
/// `(time, kind, mobile)` — field order is the tie-break contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// The tick the event fires at.
    pub time: u64,
    /// What firing does.
    pub kind: EventKind,
    /// The acting mobile (0 for fleet-wide [`EventKind::Generate`]).
    pub mobile: usize,
}

/// A deterministic min-queue of [`Event`]s with push/pop counters.
///
/// The counters feed [`SchedStats`].
///
/// [`SchedStats`]: crate::metrics::SchedStats
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    pushed: u64,
    popped: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event.
    pub fn push(&mut self, event: Event) {
        self.pushed += 1;
        self.heap.push(Reverse(event));
    }

    /// Pops the next event due exactly at `tick`, or `None` when the
    /// earliest event lies in the future (or the queue is empty). Events
    /// scheduled in the past would indicate a scheduling bug; they are
    /// also returned so invariant checks can see them.
    pub fn pop_at(&mut self, tick: u64) -> Option<Event> {
        if self.heap.peek().is_some_and(|Reverse(e)| e.time <= tick) {
            self.popped += 1;
            return self.heap.pop().map(|Reverse(e)| e);
        }
        None
    }

    /// Events currently scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events pushed over the queue's lifetime.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events popped over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

/// Forks a child RNG off `base`: the child is seeded by the parent's next
/// draw, so it is a deterministic function of the parent's stream
/// position. Consumers that fork once and draw privately cannot perturb
/// each other — adding or removing one fork shifts later forks but never
/// reaches into sibling streams (the domain-separation idiom the
/// per-shard scale harness and the fault planner rely on).
pub fn fork_rng(base: &mut StdRng) -> StdRng {
    StdRng::seed_from_u64(base.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn ev(time: u64, kind: EventKind, mobile: usize) -> Event {
        Event { time, kind, mobile }
    }

    #[test]
    fn events_order_by_time_kind_mobile() {
        let a = ev(1, EventKind::Connect, 0);
        let b = ev(2, EventKind::Generate, 0);
        assert!(a < b, "time dominates");
        let g = ev(5, EventKind::Generate, 9);
        let c = ev(5, EventKind::Connect, 0);
        assert!(g < c, "generation precedes connects within a tick");
        let c0 = ev(5, EventKind::Connect, 0);
        let c1 = ev(5, EventKind::Connect, 1);
        assert!(c0 < c1, "same-tick connects pop in mobile-id order");
    }

    #[test]
    fn pop_at_drains_only_the_due_tick() {
        let mut q = EventQueue::new();
        q.push(ev(3, EventKind::Connect, 1));
        q.push(ev(2, EventKind::Connect, 0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_at(1), None);
        assert_eq!(q.pop_at(2), Some(ev(2, EventKind::Connect, 0)));
        assert_eq!(q.pop_at(2), None);
        assert_eq!(q.pop_at(3), Some(ev(3, EventKind::Connect, 1)));
        assert!(q.is_empty());
        assert_eq!(q.pushed(), 2);
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn same_tick_pops_are_phase_then_id_ordered() {
        let mut q = EventQueue::new();
        q.push(ev(7, EventKind::Connect, 2));
        q.push(ev(7, EventKind::Connect, 0));
        q.push(ev(7, EventKind::Generate, 0));
        q.push(ev(7, EventKind::Connect, 1));
        let mut out = Vec::new();
        while let Some(e) = q.pop_at(7) {
            out.push(e);
        }
        assert_eq!(
            out,
            vec![
                ev(7, EventKind::Generate, 0),
                ev(7, EventKind::Connect, 0),
                ev(7, EventKind::Connect, 1),
                ev(7, EventKind::Connect, 2),
            ]
        );
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut base_a = StdRng::seed_from_u64(42);
        let mut base_b = StdRng::seed_from_u64(42);
        let mut fork_a = fork_rng(&mut base_a);
        let mut fork_b = fork_rng(&mut base_b);
        let draws_a: Vec<u64> = (0..8).map(|_| fork_a.gen_range(0..1000)).collect();
        // Draining fork_b differently has no effect on the parent stream:
        // the next fork of both parents still agrees.
        let _ = fork_b.gen_range(0..10u64);
        let second_a: StdRng = fork_rng(&mut base_a);
        let second_b: StdRng = fork_rng(&mut base_b);
        let mut sa = second_a;
        let mut sb = second_b;
        assert_eq!(sa.gen_range(0..u64::MAX), sb.gen_range(0..u64::MAX));
        // And re-deriving the first fork reproduces its draws.
        let mut base_c = StdRng::seed_from_u64(42);
        let mut fork_c = fork_rng(&mut base_c);
        let draws_c: Vec<u64> = (0..8).map(|_| fork_c.gen_range(0..1000)).collect();
        assert_eq!(draws_a, draws_c);
    }
}
