//! The fleet loop: each tick's due events, reconnect scheduling,
//! admission control and the reconnect cohort.

use rand::Rng;

use histmerge_obs::{Phase, SessionStepKind, TraceEvent};
use histmerge_txn::TxnKind;

use super::Simulation;
use crate::connectivity::LinkTrace;
use crate::sched::{Event, EventKind};
use crate::sync::SyncPath;

/// The next reconnection tick: `tick + every`, shifted by
/// `draw − jitter ∈ [−jitter, +jitter]`, clamped to land strictly after
/// `tick`. Saturating arithmetic throughout — the old inline expression
/// mixed unsigned addition and subtraction in an order that could
/// underflow for jitters exceeding `tick + every`.
pub(super) fn jittered_next_connect(tick: u64, every: u64, jitter: u64, draw: u64) -> u64 {
    tick.saturating_add(every).saturating_add(draw).saturating_sub(jitter).max(tick + 1)
}

impl Simulation {
    /// The mobile tier's tick: pops exactly the events due at `tick` — the
    /// fleet-wide generation event (if generation fires this tick) and the
    /// reconnecting mobiles' connect events — so a tick costs O(due
    /// events), not O(fleet). Generation pops before every connect and
    /// connects pop in mobile-id order, so transaction identities are
    /// allocated in one canonical order before any sync runs, and the
    /// reconnect batch installs in mobile-id order. Returns base work
    /// units.
    pub(super) fn step_events(&mut self, tick: u64) -> f64 {
        let mut batch: Vec<usize> = Vec::new();
        let mut popped_any = false;
        let tracer = self.config.tracer.clone();
        let span = tracer.span_start();
        while let Some(event) = self.events.pop_at(tick) {
            popped_any = true;
            match event.kind {
                EventKind::Generate => {
                    // One event stands for the whole tier: every mobile
                    // generates the same count on the same ticks.
                    for i in 0..self.mobiles.len() {
                        for _ in 0..self.gen_count {
                            let id = self.source.next_txn(&mut self.arena, TxnKind::Tentative);
                            self.mobiles[i].push_tentative(id);
                            self.metrics.tentative_generated += 1;
                        }
                    }
                    self.schedule_next_generate(tick + 1);
                }
                EventKind::Connect => batch.push(event.mobile),
            }
        }
        if popped_any {
            // Span only on active ticks, so idle ticks stay free and the
            // flight recorder isn't flooded with empty drains.
            tracer.span_end(Phase::Scheduler, span);
        }
        let batch = self.admit_batch(batch, tick);
        let mut work = 0.0;
        if !batch.is_empty() {
            work += self.sync_batch(&batch, tick);
            for &i in &batch {
                let time = self.schedule_reconnect(i, tick);
                self.events.push(Event { time, kind: EventKind::Connect, mobile: i });
            }
        }
        work
    }

    /// Advances the shared generation accumulator tick by tick from `from`
    /// (`acc += rate; while acc >= 1.0 { acc -= 1.0 }`) until it finds
    /// the next tick where generation fires, and schedules that
    /// tick's [`EventKind::Generate`] event carrying the per-mobile count.
    /// Total work across a run is O(duration), independent of fleet size.
    pub(super) fn schedule_next_generate(&mut self, from: u64) {
        for t in from..self.config.duration {
            self.gen_acc += self.config.mobile_rate;
            let mut count = 0u64;
            while self.gen_acc >= 1.0 {
                self.gen_acc -= 1.0;
                count += 1;
            }
            if count > 0 {
                self.gen_count = count;
                self.events.push(Event { time: t, kind: EventKind::Generate, mobile: 0 });
                return;
            }
        }
    }

    /// Draws the next reconnection tick (jittered unless reconnects are
    /// synchronized).
    fn schedule_next_connect(&mut self, tick: u64) -> u64 {
        let every = self.config.connect_every;
        if self.config.synchronized_reconnects {
            return tick + every;
        }
        let jitter = self.config.connect_every / 4;
        let draw = if jitter > 0 { self.rng.gen_range(0..=2 * jitter) } else { 0 };
        jittered_next_connect(tick, every, jitter, draw)
    }

    /// The next reconnection tick for mobile `i` after its sync at
    /// `tick`: the legacy cadence draw, pulled *earlier* by the retry
    /// backoff when the mobile's session was just abandoned (capped
    /// exponential delay plus seeded jitter, replacing the flat
    /// wait-out-the-cadence abandon), then pushed *later* to the next
    /// tick the connectivity model has the link up. With the default
    /// configuration every adjustment is the identity, and the cadence
    /// draw itself always happens — the shared RNG stream stays aligned
    /// across configurations.
    fn schedule_reconnect(&mut self, i: usize, tick: u64) -> u64 {
        let cadence = self.schedule_next_connect(tick);
        let backoff = self.config.session.backoff;
        let target = if backoff.enabled && self.backoff_level[i] > 0 {
            let delay = backoff.delay(self.backoff_level[i]);
            // Up to 25% seeded jitter de-synchronizes a cohort of mobiles
            // failing (and therefore backing off) in lockstep.
            let jitter_span = delay / 4;
            let jitter =
                if jitter_span > 0 { self.backoff_rng.gen_range(0..=jitter_span) } else { 0 };
            let early = tick.saturating_add(delay).saturating_add(jitter);
            if early < cadence {
                self.metrics.storm.backoff_reschedules += 1;
                self.metrics.storm.backoff_delay_ticks += early - tick;
                let seq = self.mobiles[i].unacked().map_or(0, |u| u.seq);
                self.session_step(tick, i, seq, SessionStepKind::Backoff);
            }
            early.min(cadence)
        } else {
            cadence
        };
        self.config.connectivity.next_up(i, target).max(tick + 1)
    }

    /// Applies the admission cap to this tick's reconnect cohort: the
    /// deferred queue is drained first (FIFO — no mobile starves), then
    /// fresh arrivals fill the remaining slots and the excess is shed to
    /// the back of the queue. With the cap disabled (the default) this
    /// is the identity and the queue stays empty.
    fn admit_batch(&mut self, fresh: Vec<usize>, tick: u64) -> Vec<usize> {
        let cap = self.config.admission.max_batch;
        if cap == 0 {
            debug_assert!(self.deferred.is_empty(), "nothing defers without a cap");
            return fresh;
        }
        let mut admitted = Vec::with_capacity(cap.min(self.deferred.len() + fresh.len()));
        let mut drained = 0u64;
        while admitted.len() < cap {
            let Some((i, arrived)) = self.deferred.pop_front() else { break };
            let waited = tick - arrived;
            self.metrics.storm.defer_wait_ticks += waited;
            self.metrics.storm.defer_wait_max = self.metrics.storm.defer_wait_max.max(waited);
            self.metrics.defer_waits.push(waited);
            drained += 1;
            admitted.push(i);
        }
        self.metrics.storm.deferred_drained += drained;
        let mut shed = 0usize;
        for i in fresh {
            if admitted.len() < cap {
                admitted.push(i);
            } else {
                self.deferred.push_back((i, tick));
                shed += 1;
            }
        }
        self.metrics.storm.shed += shed as u64;
        self.metrics.storm.deferred_peak =
            self.metrics.storm.deferred_peak.max(self.deferred.len() as u64);
        if shed > 0 || drained > 0 {
            let (admitted_len, deferred_len) = (admitted.len(), self.deferred.len());
            self.config.tracer.emit(|| TraceEvent::Admission {
                tick,
                admitted: admitted_len,
                shed,
                deferred: deferred_len,
            });
        }
        admitted
    }

    /// Synchronizes every member of a reconnect batch, one at a time in
    /// mobile-id order: each member plans its merge live against the
    /// epoch history its predecessors grew, then installs before the next
    /// member plans. Returns base work units.
    fn sync_batch(&mut self, batch: &[usize], tick: u64) -> f64 {
        self.metrics.batch_sizes.push(batch.len());
        self.tick_cohort += batch.len() as u64;
        let tracer = self.config.tracer.clone();
        let mut work = 0.0;
        for &i in batch {
            let before = self.metrics.records.len();
            let span = tracer.span_start();
            work += match self.config.sync_path {
                SyncPath::Legacy => self.sync_mobile(i, tick),
                SyncPath::Session => self.sync_session(i, tick),
            };
            let ns = tracer.span_end(Phase::Sync, span);
            if ns > 0 {
                // Attach the wall-clock span to the records this member
                // emitted (normally one; recovery traffic can add more).
                for record in &mut self.metrics.records[before..] {
                    record.sync_ns = ns;
                }
            }
        }
        work
    }
}
