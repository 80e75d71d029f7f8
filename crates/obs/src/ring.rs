//! The flight recorder: a bounded ring of the last N events, plus the
//! panic wrapper that turns red tests into forensic traces.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use crate::autopsy::{AutopsyEdge, MergeAutopsy};
use crate::event::{Phase, TraceEvent};
use crate::registry::{Registry, RegistrySnapshot};
use crate::tracer::{Tracer, TracerHandle};

/// A bounded ring buffer of the last N events plus a span registry, both
/// behind one lock, so recording a span takes one lock.
/// Recording an event beyond capacity evicts the oldest, so memory
/// stays fixed however long the run; the dump renders the retained
/// events to JSONL lazily (recording stores the event value itself —
/// rendering on the hot path would pay a string allocation per event,
/// most of which are evicted unseen), oldest first.
///
/// The recorder additionally reassembles autopsy event runs
/// ([`TraceEvent::BackoutEdge`] / [`TraceEvent::ReprocessCause`] closed
/// by a [`TraceEvent::MergeSummary`]) into structured [`MergeAutopsy`]
/// values, retained on the same capacity bound.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    recorded: u64,
    pending_edges: Vec<AutopsyEdge>,
    autopsies: VecDeque<MergeAutopsy>,
    registry: Registry,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(Ring {
                events: VecDeque::new(),
                recorded: 0,
                pending_edges: Vec::new(),
                autopsies: VecDeque::new(),
                registry: Registry::new(),
            }),
        }
    }

    /// The recorder wrapped in a ready-to-use [`TracerHandle`].
    pub fn handle(capacity: usize) -> TracerHandle {
        TracerHandle::new(std::sync::Arc::new(FlightRecorder::new(capacity)))
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ring lock").events.len()
    }

    /// `true` when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("ring lock").recorded
    }

    /// The merge autopsies assembled so far, oldest first. Bounded by the
    /// ring capacity: the oldest autopsy is evicted past it.
    pub fn autopsies(&self) -> Vec<MergeAutopsy> {
        self.inner.lock().expect("ring lock").autopsies.iter().cloned().collect()
    }
}

impl Tracer for FlightRecorder {
    fn record(&self, event: &TraceEvent) {
        let mut ring = self.inner.lock().expect("ring lock");
        match *event {
            TraceEvent::Span { phase, ns } => ring.registry.observe(phase, ns),
            TraceEvent::TickSpan { phase, ticks } => ring.registry.observe(phase, ticks),
            TraceEvent::BackoutEdge {
                txn, lost_to, rule, txn_mask, other_mask, weight, ..
            } => {
                ring.pending_edges.push(AutopsyEdge::from_backout(
                    txn, lost_to, rule, txn_mask, other_mask, weight,
                ));
            }
            TraceEvent::ReprocessCause {
                txn, cause, lost_to, rule, txn_mask, other_mask, ..
            } => {
                ring.pending_edges.push(AutopsyEdge::from_reprocess(
                    txn, cause, lost_to, rule, txn_mask, other_mask,
                ));
            }
            TraceEvent::MergeSummary {
                tick,
                mobile,
                pending,
                saved,
                backed_out,
                reprocessed,
                clusters,
                plan_ns,
            } => {
                let edges = std::mem::take(&mut ring.pending_edges);
                if ring.autopsies.len() == self.capacity {
                    ring.autopsies.pop_front();
                }
                ring.autopsies.push_back(MergeAutopsy {
                    tick,
                    mobile,
                    pending,
                    saved,
                    backed_out,
                    reprocessed,
                    clusters,
                    plan_ns,
                    edges,
                });
            }
            _ => {}
        }
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(event.clone());
        ring.recorded += 1;
    }

    fn dump_jsonl(&self) -> Option<String> {
        let ring = self.inner.lock().expect("ring lock");
        let mut out = String::new();
        for event in &ring.events {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        Some(out)
    }

    fn snapshot(&self) -> Option<RegistrySnapshot> {
        Some(self.inner.lock().expect("ring lock").registry.snapshot())
    }

    fn phase_quantiles(&self, phase: Phase) -> Option<(u64, u64)> {
        self.inner.lock().expect("ring lock").registry.phase_quantiles(phase)
    }
}

/// Runs `f`; if it panics (an oracle failure, a diverged shadow
/// recovery, a crash-matrix assertion), writes `tracer`'s buffered
/// events to `<dir>/<label>.jsonl` first, then re-raises the original
/// panic — so the red test ships its trace without changing its verdict.
pub fn dump_on_failure<T>(tracer: &TracerHandle, label: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => value,
        Err(payload) => {
            if let Some(path) = tracer.dump_to_dir(label) {
                eprintln!("flight recorder dumped to {}", path.display());
            }
            resume_unwind(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::json::validate_json_line;

    #[test]
    fn ring_truncates_at_capacity_keeping_the_newest() {
        let recorder = FlightRecorder::new(3);
        for ns in 0..10u64 {
            recorder.record(&TraceEvent::Span { phase: Phase::Sync, ns });
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.capacity(), 3);
        assert_eq!(recorder.recorded(), 10);
        let dump = recorder.dump_jsonl().unwrap();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        // Oldest first, newest last — the final three of the ten.
        assert!(lines[0].contains("\"ns\":7"), "{lines:?}");
        assert!(lines[2].contains("\"ns\":9"), "{lines:?}");
        for line in lines {
            validate_json_line(line).unwrap();
        }
        // The registry saw every sample, not just the retained ones.
        let snap = recorder.snapshot().unwrap();
        assert_eq!(snap.phase(Phase::Sync).unwrap().count, 10);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let recorder = FlightRecorder::new(0);
        recorder.record(&TraceEvent::WalCheckpoint { records: 1 });
        recorder.record(&TraceEvent::WalCheckpoint { records: 2 });
        assert_eq!(recorder.len(), 1);
        assert!(recorder.dump_jsonl().unwrap().contains("\"records\":2"));
    }

    #[test]
    fn autopsy_runs_assemble_under_their_summary() {
        let recorder = FlightRecorder::new(64);
        recorder.record(&TraceEvent::BackoutEdge {
            tick: 40,
            mobile: 1,
            txn: 7,
            lost_to: 2,
            rule: "mobile-read-base",
            txn_mask: 3,
            other_mask: 2,
            weight: 5,
        });
        recorder.record(&TraceEvent::ReprocessCause {
            tick: 40,
            mobile: 1,
            txn: 9,
            cause: "merge-failed",
            lost_to: crate::event::NO_PARTNER,
            rule: "none",
            txn_mask: 4,
            other_mask: 0,
        });
        recorder.record(&TraceEvent::MergeSummary {
            tick: 40,
            mobile: 1,
            pending: 4,
            saved: 2,
            backed_out: 1,
            reprocessed: 1,
            clusters: 2,
            plan_ns: 11,
        });
        // A second, edge-free sync closes with an empty autopsy.
        recorder.record(&TraceEvent::MergeSummary {
            tick: 55,
            mobile: 0,
            pending: 3,
            saved: 3,
            backed_out: 0,
            reprocessed: 0,
            clusters: 1,
            plan_ns: 7,
        });
        let autopsies = recorder.autopsies();
        assert_eq!(autopsies.len(), 2);
        assert_eq!(autopsies[0].tick, 40);
        assert_eq!(autopsies[0].edges.len(), 2);
        assert_eq!(autopsies[0].edges[0].lost_to, Some(2));
        assert_eq!(autopsies[0].edges[1].cause, "merge-failed");
        assert_eq!(autopsies[0].edges[1].lost_to, None);
        assert!(autopsies[1].edges.is_empty());
        // The JSONL lines are still recorded verbatim alongside.
        assert_eq!(recorder.recorded(), 4);
        assert!(recorder.dump_jsonl().unwrap().contains("\"type\":\"merge_summary\""));
    }

    #[test]
    fn autopsies_are_bounded_by_capacity() {
        let recorder = FlightRecorder::new(2);
        for tick in 0..5u64 {
            recorder.record(&TraceEvent::MergeSummary {
                tick,
                mobile: 0,
                pending: 1,
                saved: 1,
                backed_out: 0,
                reprocessed: 0,
                clusters: 1,
                plan_ns: 0,
            });
        }
        let autopsies = recorder.autopsies();
        assert_eq!(autopsies.len(), 2);
        assert_eq!(autopsies[0].tick, 3);
        assert_eq!(autopsies[1].tick, 4);
    }

    #[test]
    fn dump_on_failure_writes_then_rethrows() {
        let dir = std::env::temp_dir().join("histmerge-flight-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("FLIGHT_RECORDER_DIR", &dir);
        let handle = FlightRecorder::handle(16);
        handle.emit(|| TraceEvent::Fault { tick: 3, kind: "loss" });
        let result = catch_unwind(AssertUnwindSafe(|| {
            dump_on_failure(&handle, "unit test/dump", || panic!("forced failure"));
        }));
        std::env::remove_var("FLIGHT_RECORDER_DIR");
        assert!(result.is_err(), "the panic must propagate");
        let body = std::fs::read_to_string(dir.join("unit-test-dump.jsonl")).unwrap();
        for line in body.lines() {
            validate_json_line(line).unwrap();
        }
        assert!(body.contains("\"kind\":\"loss\""));
        // The registry snapshot rides along for `if: failure()` uploads.
        let registry = std::fs::read_to_string(dir.join("unit-test-dump.registry.json")).unwrap();
        validate_json_line(&registry).unwrap();
        assert!(registry.starts_with("{\"phases\":["), "{registry}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_on_failure_is_transparent_on_success() {
        let handle = FlightRecorder::handle(4);
        let v = dump_on_failure(&handle, "never-written", || 41 + 1);
        assert_eq!(v, 42);
    }
}
