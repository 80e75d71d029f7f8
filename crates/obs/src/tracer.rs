//! The tracer trait, its zero-cost default, and the cloneable handle
//! instrumented code carries.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::event::{Phase, TraceEvent};
use crate::registry::RegistrySnapshot;

/// A sink for [`TraceEvent`]s. Implementations must be cheap and
/// observation-only: recording may never influence the instrumented
/// computation (no RNG, no shared mutable simulation state).
pub trait Tracer: Send + Sync + std::fmt::Debug {
    /// `false` when recording is a no-op; [`TracerHandle::emit`] skips
    /// event construction entirely for disabled sinks, which is what
    /// makes the default tracer effectively free.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&self, event: &TraceEvent);

    /// The buffered events as JSONL (one object per line, trailing
    /// newline), for sinks that retain them. `None` for pure-counting or
    /// no-op sinks.
    fn dump_jsonl(&self) -> Option<String> {
        None
    }

    /// A snapshot of the sink's span registry, if it keeps one.
    fn snapshot(&self) -> Option<RegistrySnapshot> {
        None
    }

    /// One phase's `(p50_bound, p99_bound)` without materializing a full
    /// snapshot — the per-tick telemetry sampler's fast path. `None` for
    /// sinks without a registry or phases with no samples yet.
    fn phase_quantiles(&self, phase: Phase) -> Option<(u64, u64)> {
        let _ = phase;
        None
    }
}

/// The zero-cost default: disabled, records nothing, dumps nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &TraceEvent) {}
}

/// A cloneable, shareable handle to a [`Tracer`], with the ergonomics
/// instrumented code needs: lazy event construction, span timing, and
/// failure dumps. `Default` is the no-op tracer (one shared allocation
/// process-wide), so carrying a handle in a config struct costs an `Arc`
/// clone and tracing a disabled run costs one virtual call per site.
#[derive(Clone)]
pub struct TracerHandle(Arc<dyn Tracer>);

impl TracerHandle {
    /// Wraps a tracer implementation.
    pub fn new(tracer: Arc<dyn Tracer>) -> TracerHandle {
        TracerHandle(tracer)
    }

    /// The shared no-op handle ([`NoopTracer`]); allocation-free after
    /// first use.
    pub fn noop() -> TracerHandle {
        static NOOP: OnceLock<Arc<NoopTracer>> = OnceLock::new();
        TracerHandle(NOOP.get_or_init(|| Arc::new(NoopTracer)).clone())
    }

    /// `true` when events will actually be recorded.
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Records the event produced by `f`, constructing it only when the
    /// sink is enabled — payload computation in the closure is free on
    /// the no-op path.
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if self.0.enabled() {
            self.0.record(&f());
        }
    }

    /// Starts a wall-clock span: `Some(now)` when enabled, `None` (no
    /// clock read) otherwise.
    pub fn span_start(&self) -> Option<Instant> {
        self.0.enabled().then(Instant::now)
    }

    /// Finishes a span started with [`TracerHandle::span_start`],
    /// recording a [`TraceEvent::Span`] for `phase`. Returns the
    /// measured nanoseconds (0 when disabled).
    pub fn span_end(&self, phase: Phase, started: Option<Instant>) -> u64 {
        match started {
            Some(started) => {
                let ns = started.elapsed().as_nanos() as u64;
                self.0.record(&TraceEvent::Span { phase, ns });
                ns
            }
            None => 0,
        }
    }

    /// The sink's buffered events as JSONL, if it retains any.
    pub fn dump_jsonl(&self) -> Option<String> {
        self.0.dump_jsonl()
    }

    /// The sink's span-registry snapshot, if it keeps one.
    pub fn snapshot(&self) -> Option<RegistrySnapshot> {
        self.0.snapshot()
    }

    /// One phase's `(p50_bound, p99_bound)` from the sink's registry,
    /// without cloning a whole snapshot. `None` when the sink keeps no
    /// registry or the phase has no samples.
    pub fn phase_quantiles(&self, phase: Phase) -> Option<(u64, u64)> {
        self.0.phase_quantiles(phase)
    }

    /// Writes the sink's buffered events to `<dir>/<label>.jsonl`, where
    /// `<dir>` is `$FLIGHT_RECORDER_DIR` or `target/flight-recorder`
    /// (created if missing). When the sink keeps a span registry, its
    /// snapshot is written alongside as `<label>.registry.json`, so
    /// failure uploads carry the phase histograms too. Returns the JSONL
    /// path written, `None` when the sink retains nothing or the write
    /// failed (failure dumps must never mask the original panic).
    /// `label` is sanitized to a filename-safe slug.
    pub fn dump_to_dir(&self, label: &str) -> Option<std::path::PathBuf> {
        let body = self.0.dump_jsonl()?;
        let dir = std::env::var_os("FLIGHT_RECORDER_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("target/flight-recorder"));
        std::fs::create_dir_all(&dir).ok()?;
        let slug: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect();
        let path = dir.join(format!("{slug}.jsonl"));
        std::fs::write(&path, body).ok()?;
        if let Some(snapshot) = self.0.snapshot() {
            let registry_path = dir.join(format!("{slug}.registry.json"));
            let _ = std::fs::write(&registry_path, crate::export::registry_json(&snapshot));
        }
        Some(path)
    }
}

impl Default for TracerHandle {
    fn default() -> Self {
        TracerHandle::noop()
    }
}

impl std::fmt::Debug for TracerHandle {
    /// Prints the sink's state, not its address.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerHandle").field("enabled", &self.0.enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_skips_event_construction() {
        let handle = TracerHandle::default();
        assert!(!handle.enabled());
        let mut constructed = false;
        handle.emit(|| {
            constructed = true;
            TraceEvent::WalCheckpoint { records: 0 }
        });
        assert!(!constructed, "disabled sink must not build events");
        assert!(handle.span_start().is_none());
        assert_eq!(handle.span_end(Phase::Sync, None), 0);
        assert!(handle.dump_jsonl().is_none());
        assert!(handle.snapshot().is_none());
        assert!(handle.dump_to_dir("noop").is_none());
    }

    #[test]
    fn noop_handles_share_one_allocation() {
        let a = TracerHandle::noop();
        let b = TracerHandle::default();
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn spans_feed_the_registry_and_measure_time() {
        let handle = crate::FlightRecorder::handle(16);
        let started = handle.span_start();
        assert!(started.is_some());
        let ns = handle.span_end(Phase::Install, started);
        let snap = handle.snapshot().unwrap();
        let install = snap.phase(Phase::Install).unwrap();
        assert_eq!(install.count, 1);
        assert_eq!(install.total, ns);
    }

    #[test]
    fn debug_never_leaks_sink_internals() {
        let text = format!("{:?}", TracerHandle::default());
        assert!(text.contains("enabled: false"), "{text}");
    }
}
