//! Tracing and telemetry for the histmerge workspace.
//!
//! Production replication systems are debuggable only through their event
//! logs; this crate gives the simulator the same forensics without any
//! external dependency:
//!
//! * [`TraceEvent`] — a typed taxonomy of everything interesting the
//!   merge pipeline, the resumable session protocol, the WAL, and
//!   recovery do (graph builds, cycle breaks, rewrites, prunes, session
//!   steps, WAL appends/checkpoints/compactions, replays, injected
//!   faults, invariant violations, and timed spans);
//! * [`Tracer`] — the sink trait instrumented code emits through, with a
//!   zero-cost [`NoopTracer`] default ([`TracerHandle::emit`] skips event
//!   construction entirely when the sink is disabled);
//! * [`FlightRecorder`] — a bounded ring buffer holding the last N
//!   events, rendered to JSONL only when a dump is actually requested;
//!   when an oracle fails or a crash-matrix
//!   assertion trips, [`TracerHandle::dump_to_dir`] (or the
//!   [`dump_on_failure`] panic wrapper) writes the ring to disk so every
//!   red test ships its own trace;
//! * [`Registry`] — fixed-bucket (power-of-two nanosecond) histograms and
//!   counters behind every span-recording sink, snapshotted by
//!   experiment binaries for measured per-phase latency breakdowns.
//!
//! On top of the tracers, the fleet-telemetry layer (PR 9):
//!
//! * [`TimeSeries`] — a bounded per-tick gauge collector (backlog,
//!   defer queue, sessions, windowed save ratio, WAL volume) with
//!   fixed-capacity stride-doubling downsampling;
//! * [`MergeAutopsy`] — structured per-merge explanations (which
//!   conflict edge doomed each backed-out or reprocessed transaction),
//!   reassembled by the flight recorder from autopsy trace events;
//! * [`export`] — Prometheus text-format and registry-JSON dumps plus a
//!   self-contained single-file HTML run report;
//! * [`json`] — the workspace's one JSON escaper and reader, which
//!   dump tests and the benchmark's result sets parse through.
//!
//! Instrumentation is observation-only by contract: tracers never touch
//! simulation RNG streams, metrics counters, or control flow, so a traced
//! run's normalized metrics are byte-identical to an untraced run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autopsy;
mod event;
pub mod export;
pub mod json;
mod registry;
mod ring;
mod timeseries;
mod tracer;

pub use autopsy::{AutopsyEdge, MergeAutopsy};
pub use event::{Phase, SessionStepKind, TraceEvent, NO_PARTNER};
pub use json::validate_json_line;
pub use registry::{PhaseSnapshot, Registry, RegistrySnapshot};
pub use ring::{dump_on_failure, FlightRecorder};
pub use timeseries::{TickSample, TimeSeries};
pub use tracer::{NoopTracer, Tracer, TracerHandle};
