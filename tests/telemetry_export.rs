//! Integration tests for the PR-9 telemetry exporters: the strict JSONL
//! validator's edge cases, byte-pinned goldens for the Prometheus text
//! dump and the time-series JSON dump, and the same exporters fed from a
//! real simulation run (the shapes the E22 artifacts and the `obs_report`
//! bin consume).

use std::sync::Arc;

use histmerge::obs::{
    export, validate_json_line, FlightRecorder, Phase, Registry, TickSample, TimeSeries, Tracer,
    TracerHandle,
};
use histmerge::replication::{
    FaultPlan, Protocol, SimConfig, SimReport, Simulation, SyncPath, SyncStrategy, TelemetryConfig,
};
use histmerge::workload::generator::ScenarioParams;

// ---------------------------------------------------------------------
// validate_json_line edge cases
// ---------------------------------------------------------------------

#[test]
fn validator_accepts_escaped_quotes_and_nested_objects() {
    for line in [
        // Escaped quotes, including a backslash immediately before the
        // closing quote of a key.
        r#"{"rule\"quoted":"a\"b\\","v":1}"#,
        // Objects nested inside arrays inside objects, with every scalar
        // kind along the way.
        r#"{"a":{"b":{"c":[{"d":[1,-2.5,3e4]},null,true,false,"x"]}}}"#,
        // Escape forms (what `push_escaped` emits for control bytes).
        r#"{"msg":"tab\t nl\n bell\u0007 done"}"#,
        // The exact shapes the autopsy JSONL uses: a null partner and a
        // sentinel-free one.
        r#"{"type":"reprocess_cause","txn":9,"lost_to":18446744073709551615,"rule":"none"}"#,
        r#"{"tick":40,"edges":[{"txn":7,"lost_to":2,"weight":5}]}"#,
        // Leading/trailing whitespace around a lone value.
        "  [  {\"k\" : [ ] } , -0.5e-3 ]  ",
    ] {
        validate_json_line(line).unwrap_or_else(|e| panic!("rejected {line}: {e}"));
    }
}

#[test]
fn validator_rejects_trailing_garbage_and_malformed_nesting() {
    for line in [
        // Trailing garbage after an otherwise valid value.
        r#"{"a":1}{"b":2}"#,
        r#"{"a":1} x"#,
        r#"[1,2]]"#,
        r#"null null"#,
        // Truncated nesting and bad separators.
        r#"{"a":{"b":1}"#,
        r#"{"a":[1,2}"#,
        r#"{"a" 1}"#,
        // Broken escapes inside strings.
        r#"{"a":"\q"}"#,
        r#"{"a":"\u12g4"}"#,
        // A bare key (no quotes) and a lone closing brace.
        r#"{a:1}"#,
        "}",
    ] {
        assert!(validate_json_line(line).is_err(), "accepted malformed: {line:?}");
    }
}

// ---------------------------------------------------------------------
// Prometheus exporter goldens
// ---------------------------------------------------------------------

fn seeded_registry() -> Registry {
    let mut r = Registry::new();
    r.observe(Phase::MergePlan, 100);
    r.observe(Phase::MergePlan, 300);
    r.observe(Phase::Sync, 7);
    r
}

#[test]
fn prometheus_dump_golden_is_byte_stable() {
    let snapshot = seeded_registry().snapshot();
    let text = prometheus(&[("saved_total", 42.0), ("save_ratio", 0.75)], &snapshot);
    let again = prometheus(&[("saved_total", 42.0), ("save_ratio", 0.75)], &snapshot);
    assert_eq!(text, again, "the dump must be deterministic");
    let expected = "\
# TYPE histmerge_saved_total gauge
histmerge_saved_total 42
# TYPE histmerge_save_ratio gauge
histmerge_save_ratio 0.750000
# TYPE histmerge_phase_count counter
histmerge_phase_count{phase=\"merge_plan\"} 2
histmerge_phase_count{phase=\"sync\"} 1
# TYPE histmerge_phase_total counter
histmerge_phase_total{phase=\"merge_plan\"} 400
histmerge_phase_total{phase=\"sync\"} 7
# TYPE histmerge_phase_max gauge
histmerge_phase_max{phase=\"merge_plan\"} 300
histmerge_phase_max{phase=\"sync\"} 7
# TYPE histmerge_phase_p50_bound gauge
histmerge_phase_p50_bound{phase=\"merge_plan\"} 128
histmerge_phase_p50_bound{phase=\"sync\"} 8
# TYPE histmerge_phase_p99_bound gauge
histmerge_phase_p99_bound{phase=\"merge_plan\"} 512
histmerge_phase_p99_bound{phase=\"sync\"} 8
";
    assert_eq!(text, expected);
}

fn prometheus(gauges: &[(&str, f64)], snapshot: &histmerge::obs::RegistrySnapshot) -> String {
    export::prometheus_text(gauges, Some(snapshot))
}

/// Every non-comment exposition line must be `name value` or
/// `name{phase="..."} value` with a parseable value — the grammar the
/// scrape side relies on.
fn assert_prometheus_wellformed(text: &str) {
    for line in text.lines() {
        if line.starts_with("# TYPE ") {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
        assert!(name.starts_with("histmerge_"), "bad family name: {line}");
        if let Some(open) = name.find('{') {
            assert!(name.ends_with('}'), "unterminated labels: {line}");
            let labels = &name[open + 1..name.len() - 1];
            assert!(
                labels.starts_with("phase=\"") && labels.ends_with('"'),
                "bad label set: {line}"
            );
        }
        value.parse::<f64>().unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
    }
}

// ---------------------------------------------------------------------
// Time-series dump goldens
// ---------------------------------------------------------------------

#[test]
fn timeseries_dump_golden_is_byte_pinned() {
    let ts = TimeSeries::new(5, 8);
    ts.record(0, TickSample::default);
    ts.record(5, || TickSample {
        tick: 5,
        backlog: 2.5,
        deferred: 1,
        active_sessions: 2,
        abandoned_sessions: 0,
        saved: 3,
        redone: 1,
        wal_bytes: 128,
        cohort: 2,
        defer_wait_p50: 1,
        defer_wait_p99: 4,
        merge_plan_p50: 256,
        merge_plan_p99: 1024,
    });
    ts.record(10, || TickSample { tick: 10, saved: 3, redone: 3, ..TickSample::default() });
    let json = ts.to_json();
    validate_json_line(&json).unwrap_or_else(|e| panic!("invalid dump {json}: {e}"));
    // Window 0→5 resolved 4 of which 3 saved (0.750); window 5→10
    // resolved 2 of which 0 saved (0.000).
    let expected = concat!(
        "{\"stride\":5,\"capacity\":8,\"samples\":[",
        "{\"tick\":0,\"backlog\":0.000,\"deferred\":0,\"active_sessions\":0,",
        "\"abandoned_sessions\":0,\"saved\":0,\"redone\":0,\"save_ratio\":0.000,",
        "\"wal_bytes\":0,\"cohort\":0,\"defer_wait_p50\":0,\"defer_wait_p99\":0,",
        "\"merge_plan_p50\":0,\"merge_plan_p99\":0},",
        "{\"tick\":5,\"backlog\":2.500,\"deferred\":1,\"active_sessions\":2,",
        "\"abandoned_sessions\":0,\"saved\":3,\"redone\":1,\"save_ratio\":0.750,",
        "\"wal_bytes\":128,\"cohort\":2,\"defer_wait_p50\":1,\"defer_wait_p99\":4,",
        "\"merge_plan_p50\":256,\"merge_plan_p99\":1024},",
        "{\"tick\":10,\"backlog\":0.000,\"deferred\":0,\"active_sessions\":0,",
        "\"abandoned_sessions\":0,\"saved\":3,\"redone\":3,\"save_ratio\":0.000,",
        "\"wal_bytes\":0,\"cohort\":0,\"defer_wait_p50\":0,\"defer_wait_p99\":0,",
        "\"merge_plan_p50\":0,\"merge_plan_p99\":0}]}",
    );
    assert_eq!(json, expected);
}

// ---------------------------------------------------------------------
// The same exporters fed by a real run
// ---------------------------------------------------------------------

fn telemetry_run() -> (SimReport, Arc<TimeSeries>, Arc<FlightRecorder>) {
    let recorder = Arc::new(FlightRecorder::new(1 << 14));
    let series = Arc::new(TimeSeries::new(1, 128));
    let config = SimConfig {
        n_mobiles: 4,
        duration: 300,
        base_rate: 0.25,
        mobile_rate: 0.2,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy: SyncStrategy::WindowStart { window: 120 },
        workload: ScenarioParams { n_vars: 48, seed: 23, ..ScenarioParams::default() },
        sync_path: SyncPath::Session,
        fault: FaultPlan::none(),
        tracer: TracerHandle::new(recorder.clone()),
        telemetry: TelemetryConfig { series: Some(series.clone()), autopsy: true },
        ..SimConfig::default()
    };
    let report = Simulation::new(config).expect("valid sim config").run();
    (report, series, recorder)
}

#[test]
fn simulation_dumps_are_wellformed_and_coherent() {
    let (report, series, recorder) = telemetry_run();

    // The time-series dump: valid JSON, stable header, ticks strictly
    // increasing on the final stride, cumulative fields monotone.
    let json = series.to_json();
    validate_json_line(&json).unwrap_or_else(|e| panic!("invalid series dump: {e}"));
    assert!(json.starts_with("{\"stride\":"), "{json}");
    let samples = series.samples();
    assert!(!samples.is_empty(), "the run sampled nothing");
    let stride = series.stride();
    for pair in samples.windows(2) {
        assert!(pair[0].tick < pair[1].tick, "ticks not increasing");
        assert!(pair[0].saved <= pair[1].saved, "cumulative saved regressed");
        assert!(pair[0].redone <= pair[1].redone, "cumulative redone regressed");
    }
    for s in &samples {
        assert!(s.tick.is_multiple_of(stride), "tick {} off stride {stride}", s.tick);
    }
    // The final cumulative totals agree with the end-of-run metrics.
    let last = samples.last().unwrap();
    assert_eq!(last.saved, report.metrics.saved as u64);
    assert_eq!(last.redone, (report.metrics.backed_out + report.metrics.reprocessed) as u64);

    // The Prometheus dump built the way the E22 bin builds it: run
    // gauges plus the recorder's registry snapshot.
    let snapshot = recorder.snapshot().expect("ring registry");
    let prom = export::prometheus_text(
        &[
            ("saved_total", report.metrics.saved as f64),
            ("backed_out_total", report.metrics.backed_out as f64),
            ("reprocessed_total", report.metrics.reprocessed as f64),
        ],
        Some(&snapshot),
    );
    assert_prometheus_wellformed(&prom);
    assert!(prom.contains(&format!("histmerge_saved_total {}\n", report.metrics.saved)));
    assert!(prom.contains("histmerge_phase_count{phase=\"merge_plan\"}"), "{prom}");

    // The registry JSON dump validates and the trace dump is JSONL all
    // the way down — the exact inputs `obs_report` consumes.
    let registry = export::registry_json(&snapshot);
    validate_json_line(&registry).unwrap_or_else(|e| panic!("invalid registry dump: {e}"));
    let trace = recorder.dump_jsonl().expect("ring dump");
    assert!(!trace.is_empty());
    for line in trace.lines() {
        validate_json_line(line).unwrap_or_else(|e| panic!("invalid trace line {line}: {e}"));
    }
    // Autopsies were assembled and every sync closed one.
    let autopsies = recorder.autopsies();
    assert_eq!(autopsies.len(), report.metrics.syncs, "one autopsy per sync");
}

#[test]
fn html_report_wraps_a_real_run_self_contained() {
    let (_, series, recorder) = telemetry_run();
    let snapshot = recorder.snapshot().expect("ring registry");
    let blob = format!(
        "{{\"label\":\"telemetry-export-test\",\"timeseries\":{},\"registry\":{},\
         \"metrics\":null,\"autopsies\":[],\"events\":[]}}",
        series.to_json(),
        export::registry_json(&snapshot),
    );
    validate_json_line(&blob).unwrap_or_else(|e| panic!("invalid blob: {e}"));
    let html = export::html_report("telemetry export test", &blob);
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("telemetry-export-test"));
    // Self-contained: no network fetches, and the data cannot break out
    // of its script element.
    assert!(!html.contains("src=\"http"));
    assert!(!html.contains("href=\"http"));
    assert_eq!(html.matches("</script>").count(), 2, "only the shell's own script closers");
}
