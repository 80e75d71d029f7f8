//! `obs_report` — renders a flight-recorder dump plus a time-series
//! dump into one self-contained HTML file.
//!
//! The simulator's telemetry artifacts are plain text: a JSONL event
//! trace (`TracerHandle::dump_jsonl` / `dump_to_dir`), a bounded
//! time-series dump (`TimeSeries::to_json`), and optionally the pinned
//! metrics JSON and a registry snapshot. This bin stitches them into
//! the single-file report `histmerge_obs::export::html_report` builds:
//! no server, no network, open it from disk. Autopsy event runs
//! (`backout_edge`/`reprocess_cause` closed by a `merge_summary`) are
//! reassembled here the same way the flight recorder does it in
//! memory, so a dump pulled off CI explains its casualties too.
//!
//! Every input line is validated before it is embedded; a malformed
//! trace fails the run rather than producing a silently broken report.
//!
//! Usage:
//!
//! ```text
//! obs_report --trace run.jsonl --timeseries ts.json \
//!     [--metrics metrics.json] [--registry registry.json] \
//!     [--label storm-150] [--out report.html]
//! ```

use std::process::exit;

use histmerge_obs::json::{parse, push_escaped, JsonVal};
use histmerge_obs::{export, validate_json_line, NO_PARTNER};

fn usage() -> ! {
    eprintln!(
        "usage: obs_report --trace <events.jsonl> --timeseries <series.json> \
         [--metrics <metrics.json>] [--registry <registry.json>] \
         [--label <name>] [--out <report.html>]"
    );
    exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("obs_report: {message}");
    exit(2);
}

struct Args {
    trace: String,
    timeseries: String,
    metrics: Option<String>,
    registry: Option<String>,
    label: Option<String>,
    out: String,
}

fn parse_args() -> Args {
    let mut trace = None;
    let mut timeseries = None;
    let mut metrics = None;
    let mut registry = None;
    let mut label = None;
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--trace" => trace = Some(value()),
            "--timeseries" => timeseries = Some(value()),
            "--metrics" => metrics = Some(value()),
            "--registry" => registry = Some(value()),
            "--label" => label = Some(value()),
            "--out" => out = Some(value()),
            _ => usage(),
        }
    }
    let (Some(trace), Some(timeseries)) = (trace, timeseries) else {
        usage();
    };
    Args {
        trace,
        timeseries,
        metrics,
        registry,
        label,
        out: out.unwrap_or_else(|| "report.html".into()),
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

/// Reads and validates a single-object JSON file, returning it verbatim
/// for embedding.
fn read_object(path: &str) -> String {
    let body = read(path);
    let trimmed = body.trim();
    validate_json_line(trimmed)
        .unwrap_or_else(|e| fail(&format!("{path} is not a valid JSON object: {e}")));
    trimmed.to_string()
}

fn field_u64(event: &JsonVal, key: &str) -> u64 {
    match event.get(key) {
        Some(JsonVal::Num(n)) => *n as u64,
        _ => fail(&format!("trace event is missing numeric field {key:?}")),
    }
}

fn field_str<'a>(event: &'a JsonVal, key: &str) -> &'a str {
    match event.get(key).and_then(JsonVal::as_str) {
        Some(s) => s,
        None => fail(&format!("trace event is missing string field {key:?}")),
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

fn push_num(out: &mut String, key: &str, v: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
}

/// Renders one autopsy edge from a parsed `backout_edge` or
/// `reprocess_cause` event, in the exact shape `MergeAutopsy::to_json`
/// uses (so reports built from dumps match reports built in memory).
fn render_edge(event: &JsonVal, cause: &str, weight: u64) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"txn\":");
    out.push_str(&field_u64(event, "txn").to_string());
    out.push_str(",\"cause\":");
    push_json_str(&mut out, cause);
    out.push_str(",\"lost_to\":");
    let lost_to = field_u64(event, "lost_to");
    if lost_to == NO_PARTNER {
        out.push_str("null");
    } else {
        out.push_str(&lost_to.to_string());
    }
    out.push_str(",\"rule\":");
    push_json_str(&mut out, field_str(event, "rule"));
    push_num(&mut out, "txn_mask", field_u64(event, "txn_mask"));
    push_num(&mut out, "other_mask", field_u64(event, "other_mask"));
    push_num(&mut out, "weight", weight);
    out.push('}');
    out
}

/// Reassembles autopsy event runs the way the flight recorder does:
/// edges accumulate until a `merge_summary` closes them into one
/// autopsy object. Returns the rendered JSON array.
fn assemble_autopsies(events: &[JsonVal]) -> String {
    let mut autopsies: Vec<String> = Vec::new();
    let mut pending_edges: Vec<String> = Vec::new();
    for event in events {
        match field_str(event, "type") {
            "backout_edge" => {
                let weight = field_u64(event, "weight");
                pending_edges.push(render_edge(event, "backed-out", weight));
            }
            "reprocess_cause" => {
                let cause = field_str(event, "cause").to_string();
                pending_edges.push(render_edge(event, &cause, 0));
            }
            "merge_summary" => {
                let mut out = String::with_capacity(128);
                out.push_str("{\"tick\":");
                out.push_str(&field_u64(event, "tick").to_string());
                for key in [
                    "mobile",
                    "pending",
                    "saved",
                    "backed_out",
                    "reprocessed",
                    "clusters",
                    "plan_ns",
                ] {
                    push_num(&mut out, key, field_u64(event, key));
                }
                out.push_str(",\"edges\":[");
                out.push_str(&std::mem::take(&mut pending_edges).join(","));
                out.push_str("]}");
                autopsies.push(out);
            }
            _ => {}
        }
    }
    format!("[{}]", autopsies.join(","))
}

fn main() {
    let args = parse_args();

    // The trace: every line validated, then parsed for reassembly and
    // embedded verbatim as the report's event tail.
    let trace_body = read(&args.trace);
    let mut lines: Vec<&str> = Vec::new();
    let mut events: Vec<JsonVal> = Vec::new();
    for (i, line) in trace_body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json_line(line).unwrap_or_else(|e| {
            fail(&format!("{}:{}: invalid trace line: {e}", args.trace, i + 1))
        });
        let event = parse(line).unwrap_or_else(|e| fail(&format!("{}:{}: {e}", args.trace, i + 1)));
        lines.push(line);
        events.push(event);
    }

    let timeseries = read_object(&args.timeseries);
    let metrics = args.metrics.as_deref().map(read_object);
    let registry = args.registry.as_deref().map(read_object);
    let label = args.label.clone().unwrap_or_else(|| {
        std::path::Path::new(&args.trace)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "run".into())
    });

    // The data blob `export::html_report` embeds; key order mirrors the
    // shape its chart code reads.
    let mut blob = String::with_capacity(trace_body.len() + timeseries.len() + 1024);
    blob.push_str("{\"label\":");
    push_json_str(&mut blob, &label);
    blob.push_str(",\"timeseries\":");
    blob.push_str(&timeseries);
    blob.push_str(",\"registry\":");
    blob.push_str(registry.as_deref().unwrap_or("null"));
    blob.push_str(",\"metrics\":");
    blob.push_str(metrics.as_deref().unwrap_or("null"));
    blob.push_str(",\"autopsies\":");
    blob.push_str(&assemble_autopsies(&events));
    blob.push_str(",\"events\":[");
    blob.push_str(&lines.join(","));
    blob.push_str("]}");

    let html = export::html_report(&format!("histmerge run report — {label}"), &blob);
    std::fs::write(&args.out, html)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", args.out)));
    println!(
        "{}: {} events, {} autopsies embedded",
        args.out,
        events.len(),
        assemble_autopsies(&events).matches("\"tick\":").count()
    );
}
