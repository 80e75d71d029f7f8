//! Exporters: Prometheus text format, registry-snapshot JSON, and the
//! self-contained HTML run report.
//!
//! Everything here is plain string assembly with deterministic output:
//! stable key and family order, so golden tests can pin exact bytes and
//! CI artifacts diff cleanly across runs.

use crate::registry::RegistrySnapshot;

/// Renders a registry snapshot as one JSON object (stable key order):
/// `{"phases":[{"phase":"sync","count":..,"total":..,"max":..,
/// "p50_bound":..,"p99_bound":..},..]}` in [`Phase::ALL`](crate::Phase::ALL) order.
pub fn registry_json(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::with_capacity(32 + snapshot.phases.len() * 96);
    out.push_str("{\"phases\":[");
    for (i, p) in snapshot.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"phase\":\"");
        out.push_str(p.phase.name());
        out.push_str("\",\"count\":");
        out.push_str(&p.count.to_string());
        out.push_str(",\"total\":");
        out.push_str(&p.total.to_string());
        out.push_str(",\"max\":");
        out.push_str(&p.max.to_string());
        out.push_str(",\"p50_bound\":");
        out.push_str(&p.p50_bound.to_string());
        out.push_str(",\"p99_bound\":");
        out.push_str(&p.p99_bound.to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders a Prometheus text-format exposition: one `histmerge_<name>`
/// gauge per entry of `gauges` (caller order), then — when a registry
/// snapshot is given — per-phase span families labelled by phase name.
/// Integer-valued samples render without a decimal point; everything is
/// emitted in a fixed order so the dump is byte-stable for a given run.
pub fn prometheus_text(gauges: &[(&str, f64)], registry: Option<&RegistrySnapshot>) -> String {
    let mut out = String::with_capacity(64 * gauges.len() + 512);
    for (name, value) in gauges {
        out.push_str("# TYPE histmerge_");
        out.push_str(name);
        out.push_str(" gauge\nhistmerge_");
        out.push_str(name);
        out.push(' ');
        out.push_str(&format_value(*value));
        out.push('\n');
    }
    if let Some(snapshot) = registry {
        type PhaseField = fn(&crate::registry::PhaseSnapshot) -> u64;
        let families: [(&str, &str, PhaseField); 5] = [
            ("histmerge_phase_count", "counter", |p| p.count),
            ("histmerge_phase_total", "counter", |p| p.total),
            ("histmerge_phase_max", "gauge", |p| p.max),
            ("histmerge_phase_p50_bound", "gauge", |p| p.p50_bound),
            ("histmerge_phase_p99_bound", "gauge", |p| p.p99_bound),
        ];
        for (family, kind, get) in families {
            out.push_str("# TYPE ");
            out.push_str(family);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            for p in &snapshot.phases {
                out.push_str(family);
                out.push_str("{phase=\"");
                out.push_str(p.phase.name());
                out.push_str("\"} ");
                out.push_str(&get(p).to_string());
                out.push('\n');
            }
        }
    }
    out
}

fn format_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Builds the self-contained single-file HTML run report around a data
/// blob (one JSON object, typically `{"label":..,"timeseries":..,
/// "metrics":..,"registry":..,"autopsies":[..],"events":[..]}`). The
/// blob is embedded inline — `</` is escaped so a `</script>` inside a
/// string can never terminate the document — and rendered client-side by
/// hand-rolled chart code; the file opens from disk with no network or
/// dependency.
pub fn html_report(title: &str, data_json: &str) -> String {
    let mut safe_title = String::new();
    for c in title.chars() {
        match c {
            '<' => safe_title.push_str("&lt;"),
            '>' => safe_title.push_str("&gt;"),
            '&' => safe_title.push_str("&amp;"),
            c => safe_title.push(c),
        }
    }
    let safe_data = data_json.replace("</", "<\\/");
    let mut out = String::with_capacity(safe_data.len() + REPORT_SHELL.len() + 256);
    let shell =
        REPORT_SHELL.replacen("__TITLE__", &safe_title, 2).replacen("__DATA__", &safe_data, 1);
    out.push_str(&shell);
    out
}

const REPORT_SHELL: &str = r##"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:960px;color:#222;padding:0 1em}
h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em;border-bottom:1px solid #ddd}
table{border-collapse:collapse;margin:0.5em 0;font-size:13px}
td,th{border:1px solid #ccc;padding:2px 8px;text-align:right}
th{background:#f4f4f4}td:first-child,th:first-child{text-align:left}
svg{background:#fafafa;border:1px solid #ddd;margin:0.5em 0}
.lbl{font-size:11px;fill:#666}.axis{stroke:#999;stroke-width:1}
.muted{color:#777;font-size:12px}
</style>
</head>
<body>
<h1>__TITLE__</h1>
<div id="report"><p class="muted">JavaScript disabled — raw data below.</p></div>
<script id="data" type="application/json">__DATA__</script>
<script>
"use strict";
var DATA = JSON.parse(document.getElementById("data").textContent);
var root = document.getElementById("report");
root.textContent = "";

function el(tag, text) {
  var e = document.createElement(tag);
  if (text !== undefined) e.textContent = text;
  root.appendChild(e);
  return e;
}

function table(headers, rows) {
  var t = el("table"), tr = document.createElement("tr");
  headers.forEach(function (h) {
    var th = document.createElement("th");
    th.textContent = h;
    tr.appendChild(th);
  });
  t.appendChild(tr);
  rows.forEach(function (row) {
    var r = document.createElement("tr");
    row.forEach(function (cell) {
      var td = document.createElement("td");
      td.textContent = cell;
      r.appendChild(td);
    });
    t.appendChild(r);
  });
  return t;
}

// A minimal line chart: ticks on x, one polyline per named series.
function chart(name, ticks, series) {
  el("h2", name);
  var W = 900, H = 220, PL = 60, PB = 24;
  var svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("width", W);
  svg.setAttribute("height", H);
  var xmax = Math.max(1, ticks[ticks.length - 1] || 1);
  var ymax = 0;
  series.forEach(function (s) {
    s.values.forEach(function (v) { if (v > ymax) ymax = v; });
  });
  if (ymax === 0) ymax = 1;
  function px(t) { return PL + (W - PL - 10) * (t / xmax); }
  function py(v) { return (H - PB) - (H - PB - 10) * (v / ymax); }
  function line(x1, y1, x2, y2) {
    var l = document.createElementNS(svg.namespaceURI, "line");
    l.setAttribute("x1", x1); l.setAttribute("y1", y1);
    l.setAttribute("x2", x2); l.setAttribute("y2", y2);
    l.setAttribute("class", "axis");
    svg.appendChild(l);
  }
  function label(x, y, text, anchor) {
    var t = document.createElementNS(svg.namespaceURI, "text");
    t.setAttribute("x", x); t.setAttribute("y", y);
    t.setAttribute("class", "lbl");
    if (anchor) t.setAttribute("text-anchor", anchor);
    t.textContent = text;
    svg.appendChild(t);
  }
  line(PL, 10, PL, H - PB);
  line(PL, H - PB, W - 10, H - PB);
  label(PL - 4, 16, ymax.toPrecision(3), "end");
  label(PL - 4, H - PB, "0", "end");
  label(W - 10, H - 8, "tick " + xmax, "end");
  var colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"];
  series.forEach(function (s, i) {
    var p = document.createElementNS(svg.namespaceURI, "polyline");
    var pts = ticks.map(function (t, j) {
      return px(t).toFixed(1) + "," + py(s.values[j]).toFixed(1);
    });
    p.setAttribute("points", pts.join(" "));
    p.setAttribute("fill", "none");
    p.setAttribute("stroke", colors[i % colors.length]);
    p.setAttribute("stroke-width", "1.5");
    svg.appendChild(p);
    label(PL + 8 + i * 160, 18, s.name);
    var sw = document.createElementNS(svg.namespaceURI, "rect");
    sw.setAttribute("x", PL + i * 160); sw.setAttribute("y", 10);
    sw.setAttribute("width", 6); sw.setAttribute("height", 6);
    sw.setAttribute("fill", colors[i % colors.length]);
    svg.appendChild(sw);
  });
  root.appendChild(svg);
}

if (DATA.label) el("p", "Run: " + DATA.label).className = "muted";

var ts = DATA.timeseries;
if (ts && ts.samples && ts.samples.length) {
  var ticks = ts.samples.map(function (s) { return s.tick; });
  function col(k) { return ts.samples.map(function (s) { return s[k] || 0; }); }
  chart("Save ratio (windowed)", ticks, [{ name: "save_ratio", values: col("save_ratio") }]);
  chart("Backlog and defer queue", ticks, [
    { name: "backlog", values: col("backlog") },
    { name: "deferred", values: col("deferred") }
  ]);
  chart("Sessions", ticks, [
    { name: "active", values: col("active_sessions") },
    { name: "abandoned", values: col("abandoned_sessions") }
  ]);
  chart("Cumulative resolution", ticks, [
    { name: "saved", values: col("saved") },
    { name: "redone", values: col("redone") }
  ]);
  if (col("wal_bytes").some(function (v) { return v > 0; })) {
    chart("WAL bytes (cumulative)", ticks, [{ name: "wal_bytes", values: col("wal_bytes") }]);
  }
  el("p", ts.samples.length + " samples, stride " + ts.stride).className = "muted";
}

if (DATA.registry && DATA.registry.phases && DATA.registry.phases.length) {
  el("h2", "Phase breakdown");
  root.appendChild(table(
    ["phase", "count", "total", "max", "p50 bound", "p99 bound"],
    DATA.registry.phases.map(function (p) {
      return [p.phase, p.count, p.total, p.max, p.p50_bound, p.p99_bound];
    })
  ));
}

if (DATA.metrics) {
  el("h2", "End-of-run metrics");
  var rows = [];
  Object.keys(DATA.metrics).forEach(function (k) {
    var v = DATA.metrics[k];
    if (typeof v === "object" && v !== null) {
      Object.keys(v).forEach(function (k2) { rows.push([k + "." + k2, String(v[k2])]); });
    } else {
      rows.push([k, String(v)]);
    }
  });
  root.appendChild(table(["metric", "value"], rows));
}

if (DATA.autopsies && DATA.autopsies.length) {
  el("h2", "Merge autopsies (" + DATA.autopsies.length + ")");
  var edgeRows = [];
  DATA.autopsies.forEach(function (a) {
    a.edges.forEach(function (e) {
      edgeRows.push([
        a.tick, a.mobile, e.txn, e.cause,
        e.lost_to === null ? "—" : e.lost_to, e.rule, e.weight
      ]);
    });
  });
  root.appendChild(table(
    ["tick", "mobile", "txn", "cause", "lost to", "rule", "weight"],
    edgeRows.slice(0, 500)
  ));
  if (edgeRows.length > 500) {
    el("p", (edgeRows.length - 500) + " more edges elided").className = "muted";
  }
}

if (DATA.events && DATA.events.length) {
  el("h2", "Trace tail");
  el("p", DATA.events.length + " events retained in the flight-recorder ring").className = "muted";
}
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::registry::Registry;

    fn snapshot() -> RegistrySnapshot {
        let mut r = Registry::new();
        r.observe(Phase::MergePlan, 100);
        r.observe(Phase::MergePlan, 300);
        r.observe(Phase::Sync, 7);
        r.snapshot()
    }

    #[test]
    fn registry_json_is_pinned_and_valid() {
        let json = registry_json(&snapshot());
        crate::json::validate_json_line(&json).unwrap();
        assert_eq!(
            json,
            "{\"phases\":[\
             {\"phase\":\"merge_plan\",\"count\":2,\"total\":400,\"max\":300,\
             \"p50_bound\":128,\"p99_bound\":512},\
             {\"phase\":\"sync\",\"count\":1,\"total\":7,\"max\":7,\
             \"p50_bound\":8,\"p99_bound\":8}]}"
        );
        assert_eq!(registry_json(&RegistrySnapshot::default()), "{\"phases\":[]}");
    }

    #[test]
    fn prometheus_dump_is_pinned() {
        let text =
            prometheus_text(&[("saved_total", 42.0), ("save_ratio", 0.75)], Some(&snapshot()));
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

    #[test]
    fn prometheus_without_registry_emits_gauges_only() {
        let text = prometheus_text(&[("backlog", 17.25)], None);
        assert_eq!(text, "# TYPE histmerge_backlog gauge\nhistmerge_backlog 17.250000\n");
    }

    #[test]
    fn html_report_embeds_escaped_data() {
        let html = html_report("storm <run>", "{\"x\":\"</script>\",\"n\":1}");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<title>storm &lt;run&gt;</title>"));
        // The embedded blob cannot terminate the script element early.
        assert!(html.contains("{\"x\":\"<\\/script>\",\"n\":1}"));
        assert!(!html.contains("{\"x\":\"</script>"));
        // Self-contained: nothing is fetched from the network.
        assert!(!html.contains("src=\"http"));
        assert!(!html.contains("href=\"http"));
    }
}
