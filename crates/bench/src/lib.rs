//! Shared helpers for the experiment binaries and benchmarks.
//!
//! Every experiment in `src/bin/` regenerates one table or figure of
//! EXPERIMENTS.md: it prints a Markdown-ish aligned table to stdout and is
//! deterministic for its built-in seeds. See DESIGN.md §4 for the
//! experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

pub mod json;

/// A simple aligned table printer for experiment output.
///
/// # Example
///
/// ```rust
/// use histmerge_bench::Table;
///
/// let mut t = Table::new(&["n", "saved", "ratio"]);
/// t.row(&["10", "7", "0.70"]);
/// let rendered = t.render();
/// assert!(rendered.contains("saved"));
/// assert!(rendered.contains("0.70"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:>w$} | ", cell, w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    histmerge_obs::json::push_escaped(&mut out, s);
    out
}

impl Table {
    /// Renders the table as a JSON array of row objects keyed by header
    /// (all values as strings — the artifacts mirror the printed tables).
    pub fn render_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .headers
                    .iter()
                    .zip(row.iter())
                    .map(|(h, v)| format!("\"{}\":\"{}\"", json_escape(h), json_escape(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// Renders an experiment artifact: the experiment name plus its named
/// tables, as one JSON document.
pub fn artifact_json(experiment: &str, tables: &[(&str, &Table)]) -> String {
    let entries: Vec<String> = tables
        .iter()
        .map(|(name, table)| format!("\"{}\":{}", json_escape(name), table.render_json()))
        .collect();
    format!(
        "{{\"experiment\":\"{}\",\"tables\":{{{}}}}}",
        json_escape(experiment),
        entries.join(",")
    )
}

/// Writes an experiment's JSON artifact to `<dir>/<name>.json`, where
/// `<dir>` is `$EXPERIMENTS_DIR` or `target/experiments`, creating the
/// directory. CI uploads the directory via `actions/upload-artifact`.
/// Returns the path written.
pub fn write_artifact(name: &str, json: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("EXPERIMENTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/experiments"));
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write experiment artifact");
    path
}

/// The path `<dir>/<filename>` under the experiments artifact directory
/// (`$EXPERIMENTS_DIR` or `target/experiments`, created if missing) —
/// for non-JSON artifacts ([`write_artifact`] handles the `.json` ones):
/// Prometheus dumps, trace JSONL, HTML reports.
pub fn experiments_path(filename: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("EXPERIMENTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/experiments"));
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir.join(filename)
}

/// Times a closure, returning `(result, milliseconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64() * 1e3)
}

/// Formats a float with the given precision (experiment-table helper).
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["alg", "saved"]);
        t.row(&["rftc", "2"]);
        t.row_owned(vec!["algorithm2".into(), "17".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("alg"));
        assert!(lines[1].starts_with("|-"));
        assert!(lines[3].contains("algorithm2"));
        // Columns align: every line same length.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn timed_returns_result() {
        let (v, ms) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }

    #[test]
    fn json_rendering_escapes_and_nests() {
        let mut t = Table::new(&["alg", "note"]);
        t.row(&["rftc", "a \"quoted\"\nvalue"]);
        assert_eq!(t.render_json(), r#"[{"alg":"rftc","note":"a \"quoted\"\nvalue"}]"#);
        let doc = artifact_json("exp_demo", &[("main", &t)]);
        assert!(doc.starts_with(r#"{"experiment":"exp_demo","tables":{"main":["#));
        assert!(doc.ends_with("]}}"));
    }

    #[test]
    fn artifacts_land_in_experiments_dir() {
        let dir = std::env::temp_dir().join("histmerge-artifact-test");
        std::env::set_var("EXPERIMENTS_DIR", &dir);
        let path = write_artifact("exp_smoke", "{\"experiment\":\"exp_smoke\"}");
        std::env::remove_var("EXPERIMENTS_DIR");
        assert_eq!(path, dir.join("exp_smoke.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"experiment\":\"exp_smoke\"}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
