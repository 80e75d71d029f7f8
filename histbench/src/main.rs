//! histbench: end-to-end and per-layer numbers on four sync workloads.
//!
//! ```text
//! histbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload. Prints its tables, then one JSON line: end-to-end
//!     medians with --trace 0, per-layer metrics with --trace 1.
//! histbench [--seed <n>] [--seconds <s>] [--out <path>]
//!     Every workload, each in a child process of its own, one after
//!     another; prints every metric and writes the result set to --out.
//! histbench compare <a.json> <b.json> [--bounds <BENCHMARK.json>]
//!     One verdict per workload and end-to-end metric; exits 1 on a
//!     regression.
//! ```
//!
//! Any failed correctness check exits nonzero without a result line.

mod compare;
mod gate;
mod layers;
mod measure;
mod report;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use histmerge_bench::json;
use histmerge_bench::Table;

use measure::Options;
use report::{fmt, Record};
use workloads::Workload;

const USAGE: &str =
    "usage: histbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     histbench [--seed <n>] [--seconds <s>] [--out <path>]\n       \
                     histbench compare <a.json> <b.json> [--bounds <BENCHMARK.json>]";

/// The default workload seed; 2718 is the held-out one.
const DEFAULT_SEED: u64 = 1906;

/// The default length of one workload's run, matching `run_seconds`.
const DEFAULT_SECONDS: f64 = 30.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => Args::parse(&args).and_then(|a| a.run()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("histbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed command line of a measuring invocation.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    /// Divides the workload size (test runs).
    shrink: u64,
    /// Print the full record as the last line (the all-workload parent).
    full: bool,
    /// Run only the timed reps against this reference fingerprint.
    reps_only: Option<u64>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            out: None,
            shrink: 1,
            full: false,
            reps_only: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--full" {
                parsed.full = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |what: &str| format!("bad {what} `{value}`\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    parsed.workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad("seed"))?,
                "--seconds" => {
                    parsed.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("seconds"))?
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    }
                }
                "--out" => parsed.out = Some(PathBuf::from(value)),
                "--shrink" => parsed.shrink = value.parse().map_err(|_| bad("shrink"))?,
                "--reps-only" => {
                    parsed.reps_only =
                        Some(u64::from_str_radix(value, 16).map_err(|_| bad("fingerprint"))?)
                }
                _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
            }
        }
        Ok(parsed)
    }

    fn run(self) -> Result<ExitCode, String> {
        let Some(workload) = self.workload else {
            return self.run_all();
        };
        if let Some(fingerprint) = self.reps_only {
            let config = workload.config(self.seed, self.shrink);
            let deadline = measure::deadline_after(self.seconds);
            let reps = measure::timed_reps(&config, fingerprint, deadline, false)?;
            println!("{}", measure::reps_json(&reps));
            return Ok(ExitCode::SUCCESS);
        }
        let spans_out = self.trace.then(|| {
            PathBuf::from(format!("target/histbench/{}-{}.spans.jsonl", workload.name(), self.seed))
        });
        let record = measure::measure(&Options {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace,
            shrink: self.shrink,
            spans_out,
        })?;
        println!("{} (seed {})", record.workload, record.seed);
        record.e2e_table().print();
        if !record.per_layer.is_empty() {
            println!();
            layer_table(std::slice::from_ref(&record)).print();
        }
        if self.full {
            println!("{}", record.to_json());
        } else {
            println!("{}", record.result_line(self.trace));
        }
        Ok(ExitCode::SUCCESS)
    }

    /// Every workload, each traced, in a child process of its own, one
    /// after another. The parent only collects and prints.
    fn run_all(&self) -> Result<ExitCode, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut records = Vec::new();
        for workload in Workload::ALL {
            eprintln!("histbench: {} (seed {})", workload.name(), self.seed);
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &self.seed.to_string()])
                .args(["--seconds", &self.seconds.to_string()])
                .args(["--shrink", &self.shrink.to_string()])
                .args(["--trace", "1", "--full"])
                .output()
                .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
            if !output.status.success() {
                return Err(format!(
                    "{} failed ({}): {}",
                    workload.name(),
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().ok_or("child printed nothing")?;
            records.push(Record::from_json(&json::parse(last)?)?);
        }

        for r in &records {
            println!("{} (seed {}): end to end, over the timed reps", r.workload, r.seed);
            r.e2e_table().print();
            println!();
        }
        println!("per layer (traced run)");
        layer_table(&records).print();

        if let Some(path) = &self.out {
            let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
            let body: Vec<String> = records.iter().map(Record::to_json).collect();
            let doc = format!(
                "{{\"seed\":{},\"seconds\":{:?},\"nproc\":{nproc},\"workloads\":[{}]}}\n",
                self.seed,
                self.seconds,
                body.join(",")
            );
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            }
            std::fs::write(path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("\nresults: {}", path.display());
        }
        Ok(ExitCode::SUCCESS)
    }
}

/// Per-layer metrics, one column per record.
fn layer_table(records: &[Record]) -> Table {
    let mut headers = vec!["metric", "unit"];
    headers.extend(records.iter().map(|r| r.workload.as_str()));
    let mut table = Table::new(&headers);
    for (i, m) in records[0].per_layer.iter().enumerate() {
        let mut row = vec![m.name.clone(), m.unit.clone()];
        row.extend(
            records.iter().map(|r| r.per_layer.get(i).map_or(String::new(), |m| fmt(m.value))),
        );
        table.row_owned(row);
    }
    table
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let (files, bounds_path) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--bounds" => ([a, b], path.as_str()),
        _ => return Err(USAGE.to_string()),
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let bounds = compare::bounds(&read(bounds_path)?)?;
    let mut sets = Vec::new();
    for path in files {
        let doc = read(path)?;
        let workloads =
            doc.get("workloads").and_then(|w| w.as_arr()).ok_or("no `workloads` list")?;
        sets.push(workloads.iter().map(Record::from_json).collect::<Result<Vec<_>, _>>()?);
    }
    let regressions = compare::compare(&sets[0], &sets[1], &bounds);
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_bench::json::JsonVal;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_single_workload_command_line_parses() {
        let a = args("--workload storm-recovery --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::StormRecovery));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus 1").is_err());
    }

    /// Every workload at about 1/50 size: the correctness gate passes, and
    /// every metric `BENCHMARK.json` names appears in the output.
    #[test]
    fn every_workload_passes_the_gate_and_reports_every_named_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            bench
                .get(key)
                .and_then(JsonVal::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| m.get("name").and_then(JsonVal::as_str).expect("name").to_string())
                .collect()
        };
        let listed: Vec<String> = bench
            .get("workloads")
            .and_then(JsonVal::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonVal::as_str).expect("name").to_string())
            .collect();
        assert_eq!(listed, Workload::ALL.map(|w| w.name().to_string()));

        for workload in Workload::ALL {
            let record = measure::measure(&Options {
                workload,
                seed: 1906,
                seconds: 0.0,
                trace: true,
                shrink: 50,
                spans_out: None,
            })
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(record.correct && record.attempted > 0 && record.failed == 0);
            for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
                let line = json::parse(&record.result_line(trace)).expect("result line is JSON");
                let metrics = line.get("metrics").expect("metrics");
                for name in names(key) {
                    assert!(
                        metrics.get(&name).is_some(),
                        "{}: `{name}` missing from the {key} output",
                        workload.name()
                    );
                }
            }
            let value = |name: &str| {
                record.per_layer.iter().find(|m| m.name == name).expect("per-layer metric").value
            };
            let parts: f64 = [
                "txn.exec.pct",
                "history.precedence.pct",
                "history.backout.pct",
                "core.rewrite.pct",
                "core.prune.pct",
                "core.merge.reexec_check_pct",
                "core.merge.unattributed_pct",
            ]
            .into_iter()
            .map(value)
            .sum();
            let plan = value("core.merge.plan_pct");
            assert!((parts - plan).abs() <= 0.01 * plan.max(1e-9), "{parts} vs plan {plan}");
        }
    }
}
