//! The run protocol for one workload.
//!
//! 1. Reference run: untraced, convergence oracle on. It warms the
//!    process up and carries the correctness checks; its fingerprint is
//!    what every later run must reproduce.
//! 2. Traced run (`--trace 1` only): a [`SpanSink`] records every span;
//!    the per-layer metrics come from it.
//! 3. Timed reps: untraced, oracle off, peak RSS reset before each. At
//!    least [`MIN_REPS`], and more until `seconds` have passed since the
//!    reference run began, so a run lasts about `seconds` whatever the
//!    workload. Each rep is preceded by a set-up batch that times
//!    `Simulation::new` on its own, see [`setup_batch`]. End-to-end
//!    values are medians over the reps.
//!
//! The simulator is a closed loop in virtual time (a mobile schedules
//! its next reconnect only after its sync resolves), so there is no
//! open-loop lateness to report: throughput is syncs per wall second at
//! the workload's fixed size.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use histmerge_bench::json::{self, JsonVal};
use histmerge_obs::TracerHandle;
use histmerge_replication::{SimConfig, Simulation};

use crate::gate;
use crate::layers;
use crate::report::{median, Metric, Record, Summary};
use crate::spans::{SpanSink, Tree};
use crate::workloads::Workload;

/// Fewest timed reps a run makes, however short `seconds` is.
const MIN_REPS: usize = 5;

/// How long one set-up batch keeps constructing simulations.
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// Linux's user-visible clock tick (`USER_HZ`), the unit of the CPU
/// times in `/proc/self/stat`.
const TICKS_PER_S: f64 = 100.0;

/// What one run of the benchmark measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// How long the whole protocol runs, the timed reps filling what the
    /// reference and traced runs leave.
    pub seconds: f64,
    /// Whether to make the traced run.
    pub trace: bool,
    /// Divides the workload's size (1 for the benchmark).
    pub shrink: u64,
    /// Where to write the traced run's spans, if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// One timed rep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rep {
    /// `Simulation::run` wall time.
    pub wall_s: f64,
    /// Process CPU time (all threads) during `run`.
    pub cpu_s: f64,
    /// Syncs the run performed.
    pub syncs: f64,
    /// Peak resident set during the rep, in KiB.
    pub peak_kib: f64,
    /// §7.1 cost units per resolved tentative transaction.
    pub work_units_per_txn: f64,
    /// Mean `Simulation::new` wall time of the set-up batch before it.
    pub setup_s: f64,
}

/// Runs the whole protocol for one workload.
pub fn measure(opts: &Options) -> Result<Record, String> {
    let deadline = deadline_after(opts.seconds);
    let config = opts.workload.config(opts.seed, opts.shrink);

    let oracle = SimConfig { check_convergence: true, ..config.clone() };
    let reference = Simulation::new(oracle).map_err(|e| e.to_string())?.run();
    gate::convergence(&reference)?;
    let recovery_ns = gate::recovery(&reference)?;
    let fingerprint = gate::fingerprint(&reference);
    let fault = reference.metrics.fault;
    let attempted = (reference.metrics.syncs + fault.abandoned_sessions) as u64;
    let failed = (fault.abandoned_sessions + fault.ledger_gaps) as u64;
    drop(reference);

    let traced =
        if opts.trace { Some(traced_run(opts, &config, fingerprint, recovery_ns)?) } else { None };

    let reps = if reset_peak().is_ok() {
        timed_reps(&config, fingerprint, deadline, true)?
    } else {
        reps_in_child(opts, fingerprint, deadline)?
    };

    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let end_to_end = vec![
        Summary::of("syncs_per_s", "syncs/s", column(|r| r.syncs / r.wall_s)),
        Summary::of("cpu_ms_per_sync", "ms", column(|r| 1e3 * r.cpu_s / r.syncs)),
        Summary::of("peak_rss_mb", "MiB", column(|r| r.peak_kib / 1024.0)),
        Summary::of("setup_s", "s", column(|r| r.setup_s)),
        Summary::of("work_units_per_txn", "units", column(|r| r.work_units_per_txn)),
    ];

    let per_layer = match traced {
        Some((mut metrics, traced_wall_s)) => {
            let mut walls = column(|r| r.wall_s);
            walls.sort_by(f64::total_cmp);
            metrics.push(Metric::new(
                "run.trace_overhead",
                "ratio",
                traced_wall_s / median(&walls) - 1.0,
            ));
            metrics
        }
        None => Vec::new(),
    };

    Ok(Record {
        workload: opts.workload.name().to_string(),
        seed: opts.seed,
        correct: true,
        attempted,
        failed,
        end_to_end,
        per_layer,
    })
}

/// Median `Simulation::new` wall time over one batch of constructions
/// lasting [`SETUP_BATCH`]. A construction takes microseconds on the
/// smaller workloads, so one preemption would swamp a single reading or
/// a batch mean; the median drops it. One batch per rep spreads the
/// samples over the whole run: a set-up time read in one burst shifts
/// with the host's state at that moment, from one process to the next.
fn setup_batch(config: &SimConfig) -> Result<f64, String> {
    let batch = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || batch.elapsed() < SETUP_BATCH {
        let config = config.clone();
        let started = Instant::now();
        let sim = Simulation::new(config).map_err(|e| e.to_string())?;
        times.push(started.elapsed().as_secs_f64());
        drop(sim);
    }
    times.sort_by(f64::total_cmp);
    Ok(median(&times))
}

/// The traced run: per-layer metrics plus its `run()` wall time.
fn traced_run(
    opts: &Options,
    config: &SimConfig,
    fingerprint: u64,
    recovery_ns: u64,
) -> Result<(Vec<Metric>, f64), String> {
    let sink = Arc::new(SpanSink::new());
    let traced = SimConfig { tracer: TracerHandle::new(sink.clone()), ..config.clone() };
    let sim = Simulation::new(traced).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let report = sim.run();
    let wall = started.elapsed();
    gate::same_run(fingerprint, &report)?;
    let (spans, counts) = sink.take();
    let tree = Tree::build(spans);
    if let Some(path) = &opts.spans_out {
        tree.dump(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let metrics = layers::per_layer(&tree, &counts, &report, wall.as_nanos() as u64, recovery_ns);
    Ok((metrics, wall.as_secs_f64()))
}

/// The instant `seconds` from now.
pub fn deadline_after(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds.max(0.0))
}

/// Timed reps until `deadline` (at least [`MIN_REPS`]). With `reset`,
/// the peak-RSS counter is reset before each rep; without, each rep reads
/// the process's peak so far (a fresh process's reps are alike, so that
/// is their common peak).
pub fn timed_reps(
    config: &SimConfig,
    fingerprint: u64,
    deadline: Instant,
    reset: bool,
) -> Result<Vec<Rep>, String> {
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let setup_s = setup_batch(config)?;
        let config = config.clone();
        if reset {
            reset_peak()?;
        }
        let sim = Simulation::new(config).map_err(|e| e.to_string())?;
        let cpu_before = cpu_ticks()?;
        let started = Instant::now();
        let report = sim.run();
        let wall = started.elapsed();
        let cpu = cpu_ticks()? - cpu_before;
        let peak_kib = peak_kib()?;
        gate::same_run(fingerprint, &report)?;
        let m = &report.metrics;
        let resolved = (m.saved + m.backed_out + m.reprocessed).max(1) as f64;
        reps.push(Rep {
            wall_s: wall.as_secs_f64(),
            cpu_s: cpu as f64 / TICKS_PER_S,
            syncs: m.syncs.max(1) as f64,
            peak_kib: peak_kib as f64,
            work_units_per_txn: m.cost.total() / resolved,
            setup_s,
        });
    }
    Ok(reps)
}

/// Runs the timed reps in a fresh child process, for hosts where the
/// peak-RSS counter cannot be reset: the child's peak then covers only
/// the reps.
fn reps_in_child(opts: &Options, fingerprint: u64, deadline: Instant) -> Result<Vec<Rep>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let left = deadline.saturating_duration_since(Instant::now()).as_secs_f64();
    let output = Command::new(exe)
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &left.to_string()])
        .args(["--shrink", &opts.shrink.to_string()])
        .args(["--reps-only", &format!("{fingerprint:016x}")])
        .output()
        .map_err(|e| format!("spawning the rep child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "rep child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("rep child printed nothing")?;
    reps_from_json(&json::parse(last)?)
}

/// One JSON array of reps, the rep child's output line.
pub fn reps_json(reps: &[Rep]) -> String {
    let items: Vec<String> = reps
        .iter()
        .map(|r| {
            format!(
                "[{:?},{:?},{:?},{:?},{:?},{:?}]",
                r.wall_s, r.cpu_s, r.syncs, r.peak_kib, r.work_units_per_txn, r.setup_s
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn reps_from_json(value: &JsonVal) -> Result<Vec<Rep>, String> {
    let rows = value.as_arr().ok_or("rep child output is not an array")?;
    rows.iter()
        .map(|row| {
            let v: Vec<f64> = row
                .as_arr()
                .ok_or("rep is not an array")?
                .iter()
                .filter_map(|x| if let JsonVal::Num(n) = x { Some(*n) } else { None })
                .collect();
            match v[..] {
                [wall_s, cpu_s, syncs, peak_kib, work_units_per_txn, setup_s] => {
                    Ok(Rep { wall_s, cpu_s, syncs, peak_kib, work_units_per_txn, setup_s })
                }
                _ => Err(format!("malformed rep {row:?}")),
            }
        })
        .collect()
}

/// Resets the process's peak-RSS counter (`VmHWM`) to the current RSS.
fn reset_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS via /proc/self/clear_refs: {e}"))
}

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// User plus system CPU time of every thread of the process, dead ones
/// included, in clock ticks (`/proc/self/stat` fields 14 and 15).
fn cpu_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name (field 2) may hold spaces; fields after it are
    // plain. utime and stime are the 12th and 13th after the `)`.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(utime), Some(stime)) => Ok(utime + stime),
        _ => Err("malformed /proc/self/stat".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_round_trip_through_the_child_format() {
        let rep = Rep {
            wall_s: 1.25,
            cpu_s: 1.31,
            syncs: 700.0,
            peak_kib: 51234.0,
            work_units_per_txn: 131.0625,
            setup_s: 2.5e-5,
        };
        let parsed = json::parse(&reps_json(&[rep, rep])).expect("valid JSON");
        assert_eq!(reps_from_json(&parsed), Ok(vec![rep, rep]));
    }

    #[test]
    fn proc_readings_are_available() {
        assert!(peak_kib().expect("VmHWM") > 0);
        let before = cpu_ticks().expect("CPU ticks");
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(50) {
            std::hint::black_box(0);
        }
        assert!(cpu_ticks().expect("CPU ticks") >= before);
    }
}
