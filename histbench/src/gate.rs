//! The correctness gate. Any failure here makes the benchmark exit
//! nonzero without printing a result.

use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

use histmerge_replication::{recover, SimReport};

/// A digest of what a run computed: the final master, the commit count
/// and the normalized metrics (every sync record included). Two runs of
/// one configuration must agree on it whatever the timing or tracing.
/// `DefaultHasher::new()` has fixed keys, so digests compare across
/// processes.
pub fn fingerprint(report: &SimReport) -> u64 {
    let mut hasher = HashWriter(DefaultHasher::new());
    std::fmt::Write::write_fmt(
        &mut hasher,
        format_args!(
            "{:?}|{}|{:?}",
            report.final_master,
            report.base_commits,
            report.metrics.normalized()
        ),
    )
    .expect("hashing never fails");
    hasher.0.finish()
}

/// Feeds formatted text straight into a hasher, so a large report is
/// digested without materializing its `Debug` string.
struct HashWriter(DefaultHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// A timed rep must reproduce the reference run exactly.
pub fn same_run(reference: u64, report: &SimReport) -> Result<(), String> {
    let got = fingerprint(report);
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "run diverged from the reference run: fingerprint {got:016x} != {reference:016x}"
        ))
    }
}

/// The convergence oracle must have run and held, with no transaction
/// resolved twice.
pub fn convergence(report: &SimReport) -> Result<(), String> {
    let verdict = report.convergence.ok_or("the convergence oracle did not run")?;
    if verdict.holds() && verdict.double_resolutions == 0 {
        Ok(())
    } else {
        Err(format!("convergence oracle failed: {verdict:?}"))
    }
}

/// With durability on, recovering the end-of-run WAL must reproduce the
/// live commit log and the final master. Returns the time `recover`
/// took, in nanoseconds (0 when the run kept no WAL).
pub fn recovery(report: &SimReport) -> Result<u64, String> {
    let Some(durable) = &report.durable else {
        return Ok(0);
    };
    let started = Instant::now();
    let recovered = recover(&durable.arena, &durable.storage).map_err(|e| e.to_string())?;
    let ns = started.elapsed().as_nanos() as u64;
    if recovered.torn {
        return Err("recovery found a torn tail in a clean log".into());
    }
    if recovered.base.log() != &durable.log[..] {
        return Err("recovered commit log differs from the live log".into());
    }
    if recovered.base.master() != &report.final_master {
        return Err("recovered master differs from the final master".into());
    }
    Ok(ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use histmerge_replication::{ConvergenceReport, Simulation};

    fn tiny_run() -> SimReport {
        let config = Workload::WindowMerge.config(7, 50);
        Simulation::new(config).expect("valid config").run()
    }

    #[test]
    fn a_mismatched_report_fails_the_gate() {
        let reference = fingerprint(&tiny_run());
        let mut report = tiny_run();
        assert_eq!(same_run(reference, &report), Ok(()));
        report.base_commits += 1;
        assert!(same_run(reference, &report).is_err());
    }

    #[test]
    fn a_missing_or_failed_oracle_fails_the_gate() {
        let mut report = tiny_run();
        assert!(convergence(&report).is_err(), "oracle off");
        let verdict = ConvergenceReport {
            applicable: true,
            converged: true,
            commits: 1,
            double_resolutions: 0,
        };
        report.convergence = Some(verdict);
        assert_eq!(convergence(&report), Ok(()));
        report.convergence = Some(ConvergenceReport { double_resolutions: 1, ..verdict });
        assert!(convergence(&report).is_err());
        report.convergence = Some(ConvergenceReport { converged: false, ..verdict });
        assert!(convergence(&report).is_err());
    }
}
