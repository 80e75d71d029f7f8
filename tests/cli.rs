//! End-to-end tests of the `histmerge` command-line tool.

use std::process::{Command, Output};

fn histmerge(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_histmerge")).args(args).output().expect("binary runs")
}

#[test]
fn invalid_simulation_settings_exit_1_with_the_config_error() {
    for (arg, field) in [("connect=0", "connect_every"), ("window=0", "window")] {
        let out = histmerge(&["simulate", arg]);
        assert_eq!(out.status.code(), Some(1), "simulate {arg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(field), "simulate {arg}: stderr names {field}: {stderr}");
        assert!(out.stdout.is_empty(), "no report for a rejected config");
    }
}

#[test]
fn small_simulation_runs_and_reports() {
    let out = histmerge(&["simulate", "mobiles=2", "ticks=60"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("save ratio"));
}
