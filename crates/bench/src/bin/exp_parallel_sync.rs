//! E14 — the parallel base-tier merge pipeline.
//!
//! Two parts:
//!
//! 1. A micro sweep over batch sizes, timing `merge_batch` with one worker
//!    vs a pool, on the same jobs — the raw pipeline speedup (only
//!    meaningful on a multi-core host; single-CPU runs show pool
//!    overhead).
//! 2. An end-to-end A/B: the full simulation under Strategy 2 with
//!    synchronized reconnects, once with `Parallelism::Serial` and once
//!    with `Parallelism::Threads(4)`. Asserts the final master state,
//!    saved counts, and per-sync records are **identical** — the
//!    pipeline's determinism contract — and reports the batch-size
//!    histogram plus speculative hit/retry counts.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_parallel_sync`

use std::collections::BTreeMap;
use std::time::Instant;

use histmerge_bench::{fmt, Table};
use histmerge_core::merge::{MergeConfig, Merger};
use histmerge_history::{AugmentedHistory, BaseEdgeCache, SerialHistory};
use histmerge_replication::{
    merge_batch, BatchJob, Parallelism, Protocol, SimConfig, Simulation, SyncStrategy,
};
use histmerge_workload::generator::{generate, ScenarioParams};

fn micro_sweep() {
    println!("E14a: merge_batch wall-clock, 1 worker vs pool (40 txns per mobile)\n");
    let mut table = Table::new(&["batch", "serial ms", "pool ms", "speedup"]);
    for batch in [2usize, 4, 8, 16] {
        const PER: usize = 40;
        let sc = generate(&ScenarioParams {
            n_vars: 256,
            n_tentative: batch * PER,
            n_base: 60,
            commutative_fraction: 0.5,
            guarded_fraction: 0.1,
            read_only_fraction: 0.05,
            hot_fraction: 0.05,
            hot_prob: 0.2,
            seed: 77,
            ..ScenarioParams::default()
        });
        let jobs: Vec<BatchJob> = sc
            .hm
            .order()
            .chunks(PER)
            .enumerate()
            .map(|(mobile, chunk)| BatchJob {
                mobile,
                hm: SerialHistory::from_order(chunk.iter().copied()),
            })
            .collect();
        let mut cache = BaseEdgeCache::new();
        cache.sync(&sc.arena, &sc.hb);
        let hb_final =
            AugmentedHistory::execute(&sc.arena, &sc.hb, &sc.s0).unwrap().final_state().clone();
        let make = || Merger::new(MergeConfig::default());
        let workers = Parallelism::Auto.workers(batch).max(2);

        let time = |w: usize| {
            const REPS: usize = 5;
            let start = Instant::now();
            for _ in 0..REPS {
                let out =
                    merge_batch(&sc.arena, &jobs, &sc.hb, &sc.s0, &hb_final, &cache, &make, w);
                assert!(out.iter().all(Result::is_ok));
            }
            start.elapsed().as_secs_f64() * 1e3 / REPS as f64
        };
        let serial_ms = time(1);
        let pool_ms = time(workers);
        table.row_owned(vec![
            batch.to_string(),
            fmt(serial_ms, 2),
            fmt(pool_ms, 2),
            format!("{}x", fmt(serial_ms / pool_ms.max(1e-9), 2)),
        ]);
    }
    table.print();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\n(available cores: {cores} — speedup > 1 expected only with 2+)");
}

fn ab_config(strategy: SyncStrategy, parallelism: Parallelism) -> SimConfig {
    SimConfig {
        n_mobiles: 6,
        duration: 600,
        base_rate: 0.3,
        mobile_rate: 0.25,
        connect_every: 40,
        protocol: Protocol::merging_default(),
        strategy,
        parallelism,
        synchronized_reconnects: true,
        workload: ScenarioParams {
            n_vars: 48,
            commutative_fraction: 0.4,
            guarded_fraction: 0.2,
            read_only_fraction: 0.1,
            hot_fraction: 0.08,
            hot_prob: 0.6,
            seed: 7,
            ..ScenarioParams::default()
        },
        ..SimConfig::default()
    }
}

fn end_to_end_ab() {
    println!("\nE14b: full-simulation A/B, Parallelism::Serial vs Threads(4)\n");
    let mut table =
        Table::new(&["strategy", "syncs", "saved", "specHit", "specRetry", "master equal"]);
    let strategies = [
        ("window w=150".to_string(), SyncStrategy::WindowStart { window: 150 }),
        ("adaptive hb<=60".to_string(), SyncStrategy::AdaptiveWindow { max_hb: 60 }),
    ];
    let mut histogram: BTreeMap<usize, usize> = BTreeMap::new();
    for (label, strategy) in strategies {
        let serial = Simulation::new(ab_config(strategy, Parallelism::Serial))
            .expect("valid sim config")
            .run();
        let parallel = Simulation::new(ab_config(strategy, Parallelism::Threads(4)))
            .expect("valid sim config")
            .run();
        let equal = serial.final_master == parallel.final_master;
        table.row_owned(vec![
            label.clone(),
            parallel.metrics.syncs.to_string(),
            parallel.metrics.saved.to_string(),
            parallel.metrics.speculative_hits.to_string(),
            parallel.metrics.speculative_retries.to_string(),
            equal.to_string(),
        ]);
        assert!(equal, "parallel pipeline diverged from serial under {label}");
        assert_eq!(
            serial.metrics.saved, parallel.metrics.saved,
            "saved counts diverged under {label}"
        );
        assert_eq!(
            serial.metrics.records.len(),
            parallel.metrics.records.len(),
            "sync records diverged under {label}"
        );
        for size in &parallel.metrics.batch_sizes {
            *histogram.entry(*size).or_default() += 1;
        }
    }
    table.print();
    let hist: Vec<String> =
        histogram.iter().map(|(size, count)| format!("{size}:{count}")).collect();
    println!("\nbatch-size histogram (size:count): {}", hist.join(" "));
    println!("Serial and parallel runs produced IDENTICAL masters, saves, and records.");
}

fn main() {
    micro_sweep();
    end_to_end_ab();
}
