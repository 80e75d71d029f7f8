//! Criterion bench: the three steps of a merge plan that run per pending
//! history, timed separately at two epoch shapes, each with 5-transaction
//! pending histories drawn from the benchmark's random mix (seed 1906):
//!
//! * 1,024 items with a 469-entry `H_b` (window-merge's shape);
//! * 256 items with a 426-entry `H_b` (reconnect-cohort's).
//!
//! `exec` runs a pending history into its augmented history (the
//! tentative log), `conflict_slice` builds its conflict slice through a
//! warm scratch, and `backout` runs the default back-out strategy on that
//! slice with closure weights. Each iteration handles the next of 48
//! pending histories in turn, so a reading is the mean over them.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use histmerge_history::{
    AugmentedHistory, BackoutStrategy, BaseEdgeCache, ClosureTable, PrecedenceGraph, SerialHistory,
    SliceScratch, TwoCycleOptimal, TxnArena,
};
use histmerge_txn::TxnKind;
use histmerge_workload::generator::{initial_state, ScenarioParams, TxnFactory};

const PENDING: usize = 48;

fn bench_merge_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_plan");
    group.sample_size(20);
    for (n_vars, hb_len) in [(1024u32, 469usize), (256, 426)] {
        let params = ScenarioParams {
            n_vars,
            commutative_fraction: 0.7,
            guarded_fraction: 0.1,
            read_only_fraction: 0.1,
            hot_fraction: 0.05,
            hot_prob: 0.05,
            seed: 1906,
            ..ScenarioParams::default()
        };
        let mut factory = TxnFactory::new(params.clone());
        let mut arena = TxnArena::new();
        let hb: SerialHistory =
            (0..hb_len).map(|_| factory.next_txn(&mut arena, TxnKind::Base)).collect();
        let pending: Vec<SerialHistory> = (0..PENDING)
            .map(|_| (0..5).map(|_| factory.next_txn(&mut arena, TxnKind::Tentative)).collect())
            .collect();
        let s0 = Arc::new(initial_state(&params));
        let cache = BaseEdgeCache::of_history(&arena, &hb);
        let mut scratch = SliceScratch::new();
        let slices: Vec<PrecedenceGraph> = pending
            .iter()
            .map(|hm| {
                PrecedenceGraph::conflict_slice_with_scratch(&arena, hm, &hb, &cache, &mut scratch)
            })
            .collect();
        let tables: Vec<ClosureTable> =
            pending.iter().map(|hm| ClosureTable::build(&arena, hm)).collect();
        let shape = format!("{n_vars}items-hb{hb_len}");

        let mut k = 0;
        group.bench_with_input(BenchmarkId::new("exec", &shape), &n_vars, |b, _| {
            b.iter(|| {
                k = (k + 1) % PENDING;
                AugmentedHistory::execute_shared(&arena, &pending[k], &s0).expect("histories run")
            });
        });
        let mut k = 0;
        group.bench_with_input(BenchmarkId::new("conflict_slice", &shape), &n_vars, |b, _| {
            b.iter(|| {
                k = (k + 1) % PENDING;
                PrecedenceGraph::conflict_slice_with_scratch(
                    &arena,
                    &pending[k],
                    &hb,
                    &cache,
                    &mut scratch,
                )
            });
        });
        let strategy = TwoCycleOptimal::new();
        let mut k = 0;
        group.bench_with_input(BenchmarkId::new("backout", &shape), &n_vars, |b, _| {
            b.iter(|| {
                k = (k + 1) % PENDING;
                let table = &tables[k];
                strategy.compute(&slices[k], &|id| table.weight(id)).expect("slices break")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_merge_plan);
criterion_main!(benches);
