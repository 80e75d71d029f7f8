//! Criterion bench: the hot-path data layout kernels — footprint-bitset
//! conflicts vs `VarSet` intersections, closure-table weights vs per-query
//! scans, copy-on-write execution vs clone-per-step, and the full merge
//! with and without a reused [`MergeScratch`].

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use histmerge_core::merge::{MergeConfig, MergeScratch, Merger};
use histmerge_history::{run_to_final, AugmentedHistory, ClosureTable};
use histmerge_obs::TracerHandle;
use histmerge_txn::{Fix, TxnId};
use histmerge_workload::generator::{generate, Scenario, ScenarioParams};

fn scenario(n: usize) -> Scenario {
    generate(&ScenarioParams {
        n_vars: 512,
        n_tentative: n,
        n_base: n / 2,
        commutative_fraction: 0.6,
        guarded_fraction: 0.1,
        read_only_fraction: 0.05,
        hot_fraction: 0.08,
        hot_prob: 0.2,
        seed: 42,
        ..ScenarioParams::default()
    })
}

fn bench_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_hotpath");
    group.sample_size(20);

    for n in [60usize, 240] {
        let sc = scenario(n);
        let ids: Vec<TxnId> = sc.hm.iter().chain(sc.hb.iter()).collect();

        group.bench_with_input(BenchmarkId::new("conflicts/varset", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for i in 0..ids.len() {
                    for j in (i + 1)..ids.len() {
                        let (a, t) = (sc.arena.get(ids[i]), sc.arena.get(ids[j]));
                        if a.readset().intersects(t.writeset())
                            || a.writeset().intersects(t.readset())
                            || a.writeset().intersects(t.writeset())
                        {
                            hits += 1;
                        }
                    }
                }
                black_box(hits)
            });
        });
        group.bench_with_input(BenchmarkId::new("conflicts/bitset", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for i in 0..ids.len() {
                    for j in (i + 1)..ids.len() {
                        if sc.arena.conflicts(ids[i], ids[j]) {
                            hits += 1;
                        }
                    }
                }
                black_box(hits)
            });
        });

        group.bench_with_input(BenchmarkId::new("execute/clone_per_step", n), &n, |b, _| {
            b.iter(|| {
                let mut state = sc.s0.clone();
                let mut states = vec![state.clone()];
                for id in sc.hm.iter() {
                    let out = sc.arena.get(id).execute(&state, &Fix::empty()).unwrap();
                    state = out.after;
                    states.push(state.clone());
                }
                black_box(states.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("execute/cow_log", n), &n, |b, _| {
            b.iter(|| {
                black_box(AugmentedHistory::execute(&sc.arena, &sc.hm, &sc.s0).unwrap().len())
            });
        });
        group.bench_with_input(BenchmarkId::new("execute/run_to_final", n), &n, |b, _| {
            b.iter(|| black_box(run_to_final(&sc.arena, &sc.hm, &sc.s0).unwrap()));
        });

        group.bench_with_input(BenchmarkId::new("closure/table", n), &n, |b, _| {
            b.iter(|| black_box(ClosureTable::build(&sc.arena, &sc.hm).weights()));
        });

        let merger = Merger::new(MergeConfig::default());
        group.bench_with_input(BenchmarkId::new("merge/fresh", n), &n, |b, _| {
            b.iter(|| black_box(merger.merge(&sc.arena, &sc.hm, &sc.hb, &sc.s0).unwrap()));
        });
        let mut scratch = MergeScratch::new();
        let noop = TracerHandle::noop();
        group.bench_with_input(BenchmarkId::new("merge/scratch", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    merger
                        .merge_traced_scratch(
                            &sc.arena,
                            &sc.hm,
                            &sc.hb,
                            &sc.s0,
                            Default::default(),
                            &noop,
                            &mut scratch,
                        )
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
