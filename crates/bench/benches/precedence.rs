//! Criterion bench: conflict-slice construction against a window-merge
//! sized epoch — about 500 base transactions over 1,024 items with a
//! light hotspot, and a 5-transaction pending history.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use histmerge_history::{BaseEdgeCache, PrecedenceGraph};
use histmerge_workload::generator::{generate, ScenarioParams};

fn bench_precedence(c: &mut Criterion) {
    let mut group = c.benchmark_group("precedence");
    group.sample_size(20);
    let n_base = 500;
    let params = ScenarioParams {
        n_vars: 1024,
        n_tentative: 5,
        n_base,
        hot_prob: 0.05,
        seed: 1906,
        ..ScenarioParams::default()
    };
    let sc = generate(&params);
    let cache = BaseEdgeCache::of_history(&sc.arena, &sc.hb);
    group.bench_with_input(BenchmarkId::new("conflict_slice", n_base), &n_base, |b, _| {
        b.iter(|| PrecedenceGraph::conflict_slice(&sc.arena, &sc.hm, &sc.hb, &cache));
    });
    group.finish();
}

criterion_group!(benches, bench_precedence);
criterion_main!(benches);
