//! Criterion bench: the per-transaction footprint bill. Each iteration
//! generates 10,000 tentative transactions with the benchmark's random
//! mix, admits them to a fresh arena, runs each on one mobile and drops
//! everything — at 64 and at 1,024 items.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use histmerge_history::TxnArena;
use histmerge_replication::MobileNode;
use histmerge_txn::TxnKind;
use histmerge_workload::generator::{initial_state, ScenarioParams, TxnFactory};

const TXNS: usize = 10_000;

fn bench_txn_admit(c: &mut Criterion) {
    let mut group = c.benchmark_group("txn_admit");
    group.sample_size(20);
    for n_vars in [64u32, 1024] {
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
        let origin = Arc::new(initial_state(&params));
        group.bench_with_input(BenchmarkId::new("generate_admit_run", n_vars), &n_vars, |b, _| {
            b.iter(|| {
                let mut factory = TxnFactory::new(params.clone());
                let mut arena = TxnArena::new();
                let mut mobile = MobileNode::new(0, Arc::clone(&origin), 0, 1);
                for _ in 0..TXNS {
                    let id = factory.next_txn(&mut arena, TxnKind::Tentative);
                    mobile.run_tentative(&arena, id);
                }
                black_box(mobile.patch_len());
                drop(black_box((arena, mobile)));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_txn_admit);
criterion_main!(benches);
