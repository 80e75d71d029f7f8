//! Criterion bench: the per-transaction bill over a transaction's
//! lifecycle. Each iteration generates 10,000 tentative transactions with
//! the benchmark's random mix, admits them to a fresh arena, records each
//! in one mobile's pending history and drops everything — at 64 and at
//! 1,024 items. A mobile executes nothing; the re-execution arm adds the
//! one execution the reprocessing baseline pays per transaction, on a
//! base node (`BaseNode::reexecute`: the transaction promoted to base in
//! place and committed under its own id), its step 6.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use histmerge_history::TxnArena;
use histmerge_replication::{BaseNode, MobileNode};
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
        group.bench_with_input(BenchmarkId::new("generate_admit_push", n_vars), &n_vars, |b, _| {
            b.iter(|| {
                let mut factory = TxnFactory::new(params.clone());
                let mut arena = TxnArena::new();
                let mut mobile = MobileNode::new(Arc::clone(&origin));
                for _ in 0..TXNS {
                    let id = factory.next_txn(&mut arena, TxnKind::Tentative);
                    mobile.push_tentative(id);
                }
                black_box(mobile.pending());
                drop(black_box((arena, mobile)));
            });
        });
        group.bench_with_input(
            BenchmarkId::new("generate_admit_push_reexecute", n_vars),
            &n_vars,
            |b, _| {
                b.iter(|| {
                    let mut factory = TxnFactory::new(params.clone());
                    let mut arena = TxnArena::new();
                    let mut mobile = MobileNode::new(Arc::clone(&origin));
                    let mut base = BaseNode::new((*origin).clone(), 1, true);
                    for _ in 0..TXNS {
                        let id = factory.next_txn(&mut arena, TxnKind::Tentative);
                        mobile.push_tentative(id);
                        base.reexecute(&mut arena, id);
                    }
                    black_box((mobile.pending(), base.committed()));
                    drop(black_box((arena, mobile, base)));
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_txn_admit);
criterion_main!(benches);
