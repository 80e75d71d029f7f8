//! E8 — pruning approaches (Section 6): compensation vs undo vs full
//! re-execution of the repaired history.
//!
//! On deposit-heavy banking workloads (every transaction has a declared
//! inverse), compares wall time of the three ways to obtain the repaired
//! state and verifies they agree bit-for-bit.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_pruning`

use std::collections::BTreeSet;

use histmerge_bench::{fmt, timed, Table};
use histmerge_core::prune::{compensate, undo};
use histmerge_core::rewrite::{rewrite, FixMode, RewriteAlgorithm};
use histmerge_history::readsfrom::affected_set;
use histmerge_history::{AugmentedHistory, SerialHistory, TxnArena};
use histmerge_semantics::StaticAnalyzer;
use histmerge_txn::{DbState, TxnId, VarId};
use histmerge_workload::canned::Bank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a banking tentative history of `n` transactions over `accounts`
/// accounts, with roughly `bad_frac` of them marked bad.
fn scenario(
    n: usize,
    accounts: u32,
    bad_frac: f64,
    seed: u64,
) -> (TxnArena, SerialHistory, BTreeSet<TxnId>, DbState) {
    let bank = Bank::new();
    let mut arena = TxnArena::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bad = BTreeSet::new();
    let hm: SerialHistory = (0..n)
        .map(|i| {
            let acct = VarId::new(rng.gen_range(0..accounts));
            let amt = rng.gen_range(1..100);
            let id = arena.alloc(|id| bank.deposit(id, &format!("d{i}"), acct, amt));
            if rng.gen_bool(bad_frac) {
                bad.insert(id);
            }
            id
        })
        .collect();
    if bad.is_empty() {
        bad.insert(hm.order()[0]);
    }
    let s0 = DbState::uniform(accounts, 1_000);
    (arena, hm, bad, s0)
}

fn main() {
    let oracle = StaticAnalyzer::new();
    let mut table = Table::new(&[
        "history len",
        "pruned",
        "undo ms",
        "compensate ms",
        "re-execute ms",
        "states agree",
    ]);
    println!("E8: pruning cost on deposit workloads (mean of 20 seeds)\n");
    for n in [20usize, 50, 100, 200] {
        let mut ms = [0.0f64; 3];
        let mut pruned_count = 0usize;
        let mut agree = true;
        const SEEDS: u64 = 20;
        for seed in 0..SEEDS {
            let (arena, hm, bad, s0) = scenario(n, 8, 0.1, seed);
            let aug = AugmentedHistory::execute(&arena, &hm, &s0).unwrap();
            let ag = affected_set(&arena, &hm, &bad);
            let rw = rewrite(
                &arena,
                &aug,
                &bad,
                RewriteAlgorithm::CanFollowCanPrecede,
                FixMode::Lemma1,
                &oracle,
            );
            pruned_count += rw.pruned().len();
            let (by_undo, t0) = timed(|| undo(&arena, &aug, &rw, &ag).unwrap());
            let (by_comp, t1) = timed(|| compensate(&arena, &aug, &rw).unwrap());
            let (by_reexec, t2) = timed(|| {
                AugmentedHistory::execute(&arena, &rw.repaired_history(), &s0)
                    .unwrap()
                    .final_state()
                    .clone()
            });
            ms[0] += t0;
            ms[1] += t1;
            ms[2] += t2;
            // Both prunes return write deltas over s0.
            let (by_undo, by_comp) = (s0.patched(&by_undo), s0.patched(&by_comp));
            agree &= by_undo == by_comp && by_comp == by_reexec;
        }
        table.row_owned(vec![
            n.to_string(),
            fmt(pruned_count as f64 / SEEDS as f64, 1),
            fmt(ms[0] / SEEDS as f64, 3),
            fmt(ms[1] / SEEDS as f64, 3),
            fmt(ms[2] / SEEDS as f64, 3),
            agree.to_string(),
        ]);
        assert!(agree, "pruning approaches disagreed at n={n}");
    }
    table.print();
    println!(
        "\nWith deposits commuting, Algorithm 2 saves nearly everything, so pruning\n\
         touches only the few backed-out transactions — far cheaper than re-executing\n\
         the whole repaired history, and the gap widens with history length\n\
         (\"the cost of compensation or the undo approach is relatively very small\",\n\
         Section 7.1)."
    );
}
