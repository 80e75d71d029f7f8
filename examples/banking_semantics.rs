//! Banking demo: how much tentative work each rewriting algorithm saves.
//!
//! A mobile banking terminal ran a day of tentative transactions while
//! disconnected; meanwhile the base processed its own load. One tentative
//! transaction conflicts irreconcilably and must be backed out — the four
//! rewriters differ in how much of the *remaining* work they rescue:
//!
//! * RFTC (classical) backs out the whole reads-from closure;
//! * Algorithm 1 saves the same set but enables semantic pruning;
//! * CBTR saves commuting transactions;
//! * Algorithm 2 saves the union (Theorems 3 and 4).
//!
//! Run with: `cargo run --example banking_semantics`

use std::collections::BTreeSet;

use histmerge::core::prune::{compensate, undo};
use histmerge::core::rewrite::{rewrite, FixMode, RewriteAlgorithm};
use histmerge::history::readsfrom::affected_set;
use histmerge::history::{AugmentedHistory, SerialHistory, TxnArena};
use histmerge::semantics::{OracleStack, StaticAnalyzer};
use histmerge::txn::{DbState, TxnId, VarId};
use histmerge::workload::canned::Bank;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bank = Bank::new();
    let mut arena = TxnArena::new();
    let checking = VarId::new(0);
    let savings = VarId::new(1);
    let fees = VarId::new(2);

    // The tentative day: a bad fee assessment (it will conflict with the
    // base's fee run), followed by deposits that read or touch the same
    // accounts.
    let bad_fee = arena.alloc(|id| bank.deposit(id, "bad-fee", fees, 25));
    let dep1 = arena.alloc(|id| bank.deposit(id, "dep-checking", checking, 200));
    let dep_fee = arena.alloc(|id| bank.deposit(id, "dep-fee", fees, 5));
    let dep2 = arena.alloc(|id| bank.deposit(id, "dep-savings", savings, 80));
    let audit = arena.alloc(|id| bank.audit(id, "audit", &[fees, checking]));

    let hm = SerialHistory::from_order([bad_fee, dep1, dep_fee, dep2, audit]);
    let s0: DbState = [(checking, 1000), (savings, 500), (fees, 0)].into_iter().collect();
    let aug = AugmentedHistory::execute(&arena, &hm, &s0)?;

    // Suppose conflict resolution (step 2) put the fee assessment in B.
    let bad: BTreeSet<TxnId> = [bad_fee].into_iter().collect();
    let ag = affected_set(&arena, &hm, &bad);
    println!("== Banking history ==");
    println!("H_m = {}", hm);
    println!(
        "B = {{bad-fee}}, affected = {:?}\n",
        ag.iter().map(|id| arena.get(*id).name()).collect::<Vec<_>>()
    );

    let oracle = OracleStack::new().with(Box::new(StaticAnalyzer::new()));
    println!("{:<28} {:>7}  saved transactions", "algorithm", "saved");
    for algorithm in [
        RewriteAlgorithm::ReadsFromClosure,
        RewriteAlgorithm::CanFollow,
        RewriteAlgorithm::CommutesBackward,
        RewriteAlgorithm::CanFollowCanPrecede,
    ] {
        let rw = rewrite(&arena, &aug, &bad, algorithm, FixMode::Lemma1, &oracle);
        let names: Vec<&str> = rw.saved().iter().map(|id| arena.get(*id).name()).collect();
        println!(
            "{:<28} {:>3}/{:<3}  {:?}",
            algorithm.name(),
            rw.saved().len(),
            hm.len() - 1,
            names
        );
    }

    // Pruning: both approaches yield the repaired state.
    let rw = rewrite(
        &arena,
        &aug,
        &bad,
        RewriteAlgorithm::CanFollowCanPrecede,
        FixMode::Lemma1,
        &oracle,
    );
    // Both return the repaired state as a write delta over s0.
    let by_undo = s0.patched(&undo(&arena, &aug, &rw, &ag)?);
    let by_compensation = s0.patched(&compensate(&arena, &aug, &rw)?);
    let by_reexecution = AugmentedHistory::execute(&arena, &rw.repaired_history(), &s0)?;
    assert_eq!(&by_undo, by_reexecution.final_state());
    assert_eq!(&by_compensation, by_reexecution.final_state());
    println!("\nrepaired state (undo == compensation == re-execution): {by_undo}");
    println!(
        "bad fee backed out: fees balance is {} (the $25 assessment is gone, the $5 deposit kept)",
        by_undo.get(fees)
    );
    Ok(())
}
