//! Intrusion recovery: the rewriting machinery beyond replication.
//!
//! The paper's footnote notes the rewriting methods "can also be used to
//! improve the performance of optimistic replication protocols" — and the
//! authors' companion work ([AJL98], [LAJ99]) applies exactly this
//! machinery to *recovery from malicious transactions*: given a committed
//! history and a transaction later found to be malicious, back it out while
//! saving as much innocent work as possible.
//!
//! The example also exercises the operation-level substrate: the innocent
//! workload arrives as an *interleaved* schedule, from which the explicit
//! serial history `H^s` is extracted (Section 3's standing assumption).
//!
//! Run: `cargo run --example intrusion_recovery`

use std::collections::BTreeSet;

use histmerge::core::prune::undo;
use histmerge::core::rewrite::{rewrite, FixMode, RewriteAlgorithm};
use histmerge::history::interleaved::{ops_of_transaction, InterleavedSchedule};
use histmerge::history::readsfrom::affected_set;
use histmerge::history::{AugmentedHistory, TxnArena};
use histmerge::semantics::StaticAnalyzer;
use histmerge::txn::{DbState, VarId};
use histmerge::workload::canned::Bank;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bank = Bank::new();
    let mut arena = TxnArena::new();
    let payroll = VarId::new(0);
    let vendor = VarId::new(1);
    let attacker = VarId::new(2);

    // A committed day of transactions; t_evil siphons funds.
    let t1 = arena.alloc(|id| bank.deposit(id, "payroll-topup", payroll, 5_000));
    let t_evil = arena.alloc(|id| bank.transfer(id, "EVIL-siphon", payroll, attacker, 3_000));
    let t2 = arena.alloc(|id| bank.deposit(id, "payroll-bonus", payroll, 250));
    let t3 = arena.alloc(|id| bank.deposit(id, "vendor-invoice", vendor, 900));

    // The workload executed interleaved at the operation level; recover
    // the explicit serial history first.
    let mut schedule = InterleavedSchedule::new();
    for id in [t1, t_evil, t2, t3] {
        for op in ops_of_transaction(arena.get(id)) {
            schedule.push(op);
        }
    }
    println!("interleaved schedule: {schedule}");
    let serial = schedule.serial_order().expect("the committed history was serializable");
    println!("explicit serial history H^s: {serial}\n");

    let s0: DbState = [(payroll, 10_000), (vendor, 0), (attacker, 0)].into_iter().collect();
    let aug = AugmentedHistory::execute(&arena, &serial, &s0)?;
    println!("state after the attack: {}", aug.final_state());

    // Forensics flags the siphon; back it out, saving innocent work.
    let bad: BTreeSet<_> = [t_evil].into_iter().collect();
    let ag = affected_set(&arena, &serial, &bad);
    let oracle = StaticAnalyzer::new();
    let rw = rewrite(
        &arena,
        &aug,
        &bad,
        RewriteAlgorithm::CanFollowCanPrecede,
        FixMode::Lemma1,
        &oracle,
    );
    let names: Vec<&str> = rw.saved().iter().map(|id| arena.get(*id).name()).collect();
    println!(
        "\naffected by the siphon: {:?}",
        ag.iter().map(|id| arena.get(*id).name()).collect::<Vec<_>>()
    );
    println!("saved without re-execution: {names:?}");

    // Undo returns the recovered state as a write delta over s0.
    let recovered = s0.patched(&undo(&arena, &aug, &rw, &ag)?);
    println!("recovered state: {recovered}");

    // The recovered state equals re-running only the innocent work. Note
    // the bonus is NOT saved: `payroll += 250` does not commute with the
    // guarded siphon near its balance threshold, so semantics-aware
    // rewriting correctly refuses to keep it.
    let clean = AugmentedHistory::execute(&arena, &rw.repaired_history(), &s0)?;
    assert_eq!(&recovered, clean.final_state());
    assert_eq!(recovered.get(attacker), 0, "siphoned funds restored");
    assert_eq!(recovered.get(payroll), 15_000);

    // Finish recovery: re-execute the innocent affected transactions on
    // the clean state (protocol step 6, minus the malicious transaction).
    let mut state = recovered;
    for (id, _) in rw.suffix() {
        if *id == t_evil {
            continue;
        }
        state = arena.get(*id).execute(&state, &histmerge::txn::Fix::empty())?.after;
        println!("re-executed {}", arena.get(*id).name());
    }
    println!("final state: {state}");
    assert_eq!(state.get(payroll), 15_250);
    assert_eq!(state.get(vendor), 900);
    assert_eq!(state.get(attacker), 0);
    println!("\nOK: the siphon is gone; innocent work saved or re-applied.");
    Ok(())
}
