//! Protocol step 6: failed re-executions are reported with reasons.
//!
//! The merger stops at the install plan; the base runs step 6. Each test
//! installs a merge's forwarded values on a [`BaseNode`] that committed
//! `H_b`, re-executes the backed-out transactions there and reads the
//! base's verdicts.

use histmerge::core::merge::{MergeConfig, MergeOutcome, Merger};
use histmerge::history::fixtures::example1;
use histmerge::history::{run_to_final, SerialHistory, TxnArena};
use histmerge::replication::BaseNode;
use histmerge::txn::{DbState, TxnId, TxnKind, VarId};
use histmerge::workload::canned::{Bank, Reservations};

fn v(i: u32) -> VarId {
    VarId::new(i)
}

/// Protocol steps 5 and 6 at the base: commits `hb` on a base holding
/// `s0`, installs the merge's forwarded values and re-executes its
/// backed-out transactions in order. Returns the base and each
/// re-execution's `(tentative, succeeded)` verdict.
fn install_and_reexecute(
    arena: &mut TxnArena,
    hb: &SerialHistory,
    s0: &DbState,
    outcome: &MergeOutcome,
) -> (BaseNode, Vec<(TxnId, bool)>) {
    let mut base = BaseNode::new(s0.clone(), 1, false);
    for id in hb.iter() {
        base.commit(arena, id);
    }
    let _ = base.install_updates(arena, &outcome.forwarded);
    let verdicts = outcome.backed_out.iter().map(|&id| (id, base.reexecute(arena, id))).collect();
    (base, verdicts)
}

#[test]
fn insufficient_funds_reexecution_fails() {
    // Base and mobile both withdraw from the same account. The base
    // withdrawal is durable; the tentative one is backed out and no longer
    // clears on the new master.
    let bank = Bank::new();
    let mut arena = TxnArena::new();
    let tm = arena.alloc(|id| {
        bank.withdraw(id, "mobile-withdraw", v(0), 50).with_kind(TxnKind::Tentative).with_id(id)
    });
    let tb = arena.alloc(|id| {
        bank.withdraw(id, "base-withdraw", v(0), 80).with_kind(TxnKind::Base).with_id(id)
    });
    let s0: DbState = [(v(0), 100)].into_iter().collect();
    let hb = SerialHistory::from_order([tb]);
    let outcome = Merger::new(MergeConfig::default())
        .merge(&arena, &SerialHistory::from_order([tm]), &hb, &s0)
        .unwrap();
    // The tentative withdrawal conflicts (2-cycle on the balance) and is
    // backed out...
    assert_eq!(outcome.backed_out, vec![tm]);
    // ... and its re-execution on the post-base state (balance 20) fails
    // its precondition (20 < 50): reported to the user.
    let (base, verdicts) = install_and_reexecute(&mut arena, &hb, &s0, &outcome);
    assert_eq!(verdicts, vec![(tm, false)]);
    assert_eq!(base.master().get(v(0)), 20);
    let hb_final = run_to_final(&arena, &SerialHistory::from_order([tb]), &s0).unwrap();
    assert_eq!(outcome.new_master(&hb_final).get(v(0)), 20);
}

#[test]
fn sufficient_funds_reexecution_succeeds() {
    let bank = Bank::new();
    let mut arena = TxnArena::new();
    let tm = arena.alloc(|id| {
        bank.withdraw(id, "mobile-withdraw", v(0), 50).with_kind(TxnKind::Tentative).with_id(id)
    });
    let tb = arena.alloc(|id| {
        bank.withdraw(id, "base-withdraw", v(0), 30).with_kind(TxnKind::Base).with_id(id)
    });
    let s0: DbState = [(v(0), 100)].into_iter().collect();
    let hb = SerialHistory::from_order([tb]);
    let outcome = Merger::new(MergeConfig::default())
        .merge(&arena, &SerialHistory::from_order([tm]), &hb, &s0)
        .unwrap();
    let (base, verdicts) = install_and_reexecute(&mut arena, &hb, &s0, &outcome);
    assert_eq!(verdicts, vec![(tm, true)]);
    // Both withdrawals applied once the base re-executes: 100 - 30 - 50.
    assert_eq!(base.master().get(v(0)), 100 - 30 - 50);
    // new_master only reflects the base + forwarded (nothing saved);
    // re-execution effects are the base's (the simulator commits them as
    // base transactions).
    let hb_final = run_to_final(&arena, &SerialHistory::from_order([tb]), &s0).unwrap();
    assert_eq!(outcome.new_master(&hb_final).get(v(0)), 70);
}

#[test]
fn overbooked_reservation_reported() {
    // One seat left; the base sells it first. The tentative reservation is
    // backed out and its re-execution is reported as failed.
    let res = Reservations::new();
    let mut arena = TxnArena::new();
    let (seats, booked_base, booked_mobile) = (v(0), v(1), v(2));
    let tm = arena.alloc(|id| {
        res.reserve(id, "mobile-reserve", seats, booked_mobile)
            .with_kind(TxnKind::Tentative)
            .with_id(id)
    });
    let tb = arena.alloc(|id| {
        res.reserve(id, "base-reserve", seats, booked_base).with_kind(TxnKind::Base).with_id(id)
    });
    let s0: DbState = [(seats, 1), (booked_base, 0), (booked_mobile, 0)].into_iter().collect();
    let hb = SerialHistory::from_order([tb]);
    let outcome = Merger::new(MergeConfig::default())
        .merge(&arena, &SerialHistory::from_order([tm]), &hb, &s0)
        .unwrap();
    assert_eq!(outcome.backed_out, vec![tm]);
    let (base, verdicts) = install_and_reexecute(&mut arena, &hb, &s0, &outcome);
    assert_eq!(verdicts, vec![(tm, false)], "no seats left: user informed");
    let hb_final = run_to_final(&arena, &SerialHistory::from_order([tb]), &s0).unwrap();
    for master in [outcome.new_master(&hb_final), base.master().clone()] {
        assert_eq!(master.get(seats), 0);
        assert_eq!(master.get(booked_base), 1);
        assert_eq!(master.get(booked_mobile), 0);
    }
}

#[test]
fn example1_backed_out_transactions_reexecute_fine() {
    // Example 1 backs out Tm3 and Tm4; both re-execute fine at the base
    // after Tm1 and Tm2's forwarded values are installed.
    let mut ex = example1();
    let outcome =
        Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
    let (_, verdicts) = install_and_reexecute(&mut ex.arena, &ex.hb, &ex.s0, &outcome);
    assert_eq!(verdicts, vec![(ex.m[2], true), (ex.m[3], true)]);
}
