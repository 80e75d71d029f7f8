//! Protocol step 6: failed re-executions are reported with reasons.

use histmerge::core::merge::{MergeConfig, Merger};
use histmerge::history::{run_to_final, SerialHistory, TxnArena};
use histmerge::txn::{DbState, TxnKind, VarId};
use histmerge::workload::canned::{Bank, Reservations};

fn v(i: u32) -> VarId {
    VarId::new(i)
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
    let outcome = Merger::new(MergeConfig::default())
        .merge(&arena, &SerialHistory::from_order([tm]), &SerialHistory::from_order([tb]), &s0)
        .unwrap();
    // The tentative withdrawal conflicts (2-cycle on the balance) and is
    // backed out...
    assert_eq!(outcome.backed_out, vec![tm]);
    // ... and its re-execution on the post-base state (balance 20) fails
    // its precondition (20 < 50): reported to the user.
    assert_eq!(outcome.reexecuted, vec![(tm, false)]);
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
    let outcome = Merger::new(MergeConfig::default())
        .merge(&arena, &SerialHistory::from_order([tm]), &SerialHistory::from_order([tb]), &s0)
        .unwrap();
    assert_eq!(outcome.reexecuted, vec![(tm, true)]);
    // Both withdrawals applied: 100 - 30 - 50.
    let replayed_balance = 100 - 30 - 50;
    // new_master only reflects the base + forwarded (nothing saved);
    // re-execution effects are reported, applied by the caller (the
    // simulator commits them as base transactions).
    let hb_final = run_to_final(&arena, &SerialHistory::from_order([tb]), &s0).unwrap();
    assert_eq!(outcome.new_master(&hb_final).get(v(0)), 70);
    let _ = replayed_balance;
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
    let outcome = Merger::new(MergeConfig::default())
        .merge(&arena, &SerialHistory::from_order([tm]), &SerialHistory::from_order([tb]), &s0)
        .unwrap();
    assert_eq!(outcome.backed_out, vec![tm]);
    assert_eq!(outcome.reexecuted, vec![(tm, false)], "no seats left: user informed");
    let hb_final = run_to_final(&arena, &SerialHistory::from_order([tb]), &s0).unwrap();
    let new_master = outcome.new_master(&hb_final);
    assert_eq!(new_master.get(seats), 0);
    assert_eq!(new_master.get(booked_base), 1);
    assert_eq!(new_master.get(booked_mobile), 0);
}
