//! Two mobiles merging into the same window, one after the other —
//! Section 2.2's Strategy 2 invariant exercised directly (no simulator).
//!
//! Both tentative histories take the window-start state as their original
//! state. Mobile A merges first; its installed updates and re-executed
//! back-outs extend the base history. Mobile B then merges against the
//! extended `H_b` — and must still find it mergeable, because `H_b` still
//! begins at the shared window-start state.

use histmerge::core::merge::{MergeConfig, Merger};
use histmerge::history::{AugmentedHistory, SerialHistory, TxnArena};
use histmerge::replication::BaseNode;
use histmerge::txn::{DbState, TxnKind, VarId};
use histmerge::workload::canned::Bank;

fn v(i: u32) -> VarId {
    VarId::new(i)
}

/// The base history since the window start: the `H_b` each merge in the
/// window runs against.
fn epoch_history(base: &BaseNode) -> SerialHistory {
    base.history_suffix(base.epoch_start()).into_iter().collect()
}

/// Deposits for mobile `m`, re-tagged tentative.
fn deposits(
    bank: &Bank,
    arena: &mut TxnArena,
    prefix: &str,
    accounts: &[u32],
    amount: i64,
) -> SerialHistory {
    accounts
        .iter()
        .map(|acct| {
            arena.alloc(|id| bank.deposit(id, &format!("{prefix}-{acct}"), v(*acct), amount))
        })
        .collect()
}

#[test]
fn sequential_merges_share_the_window_state() {
    let bank = Bank::new();
    let mut arena = TxnArena::new();
    let s0 = DbState::uniform(6, 100);
    let mut base = BaseNode::new(s0.clone());

    // Base activity within the window: a deposit on account 0.
    let b1 = arena
        .alloc(|id| bank.deposit(id, "base-dep", v(0), 10).with_kind(TxnKind::Base).with_id(id));
    base.commit(&arena, b1);

    // Mobile A worked on accounts 0 and 1 from the window-start state.
    let hm_a = deposits(&bank, &mut arena, "A", &[0, 1], 5);
    // Mobile B worked on accounts 0 and 2, also from the window-start state.
    let hm_b = deposits(&bank, &mut arena, "B", &[0, 2], 7);

    let merger = Merger::new(MergeConfig::default());

    // Merge A against H_b = [base-dep].
    let out_a = merger.merge(&arena, &hm_a, &epoch_history(&base), base.epoch_state()).unwrap();
    // A's account-0 deposit forms a 2-cycle with the base deposit and is
    // backed out (members of B are never rescued by semantics — only
    // AFFECTED transactions are); the account-1 deposit is saved.
    assert_eq!(out_a.saved.len(), 1);
    assert_eq!(out_a.backed_out.len(), 1);
    let _ = base.install_updates(&mut arena, &out_a.forwarded);
    for id in &out_a.backed_out {
        base.reexecute(&mut arena, *id);
    }
    assert_eq!(base.master().get(v(0)), 115); // 100 + 10 + 5
    assert_eq!(base.master().get(v(1)), 105);

    // Merge B against the EXTENDED H_b = [base-dep, install].
    let out_b = merger.merge(&arena, &hm_b, &epoch_history(&base), base.epoch_state()).unwrap();
    let _ = base.install_updates(&mut arena, &out_b.forwarded);
    for id in &out_b.backed_out {
        base.reexecute(&mut arena, *id);
    }

    // All of B's work lands too (account 0 contention resolved by
    // commutativity or re-execution, never lost).
    assert_eq!(base.master().get(v(0)), 122); // 100 + 10 + 5 + 7
    assert_eq!(base.master().get(v(2)), 107);
    assert_eq!(base.master().get(v(1)), 105); // A's work untouched by B's merge

    // The final master replays deterministically from the window state
    // through the full committed history.
    let replay = AugmentedHistory::execute(&arena, &epoch_history(&base), &s0).unwrap();
    assert_eq!(replay.final_state(), base.master());
}

#[test]
fn second_merge_sees_firsts_install_as_conflict_when_not_commuting() {
    // Same shape, but with withdrawals: mobile B's guarded withdrawal on
    // account 0 conflicts with A's installed update and is backed out, then
    // re-executed on the merged master.
    let bank = Bank::new();
    let mut arena = TxnArena::new();
    let s0 = DbState::uniform(4, 100);
    let mut base = BaseNode::new(s0.clone());

    let hm_a = deposits(&bank, &mut arena, "A", &[0], 50);
    let wd = arena.alloc(|id| bank.withdraw(id, "B-wd", v(0), 120));
    let hm_b = SerialHistory::from_order([wd]);

    let merger = Merger::new(MergeConfig::default());
    let out_a = merger.merge(&arena, &hm_a, &epoch_history(&base), base.epoch_state()).unwrap();
    let _ = base.install_updates(&mut arena, &out_a.forwarded);
    assert_eq!(base.master().get(v(0)), 150);

    let out_b = merger.merge(&arena, &hm_b, &epoch_history(&base), base.epoch_state()).unwrap();
    // B's withdrawal ran tentatively against the window state (balance
    // 100 < 120: its guard skipped). Against the merged base it conflicts
    // with the install and is backed out...
    assert_eq!(out_b.backed_out, vec![wd]);
    // ... and its re-execution now CLEARS (150 >= 120): the user learns the
    // withdrawal went through after all.
    assert_eq!(out_b.reexecuted, vec![(wd, true)]);
    for id in &out_b.backed_out {
        base.reexecute(&mut arena, *id);
    }
    assert_eq!(base.master().get(v(0)), 30); // 150 - 120
}
