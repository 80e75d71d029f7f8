//! Two mobiles merging into the same window, one after the other —
//! Section 2.2's Strategy 2 invariant exercised directly (no simulator).
//!
//! Both tentative histories take the window-start state as their original
//! state. Mobile A merges first; its installed updates and re-executed
//! back-outs extend the base history. Mobile B then merges against the
//! extended `H_b` — and must still find it mergeable, because `H_b` still
//! begins at the shared window-start state.

use std::sync::Arc;

use histmerge::core::merge::{MergeConfig, Merger};
use histmerge::history::{
    run_to_final, AugmentedHistory, PrecedenceGraph, SerialHistory, TxnArena,
};
use histmerge::replication::BaseNode;
use histmerge::txn::{DbState, Expr, ProgramBuilder, Transaction, TxnKind, VarId};
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
    let mut base = BaseNode::new(s0.clone(), 1, false);

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
    let mut base = BaseNode::new(s0.clone(), 1, false);

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
    let verdicts: Vec<_> =
        out_b.backed_out.iter().map(|&id| (id, base.reexecute(&mut arena, id))).collect();
    assert_eq!(verdicts, vec![(wd, true)]);
    assert_eq!(base.master().get(v(0)), 30); // 150 - 120
}

#[test]
fn promoted_reexecution_is_base_work_for_the_next_merge() {
    // Mobile A's two-account transfer-in loses to a base deposit on
    // account 0 and is re-executed: promoted in place, it enters H_b
    // under its own id. Mobile B's deposit on account 4 conflicts with
    // nothing else in H_b, so the only cycle it can form is with A's
    // promoted transaction — and back-out must pick B's own.
    let bank = Bank::new();
    let mut arena = TxnArena::new();
    let s0 = DbState::uniform(6, 100);
    let mut base = BaseNode::new(s0.clone(), 1, false);
    let b1 = arena
        .alloc(|id| bank.deposit(id, "base-dep", v(0), 10).with_kind(TxnKind::Base).with_id(id));
    base.commit(&arena, b1);

    let both = Arc::new(
        ProgramBuilder::new("A-both")
            .read(v(0))
            .read(v(4))
            .update(v(0), Expr::var(v(0)) + Expr::konst(5))
            .update(v(4), Expr::var(v(4)) + Expr::konst(5))
            .build()
            .unwrap(),
    );
    let a = arena.alloc(|id| Transaction::new(id, "A-both", TxnKind::Tentative, both, vec![]));
    let hm_a = SerialHistory::from_order([a]);
    let hm_b = deposits(&bank, &mut arena, "B", &[4, 2], 7);
    let [b4, b2] = [hm_b.order()[0], hm_b.order()[1]];

    let merger = Merger::new(MergeConfig::default());
    let out_a = merger.merge(&arena, &hm_a, &epoch_history(&base), base.epoch_state()).unwrap();
    assert_eq!(out_a.backed_out, vec![a]);
    let _ = base.install_updates(&mut arena, &out_a.forwarded);
    let admitted = arena.len();
    assert!(base.reexecute(&mut arena, a));
    assert_eq!(arena.len(), admitted, "re-execution adds no arena entry");
    assert_eq!(arena.get(a).kind(), TxnKind::Base);
    let hb = epoch_history(&base);
    assert_eq!(hb.order().last(), Some(&a), "H_b holds A's transaction under its own id");

    let out_b = merger.merge(&arena, &hm_b, &hb, base.epoch_state()).unwrap();
    assert_eq!(out_b.backed_out, vec![b4], "B backs out only its own transaction");
    assert_eq!(out_b.saved, vec![b2]);
    let _ = base.install_updates(&mut arena, &out_b.forwarded);

    // Theorem 1's witness — H_b and B's saved work in a serial order —
    // replays from the window state to the master B's install left.
    let removed = out_b.backed_out.iter().copied().collect();
    let witness = PrecedenceGraph::build(&arena, &hm_b, &hb)
        .merged_history_without(&removed)
        .expect("acyclic after back-out");
    assert_eq!(&run_to_final(&arena, &witness, &s0).unwrap(), base.master());

    assert!(base.reexecute(&mut arena, b4));
    assert_eq!(base.master().get(v(0)), 115); // 100 + 10 + 5
    assert_eq!(base.master().get(v(4)), 112); // 100 + 5 + 7
    assert_eq!(base.master().get(v(2)), 107);
    let replay = AugmentedHistory::execute(&arena, &epoch_history(&base), &s0).unwrap();
    assert_eq!(replay.final_state(), base.master());
}
