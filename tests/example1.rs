//! E1: full fidelity check of Example 1 / Figure 1 of the paper.

use histmerge::core::merge::{MergeConfig, MergeOutcome, Merger};
use histmerge::history::fixtures::{example1, Example1};
use histmerge::history::{AugmentedHistory, EdgeKind, PrecedenceGraph, SerialHistory};
use histmerge::txn::VarId;

fn d(i: u32) -> VarId {
    VarId::new(i)
}

/// Theorem 1's witness for a merge of Example 1: the merged serial
/// history without the backed-out transactions.
fn witness(ex: &Example1, outcome: &MergeOutcome) -> SerialHistory {
    let removed = outcome.backed_out.iter().copied().collect();
    PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb)
        .merged_history_without(&removed)
        .expect("acyclic after back-out")
}

#[test]
fn figure1_edge_set_is_exact() {
    let ex = example1();
    let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
    let ([m1, m2, m3, m4], [b1, b2]) = (ex.m, ex.b);
    let mut expected = vec![
        (m1, m2, EdgeKind::MobileConflict),
        (m2, m3, EdgeKind::MobileConflict),
        (m2, m4, EdgeKind::MobileConflict),
        (m3, m4, EdgeKind::MobileConflict),
        (b1, b2, EdgeKind::BaseConflict),
        (m3, b1, EdgeKind::MobileReadBase),
        (b1, m2, EdgeKind::BaseReadMobile),
        (b2, m1, EdgeKind::BaseReadMobile),
        (b2, m2, EdgeKind::BaseReadMobile),
    ];
    let mut actual = g.edges().to_vec();
    expected.sort();
    actual.sort();
    assert_eq!(actual, expected, "Figure 1 edge set mismatch");
}

#[test]
fn cycle_and_minimal_backout() {
    let ex = example1();
    let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
    assert!(!g.is_acyclic(), "Example 1's graph has a cycle");
    // The cycle the paper narrates: Tm3 -> Tb1 -> Tm2 -> Tm3 (through the
    // conflicting accesses to d5, d4, d6).
    assert!(g.has_edge(ex.m[2], ex.b[0]));
    assert!(g.has_edge(ex.b[0], ex.m[1]));
    assert!(g.has_edge(ex.m[1], ex.m[2]));
    // Removing Tm3 alone restores acyclicity.
    let removed = [ex.m[2]].into_iter().collect();
    assert!(g.is_acyclic_without(&removed));
}

#[test]
fn merge_pipeline_reproduces_paper_conclusion() {
    let ex = example1();
    let outcome =
        Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
    assert_eq!(outcome.bad, [ex.m[2]].into_iter().collect());
    assert_eq!(outcome.affected, [ex.m[3]].into_iter().collect());
    assert_eq!(outcome.saved, vec![ex.m[0], ex.m[1]]);
    assert_eq!(outcome.backed_out, vec![ex.m[2], ex.m[3]]);
    let merged = witness(&ex, &outcome);
    assert_eq!(merged.order(), &[ex.b[0], ex.b[1], ex.m[0], ex.m[1]]);
}

#[test]
fn merged_history_generates_the_master_state() {
    // "the history H = Tb1 Tb2 Tm1 Tm2 is an equivalent merged history
    // which can generate the same database state as the state generated by
    // forwarding the updates of Tm1 and Tm2 to the base nodes."
    let ex = example1();
    let outcome =
        Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
    let merged = witness(&ex, &outcome);
    let replayed = AugmentedHistory::execute(&ex.arena, &merged, &ex.s0).unwrap();
    assert_eq!(replayed.final_state(), &outcome.new_master);
}

#[test]
fn untouched_items_survive_the_merge() {
    let ex = example1();
    let outcome =
        Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
    // d0 and d7 are padding items no transaction touches.
    assert_eq!(outcome.new_master.get(d(0)), ex.s0.get(d(0)));
    assert_eq!(outcome.new_master.get(d(7)), ex.s0.get(d(7)));
    // The read-only Tb2 contributes no writes anywhere.
    assert!(ex.arena.get(ex.b[1]).writeset().is_empty());
}

#[test]
fn repaired_state_matches_prefix_reexecution() {
    let ex = example1();
    let outcome =
        Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
    let prefix = outcome.rewritten.repaired_history();
    let reexec = AugmentedHistory::execute(&ex.arena, &prefix, &ex.s0).unwrap();
    assert_eq!(&outcome.repaired_state, reexec.final_state());
}
