//! E1 — Figure 1 / Example 1 of the paper, as a regenerable artifact.
//!
//! Prints the precedence graph's edge list and the merge outcome, asserting
//! every value the paper states.
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_example1`

use histmerge_bench::{artifact_json, write_artifact, Table};
use histmerge_core::merge::{MergeConfig, Merger};
use histmerge_history::fixtures::example1;
use histmerge_history::PrecedenceGraph;

fn main() {
    let ex = example1();
    let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);

    println!("E1: Example 1 / Figure 1 reproduction\n");
    let mut edges = Table::new(&["from", "to", "rule"]);
    for (from, to, kind) in g.edges() {
        edges.row(&[ex.arena.get(*from).name(), ex.arena.get(*to).name(), &kind.to_string()]);
    }
    edges.print();
    println!("\ngraph acyclic: {}", g.is_acyclic());

    let outcome =
        Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
    let names = |ids: &[histmerge_txn::TxnId]| {
        ids.iter().map(|id| ex.arena.get(*id).name().to_string()).collect::<Vec<_>>().join(" ")
    };
    let removed = outcome.backed_out.iter().copied().collect();
    let merged = g.merged_history_without(&removed).expect("acyclic after back-out");
    let mut out = Table::new(&["quantity", "paper", "measured"]);
    out.row(&["B", "Tm3", &names(&outcome.bad.iter().copied().collect::<Vec<_>>())]);
    out.row(&["affected", "Tm4", &names(&outcome.affected.iter().copied().collect::<Vec<_>>())]);
    out.row(&["saved", "Tm1 Tm2", &names(&outcome.saved)]);
    out.row(&["merged history", "Tb1 Tb2 Tm1 Tm2", &names(merged.order())]);
    println!();
    out.print();

    assert_eq!(names(&outcome.saved), "Tm1 Tm2");
    assert_eq!(names(merged.order()), "Tb1 Tb2 Tm1 Tm2");
    println!("\nAll values match the paper.");

    let json = artifact_json("exp_example1", &[("edges", &edges), ("outcome", &out)]);
    println!("artifact: {}", write_artifact("exp_example1", &json).display());
}
