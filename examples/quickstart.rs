//! Quickstart: Example 1 of the paper, end to end.
//!
//! Reproduces Figure 1 (the precedence graph), the back-out set
//! `B = {Tm3}`, the affected set `{Tm4}`, the repaired history, and the
//! merged history `H = Tb1 Tb2 Tm1 Tm2`.
//!
//! Run with: `cargo run --example quickstart`

use histmerge::core::merge::{MergeConfig, Merger};
use histmerge::history::fixtures::example1;
use histmerge::history::PrecedenceGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ex = example1();

    println!("== Example 1 (ICDCS 1999, Section 2.1) ==\n");
    println!("Tentative history H_m = {}", ex.hm);
    println!("Base history      H_b = {}", ex.hb);
    println!("Common initial state  = {}\n", ex.s0);

    for id in ex.hm.iter().chain(ex.hb.iter()) {
        let t = ex.arena.get(id);
        println!(
            "  {:4}  readset = {:16}  writeset = {}",
            t.name(),
            t.readset().to_string(),
            t.writeset()
        );
    }

    // Step 1: the precedence graph (Figure 1).
    let graph = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
    println!("\n-- Figure 1: precedence graph G(H_m, H_b) --");
    for (from, to, kind) in graph.edges() {
        println!("  {} -> {}   [{kind}]", ex.arena.get(*from).name(), ex.arena.get(*to).name());
    }
    println!("  acyclic: {}", graph.is_acyclic());

    // Steps 2-6: the merging protocol.
    let outcome = Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0)?;

    let names = |ids: &[histmerge::txn::TxnId]| -> Vec<&str> {
        ids.iter().map(|id| ex.arena.get(*id).name()).collect()
    };
    println!("\n-- Merge outcome --");
    println!("  B (undesirable) = {:?}", names(&outcome.bad.iter().copied().collect::<Vec<_>>()));
    println!(
        "  AG (affected)   = {:?}",
        names(&outcome.affected.iter().copied().collect::<Vec<_>>())
    );
    println!("  saved           = {:?}", names(&outcome.saved));
    println!("  backed out      = {:?}", names(&outcome.backed_out));
    // Theorem 1's witness: the graph without the backed-out transactions.
    let removed = outcome.backed_out.iter().copied().collect();
    if let Some(merged) = graph.merged_history_without(&removed) {
        let ids: Vec<_> = merged.iter().collect();
        println!("  merged history  = {:?}", names(&ids));
    }
    println!("\n  forwarded updates (step 5) = {}", outcome.forwarded);
    println!("  new master state           = {}", outcome.new_master);
    println!(
        "  re-executions (step 6)     = {:?}",
        outcome
            .reexecuted
            .iter()
            .map(|(id, ok)| (ex.arena.get(*id).name(), *ok))
            .collect::<Vec<_>>()
    );

    assert_eq!(names(&outcome.saved), vec!["Tm1", "Tm2"]);
    assert_eq!(names(&outcome.backed_out), vec!["Tm3", "Tm4"]);
    println!("\nOK: matches the paper — Tm1 and Tm2 saved, Tm3 backed out, Tm4 affected.");
    Ok(())
}
