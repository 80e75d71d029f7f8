//! Theorem-level invariants checked over a sweep of generated scenarios.
//!
//! For every seeded random scenario (no blind writes — the paper's
//! rewriting-model assumption) and every back-out set computed by the
//! two-cycle strategy, we verify:
//!
//! * **Theorem 2** — Algorithm 1's (and 2's) rewritten history is
//!   final-state equivalent to the original; the repaired prefix carries
//!   empty fixes and preserves relative orders.
//! * **Theorem 3** — Algorithm 1 saves exactly the same set as the
//!   reads-from transitive-closure back-out, in the same order.
//! * **Theorem 4** — CBTR's saved set is a subset of Algorithm 2's (with
//!   the Property-1-respecting static analyzer).
//! * **Theorem 5 / Lemma 4** — undo pruning and compensation both produce
//!   the state of re-executing the repaired prefix.

use std::collections::BTreeSet;

use histmerge::core::prune::undo;
use histmerge::core::rewrite::{rewrite, FixMode, RewriteAlgorithm};
use histmerge::history::backout::affected_weight;
use histmerge::history::readsfrom::affected_set;
use histmerge::history::{AugmentedHistory, BackoutStrategy, PrecedenceGraph, TwoCycleOptimal};
use histmerge::semantics::StaticAnalyzer;
use histmerge::txn::TxnId;
use histmerge::workload::generator::{generate, Scenario, ScenarioParams};

/// Sweeps seeds × contention levels, returning scenarios together with a
/// computed back-out set (skipping conflict-free draws).
fn scenarios() -> Vec<(Scenario, BTreeSet<TxnId>)> {
    let mut out = Vec::new();
    for seed in 0..12u64 {
        for hot_prob in [0.3, 0.7] {
            let params = ScenarioParams {
                n_vars: 24,
                n_tentative: 12,
                n_base: 8,
                hot_fraction: 0.15,
                hot_prob,
                commutative_fraction: 0.4,
                guarded_fraction: 0.2,
                read_only_fraction: 0.1,
                seed,
                ..ScenarioParams::default()
            };
            let sc = generate(&params);
            let graph = PrecedenceGraph::build(&sc.arena, &sc.hm, &sc.hb);
            let weight = affected_weight(&sc.arena, &sc.hm);
            let bad = TwoCycleOptimal::new().compute(&graph, &weight).unwrap();
            if !bad.is_empty() {
                out.push((sc, bad));
            }
        }
    }
    assert!(out.len() >= 10, "not enough conflicting scenarios generated: {}", out.len());
    out
}

fn augmented(sc: &Scenario) -> AugmentedHistory {
    AugmentedHistory::execute(&sc.arena, &sc.hm, &sc.s0).unwrap()
}

#[test]
fn theorem2_final_state_equivalence_and_prefix_shape() {
    let oracle = StaticAnalyzer::new();
    for (sc, bad) in scenarios() {
        let aug = augmented(&sc);
        for (alg, fix_mode) in [
            (RewriteAlgorithm::CanFollow, FixMode::Lemma1),
            (RewriteAlgorithm::CanFollow, FixMode::Lemma2),
            (RewriteAlgorithm::CanFollowCanPrecede, FixMode::Lemma1),
            (RewriteAlgorithm::CanFollowCanPrecede, FixMode::Lemma2),
            (RewriteAlgorithm::CommutesBackward, FixMode::Lemma1),
        ] {
            let rw = rewrite(&sc.arena, &aug, &bad, alg, fix_mode, &oracle);
            // (4) Final-state equivalence of the full rewritten history.
            let replay =
                AugmentedHistory::execute_with_fixes(&sc.arena, rw.entries(), &sc.s0).unwrap();
            assert!(
                replay.final_state_equivalent(&aug),
                "{} {:?} broke final-state equivalence",
                alg.name(),
                fix_mode,
            );
            // (3) Prefix fixes are empty.
            assert!(rw.prefix().iter().all(|(_, f)| f.is_empty()), "{}", alg.name());
            // (1) The prefix contains no bad transactions.
            assert!(rw.saved().iter().all(|t| !bad.contains(t)));
            // (2) Relative orders preserved.
            let pos = |id: TxnId| sc.hm.position(id).unwrap();
            assert!(rw.saved().windows(2).all(|w| pos(w[0]) < pos(w[1])));
            assert!(rw.pruned().windows(2).all(|w| pos(w[0]) < pos(w[1])));
        }
    }
}

#[test]
fn theorem3_algorithm1_equals_rftc() {
    let oracle = StaticAnalyzer::new();
    for (sc, bad) in scenarios() {
        let aug = augmented(&sc);
        let alg1 =
            rewrite(&sc.arena, &aug, &bad, RewriteAlgorithm::CanFollow, FixMode::Lemma1, &oracle);
        let rftc = rewrite(
            &sc.arena,
            &aug,
            &bad,
            RewriteAlgorithm::ReadsFromClosure,
            FixMode::Lemma1,
            &oracle,
        );
        assert_eq!(alg1.saved(), rftc.saved(), "Theorem 3 violated (seed scenario)");
        // Also: the saved set is exactly G − AG.
        let ag = affected_set(&sc.arena, &sc.hm, &bad);
        let expected: Vec<TxnId> =
            sc.hm.iter().filter(|t| !bad.contains(t) && !ag.contains(t)).collect();
        assert_eq!(alg1.saved(), expected);
    }
}

#[test]
fn theorem4_cbtr_subset_of_algorithm2() {
    let oracle = StaticAnalyzer::new();
    let mut strict = 0usize;
    for (sc, bad) in scenarios() {
        let aug = augmented(&sc);
        let cbtr = rewrite(
            &sc.arena,
            &aug,
            &bad,
            RewriteAlgorithm::CommutesBackward,
            FixMode::Lemma1,
            &oracle,
        );
        let fpr = rewrite(
            &sc.arena,
            &aug,
            &bad,
            RewriteAlgorithm::CanFollowCanPrecede,
            FixMode::Lemma1,
            &oracle,
        );
        let cbtr_saved: BTreeSet<TxnId> = cbtr.saved().into_iter().collect();
        let fpr_saved: BTreeSet<TxnId> = fpr.saved().into_iter().collect();
        assert!(cbtr_saved.is_subset(&fpr_saved), "Theorem 4 violated: CBTR ⊄ FPR");
        if cbtr_saved.len() < fpr_saved.len() {
            strict += 1;
        }
        // Algorithm 2 also dominates Algorithm 1 by construction.
        let alg1 =
            rewrite(&sc.arena, &aug, &bad, RewriteAlgorithm::CanFollow, FixMode::Lemma1, &oracle);
        let alg1_saved: BTreeSet<TxnId> = alg1.saved().into_iter().collect();
        assert!(alg1_saved.is_subset(&fpr_saved), "Algorithm 2 lost a can-follow save");
    }
    assert!(strict > 0, "the sweep never exercised a strict improvement");
}

#[test]
fn theorem5_undo_matches_prefix_reexecution() {
    let oracle = StaticAnalyzer::new();
    for (sc, bad) in scenarios() {
        let aug = augmented(&sc);
        let ag = affected_set(&sc.arena, &sc.hm, &bad);
        for alg in [
            RewriteAlgorithm::CanFollow,
            RewriteAlgorithm::CanFollowCanPrecede,
            RewriteAlgorithm::CommutesBackward,
            RewriteAlgorithm::ReadsFromClosure,
        ] {
            let rw = rewrite(&sc.arena, &aug, &bad, alg, FixMode::Lemma1, &oracle);
            let pruned = sc.s0.patched(&undo(&sc.arena, &aug, &rw, &ag).unwrap());
            let reexec =
                AugmentedHistory::execute(&sc.arena, &rw.repaired_history(), &sc.s0).unwrap();
            assert_eq!(&pruned, reexec.final_state(), "Theorem 5 violated for {}", alg.name());
        }
    }
}

#[test]
fn theorem1_backout_restores_acyclicity_and_merged_history() {
    for (sc, bad) in scenarios() {
        let graph = PrecedenceGraph::build(&sc.arena, &sc.hm, &sc.hb);
        assert!(!graph.is_acyclic(), "scenario was supposed to conflict");
        let ag = affected_set(&sc.arena, &sc.hm, &bad);
        let removed: BTreeSet<TxnId> = bad.union(&ag).copied().collect();
        assert!(graph.is_acyclic_without(&removed));
        let merged = graph.merged_history_without(&removed).unwrap();
        // The merged history contains every base transaction and every
        // saved tentative transaction exactly once.
        assert_eq!(merged.len(), sc.hb.len() + sc.hm.len() - removed.len());
        for id in sc.hb.iter() {
            assert!(merged.contains(id));
        }
    }
}
