//! Property-based tests (proptest) over randomly drawn scenarios and
//! oracle queries.

use std::collections::BTreeSet;

use proptest::prelude::*;

use histmerge::core::merge::{MergeConfig, Merger};
use histmerge::core::prune::{undo, PruneMethod};
use histmerge::core::rewrite::{rewrite, FixMode, RewriteAlgorithm};
use histmerge::history::backout::affected_weight;
use histmerge::history::readsfrom::affected_set;
use histmerge::history::{
    AugmentedHistory, BackoutStrategy, ExactMinimum, GreedyScc, PrecedenceGraph, SerialHistory,
    TwoCycleOptimal, TxnArena,
};
use histmerge::semantics::{satisfies_property1, RandomizedTester, SemanticOracle, StaticAnalyzer};
use histmerge::txn::{TxnKind, VarSet};
use histmerge::workload::generator::{generate, ScenarioParams};

fn arb_params() -> impl Strategy<Value = ScenarioParams> {
    (
        0u64..5000,  // seed
        4u32..40,    // n_vars
        2usize..14,  // n_tentative
        0usize..10,  // n_base
        0.0f64..1.0, // commutative fraction
        0.0f64..0.5, // guarded fraction
        0.0f64..0.4, // read-only fraction
        0.1f64..0.9, // hot prob
    )
        .prop_map(|(seed, n_vars, n_tentative, n_base, cf, gf, rof, hot_prob)| {
            ScenarioParams {
                n_vars,
                n_tentative,
                n_base,
                commutative_fraction: cf,
                guarded_fraction: gf * (1.0 - cf),
                read_only_fraction: rof * (1.0 - cf) * 0.5,
                hot_fraction: 0.2,
                hot_prob,
                reads_per_txn: 2,
                writes_per_txn: 2,
                seed,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full merge pipeline upholds its central invariant on arbitrary
    /// workloads: the new master state equals replaying the merged
    /// serial history from the shared initial state.
    #[test]
    fn merge_master_state_matches_merged_history(params in arb_params()) {
        let sc = generate(&params);
        let merger = Merger::new(MergeConfig::default());
        let outcome = merger.merge(&sc.arena, &sc.hm, &sc.hb, &sc.s0).unwrap();
        let removed: BTreeSet<_> = outcome.backed_out.iter().copied().collect();
        let merged = PrecedenceGraph::build(&sc.arena, &sc.hm, &sc.hb)
            .merged_history_without(&removed)
            .expect("acyclic after back-out");
        let replay = AugmentedHistory::execute(&sc.arena, &merged, &sc.s0).unwrap();
        // Every item a saved transaction wrote (and every base-written
        // item) must agree; padding items equal s0 in both.
        prop_assert_eq!(replay.final_state(), &outcome.new_master);
    }

    /// Undo pruning equals repaired-prefix re-execution for every
    /// algorithm and back-out strategy.
    #[test]
    fn undo_pruning_is_correct_everywhere(params in arb_params()) {
        let sc = generate(&params);
        let graph = PrecedenceGraph::build(&sc.arena, &sc.hm, &sc.hb);
        let weight = affected_weight(&sc.arena, &sc.hm);
        let bad = TwoCycleOptimal::new().compute(&graph, &weight).unwrap();
        let aug = AugmentedHistory::execute(&sc.arena, &sc.hm, &sc.s0).unwrap();
        let ag = affected_set(&sc.arena, &sc.hm, &bad);
        let oracle = StaticAnalyzer::new();
        for alg in [
            RewriteAlgorithm::CanFollow,
            RewriteAlgorithm::CanFollowCanPrecede,
            RewriteAlgorithm::ReadsFromClosure,
        ] {
            let rw = rewrite(&sc.arena, &aug, &bad, alg, FixMode::Lemma2, &oracle);
            let pruned = undo(&sc.arena, &aug, &rw, &ag).unwrap();
            let reexec =
                AugmentedHistory::execute(&sc.arena, &rw.repaired_history(), &sc.s0).unwrap();
            prop_assert_eq!(&pruned, reexec.final_state(), "{}", alg.name());
        }
    }

    /// Every static-analyzer "yes" is confirmed by differential execution
    /// (soundness of the conservative oracle), and every "yes" satisfies
    /// Property 1.
    #[test]
    fn static_analyzer_verdicts_are_sound(params in arb_params()) {
        let sc = generate(&params);
        let analyzer = StaticAnalyzer::new();
        let tester = RandomizedTester::with_config(48, 2000, params.seed ^ 0xABCD);
        let txns: Vec<_> = sc.arena.iter().collect();
        for (i, t1) in txns.iter().enumerate().take(6) {
            for t2 in txns.iter().skip(i).take(6) {
                if analyzer.commutes_backward_through(t2, t1) {
                    prop_assert!(
                        tester.commutes_backward_through(t2, t1),
                        "differential execution refuted {} cbt {}",
                        t2.name(),
                        t1.name()
                    );
                    prop_assert!(satisfies_property1(t2, t1, &VarSet::new()));
                }
                // A fix over the stayer's pure reads.
                let fix: VarSet = t1.read_only_set();
                if analyzer.can_precede(t2, t1, &fix) {
                    prop_assert!(
                        tester.can_precede(t2, t1, &fix),
                        "differential execution refuted can-precede {} < {}",
                        t2.name(),
                        t1.name()
                    );
                    prop_assert!(satisfies_property1(t2, t1, &fix));
                }
            }
        }
    }

    /// All back-out strategies produce valid (acyclicity-restoring,
    /// tentative-only) sets, and the exact strategy is minimal in count
    /// under unit weights.
    #[test]
    fn backout_strategies_are_valid(params in arb_params()) {
        let sc = generate(&params);
        let graph = PrecedenceGraph::build(&sc.arena, &sc.hm, &sc.hb);
        let unit = |_t| 1u64;
        let strategies: Vec<Box<dyn BackoutStrategy>> = vec![
            Box::new(ExactMinimum::new()),
            Box::new(TwoCycleOptimal::new()),
            Box::new(GreedyScc::new()),
        ];
        let mut sizes = Vec::new();
        for s in &strategies {
            let b = s.compute(&graph, &unit).unwrap();
            prop_assert!(graph.is_acyclic_without(&b), "{} left a cycle", s.name());
            for id in &b {
                prop_assert_eq!(sc.arena.get(*id).kind(), TxnKind::Tentative);
            }
            sizes.push(b.len());
        }
        // Exact (index 0) is no larger than any heuristic.
        prop_assert!(sizes[0] <= sizes[1]);
        prop_assert!(sizes[0] <= sizes[2]);
    }

    /// The interpreter is total over arbitrary fixes: pinning ANY subset of
    /// a transaction's read set to ANY values never fails, and the after
    /// state covers the same items.
    #[test]
    fn interpreter_total_under_arbitrary_fixes(
        params in arb_params(),
        pin_value in -10_000i64..10_000,
    ) {
        use histmerge::txn::Fix;
        let sc = generate(&params);
        for txn in sc.arena.iter().take(8) {
            // Pin every pure read to the arbitrary value.
            let fix: Fix = txn.read_only_set().iter().map(|v| (v, pin_value)).collect();
            let out = txn.execute(&sc.s0, &fix).unwrap();
            prop_assert_eq!(out.after.vars(), sc.s0.vars());
            // Pinned items must be observed at the pinned value if read.
            for var in fix.vars().iter() {
                if let Some(seen) = out.read_value(var) {
                    prop_assert_eq!(seen, pin_value);
                }
            }
        }
    }

    /// Lowering a serial history to the operation level and re-serializing
    /// recovers an equivalent serial order (the explicit `H^s` extraction
    /// the rewriting model assumes), and the transaction log extracted
    /// from the augmented history faithfully records reads and before
    /// images.
    #[test]
    fn interleaved_and_log_roundtrip(params in arb_params()) {
        use histmerge::history::interleaved::{ops_of_transaction, InterleavedSchedule};
        use histmerge::history::log::TxnLog;
        let sc = generate(&params);
        // Serial lowering: one transaction's ops at a time.
        let mut sched = InterleavedSchedule::new();
        for id in sc.hm.iter() {
            for op in ops_of_transaction(sc.arena.get(id)) {
                sched.push(op);
            }
        }
        let serial = sched.serial_order().expect("serial lowering is serializable");
        // The recovered order is conflict-equivalent to the original:
        // replaying it yields the same final state.
        let orig = AugmentedHistory::execute(&sc.arena, &sc.hm, &sc.s0).unwrap();
        let re = AugmentedHistory::execute(&sc.arena, &serial, &sc.s0).unwrap();
        prop_assert!(re.final_state_equivalent(&orig));

        // Log round-trip.
        let log = TxnLog::from_augmented(&orig);
        let logged = log.serial_history();
        prop_assert_eq!(logged.order(), sc.hm.order());
        for (i, id) in sc.hm.iter().enumerate() {
            let txn = sc.arena.get(id);
            for var in txn.writeset().iter() {
                prop_assert_eq!(
                    log.before_image(id, var),
                    Some(orig.before_state(i).get(var))
                );
            }
        }
        prop_assert!(log.encoded_size() > 0 || sc.hm.is_empty());
    }

    /// The compensation path agrees with undo wherever inverses exist —
    /// exercised through the banking library (all-deposit workloads).
    #[test]
    fn compensation_agrees_with_undo_on_deposits(
        seed in 0u64..2000,
        n in 2usize..10,
        accounts in 1u32..4,
    ) {
        use histmerge::workload::canned::Bank;
        use rand::{Rng, SeedableRng};
        let bank = Bank::new();
        let mut arena = TxnArena::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let hm: SerialHistory = (0..n)
            .map(|i| {
                let acct = histmerge::txn::VarId::new(rng.gen_range(0..accounts));
                let amt = rng.gen_range(1..100);
                arena.alloc(|id| bank.deposit(id, &format!("d{i}"), acct, amt))
            })
            .collect();
        let s0 = histmerge::txn::DbState::uniform(accounts, 100);
        let aug = AugmentedHistory::execute(&arena, &hm, &s0).unwrap();
        // Arbitrarily mark the first transaction bad.
        let bad: BTreeSet<_> = hm.iter().take(1).collect();
        let ag = affected_set(&arena, &hm, &bad);
        let oracle = StaticAnalyzer::new();
        let rw = rewrite(&arena, &aug, &bad, RewriteAlgorithm::CanFollowCanPrecede,
                         FixMode::Lemma1, &oracle);
        let by_undo = undo(&arena, &aug, &rw, &ag).unwrap();
        let by_comp = histmerge::core::prune::compensate(&arena, &aug, &rw).unwrap();
        prop_assert_eq!(&by_undo, &by_comp);
        let _ = PruneMethod::Compensate.name();
    }
}
