//! Property-based tests (proptest) over randomly drawn scenarios and
//! oracle queries.

use std::collections::BTreeSet;

use proptest::prelude::*;

use histmerge::core::merge::{MergeConfig, MergeScratch, Merger};
use histmerge::core::prune::{undo, PruneMethod};
use histmerge::core::rewrite::{rewrite, FixMode, RewriteAlgorithm};
use histmerge::history::backout::affected_weight;
use histmerge::history::readsfrom::affected_set;
use histmerge::history::{
    run_to_final, AugmentedHistory, BackoutStrategy, BaseEdgeCache, ExactMinimum, GreedyScc,
    PrecedenceGraph, SerialHistory, TwoCycleOptimal, TxnArena,
};
use histmerge::obs::TracerHandle;
use histmerge::semantics::{satisfies_property1, RandomizedTester, SemanticOracle, StaticAnalyzer};
use histmerge::txn::{Expr, ProgramBuilder, Transaction, TxnId, TxnKind, VarId, VarSet};
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

/// Few tentatives against a longer base history over a wide item space,
/// so base transactions often conflict with one another without touching
/// `H_m` — the shape whose paths leave the conflict slice and come back.
fn arb_slice_params() -> impl Strategy<Value = ScenarioParams> {
    (0u64..5000, 4u32..48, 1usize..8, 0usize..24, 0.0f64..0.6, 0.1f64..0.9).prop_map(
        |(seed, n_vars, n_tentative, n_base, cf, hot_prob)| ScenarioParams {
            n_vars,
            n_tentative,
            n_base,
            commutative_fraction: cf,
            guarded_fraction: 0.2 * (1.0 - cf),
            read_only_fraction: 0.1 * (1.0 - cf),
            hot_fraction: 0.2,
            hot_prob,
            reads_per_txn: 2,
            writes_per_txn: 2,
            seed,
        },
    )
}

/// The merger breaks cycles on the conflict slice; the paper's step 2 runs
/// on the whole `G(H_m, H_b)`. For every prefix of `hb`, read from one
/// cache of all of `hb`, the two must agree on each strategy's `B` (under
/// the merger's closure weights and under unit weights) and on
/// acyclicity, and the slice must count `G`'s edges exactly.
fn assert_slice_matches_build(arena: &TxnArena, hm: &SerialHistory, hb: &SerialHistory) {
    let cache = BaseEdgeCache::of_history(arena, hb);
    let closure = affected_weight(arena, hm);
    let unit = |_: TxnId| 1u64;
    let weights: [&dyn Fn(TxnId) -> u64; 2] = [&closure, &unit];
    let strategies: [Box<dyn BackoutStrategy>; 3] = [
        Box::new(ExactMinimum::new()),
        Box::new(TwoCycleOptimal::new()),
        Box::new(GreedyScc::new()),
    ];
    for prefix in 0..=hb.len() {
        let hb = hb.prefix(prefix);
        let full = PrecedenceGraph::build(arena, hm, &hb);
        let slice = PrecedenceGraph::conflict_slice(arena, hm, &hb, &cache);
        assert_eq!(slice.full_edge_count(), full.edges().len(), "edge count, prefix {prefix}");
        assert_eq!(slice.is_acyclic(), full.is_acyclic(), "acyclicity, prefix {prefix}");
        for s in &strategies {
            for weight in weights {
                assert_eq!(
                    s.compute(&slice, weight).unwrap(),
                    s.compute(&full, weight).unwrap(),
                    "{} on prefix {prefix}",
                    s.name()
                );
            }
        }
    }
}

fn rw_txn(arena: &mut TxnArena, name: &str, kind: TxnKind, reads: &[u32], writes: &[u32]) -> TxnId {
    let mut b = ProgramBuilder::new(name);
    for r in reads.iter().chain(writes) {
        b = b.read(VarId::new(*r));
    }
    for w in writes {
        b = b.update(VarId::new(*w), Expr::var(VarId::new(*w)) + Expr::konst(1));
    }
    let prog = std::sync::Arc::new(b.build().unwrap());
    arena.alloc(|id| Transaction::new(id, name, kind, prog, vec![]))
}

/// `Tm' → Tm → Tb1 → Tb2 → Tb3 → Tm'`, with `Tb2` outside the conflict
/// slice: only rule-2 reachability from `Tb1` to `Tb3` keeps the cycle in
/// the slice.
#[test]
fn slice_keeps_cycles_through_untouched_base_transactions() {
    let mut arena = TxnArena::new();
    let tm2 = rw_txn(&mut arena, "Tm'", TxnKind::Tentative, &[], &[3, 4]);
    let tm = rw_txn(&mut arena, "Tm", TxnKind::Tentative, &[0, 4], &[]);
    let tb1 = rw_txn(&mut arena, "Tb1", TxnKind::Base, &[], &[0, 1]);
    let tb2 = rw_txn(&mut arena, "Tb2", TxnKind::Base, &[], &[1, 2]);
    let tb3 = rw_txn(&mut arena, "Tb3", TxnKind::Base, &[2, 3], &[]);
    let hm = SerialHistory::from_order([tm2, tm]);
    let hb = SerialHistory::from_order([tb1, tb2, tb3]);
    assert!(!PrecedenceGraph::build(&arena, &hm, &hb).is_acyclic());
    assert_slice_matches_build(&arena, &hm, &hb);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The conflict slice answers back-out, acyclicity and the edge count
    /// exactly as the whole precedence graph does, on every cached prefix.
    #[test]
    fn conflict_slice_matches_the_full_graph(params in arb_slice_params()) {
        let sc = generate(&params);
        assert_slice_matches_build(&sc.arena, &sc.hm, &sc.hb);
    }

    /// A merge lent the epoch's cache (covering all of `hb`, while the
    /// merge may see a prefix) equals a plain merge, and both back out
    /// what two-cycle-optimal back-out picks on the whole graph.
    #[test]
    fn assisted_merge_matches_unassisted(params in arb_slice_params()) {
        let sc = generate(&params);
        let merger = Merger::new(MergeConfig::default());
        let cache = BaseEdgeCache::of_history(&sc.arena, &sc.hb);
        for prefix in [sc.hb.len() / 2, sc.hb.len()] {
            let hb = sc.hb.prefix(prefix);
            let hb_final = run_to_final(&sc.arena, &hb, &sc.s0).unwrap();
            let plain = merger.merge(&sc.arena, &sc.hm, &hb, &sc.s0).unwrap();
            let assisted = merger
                .merge_traced_scratch(
                    &sc.arena,
                    &sc.hm,
                    &hb,
                    &std::sync::Arc::new(sc.s0.clone()),
                    Some(&cache),
                    &TracerHandle::noop(),
                    &mut MergeScratch::new(),
                )
                .unwrap();
            prop_assert_eq!(&plain.bad, &assisted.bad);
            prop_assert_eq!(&plain.affected, &assisted.affected);
            prop_assert_eq!(&plain.saved, &assisted.saved);
            prop_assert_eq!(&plain.backed_out, &assisted.backed_out);
            prop_assert_eq!(plain.repaired_state(&sc.s0), assisted.repaired_state(&sc.s0));
            prop_assert_eq!(&plain.forwarded, &assisted.forwarded);
            prop_assert_eq!(plain.new_master(&hb_final), assisted.new_master(&hb_final));
            prop_assert_eq!(plain.graph_edges, assisted.graph_edges);

            let full = PrecedenceGraph::build(&sc.arena, &sc.hm, &hb);
            prop_assert_eq!(plain.graph_edges, full.edges().len());
            let weight = affected_weight(&sc.arena, &sc.hm);
            prop_assert_eq!(&plain.bad, &TwoCycleOptimal::new().compute(&full, &weight).unwrap());
        }
    }

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
        let hb_final = run_to_final(&sc.arena, &sc.hb, &sc.s0).unwrap();
        prop_assert_eq!(replay.final_state(), &outcome.new_master(&hb_final));
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
            let pruned = sc.s0.patched(&undo(&sc.arena, &aug, &rw, &ag).unwrap());
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
    /// the rewriting model assumes).
    #[test]
    fn interleaved_roundtrip(params in arb_params()) {
        use histmerge::history::interleaved::{ops_of_transaction, InterleavedSchedule};
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
        let by_undo = s0.patched(&undo(&arena, &aug, &rw, &ag).unwrap());
        let by_comp = s0.patched(&histmerge::core::prune::compensate(&arena, &aug, &rw).unwrap());
        prop_assert_eq!(&by_undo, &by_comp);
        let _ = PruneMethod::Compensate.name();
    }
}
