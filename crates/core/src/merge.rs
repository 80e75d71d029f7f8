//! The merging protocol (Section 2.1): steps 1–5; step 6 is
//! `BaseNode::reexecute`.
//!
//! A merge stops at the [`InstallPlan`]: step 6 re-executes the backed-out
//! transactions "the old way", as base transactions, and the base reports
//! those whose precondition failed.

use std::collections::BTreeSet;
use std::sync::Arc;

use histmerge_history::{
    rule1_edge_count, AugmentedHistory, BackoutStrategy, BaseEdgeCache, ClosureScratch,
    ClosureTable, DenseBits, PrecedenceGraph, SerialHistory, TwoCycleOptimal, TxnArena,
};
use histmerge_obs::{Phase, TraceEvent, TracerHandle};
use histmerge_semantics::{OracleStack, SemanticOracle, StaticAnalyzer};
use histmerge_txn::{DbState, OverlayState, TxnId, VarSet, WriteDelta};

use crate::error::CoreError;
use crate::prune::{compensate, undo, PruneMethod};
use crate::rewrite::{rewrite, FixMode, RewriteAlgorithm, RewrittenHistory};

/// Configuration of a [`Merger`].
pub struct MergeConfig {
    /// Strategy for computing the back-out set `B` (step 2).
    pub backout: Box<dyn BackoutStrategy>,
    /// Rewriting algorithm (step 3).
    pub algorithm: RewriteAlgorithm,
    /// Fix computation mode.
    pub fix_mode: FixMode,
    /// Pruning approach (step 4).
    pub prune: PruneMethod,
    /// Semantic oracle consulted by Algorithm 2 and CBTR.
    pub oracle: Box<dyn SemanticOracle>,
}

impl Default for MergeConfig {
    /// The paper's recommended configuration: two-cycle-optimal back-out,
    /// Algorithm 2 with the static analyzer, Lemma 1 fixes, undo pruning.
    fn default() -> Self {
        MergeConfig {
            backout: Box::new(TwoCycleOptimal::new()),
            algorithm: RewriteAlgorithm::CanFollowCanPrecede,
            fix_mode: FixMode::Lemma1,
            prune: PruneMethod::Undo,
            oracle: Box::new(OracleStack::new().with(Box::new(StaticAnalyzer::new()))),
        }
    }
}

impl std::fmt::Debug for MergeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergeConfig")
            .field("backout", &self.backout.name())
            .field("algorithm", &self.algorithm.name())
            .field("fix_mode", &self.fix_mode)
            .field("prune", &self.prune.name())
            .field("oracle", &self.oracle.name())
            .finish()
    }
}

/// The result of merging a tentative history into a base history.
///
/// Theorem 1's witness — an equivalent merged serial history over the
/// base transactions and the saved tentative ones — is not part of the
/// outcome: the install path never reads it. Callers that check Theorem 1
/// build it with `PrecedenceGraph::build(arena, hm, hb)
/// .merged_history_without(&backed_out)`.
///
/// The outcome holds no full database state: the repaired state and the
/// new master are derived on request from the state they start from
/// ([`MergeOutcome::repaired_state`], [`MergeOutcome::new_master`]), so a
/// merge costs O(footprint) however large the database is.
#[derive(Debug)]
pub struct MergeOutcome {
    /// Step 2's back-out set `B` (undesirable transactions).
    pub bad: BTreeSet<TxnId>,
    /// The affected set `AG` of `B`.
    pub affected: BTreeSet<TxnId>,
    /// The rewritten history (step 3).
    pub rewritten: RewrittenHistory,
    /// Tentative transactions whose work was saved, in repaired order.
    pub saved: Vec<TxnId>,
    /// Tentative transactions backed out (to be re-executed), in original
    /// order.
    pub backed_out: Vec<TxnId>,
    /// The repaired history's final state (after pruning), as a write
    /// delta over the merge's start state `s0`.
    pub repaired_writes: WriteDelta,
    /// The values forwarded to the base nodes (step 5): for each item
    /// modified by a saved transaction, its value in the repaired state.
    pub forwarded: DbState,
    /// Number of edges in the full precedence graph `G(H_m, H_b)` (cost
    /// accounting input), although only its conflict slice is built: rule-2
    /// edges are counted by the base-edge cache, and a disjoint merge on
    /// the fast path has no rule-3 edges by definition.
    pub graph_edges: usize,
    /// `true` if the merge took the conflict-free fast path (pending
    /// history disjoint from the entire concurrent base slice): graph and
    /// closure construction were skipped, with a byte-identical outcome.
    pub fast_path: bool,
}

/// The durable, resumable half of a [`MergeOutcome`]: everything a base
/// node must retain — write-ahead, atomically with the install commit — to
/// finish a merge whose handshake is interrupted after step 5. A node that
/// crashes between installing the forwarded values and re-executing the
/// backed-out transactions recovers by reloading the plan and running only
/// the remaining step-6 re-executions; re-applying the plan is idempotent
/// because the install is a constant-write transaction and re-execution
/// progress is tracked alongside the plan (see `replication::session`).
///
/// Unlike the full outcome (which owns the rewritten history and the
/// repaired writes), the plan is small, cloneable, and comparable — the
/// shape a recovering node can dedupe retransmissions against.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallPlan {
    /// Step 5: per saved-written item, its final repaired value.
    pub forwarded: DbState,
    /// Step 6: the transactions still to re-execute as base transactions,
    /// in their original order.
    pub reexecute: Vec<TxnId>,
    /// The transactions whose work the merge saved (informational — needed
    /// by the completion report, not by recovery itself).
    pub saved: Vec<TxnId>,
}

impl MergeOutcome {
    /// The repaired history's final state (after pruning): `s0`, the
    /// state the merged histories started from, with the repaired writes
    /// applied.
    pub fn repaired_state(&self, s0: &DbState) -> DbState {
        s0.patched(&self.repaired_writes)
    }

    /// The master state after installing the forwarded updates on
    /// `hb_final`, the base history's final state.
    pub fn new_master(&self, hb_final: &DbState) -> DbState {
        let mut master = hb_final.clone();
        master.apply(&self.forwarded);
        master
    }

    /// Consumes this outcome into its durable install plan, moving the
    /// forwarded values and the id lists rather than copying them.
    pub fn install_plan(self) -> InstallPlan {
        InstallPlan { forwarded: self.forwarded, reexecute: self.backed_out, saved: self.saved }
    }
}

/// Reusable working memory for repeated merges (the zero-realloc hot
/// path): reads-from closure buffers that would otherwise be reallocated
/// per merge. A caller merging once per window step holds one
/// `MergeScratch` and threads it through [`Merger::merge_traced_scratch`];
/// each merge leaves the buffers grown to the high-water mark of the
/// histories seen so far, so steady-state merges allocate nothing for
/// these structures.
///
/// Reuse is observation-free: a merge through a used scratch is
/// byte-identical to one through [`MergeScratch::new`].
#[derive(Default)]
pub struct MergeScratch {
    /// Last-writer and row buffers reused by
    /// [`ClosureTable::build_with_scratch`].
    pub closure: ClosureScratch,
}

impl MergeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MergeScratch::default()
    }
}

/// Runs the merging protocol of Section 2.1.
pub struct Merger {
    config: MergeConfig,
}

impl Merger {
    /// Creates a merger with the given configuration.
    pub fn new(config: MergeConfig) -> Self {
        Merger { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &MergeConfig {
        &self.config
    }

    /// Merges tentative history `hm` into base history `hb`. Both must
    /// start from the same database state `s0` (Section 2.1's footnote:
    /// otherwise the correctness of the merger cannot be ensured — see the
    /// synchronization strategies of Section 2.2).
    ///
    /// # Errors
    ///
    /// Propagates history-execution, back-out, and pruning errors.
    pub fn merge(
        &self,
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        s0: &DbState,
    ) -> Result<MergeOutcome, CoreError> {
        self.merge_traced_scratch(
            arena,
            hm,
            hb,
            &Arc::new(s0.clone()),
            None,
            &TracerHandle::noop(),
            &mut MergeScratch::new(),
        )
    }

    /// The full-control entry point: [`merge`](Self::merge) with a
    /// caller-maintained edge cache (`base_edges`), trace events and
    /// per-step wall-clock spans sent to `tracer`, and working memory
    /// reused from `scratch`. None of the three changes the outcome: the
    /// cache only skips recomputation, tracing is observation-only (a
    /// disabled tracer costs one branch per step), and scratch reuse is
    /// observation-free. This is the entry point of the base tier's sync
    /// path, where many merges in one window share the same growing `hb`
    /// and the same window-start state `s0`, which the merge borrows
    /// instead of copying.
    ///
    /// `base_edges` is the epoch's incrementally maintained rule-2 edge
    /// counts and reachability summary, from which the merge builds the
    /// conflict slice of `G(H_m, H_b)`. It must cover `hb` (see
    /// [`PrecedenceGraph::conflict_slice`]); with `None` the merge builds
    /// a cache of `hb` itself, at `O(|H_b|²)`. When it holds exactly `hb`,
    /// its footprint union also gates the conflict-free fast path: a
    /// pending history disjoint from it skips slice and closure
    /// construction, with a byte-identical outcome. No base state is lent:
    /// a merge never executes `hb`, because the plan needs only its
    /// footprints.
    ///
    /// # Errors
    ///
    /// Propagates history-execution, back-out, and pruning errors.
    #[allow(clippy::too_many_arguments)]
    pub fn merge_traced_scratch(
        &self,
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        s0: &Arc<DbState>,
        base_edges: Option<&BaseEdgeCache>,
        tracer: &TracerHandle,
        scratch: &mut MergeScratch,
    ) -> Result<MergeOutcome, CoreError> {
        // Execute the tentative history to obtain its log (before/after
        // images and original read values). In a deployment the mobile
        // would ship these logs; the simulator's mobiles only record their
        // pending history, so this is its one execution before the base's
        // re-execution. `H_b` is never executed: the plan needs only its
        // footprints, and its final state is the base's master.
        let span = tracer.span_start();
        let hm_aug = AugmentedHistory::execute_shared(arena, hm, s0)?;
        tracer.span_end(Phase::Exec, span);

        // Conflict-free fast-path gate: when the epoch edge cache covers
        // ALL of `hb` (its footprint union is only meaningful at full
        // length), a pending history disjoint from the whole concurrent
        // base slice draws no rule-3 edge against any prefix. Both
        // sub-histories are then forward-edge DAGs, so the graph is
        // acyclic, every back-out strategy returns ∅, and the entire
        // graph/closure machinery can be skipped — O(words) gate, O(m²)
        // rule-1 pair count, byte-identical outcome.
        let fast_path = base_edges.is_some_and(|cache| {
            cache.len() == hb.len() && {
                let mut hm_bits = DenseBits::new();
                for id in hm.iter() {
                    hm_bits.union_with(arena.read_bits(id));
                    hm_bits.union_with(arena.write_bits(id));
                }
                !hm_bits.intersects(cache.footprint_bits())
            }
        });

        // Step 1: the conflict slice of the precedence graph — `H_m`, the
        // base transactions with a rule-3 edge to it, and rule-2
        // reachability between those — which holds every cycle. On the
        // fast path not even the slice is built. Either way `graph_edges`
        // counts the whole `G(H_m, H_b)` (rule-1 pairs counted directly,
        // rule-2 read from the cache, rule-3 zero by disjointness on the
        // fast path), because it feeds the cost model.
        let span = tracer.span_start();
        let graph = if fast_path {
            None
        } else {
            let local;
            let cache = match base_edges {
                Some(cache) => cache,
                None => {
                    local = BaseEdgeCache::of_history(arena, hb);
                    &local
                }
            };
            Some(PrecedenceGraph::conflict_slice(arena, hm, hb, cache))
        };
        let graph_edges = match &graph {
            Some(graph) => graph.full_edge_count(),
            None => {
                rule1_edge_count(arena, hm)
                    + base_edges.map_or(0, |cache| cache.edge_count(hb.len()))
            }
        };
        tracer.span_end(Phase::GraphBuild, span);
        tracer.emit(|| TraceEvent::GraphBuilt {
            hm_len: hm.len(),
            hb_len: hb.len(),
            edges: graph_edges,
        });

        // Step 2: the back-out set, weighted by reads-from closure sizes.
        // One closure-table pass serves both the back-out weights and the
        // affected set AG(B): the seed walked the reads-from closure once
        // per transaction for the weights and then again for AG. On the
        // fast path the graph is acyclic by construction, so B = AG = ∅
        // without consulting any strategy (all built-ins return ∅ on
        // acyclic graphs) and the closure table is never built. Back-out
        // on the slice returns the `B` it would on the whole graph (see
        // `PrecedenceGraph::conflict_slice`).
        let span = tracer.span_start();
        let (bad, affected) = match &graph {
            Some(graph) => {
                let table = ClosureTable::build_with_scratch(arena, hm, &mut scratch.closure);
                let weights = table.weights();
                let weight = move |id: TxnId| weights.get(&id).copied().unwrap_or(1);
                let bad = self.config.backout.compute(graph, &weight)?;
                let affected = table.affected_of(&bad);
                (bad, affected)
            }
            None => (BTreeSet::new(), BTreeSet::new()),
        };
        tracer.span_end(Phase::Backout, span);
        tracer.emit(|| TraceEvent::CycleBreak { backed_out: bad.len(), affected: affected.len() });

        // Step 3: rewrite.
        let span = tracer.span_start();
        let rewritten = rewrite(
            arena,
            &hm_aug,
            &bad,
            self.config.algorithm,
            self.config.fix_mode,
            self.config.oracle.as_ref(),
        );
        tracer.span_end(Phase::Rewrite, span);
        tracer.emit(|| TraceEvent::Rewrite {
            saved: rewritten.prefix().len(),
            backed_out: rewritten.suffix().len(),
        });

        // Step 4: prune, to the repaired state's write delta over `s0`.
        let span = tracer.span_start();
        let repaired_writes = match self.config.prune {
            PruneMethod::Undo => undo(arena, &hm_aug, &rewritten, &affected)?,
            PruneMethod::Compensate => compensate(arena, &hm_aug, &rewritten)?,
        };
        tracer.span_end(Phase::Prune, span);
        tracer.emit(|| TraceEvent::Prune { method: self.config.prune.name() });

        // Step 5: forward updates — only the final repaired value of each
        // item some saved transaction modified.
        let mut saved_writes = VarSet::new();
        for (id, _) in rewritten.prefix() {
            saved_writes.extend_from(arena.get(*id).writeset());
        }
        let repaired = OverlayState::with_writes(s0, repaired_writes);
        let forwarded = repaired.project(&saved_writes);
        let repaired_writes = repaired.into_writes();

        let saved = rewritten.saved();
        let backed_out = rewritten.pruned();

        Ok(MergeOutcome {
            bad,
            affected,
            rewritten,
            saved,
            backed_out,
            repaired_writes,
            forwarded,
            graph_edges,
            fast_path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_history::fixtures::example1;
    use histmerge_history::{run_to_final, ExactMinimum, GreedyScc};
    use histmerge_txn::VarId;

    fn d(i: u32) -> VarId {
        VarId::new(i)
    }

    /// The final state of Example 1's base history: what the new master
    /// is derived from.
    fn hb_final(ex: &histmerge_history::fixtures::Example1) -> DbState {
        run_to_final(&ex.arena, &ex.hb, &ex.s0).unwrap()
    }

    /// Theorem 1's witness for a merge of `hm` into `hb`: the merged
    /// serial history without the backed-out transactions.
    fn witness(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        outcome: &MergeOutcome,
    ) -> Option<SerialHistory> {
        let removed = outcome.backed_out.iter().copied().collect();
        PrecedenceGraph::build(arena, hm, hb).merged_history_without(&removed)
    }

    #[test]
    fn example1_end_to_end() {
        let ex = example1();
        let outcome =
            Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
        // B = {Tm3}, AG = {Tm4}.
        assert_eq!(outcome.bad, [ex.m[2]].into_iter().collect());
        assert_eq!(outcome.affected, [ex.m[3]].into_iter().collect());
        assert_eq!(outcome.saved, vec![ex.m[0], ex.m[1]]);
        assert_eq!(outcome.backed_out, vec![ex.m[2], ex.m[3]]);
        // The merged history of Example 1: Tb1 Tb2 Tm1 Tm2.
        let merged = witness(&ex.arena, &ex.hm, &ex.hb, &outcome).unwrap();
        assert_eq!(merged.order(), &[ex.b[0], ex.b[1], ex.m[0], ex.m[1]]);
    }

    #[test]
    fn example1_master_state_matches_merged_history_execution() {
        // The new master state (base final + forwarded values) must equal
        // the state of executing the merged history Tb1 Tb2 Tm1 Tm2 from
        // s0 — the correctness claim of protocol step 5.
        let ex = example1();
        let outcome =
            Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
        let merged = witness(&ex.arena, &ex.hm, &ex.hb, &outcome).unwrap();
        let replay = AugmentedHistory::execute(&ex.arena, &merged, &ex.s0).unwrap();
        assert_eq!(&outcome.new_master(&hb_final(&ex)), replay.final_state());
    }

    #[test]
    fn example1_forwarded_values_are_saved_writes_only() {
        let ex = example1();
        let outcome =
            Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
        // Saved = {Tm1, Tm2}: writes {d1, d2} ∪ {d3, d4, d5, d6}.
        let vars = outcome.forwarded.vars();
        assert_eq!(vars, [d(1), d(2), d(3), d(4), d(5), d(6)].into_iter().collect());
        // d0 and d7 (padding) are never forwarded.
        assert!(!outcome.forwarded.contains(d(0)));
        assert!(!outcome.forwarded.contains(d(7)));
    }

    #[test]
    fn acyclic_merge_saves_everything() {
        // Merging the tentative history against an EMPTY base history:
        // no conflicts, everything saved, nothing re-executed.
        let ex = example1();
        let outcome = Merger::new(MergeConfig::default())
            .merge(&ex.arena, &ex.hm, &SerialHistory::new(), &ex.s0)
            .unwrap();
        assert!(outcome.bad.is_empty());
        assert!(outcome.backed_out.is_empty());
        assert_eq!(outcome.saved.len(), 4);
        // New master = repaired state = full tentative execution.
        let hm_aug = AugmentedHistory::execute(&ex.arena, &ex.hm, &ex.s0).unwrap();
        assert_eq!(&outcome.new_master(&ex.s0), hm_aug.final_state());
    }

    #[test]
    fn all_configurations_agree_on_example1_master_state() {
        // Alg1/Alg2 × Lemma1/Lemma2 × undo, plus RFTC with undo: all
        // configurations must produce the SAME new master state (they may
        // save different sets; in Example 1 the saved sets coincide).
        let ex = example1();
        let mut masters = Vec::new();
        for algorithm in [
            RewriteAlgorithm::CanFollow,
            RewriteAlgorithm::CanFollowCanPrecede,
            RewriteAlgorithm::ReadsFromClosure,
        ] {
            for fix_mode in [FixMode::Lemma1, FixMode::Lemma2] {
                let config = MergeConfig {
                    backout: Box::new(ExactMinimum::new()),
                    algorithm,
                    fix_mode,
                    prune: PruneMethod::Undo,
                    oracle: Box::new(StaticAnalyzer::new()),
                };
                let outcome = Merger::new(config).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
                assert_eq!(outcome.saved.len(), 2, "{}", algorithm.name());
                masters.push(outcome.new_master(&hb_final(&ex)));
            }
        }
        assert!(masters.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn assisted_merge_matches_unassisted() {
        let ex = example1();
        let merger = Merger::new(MergeConfig::default());
        let plain = merger.merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();

        let mut cache = BaseEdgeCache::new();
        cache.extend(&ex.arena, ex.hb.iter());
        let hb_final =
            AugmentedHistory::execute(&ex.arena, &ex.hb, &ex.s0).unwrap().final_state().clone();
        let assisted = merger
            .merge_traced_scratch(
                &ex.arena,
                &ex.hm,
                &ex.hb,
                &Arc::new(ex.s0.clone()),
                Some(&cache),
                &TracerHandle::noop(),
                &mut MergeScratch::new(),
            )
            .unwrap();

        assert_eq!(plain.bad, assisted.bad);
        assert_eq!(plain.affected, assisted.affected);
        assert_eq!(plain.saved, assisted.saved);
        assert_eq!(plain.backed_out, assisted.backed_out);
        assert_eq!(plain.repaired_state(&ex.s0), assisted.repaired_state(&ex.s0));
        assert_eq!(plain.forwarded, assisted.forwarded);
        assert_eq!(plain.new_master(&hb_final), assisted.new_master(&hb_final));
        assert_eq!(plain.graph_edges, assisted.graph_edges);
    }

    #[test]
    fn install_plan_captures_base_side_effects() {
        let ex = example1();
        let outcome =
            Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
        let (forwarded, backed_out, saved) =
            (outcome.forwarded.clone(), outcome.backed_out.clone(), outcome.saved.clone());
        let plan = outcome.install_plan();
        assert_eq!(plan.forwarded, forwarded);
        assert_eq!(plan.reexecute, backed_out);
        assert_eq!(plan.saved, saved);
        // Cloneable and comparable — a recovering node dedupes
        // retransmitted plans by equality.
        assert_eq!(plan, plan.clone());
    }

    #[test]
    fn greedy_backout_also_merges() {
        let ex = example1();
        let config = MergeConfig { backout: Box::new(GreedyScc::new()), ..MergeConfig::default() };
        let outcome = Merger::new(config).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
        // Greedy may back out more than the optimum, but the result must
        // still be conflict-free.
        assert!(!outcome.bad.is_empty());
        assert!(witness(&ex.arena, &ex.hm, &ex.hb, &outcome).is_some());
    }

    #[test]
    fn traced_merge_matches_untraced_and_emits_step_events() {
        use histmerge_obs::{FlightRecorder, Tracer};
        let ex = example1();
        let merger = Merger::new(MergeConfig::default());
        let plain = merger.merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();

        let sink = std::sync::Arc::new(FlightRecorder::new(1024));
        let traced = merger
            .merge_traced_scratch(
                &ex.arena,
                &ex.hm,
                &ex.hb,
                &Arc::new(ex.s0.clone()),
                None,
                &TracerHandle::new(sink.clone()),
                &mut MergeScratch::new(),
            )
            .unwrap();

        // Observation-only: every outcome field agrees.
        assert_eq!(plain.bad, traced.bad);
        assert_eq!(plain.saved, traced.saved);
        assert_eq!(plain.backed_out, traced.backed_out);
        let hb_final = hb_final(&ex);
        assert_eq!(plain.new_master(&hb_final), traced.new_master(&hb_final));
        assert_eq!(plain.graph_edges, traced.graph_edges);

        // Every protocol step left an event and a span.
        let dump = sink.dump_jsonl().unwrap();
        for needle in [
            "graph_built",
            "cycle_break",
            "\"rewrite\"",
            "\"prune\"",
            "\"exec\"",
            "graph_build",
            "backout",
        ] {
            assert!(dump.contains(needle), "missing {needle} in {dump}");
        }
        let spans = dump.lines().filter(|l| l.contains("\"type\":\"span\"")).count();
        assert_eq!(spans, 5, "one span per merge phase:\n{dump}");
        assert!(!dump.contains("reexecute"), "step 6 runs at the base, not in the plan");
    }

    #[test]
    fn scratch_reuse_matches_fresh_merges() {
        // One MergeScratch threaded through repeated merges (with and
        // without a base-edge cache) must produce outcomes identical to
        // fresh merges — reuse is observation-free.
        let ex = example1();
        let merger = Merger::new(MergeConfig::default());
        let mut scratch = MergeScratch::new();
        let mut cache = BaseEdgeCache::new();
        cache.extend(&ex.arena, ex.hb.iter());
        let hb_final =
            AugmentedHistory::execute(&ex.arena, &ex.hb, &ex.s0).unwrap().final_state().clone();
        for round in 0..3 {
            let plain = merger.merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0).unwrap();
            let base_edges = if round % 2 == 0 { None } else { Some(&cache) };
            let reused = merger
                .merge_traced_scratch(
                    &ex.arena,
                    &ex.hm,
                    &ex.hb,
                    &Arc::new(ex.s0.clone()),
                    base_edges,
                    &TracerHandle::noop(),
                    &mut scratch,
                )
                .unwrap();
            assert_eq!(plain.bad, reused.bad, "round {round}");
            assert_eq!(plain.affected, reused.affected, "round {round}");
            assert_eq!(plain.saved, reused.saved, "round {round}");
            assert_eq!(plain.backed_out, reused.backed_out, "round {round}");
            assert_eq!(
                plain.repaired_state(&ex.s0),
                reused.repaired_state(&ex.s0),
                "round {round}"
            );
            assert_eq!(plain.forwarded, reused.forwarded, "round {round}");
            assert_eq!(plain.new_master(&hb_final), reused.new_master(&hb_final), "round {round}");
            assert_eq!(plain.graph_edges, reused.graph_edges, "round {round}");
        }
    }

    #[test]
    fn config_debug_prints_components() {
        let config = MergeConfig::default();
        let text = format!("{config:?}");
        assert!(text.contains("two-cycle-optimal"));
        assert!(text.contains("algorithm2-can-precede"));
        assert!(text.contains("undo"));
    }
}
