//! E18 — the hot-path data layout: seed layout vs interned footprint
//! bitsets, copy-on-write execution, and the one-pass closure table.
//!
//! The seed implementation paid for three habits on every merge: it cloned
//! the full `DbState` once per executed step (twice over — the tentative
//! log AND the base history it only needed the final state of), answered
//! every conflict question with `BTreeSet` intersections, and recomputed
//! the reads-from closure from scratch for every back-out weight and again
//! for the affected set. This experiment re-implements that seed layout
//! faithfully in-bin and races it against the new kernels on the E6
//! scaleup window volumes, asserting **byte-identical answers** at every
//! size before reporting the speedup. A second table races the full merge
//! protocol (fresh buffers per merge vs one reused [`MergeScratch`]).
//!
//! Run: `cargo run --release -p histmerge-bench --bin exp_hotpath`

use std::collections::{BTreeMap, BTreeSet};

use histmerge_bench::{artifact_json, fmt, timed, write_artifact, Table};
use histmerge_core::merge::{MergeConfig, MergeScratch, Merger};
use histmerge_history::{
    run_to_final, AugmentedHistory, ClosureScratch, ClosureTable, SerialHistory, TxnArena,
};
use histmerge_obs::TracerHandle;
use histmerge_txn::{DbState, Fix, OverlayState, TxnId, VarId};
use histmerge_workload::generator::{generate, ScenarioParams};

/// Everything both kernels must agree on, byte for byte.
#[derive(PartialEq)]
struct KernelAnswers {
    hm_final: DbState,
    hb_final: DbState,
    conflicts: usize,
    weights: BTreeMap<TxnId, u64>,
    affected: BTreeSet<TxnId>,
    reexec_final: DbState,
}

/// The seed-layout affected-set scan: per-variable taint over `BTreeSet`s.
fn seed_affected(arena: &TxnArena, hm: &SerialHistory, bad: &BTreeSet<TxnId>) -> BTreeSet<TxnId> {
    let mut tainted: BTreeSet<VarId> = BTreeSet::new();
    let mut affected = BTreeSet::new();
    for id in hm.iter() {
        let txn = arena.get(id);
        let is_bad = bad.contains(&id);
        let reads_tainted = !is_bad && txn.readset().iter().any(|v| tainted.contains(&v));
        if reads_tainted {
            affected.insert(id);
        }
        let taints = is_bad || reads_tainted;
        for v in txn.writeset().iter() {
            if taints {
                tainted.insert(v);
            } else {
                tainted.remove(&v);
            }
        }
    }
    affected
}

/// The seed merge hot path: clone-per-step execution of both histories,
/// `VarSet`-intersect conflict enumeration, one closure scan per back-out
/// weight plus one more for the affected set, and a clone-based
/// re-execution chain.
fn seed_kernel(
    arena: &TxnArena,
    hm: &SerialHistory,
    hb: &SerialHistory,
    s0: &DbState,
    bad: &BTreeSet<TxnId>,
) -> KernelAnswers {
    // Clone-per-step tentative log (the seed AugmentedHistory kept every
    // intermediate state whole).
    let mut hm_states = vec![s0.clone()];
    for id in hm.iter() {
        let out = arena.get(id).execute(hm_states.last().unwrap(), &Fix::empty()).unwrap();
        hm_states.push(out.after);
    }
    // Full-log base execution, even though only the final state is used.
    let mut hb_state = s0.clone();
    for id in hb.iter() {
        let out = arena.get(id).execute(&hb_state, &Fix::empty()).unwrap();
        hb_state = out.after;
    }
    // Pairwise conflict enumeration over BTreeSet intersections — the
    // work profile of the seed precedence-graph build.
    let ids: Vec<TxnId> = hm.iter().chain(hb.iter()).collect();
    let mut conflicts = 0usize;
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            let (a, b) = (arena.get(ids[i]), arena.get(ids[j]));
            if a.readset().intersects(b.writeset())
                || a.writeset().intersects(b.readset())
                || a.writeset().intersects(b.writeset())
            {
                conflicts += 1;
            }
        }
    }
    // One full closure scan per transaction for the weights, then one
    // more for AG(B) — the seed's O(n²) pattern.
    let weights: BTreeMap<TxnId, u64> = hm
        .iter()
        .map(|id| {
            let singleton: BTreeSet<TxnId> = [id].into_iter().collect();
            (id, 1 + seed_affected(arena, hm, &singleton).len() as u64)
        })
        .collect();
    let affected = seed_affected(arena, hm, bad);
    // Clone-based re-execution of the affected transactions on a copy of
    // the tentative final state (the seed step-6 shape).
    let mut reexec_state = hm_states.last().unwrap().clone();
    for id in hm.iter().filter(|id| affected.contains(id)) {
        if let Ok(out) = arena.get(id).execute(&reexec_state, &Fix::empty()) {
            reexec_state = out.after;
        }
    }
    KernelAnswers {
        hm_final: hm_states.pop().unwrap(),
        hb_final: hb_state,
        conflicts,
        weights,
        affected,
        reexec_final: reexec_state,
    }
}

/// The new hot path: copy-on-write augmented execution, the log-free
/// `run_to_final`, admission-time bitset conflicts, one closure-table
/// build serving weights and affected set, and an overlay re-execution.
fn new_kernel(
    arena: &TxnArena,
    hm: &SerialHistory,
    hb: &SerialHistory,
    s0: &DbState,
    bad: &BTreeSet<TxnId>,
    scratch: &mut ClosureScratch,
) -> KernelAnswers {
    let aug = AugmentedHistory::execute(arena, hm, s0).unwrap();
    let hb_final = run_to_final(arena, hb, s0).unwrap();
    let ids: Vec<TxnId> = hm.iter().chain(hb.iter()).collect();
    let mut conflicts = 0usize;
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            if arena.conflicts(ids[i], ids[j]) {
                conflicts += 1;
            }
        }
    }
    let table = ClosureTable::build_with_scratch(arena, hm, scratch);
    let weights = table.weights();
    let affected = table.affected_of(bad);
    let mut view = OverlayState::new(aug.final_state());
    for id in hm.iter().filter(|id| affected.contains(id)) {
        if let Ok(delta) = arena.get(id).execute_delta(&view, &Fix::empty()) {
            view.apply_writes(&delta.writes);
        }
    }
    KernelAnswers {
        reexec_final: view.materialize(),
        hm_final: aug.final_state().clone(),
        hb_final,
        conflicts,
        weights,
        affected,
    }
}

fn main() {
    let scenario = |fleet: usize| {
        generate(&ScenarioParams {
            n_vars: 1024,
            n_tentative: 40 * fleet,
            n_base: 48,
            commutative_fraction: 0.7,
            guarded_fraction: 0.1,
            read_only_fraction: 0.1,
            hot_fraction: 0.05,
            hot_prob: 0.05,
            seed: 99,
            ..ScenarioParams::default()
        })
    };
    let fleets = [2usize, 4, 8, 16, 32];
    let reps = 3;

    println!("E18: hot-path data layout — seed layout vs bitsets + copy-on-write\n");
    let mut kernels = Table::new(&["fleet", "hm", "hb", "seed ms", "new ms", "speedup"]);
    let mut merges = Table::new(&["fleet", "merge ms", "scratch ms", "saved", "equal"]);
    let mut largest_speedup = 0.0f64;

    for &fleet in &fleets {
        let sc = scenario(fleet);
        let bad: BTreeSet<TxnId> = sc.hm.iter().step_by(5).collect();
        let mut closure_scratch = ClosureScratch::new();

        // Race the kernels; keep the fastest of `reps` runs of each.
        let mut seed_ms = f64::INFINITY;
        let mut new_ms = f64::INFINITY;
        let mut seed_out = None;
        let mut new_out = None;
        for _ in 0..reps {
            let (out, ms) = timed(|| seed_kernel(&sc.arena, &sc.hm, &sc.hb, &sc.s0, &bad));
            seed_ms = seed_ms.min(ms);
            seed_out = Some(out);
            let (out, ms) =
                timed(|| new_kernel(&sc.arena, &sc.hm, &sc.hb, &sc.s0, &bad, &mut closure_scratch));
            new_ms = new_ms.min(ms);
            new_out = Some(out);
        }
        let (seed_out, new_out) = (seed_out.unwrap(), new_out.unwrap());
        assert!(seed_out == new_out, "fleet {fleet}: the new layout diverged from the seed layout");
        let speedup = seed_ms / new_ms;
        largest_speedup = speedup; // fleets ascend; the last row is the largest.
        kernels.row_owned(vec![
            fleet.to_string(),
            sc.hm.len().to_string(),
            sc.hb.len().to_string(),
            fmt(seed_ms, 2),
            fmt(new_ms, 2),
            format!("{}x", fmt(speedup, 1)),
        ]);

        // The full protocol: fresh buffers per merge vs one reused scratch.
        let merger = Merger::new(MergeConfig::default());
        let mut scratch = MergeScratch::new();
        // Warm the scratch to its high-water mark before timing reuse.
        let noop = TracerHandle::noop();
        let _ = merger
            .merge_traced_scratch(
                &sc.arena,
                &sc.hm,
                &sc.hb,
                &sc.s0,
                Default::default(),
                &noop,
                &mut scratch,
            )
            .unwrap();
        let mut fresh_ms = f64::INFINITY;
        let mut reuse_ms = f64::INFINITY;
        let mut fresh = None;
        let mut reused = None;
        for _ in 0..reps {
            let (out, ms) = timed(|| merger.merge(&sc.arena, &sc.hm, &sc.hb, &sc.s0).unwrap());
            fresh_ms = fresh_ms.min(ms);
            fresh = Some(out);
            let (out, ms) = timed(|| {
                merger
                    .merge_traced_scratch(
                        &sc.arena,
                        &sc.hm,
                        &sc.hb,
                        &sc.s0,
                        Default::default(),
                        &noop,
                        &mut scratch,
                    )
                    .unwrap()
            });
            reuse_ms = reuse_ms.min(ms);
            reused = Some(out);
        }
        let (fresh, reused) = (fresh.unwrap(), reused.unwrap());
        let equal = fresh.new_master == reused.new_master
            && fresh.saved == reused.saved
            && fresh.backed_out == reused.backed_out
            && fresh.reexecuted == reused.reexecuted;
        assert!(equal, "fleet {fleet}: scratch reuse changed the merge outcome");
        merges.row_owned(vec![
            fleet.to_string(),
            fmt(fresh_ms, 2),
            fmt(reuse_ms, 2),
            fresh.saved.len().to_string(),
            "yes".to_string(),
        ]);
    }

    kernels.print();
    println!();
    merges.print();
    assert!(
        largest_speedup >= 2.0,
        "hot-path layout must be at least 2x on the largest config, got {largest_speedup:.1}x"
    );
    println!(
        "\nIdentical answers at every size (asserted above), with the largest config\n\
         {largest_speedup:.1}x faster: the wins come from not cloning a 1024-item state per\n\
         step, answering conflicts with word-wise ANDs over admission-interned\n\
         bitsets, and building the reads-from closure once instead of once per\n\
         weight query."
    );
    let path = write_artifact(
        "BENCH_hotpath",
        &artifact_json("exp_hotpath", &[("kernels", &kernels), ("merges", &merges)]),
    );
    println!("\nartifact: {}", path.display());
}
