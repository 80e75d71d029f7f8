//! Allocation budgets of a transaction's lifecycle.
//!
//! A counting global allocator tallies allocations and live blocks per
//! thread, so tests running on parallel threads do not mix their counts.
//! The budgets pin the layout: a footprint of a few items lives inline in
//! its `VarSet`s and `VarMask`s, the arena keeps every footprint bitset in
//! one shared slab, and a generated transaction is an instance of a
//! shared template whose binding, constants and name live inline — so
//! generating, admitting and copying one allocates nothing once its shape
//! has been seen. Executing one records its reads, writes and images in
//! inline maps, so re-executions, installs and merge plans pay per
//! history and per plan, not per map.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use histmerge::core::merge::{MergeConfig, MergeScratch, Merger};
use histmerge::history::{AugmentedHistory, BaseEdgeCache, SerialHistory, TxnArena};
use histmerge::obs::TracerHandle;
use histmerge::replication::wal::{Snapshot, VecStorage, Wal, WalRecord};
use histmerge::replication::{BaseNode, MobileNode};
use histmerge::txn::{DbState, Transaction, TxnId, TxnKind, VarId, VarMask, VarSet};
use histmerge::workload::canned_mix::{CannedFlavor, CannedMix, CannedMixParams};
use histmerge::workload::generator::{initial_state, ScenarioParams, TxnFactory};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(allocations: u64, live: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + allocations));
    let _ = LIVE.try_with(|c| c.set(c.get() + live));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local cells that never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, 1);
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1, 1);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, -1);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(1, 0);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made and blocks left live by `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (a0, l0) = (ALLOCATIONS.with(Cell::get), LIVE.with(Cell::get));
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - a0, LIVE.with(Cell::get) - l0)
}

/// The benchmark's random mix (70% increments, 10% guarded, 10%
/// read-only) over `n_vars` items.
fn mix(n_vars: u32) -> ScenarioParams {
    ScenarioParams {
        n_vars,
        commutative_fraction: 0.7,
        guarded_fraction: 0.1,
        read_only_fraction: 0.1,
        hot_fraction: 0.05,
        hot_prob: 0.05,
        seed: 1906,
        ..ScenarioParams::default()
    }
}

const TXNS: usize = 10_000;

fn generated(n_vars: u32) -> TxnArena {
    let mut factory = TxnFactory::new(mix(n_vars));
    let mut arena = TxnArena::new();
    for _ in 0..TXNS {
        factory.next_txn(&mut arena, TxnKind::Tentative);
    }
    arena
}

#[test]
fn small_varset_ops_allocate_nothing() {
    let v = VarId::new;
    let ((), allocations, _) = counted(|| {
        let mut a: VarSet = [v(9), v(1), v(5), v(1)].into_iter().collect();
        let b: VarSet = [v(5), v(2), v(7)].into_iter().collect();
        a.insert(v(3));
        a.remove(v(9));
        let mut c = a.union(&b);
        c.extend([v(8)]);
        c.extend_from(&b);
        black_box((a.intersection(&b), a.difference(&b), c.clone()));
        black_box((a.is_subset(&c), a.intersects(&b), c.contains(v(8)), c.len()));
        let (ma, mb) = (VarMask::from_set(&a), VarMask::from_set(&c));
        black_box((ma.intersects(&mb), ma.contains(v(5)), ma.summary()));
        black_box((a, c, ma, mb));
    });
    assert_eq!(allocations, 0, "VarSet ops within the inline capacity allocate nothing");
}

#[test]
fn arena_admission_allocates_nothing_amortized() {
    let prebuilt: Vec<Transaction> = generated(1024).iter().cloned().collect();
    let mut txns = prebuilt.into_iter();
    let mut arena = TxnArena::new();
    let ((), allocations, _) = counted(|| {
        for _ in 0..TXNS {
            let txn = txns.next().expect("one prebuilt transaction per admission");
            arena.alloc(|_| txn);
        }
    });
    let per_admission = allocations as f64 / TXNS as f64;
    assert!(per_admission < 0.05, "{per_admission:.3} allocations per admission");
    assert_eq!(arena.len(), TXNS);
}

#[test]
fn generated_transactions_leave_few_live_blocks() {
    for n_vars in [64, 1024] {
        let (arena, allocations, live) = counted(|| generated(n_vars));
        let (per_txn, live_per_txn) = (allocations as f64 / TXNS as f64, live as f64 / TXNS as f64);
        assert!(per_txn < 0.05, "{n_vars} items: {per_txn:.3} allocations per transaction");
        assert!(
            live_per_txn < 0.05,
            "{n_vars} items: {live_per_txn:.3} live blocks per transaction"
        );
        drop(arena);
    }
}

#[test]
fn canned_transactions_leave_few_live_blocks() {
    for flavor in [CannedFlavor::BankPromo, CannedFlavor::Inventory] {
        let mut mix = CannedMix::new(CannedMixParams { flavor, seed: 1906, ..Default::default() });
        let (arena, allocations, live) = counted(|| {
            let mut arena = TxnArena::new();
            for _ in 0..TXNS {
                mix.next_txn(&mut arena, TxnKind::Tentative);
            }
            arena
        });
        let (per_txn, live_per_txn) = (allocations as f64 / TXNS as f64, live as f64 / TXNS as f64);
        assert!(per_txn < 0.05, "{flavor:?}: {per_txn:.3} allocations per transaction");
        assert!(live_per_txn < 0.05, "{flavor:?}: {live_per_txn:.3} live blocks per transaction");
        drop(arena);
    }
}

/// The interpreter records reads and writes in inline maps and the
/// master applies the writes in place, so on a lean log a re-execution
/// allocates nothing but the log's doubling growth (13 blocks for 10,000
/// commits). With a `BTreeMap` per interpreter map it cost 2.9.
#[test]
fn reexecution_allocates_only_the_log_growth() {
    for n_vars in [64, 1024] {
        let mut arena = generated(n_vars);
        let mut base = BaseNode::new(initial_state(&mix(n_vars)), 4, true);
        let ((), allocations, _) = counted(|| {
            for i in 0..TXNS {
                base.reexecute(&mut arena, TxnId::new(i as u32));
            }
        });
        let per_txn = allocations as f64 / TXNS as f64;
        assert!(per_txn <= 0.01, "{n_vars} items: {per_txn:.4} allocations per re-execution");
        assert_eq!(base.committed(), TXNS);
    }
}

#[test]
fn reexecution_adds_no_arena_entry() {
    let mut arena = generated(64);
    let mut base = BaseNode::new(initial_state(&mix(64)), 1, true);
    for i in 0..TXNS {
        base.reexecute(&mut arena, TxnId::new(i as u32));
    }
    // Each transaction is promoted and committed under its own id.
    assert_eq!(arena.len(), TXNS, "re-execution adds no arena entry");
    assert_eq!(base.full_history().order(), (0..TXNS as u32).map(TxnId::new).collect::<Vec<_>>());
    assert!(arena.iter().all(|txn| txn.kind() == TxnKind::Base), "every one is promoted");
}

/// Installs of five forwarded items over 1,024 items on a lean base.
/// Each binds the interned five-item install template, so an install
/// leaves nothing live but its arena entry and its log entry, whose
/// doubling growth is a few blocks per thousand.
#[test]
fn installs_bind_the_interned_template() {
    const INSTALLS: usize = 1_000;
    const ITEMS: usize = 1024;
    // Install `k` sets items `5k .. 5k + 5` (wrapping) to `value`.
    let updates = |k: usize, value: i64| -> DbState {
        (0..5).map(|j| (VarId::new(((5 * k + j) % ITEMS) as u32), value)).collect()
    };
    let mut arena = TxnArena::new();
    let mut base = BaseNode::new(initial_state(&mix(ITEMS as u32)), 4, true);
    // A first pass over every item builds the template and interns the
    // items in the arena.
    let warm = ITEMS / 5 + 1;
    for k in 0..warm {
        base.install_updates(&mut arena, &updates(k, -1)).expect("every value changes");
    }
    let forwarded: Vec<DbState> = (0..INSTALLS).map(|k| updates(k, 1_000_000 + k as i64)).collect();
    let ((), allocations, live) = counted(|| {
        for updates in &forwarded {
            base.install_updates(&mut arena, updates).expect("every value changes");
        }
    });
    let (per_install, live_per_install) =
        (allocations as f64 / INSTALLS as f64, live as f64 / INSTALLS as f64);
    // Measured 2.012: the binding's two buffers, plus the arena's and the
    // log's growth; the interpreter's maps are inline. With `BTreeMap`
    // interpreter maps it took 5.012, and building a program per install
    // took 12.0 and left 3.0 live blocks.
    assert!(per_install <= 2.02, "{per_install:.3} allocations per install");
    assert!(live_per_install < 0.05, "{live_per_install:.3} live blocks per install");
    assert_eq!(base.committed(), warm + INSTALLS);
}

/// Window-merge-shaped plans: 48 pending histories of 5 transactions
/// over 1,024 items, each merged against one 60-commit window history
/// through a borrowed edge cache and a warm scratch. The merger stops at
/// the install plan, so a plan pays for the tentative log, the conflict
/// slice, back-out, rewriting, pruning and the forwarded values, and for
/// nothing per backed-out transaction: re-execution is the base's.
#[test]
fn merge_plans_stop_at_the_install_plan() {
    const PLANS: usize = 48;
    let mut factory = TxnFactory::new(mix(1024));
    let mut arena = TxnArena::new();
    let hb: SerialHistory = (0..60).map(|_| factory.next_txn(&mut arena, TxnKind::Base)).collect();
    let pending: Vec<SerialHistory> = (0..PLANS)
        .map(|_| (0..5).map(|_| factory.next_txn(&mut arena, TxnKind::Tentative)).collect())
        .collect();
    let s0 = Arc::new(initial_state(&mix(1024)));
    let cache = BaseEdgeCache::of_history(&arena, &hb);
    let merger = Merger::new(MergeConfig::default());
    let mut scratch = MergeScratch::new();
    let plan_all = |scratch: &mut MergeScratch| -> usize {
        pending
            .iter()
            .map(|hm| {
                let outcome = merger
                    .merge_traced_scratch(
                        &arena,
                        hm,
                        &hb,
                        &s0,
                        Some(&cache),
                        &TracerHandle::noop(),
                        scratch,
                    )
                    .expect("generated histories merge");
                outcome.backed_out.len()
            })
            .sum()
    };
    plan_all(&mut scratch);
    let (backed_out, allocations, _) = counted(|| plan_all(&mut scratch));
    assert!(backed_out > 0, "the plans back transactions out");
    let per_plan = allocations as f64 / PLANS as f64;
    // Measured 21.42. With `BTreeMap` execution records, a pairwise
    // rule-3 slice and `BTreeSet` back-out it made 72.40; a plan that also
    // re-executed the backed-out transactions made 75.02.
    assert!(per_plan <= 21.42, "{per_plan:.2} allocations per merge plan");
}

/// Executing a window-merge-sized pending history (5 transactions over
/// 1,024 items) records each step's reads, writes and images inline, so a
/// history costs its entries, its step records, its change index and
/// the overlay of its writes, not a block per map per step (about 45).
#[test]
fn tentative_logs_allocate_per_history_not_per_step() {
    const HISTORIES: usize = 48;
    let mut factory = TxnFactory::new(mix(1024));
    let mut arena = TxnArena::new();
    let pending: Vec<SerialHistory> = (0..HISTORIES)
        .map(|_| (0..5).map(|_| factory.next_txn(&mut arena, TxnKind::Tentative)).collect())
        .collect();
    let s0 = Arc::new(initial_state(&mix(1024)));
    let ((), allocations, live) = counted(|| {
        for hm in &pending {
            let log = AugmentedHistory::execute_shared(&arena, hm, &s0).expect("histories run");
            black_box(log);
        }
    });
    let per_history = allocations as f64 / HISTORIES as f64;
    assert!(per_history <= 5.0, "{per_history:.2} allocations per 5-transaction history");
    assert_eq!(live, 0, "a dropped history leaves nothing live");
}

#[test]
fn tentative_pushes_allocate_only_the_history_growth() {
    let mut mobile = MobileNode::new(Arc::new(initial_state(&mix(64))));
    let ((), allocations, _) = counted(|| {
        for i in 0..TXNS {
            mobile.push_tentative(TxnId::new(i as u32));
        }
    });
    // Recording executes nothing: the only allocations are the pending
    // history's doubling growth, 13 for 10,000 ids. Executing each
    // transaction against a write patch cost 2.9 per transaction.
    let per_txn = allocations as f64 / TXNS as f64;
    assert!(per_txn <= 0.0013, "{per_txn:.4} allocations per tentative push");
    assert_eq!(mobile.pending(), TXNS);
}

#[test]
fn wal_appends_allocate_only_the_journal_copy() {
    const APPENDS: usize = 1_000;
    let writes: DbState =
        [(VarId::new(3), 7), (VarId::new(40), -2), (VarId::new(77), 19)].into_iter().collect();
    let record = WalRecord::Commit { txn: TxnId::new(5), writes };
    let mut wal = Wal::new(VecStorage::new(), &Snapshot::genesis(DbState::new()));
    for _ in 0..APPENDS {
        wal.append(&record);
    }
    let ((), allocations, _) = counted(|| {
        for _ in 0..APPENDS {
            wal.append(&record);
        }
    });
    // The journal keeps its own copy of every append; the segment's and
    // the journal's doubling growth add a few per thousand.
    let per_append = allocations as f64 / APPENDS as f64;
    assert!(per_append < 1.01, "{per_append:.3} allocations per append");
    assert_eq!(wal.records(), 2 * APPENDS as u64 + 1);
}
