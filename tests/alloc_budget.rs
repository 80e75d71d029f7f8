//! Allocation budgets of a transaction's lifecycle.
//!
//! A counting global allocator tallies allocations and live blocks per
//! thread, so tests running on parallel threads do not mix their counts.
//! The budgets pin the layout: a footprint of a few items lives inline in
//! its `VarSet`s and `VarMask`s, the arena keeps every footprint bitset in
//! one shared slab, and a generated transaction is an instance of a
//! shared template whose binding, constants and name live inline — so
//! generating, admitting and copying one allocates nothing once its shape
//! has been seen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use histmerge::history::TxnArena;
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

#[test]
fn reexecution_allocates_only_the_interpreters_maps() {
    for n_vars in [64, 1024] {
        let mut arena = generated(n_vars);
        let mut base = BaseNode::new(initial_state(&mix(n_vars)), 4, true);
        let ((), allocations, _) = counted(|| {
            for i in 0..TXNS {
                base.reexecute(&mut arena, TxnId::new(i as u32));
            }
        });
        let per_txn = allocations as f64 / TXNS as f64;
        assert!(per_txn <= 3.0, "{n_vars} items: {per_txn:.2} allocations per re-execution");
        assert_eq!(base.committed(), TXNS);
    }
}

#[test]
fn tentative_runs_allocate_at_most_four_times() {
    for n_vars in [64, 1024] {
        let arena = generated(n_vars);
        let mut mobile = MobileNode::new(0, Arc::new(initial_state(&mix(n_vars))), 0, 1);
        let ((), allocations, _) = counted(|| {
            for i in 0..TXNS {
                mobile.run_tentative(&arena, TxnId::new(i as u32));
            }
        });
        let per_txn = allocations as f64 / TXNS as f64;
        assert!(per_txn <= 4.0, "{n_vars} items: {per_txn:.2} allocations per tentative run");
    }
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
