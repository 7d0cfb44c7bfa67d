//! Allocation budget of a cold optimization.
//!
//! A counting global allocator (std only) counts the heap allocations one
//! `Optimizer::optimize` call makes on a fixed 3-table chain and a fixed
//! 6-table star. The engine is deterministic, so the count is exact and
//! machine-independent: a change that starts cloning compiled rules or
//! rule environments again fails here, on any hardware.
//!
//! This lives in its own test binary because the allocator is
//! process-global. Counting is switched on per thread, so the test
//! harness's own threads never add to a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use starqo_core::{OptConfig, Optimizer};
use starqo_workload::{query_shape, synth_catalog, QueryShape, SynthSpec};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn note() {
    if ON.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter is
// a plain atomic and the flag a const-initialized thread-local, neither of
// which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Allocations of one cold optimization of `shape` over `n` synthetic
/// tables, with the serving layer's default configuration. The optimizer
/// is built (rules compiled) outside the measurement.
fn allocs_per_optimize(shape: QueryShape, n: usize) -> u64 {
    let spec = SynthSpec {
        tables: n,
        ..Default::default()
    };
    let cat = synth_catalog(7, &spec);
    let query = query_shape(&cat, shape, n, true);
    let opt = Optimizer::new(cat).expect("rules");
    let config = OptConfig::default();
    // A first run initializes process-wide statics (shared labels).
    opt.optimize(&query, &config).expect("optimize");
    let (first, a1) = counted(|| opt.optimize(&query, &config).expect("optimize"));
    let (second, a2) = counted(|| opt.optimize(&query, &config).expect("optimize"));
    assert_eq!(first.best.fingerprint(), second.best.fingerprint());
    assert_eq!(
        a1, a2,
        "an optimization's allocation count is deterministic"
    );
    a1
}

/// About 1.25x the measured counts (900 for the chain, 8850 for the star):
/// headroom for small changes, but a return of per-reference clones of
/// rules, environments or argument lists blows through it. Lower the
/// bounds when a change cuts allocations further.
const CHAIN3_BUDGET: u64 = 1_120;
const STAR6_BUDGET: u64 = 11_000;

#[test]
fn cold_optimize_stays_within_its_allocation_budget() {
    let chain3 = allocs_per_optimize(QueryShape::Chain, 3);
    let star6 = allocs_per_optimize(QueryShape::Star, 6);
    println!("allocations per optimize: chain3={chain3} star6={star6}");
    assert!(
        chain3 <= CHAIN3_BUDGET,
        "chain3: {chain3} > {CHAIN3_BUDGET}"
    );
    assert!(star6 <= STAR6_BUDGET, "star6: {star6} > {STAR6_BUDGET}");
}
