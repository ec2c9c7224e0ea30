//! Allocation budget of the commit behind every accepted request.
//!
//! A counting `#[global_allocator]` wraps the system allocator. For one
//! accepted MINV arrival and one accepted MBBE arrival, each on a fresh
//! ledger, the test counts the allocations `embed_and_commit` makes
//! beyond those of `algo.build(seed).solve` on the same residual. Both
//! sides build the same fresh `SolveCtx` and run the same search, so the
//! difference is deterministic: it is what the commit adds to the
//! solve. The budget pins that the commit reserves the loads the solve
//! already accounted: accounting the embedding a second time, to get
//! its loads, adds 5 allocations to the commit's own 5 to 7.
//!
//! The whole audit lives in a single `#[test]` so no sibling test's
//! allocations bleed into the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dagsfc_net::CommitLedger;
use dagsfc_sim::runner::{instance_network, instance_request};
use dagsfc_sim::{arrival_seed, embed_and_commit, Algo, SimConfig};

/// Counts every allocation (and growth reallocation) made through the
/// global allocator. Deallocations are free; only acquisitions count.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn commit_reserves_the_loads_the_solve_accounted() {
    // The commit's own: the lease record's two load lists (grown as
    // they are collected), the reservation check's slot list and the
    // lease map's first entry. MINV needs 7 here, MBBE 5; with a second
    // accounting they needed 12 and 10.
    const BUDGET: u64 = 8;

    let cfg = SimConfig {
        network_size: 30,
        sfc_size: 4,
        vnf_capacity: 6.0,
        link_capacity: 6.0,
        seed: 0xBEEF,
        ..SimConfig::default()
    };
    let net = instance_network(&cfg);
    let (sfc, flow) = instance_request(&cfg, &net, 0);
    let seed = arrival_seed(cfg.seed, 0);
    for algo in [Algo::Minv, Algo::Mbbe] {
        let mut ledger = CommitLedger::new(&net);
        let residual = ledger.residual();
        // Warm-up: lazily built statics and the solvers' thread-local
        // scratch.
        let solve = || algo.build(seed).solve(&residual, &sfc, &flow);
        solve().expect("a fresh network admits the first request");

        let before = allocs();
        let solved = solve().expect("a fresh network admits the first request");
        let solve_allocs = allocs() - before;

        let before = allocs();
        let committed = embed_and_commit(&mut ledger, &residual, &sfc, &flow, algo, seed)
            .expect("a fresh ledger commits the first request");
        let commit_allocs = allocs() - before;

        assert_eq!(committed.outcome.embedding, solved.embedding);
        let extra = commit_allocs - solve_allocs;
        eprintln!(
            "{}: solve {solve_allocs} allocations, embed_and_commit {commit_allocs} (+{extra})",
            algo.name()
        );
        assert!(
            extra <= BUDGET,
            "{}: embed_and_commit allocated {extra} times beyond its solve \
             (budget {BUDGET}): the commit accounts the embedding again",
            algo.name()
        );
    }
}
