//! Steady-state allocation audit for the scratch-backed routing kernel.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after
//! warming the CSR snapshot and the reusable [`RoutingScratch`], repeated
//! `min_cost_path_in` queries must allocate only the returned `Path`
//! (two small `Vec`s, plus occasional growth reallocations) — never
//! per-search working buffers. A naive Dijkstra that rebuilds its heap
//! and distance maps would blow the budget by two orders of magnitude,
//! so this test pins the scratch-reuse contract down hard.
//!
//! The whole audit lives in a single `#[test]` so no sibling test's
//! allocations bleed into the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dagsfc_net::routing::{min_cost_path_in, NoFilter, RoutingScratch, ShortestPathTree};
use dagsfc_net::{Network, NodeId};

/// Counts every allocation (and growth reallocation) made through the
/// global allocator. Deallocations are free; we only budget acquisitions.
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

/// A deterministic 120-node test substrate: a ring with chords, prices
/// varied by a small arithmetic formula so shortest paths are non-trivial.
fn build_net(n: u32) -> Network {
    let mut g = Network::new();
    g.add_nodes(n as usize);
    for i in 0..n {
        let j = (i + 1) % n;
        let price = 0.5 + ((i * 7) % 13) as f64 * 0.1;
        g.add_link(NodeId(i), NodeId(j), price, 100.0).unwrap();
    }
    for i in 0..n {
        let j = (i + 7) % n;
        let price = 1.0 + ((i * 3) % 11) as f64 * 0.2;
        g.add_link(NodeId(i), NodeId(j), price, 100.0).unwrap();
    }
    g
}

#[test]
fn steady_state_queries_allocate_only_the_result_path() {
    const N: u32 = 120;
    const QUERIES: u64 = 200;
    // Budget: the returned `Path` is two Vecs built by repeated push, so
    // a handful of growth reallocations per extraction is legitimate.
    // Scratch reuse is what keeps this bound tiny: one *search* on a
    // 120-node substrate touches every node, and rebuilding its heap,
    // distance and predecessor stores per query would cost hundreds of
    // allocations each.
    const PER_QUERY_BUDGET: u64 = 12;

    let net = build_net(N);
    let mut scratch = RoutingScratch::new();

    // Warm-up: force the lazy CSR snapshot build and grow the scratch
    // (and the thread's local buffers) to the substrate size.
    let warm = min_cost_path_in(&net, NodeId(0), NodeId(N / 2), &NoFilter, &mut scratch)
        .expect("warm-up path");
    assert!(warm.nodes().len() >= 2);

    // Steady state: distinct endpoint pairs so results cannot be cached
    // anywhere; every query runs a full Dijkstra in the shared scratch.
    let before = allocs();
    let mut total_hops = 0usize;
    for q in 0..QUERIES {
        let from = NodeId((q as u32 * 5) % N);
        let to = NodeId((q as u32 * 5 + N / 2 + (q as u32 % 3)) % N);
        let p = min_cost_path_in(&net, from, to, &NoFilter, &mut scratch).expect("reachable");
        total_hops += p.links().len();
    }
    let spent = allocs() - before;
    assert!(total_hops > 0);
    assert!(
        spent <= QUERIES * PER_QUERY_BUDGET,
        "steady-state routing allocated {spent} times over {QUERIES} queries \
         (budget {} total): scratch reuse regressed",
        QUERIES * PER_QUERY_BUDGET
    );

    // Tree builds allocate the tree's own dist/prev arrays and nothing
    // else; give them the same per-call budget plus the two arrays.
    let before = allocs();
    for q in 0..50u32 {
        let t = ShortestPathTree::build_in(&net, NodeId(q % N), &NoFilter, None, &mut scratch);
        assert!(t.dist_to(NodeId((q + 1) % N)).is_some());
    }
    let spent = allocs() - before;
    assert!(
        spent <= 50 * 6,
        "steady-state tree builds allocated {spent} times over 50 builds: \
         scratch reuse regressed"
    );
}
