//! Steady-state allocation audit of the engine's residual refresh.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Through
//! 200 commit → refresh → release → refresh cycles, every refresh must
//! hand back the one cached `Network` (same allocation), patched in
//! place, and allocate nothing itself — except, in debug builds, the
//! one rebuild the engine's cross-check compares each patched refresh
//! against, which this test measures and allows exactly.
//!
//! The whole audit lives in a single `#[test]` so no sibling test's
//! allocations bleed into the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dagsfc_net::Network;
use dagsfc_shard::{ShardPlan, ShardRouter, ShardedEngine};
use dagsfc_sim::runner::{instance_network, instance_request};
use dagsfc_sim::{arrival_seed, Algo, SimConfig};

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

/// One front-end refresh: the cached view's address and the
/// allocations the call made.
fn refresh(engine: &mut ShardedEngine<'_>) -> (*const Network, u64) {
    let before = allocs();
    let view = engine.unpartitioned_residual();
    let made = allocs() - before;
    (Arc::as_ptr(&view), made)
}

#[test]
fn refreshes_patch_one_network_and_allocate_nothing_else() {
    const CYCLES: usize = 200;
    let sim = SimConfig {
        network_size: 60,
        sfc_size: 4,
        vnf_capacity: 50.0,
        link_capacity: 50.0,
        seed: 0xA110C,
        ..SimConfig::default()
    };
    let net = instance_network(&sim);
    let plan = ShardPlan::partition(&net, 1).expect("partition");
    let mut engine = ShardedEngine::new(&net, plan, ShardRouter::default());

    // What one full rebuild of the view allocates: the debug builds'
    // cross-check makes exactly one per patched refresh.
    let before = allocs();
    let copy = net.map_capacities(|_, _, c| c, |_, c| c);
    let rebuild = allocs() - before;
    drop(copy);
    assert!(rebuild > 0);
    let budget = if cfg!(debug_assertions) { rebuild } else { 0 };

    let (view, _) = refresh(&mut engine);
    for cycle in 0..CYCLES {
        let (sfc, flow) = instance_request(&sim, &net, cycle);
        let seed = arrival_seed(sim.seed, cycle);
        let lease = engine
            .embed(&sfc, &flow, Algo::Mbbe, seed)
            .unwrap_or_else(|e| panic!("cycle {cycle}: a roomy substrate admits: {e}"))
            .lease;
        let (committed, made) = refresh(&mut engine);
        assert!(
            std::ptr::eq(committed, view),
            "cycle {cycle}: commit refresh"
        );
        assert_eq!(made, budget, "cycle {cycle}: commit refresh allocations");

        engine.release(lease).expect("release");
        let (released, made) = refresh(&mut engine);
        assert!(
            std::ptr::eq(released, view),
            "cycle {cycle}: release refresh"
        );
        assert_eq!(made, budget, "cycle {cycle}: release refresh allocations");
    }
}
