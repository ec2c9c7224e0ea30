//! Allocation budget of BBE and MBBE solves.
//!
//! A counting `#[global_allocator]` wraps the system allocator. On the
//! default 500-node substrate, one pass over 40 unit-rate `[3, 2]`
//! chains warms the shared oracle; a second pass over the same requests
//! must stay within a per-solve allocation budget. The budget pins that
//! a layer expansion moves its path options into one arena once and
//! that a solve copies paths only for the lineage it returns: copying
//! every kept candidate's paths, as classic BBE (which keeps them all)
//! would, allocates more than twice as often.
//!
//! The whole audit lives in a single `#[test]` so no sibling test's
//! allocations bleed into the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dagsfc_core::{BbeSolver, DagSfc, Flow, Layer, MbbeSolver, SolveCtx, Solver, VnfCatalog};
use dagsfc_net::{generator, NetGenConfig, NodeId, VnfTypeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

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

/// `count` unit-rate requests, each a chain of two parallel layers (three
/// distinct kinds, then two more) between two distinct random nodes.
fn requests(nodes: usize, kinds: u16, count: usize, rng: &mut StdRng) -> Vec<(DagSfc, Flow)> {
    (0..count)
        .map(|_| {
            let mut drawn: Vec<VnfTypeId> = (0..kinds).map(VnfTypeId).collect();
            drawn.shuffle(rng);
            let layers = vec![
                Layer::new(drawn[..3].to_vec()),
                Layer::new(drawn[3..5].to_vec()),
            ];
            let sfc = DagSfc::new(layers, VnfCatalog::new(kinds)).unwrap();
            let src = rng.gen_range(0..nodes);
            let dst = (src + rng.gen_range(1..nodes)) % nodes;
            (sfc, Flow::unit(NodeId(src as u32), NodeId(dst as u32)))
        })
        .collect()
}

/// Allocations per solve of `solver` over `requests` through `ctx`.
fn per_solve(solver: &dyn Solver, ctx: &SolveCtx<'_>, requests: &[(DagSfc, Flow)]) -> u64 {
    let before = allocs();
    for (sfc, flow) in requests {
        let out = solver.solve_in(ctx, sfc, flow).expect("unbounded capacity");
        assert!(out.cost.total() > 0.0);
    }
    (allocs() - before) / requests.len() as u64
}

#[test]
fn bbe_solves_copy_no_candidate_paths() {
    // Classic BBE keeps every candidate: copying each one's paths cost
    // about 7,800 allocations per solve here (debug build), the arena
    // about 3,000.
    const BBE_BUDGET: u64 = 4_500;
    // MBBE keeps `X_d` candidates per pair: about 2,000 allocations with
    // their paths copied, 1,250 with picks.
    const MBBE_BUDGET: u64 = 1_750;

    let gen = NetGenConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    let net = generator::generate(&gen, &mut rng).unwrap();
    let kinds = (gen.vnf_kinds - 1) as u16;
    let requests = requests(gen.nodes, kinds, 40, &mut rng);
    let ctx = SolveCtx::new(&net);
    let (bbe, mbbe) = (BbeSolver::new(), MbbeSolver::new());
    // Warm-up: the oracle's trees and the solvers' thread-local scratch.
    per_solve(&bbe, &ctx, &requests);
    per_solve(&mbbe, &ctx, &requests);

    let bbe_allocs = per_solve(&bbe, &ctx, &requests);
    let mbbe_allocs = per_solve(&mbbe, &ctx, &requests);
    eprintln!("allocations per solve: BBE {bbe_allocs}, MBBE {mbbe_allocs}");
    assert!(
        bbe_allocs <= BBE_BUDGET,
        "BBE allocated {bbe_allocs} times per solve (budget {BBE_BUDGET}): \
         candidates copy their paths again"
    );
    assert!(
        mbbe_allocs <= MBBE_BUDGET,
        "MBBE allocated {mbbe_allocs} times per solve (budget {MBBE_BUDGET})"
    );
}
