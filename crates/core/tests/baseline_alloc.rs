//! Allocation budget of MINV and RANV solves.
//!
//! A counting `#[global_allocator]` wraps the system allocator. On the
//! default 500-node substrate, one pass over 40 unit-rate `[3, 2]`
//! chains warms the shared oracle; a second pass over the same requests
//! (RANV under the same seed, so it draws the same hosts) must stay
//! within a per-solve allocation budget. The budget pins that a solve
//! pays for what it searches, not for the substrate: it allocates no
//! residual state over every node, link and instance, and no list of
//! every capable host per slot.
//!
//! The whole audit lives in a single `#[test]` so no sibling test's
//! allocations bleed into the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dagsfc_core::{DagSfc, Flow, Layer, MinvSolver, RanvSolver, SolveCtx, Solver, VnfCatalog};
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
fn baseline_solves_allocate_nothing_substrate_sized() {
    // A residual state over the whole substrate (seven vectors, one of
    // them grown instance by instance) plus a fresh list of every
    // capable host per slot cost about 225 allocations per solve here
    // (debug build); routing on the session's own reservations and one
    // host buffer reused across slots, about 132.
    const MINV_BUDGET: u64 = 170;
    const RANV_BUDGET: u64 = 170;

    let gen = NetGenConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    let net = generator::generate(&gen, &mut rng).unwrap();
    let kinds = (gen.vnf_kinds - 1) as u16;
    let requests = requests(gen.nodes, kinds, 40, &mut rng);
    let ctx = SolveCtx::new(&net);
    // Warm-up: the oracle's trees settle as far as these solves read.
    per_solve(&MinvSolver::new(), &ctx, &requests);
    per_solve(&RanvSolver::new(3), &ctx, &requests);

    let minv_allocs = per_solve(&MinvSolver::new(), &ctx, &requests);
    let ranv_allocs = per_solve(&RanvSolver::new(3), &ctx, &requests);
    eprintln!("allocations per solve: MINV {minv_allocs}, RANV {ranv_allocs}");
    assert!(
        minv_allocs <= MINV_BUDGET,
        "MINV allocated {minv_allocs} times per solve (budget {MINV_BUDGET}): \
         a solve sets up substrate-sized state again"
    );
    assert!(
        ranv_allocs <= RANV_BUDGET,
        "RANV allocated {ranv_allocs} times per solve (budget {RANV_BUDGET})"
    );
}
