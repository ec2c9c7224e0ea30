//! The weighted-search kernel: binary-heap Dijkstra over the CSR
//! snapshot.
//!
//! Every weighted query in the workspace — min-cost paths, oracle trees,
//! Steiner rounds, LARAC's `Delay` and `Lagrange(λ)` trees — runs the
//! loop in [`search_weighted_in`]. Its queue pops the cheapest distance
//! first and breaks ties on the smaller node id, so predecessor trees
//! are a pure function of the network, the filter and the weight.
//!
//! The module also holds the exact CSP reference's pareto label queue
//! ([`ParetoQueue`]).

use super::dijkstra::ArcWeight;
use super::scratch::RoutingScratch;
use super::LinkFilter;
use crate::ids::NodeId;
use crate::snapshot::NetworkSnapshot;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry ordered so the *cheapest* distance pops first.
///
/// Tie-break on node id keeps pop order — and therefore predecessor
/// trees — fully deterministic.
#[derive(Debug, PartialEq)]
struct MinCostEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for MinCostEntry {}

impl Ord for MinCostEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) pops the minimum distance.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for MinCostEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The min-cost priority queue held by [`RoutingScratch`].
#[derive(Debug, Default)]
pub(crate) struct MinHeap(BinaryHeap<MinCostEntry>);

impl MinHeap {
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    #[inline]
    pub(crate) fn push(&mut self, dist: f64, node: NodeId) {
        self.0.push(MinCostEntry { dist, node });
    }

    /// Pops the cheapest `(dist, node)` entry, smallest node id first on
    /// distance ties.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, NodeId)> {
        self.0.pop().map(|e| (e.dist, e.node))
    }
}

/// Runs the weighted CSR Dijkstra loop, leaving distances and
/// predecessors in `scratch` under a fresh epoch. With an early
/// `target`, the search stops once the target is settled.
pub(crate) fn search_weighted_in<F: LinkFilter>(
    snap: &NetworkSnapshot,
    source: NodeId,
    filter: &F,
    target: Option<NodeId>,
    scratch: &mut RoutingScratch,
    weight: ArcWeight,
) {
    scratch.begin(snap.node_count());
    scratch.relax(source, 0.0, None);
    scratch.heap.push(0.0, source);
    while let Some((d, node)) = scratch.heap.pop() {
        if scratch.is_settled(node) {
            continue;
        }
        scratch.settle(node);
        if target == Some(node) {
            break;
        }
        for i in snap.arc_range(node) {
            let next = snap.arc_target(i);
            let link = snap.arc_link(i);
            if scratch.is_settled(next) || !filter.allows(link) {
                continue;
            }
            let nd = d + weight.of(snap, i);
            if nd < scratch.dist(next) {
                scratch.relax(next, nd, Some((node, link)));
                scratch.heap.push(nd, next);
            }
        }
    }
}

/// Entry of the exact pareto label-setting queue (`csp.rs`), ordered
/// ascending by (price, delay) — implemented as a reversed `Ord` so
/// `BinaryHeap`'s max-pop yields the minimum.
#[derive(Debug)]
pub(crate) struct ParetoEntry {
    pub(crate) price: f64,
    pub(crate) delay_us: f64,
    pub(crate) label: usize,
}

impl PartialEq for ParetoEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ParetoEntry {}
impl PartialOrd for ParetoEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ParetoEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .price
            .total_cmp(&self.price)
            .then_with(|| other.delay_us.total_cmp(&self.delay_us))
    }
}

/// The exact CSP reference's label queue: cheapest (price, delay) first.
#[derive(Debug, Default)]
pub(crate) struct ParetoQueue(BinaryHeap<ParetoEntry>);

impl ParetoQueue {
    #[inline]
    pub(crate) fn push(&mut self, entry: ParetoEntry) {
        self.0.push(entry);
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<ParetoEntry> {
        self.0.pop()
    }
}
