//! The weighted-search kernel: binary-heap Dijkstra over the CSR
//! snapshot.
//!
//! Every weighted query in the workspace — min-cost paths, oracle trees,
//! Steiner rounds, LARAC's `Delay` and `Lagrange(λ)` trees, the shard
//! layer's multi-source and radius-bounded corridor searches — runs the
//! loop in [`settle_until`]. Its queue pops the cheapest distance first and
//! breaks ties on the smaller node id, so predecessor trees are a pure
//! function of the network, the filter and the weight.
//!
//! The loop runs over any [`SearchState`]: the epoch-stamped
//! [`RoutingScratch`] of a one-shot search, or the arrays of an oracle
//! tree that settles on demand and resumes where its last query
//! stopped.
//!
//! The module also holds the exact CSP reference's pareto label queue
//! ([`ParetoQueue`]).

use super::dijkstra::ArcWeight;
use super::scratch::RoutingScratch;
use super::LinkFilter;
use crate::ids::{LinkId, NodeId};
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

/// The per-node state a Dijkstra search reads and writes.
pub(crate) trait SearchState {
    /// Tentative (or, once settled, final) distance of `v`.
    fn dist(&self, v: NodeId) -> f64;
    /// Records that `v` is reached at `d` via `prev` (`None` at the
    /// source).
    fn relax(&mut self, v: NodeId, d: f64, prev: Option<(NodeId, LinkId)>);
    /// Whether `v` is settled.
    fn is_settled(&self, v: NodeId) -> bool;
    /// Marks `v` settled.
    fn settle(&mut self, v: NodeId);
}

/// Where a run of [`settle_until`] stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Stop {
    /// When the frontier is empty.
    Exhausted,
    /// As soon as the node is settled, before its arcs are relaxed.
    Settled(NodeId),
    /// Once the node is settled and its arcs relaxed. The unsettled
    /// nodes with a finite distance are then exactly the frontier, so a
    /// later run can resume from them.
    Relaxed(NodeId),
    /// At the first pop farther than the radius: every node at most the
    /// radius away is settled, ties at the radius included.
    Beyond(f64),
}

/// The Dijkstra loop: pops the frontier in (distance, node id) order,
/// settles each node once and relaxes its admitted arcs, until `stop`.
/// Returns whether the frontier ran dry.
///
/// A settled node's distance and predecessor never change, and the pop
/// order depends only on the queued (distance, node) pairs, so a search
/// paused at [`Stop::Relaxed`] and resumed from its frontier settles the
/// same nodes in the same order as one that never paused.
pub(crate) fn settle_until<S: SearchState, F: LinkFilter>(
    snap: &NetworkSnapshot,
    filter: &F,
    weight: ArcWeight,
    state: &mut S,
    heap: &mut MinHeap,
    stop: Stop,
) -> bool {
    while let Some((d, node)) = heap.pop() {
        if state.is_settled(node) {
            continue;
        }
        if matches!(stop, Stop::Beyond(radius) if d > radius) {
            return false;
        }
        state.settle(node);
        if stop == Stop::Settled(node) {
            return false;
        }
        for i in snap.arc_range(node) {
            let next = snap.arc_target(i);
            let link = snap.arc_link(i);
            if state.is_settled(next) || !filter.allows(link) {
                continue;
            }
            let nd = d + weight.of(snap, i);
            if nd < state.dist(next) {
                state.relax(next, nd, Some((node, link)));
                heap.push(nd, next);
            }
        }
        if stop == Stop::Relaxed(node) {
            return false;
        }
    }
    true
}

/// Runs the weighted CSR Dijkstra loop from every node of `sources`,
/// each seeded at 0.0, until `stop`, leaving distances and predecessors
/// in `scratch` under a fresh epoch.
///
/// A node's distance is then the least over the sources of its distance
/// from that source alone, bit for bit: rounding is monotone and adding
/// a non-negative weight never lowers a sum, so each search finds the
/// least left-to-right sum over its paths, whatever order it settles
/// nodes in.
pub(crate) fn search_weighted_in<F: LinkFilter>(
    snap: &NetworkSnapshot,
    sources: &[NodeId],
    filter: &F,
    stop: Stop,
    scratch: &mut RoutingScratch,
    weight: ArcWeight,
) {
    scratch.begin(snap.node_count());
    let mut heap = std::mem::take(&mut scratch.heap);
    for &source in sources {
        scratch.relax(source, 0.0, None);
        heap.push(0.0, source);
    }
    settle_until(snap, filter, weight, scratch, &mut heap, stop);
    scratch.heap = heap;
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
