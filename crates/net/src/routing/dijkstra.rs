//! Min-cost (price-weighted) shortest paths via Dijkstra's algorithm.
//!
//! Link prices are the edge weights; all prices are finite and
//! non-negative by construction ([`crate::Network::add_link`] validates
//! this, and networks loaded from files are rebuilt through it), so
//! Dijkstra's preconditions hold.
//!
//! The search loop is the crate's one weighted-search kernel, kept in
//! the private `routing::heap` module. It runs over the network's
//! cached CSR [`NetworkSnapshot`] — a flat
//! struct-of-arrays adjacency whose arc order matches
//! [`Network::neighbors`] exactly, so results are bit-identical to the
//! historical adjacency-list implementation — and keeps its working
//! state in an epoch-tagged [`RoutingScratch`], making steady-state
//! searches allocation-free. Entry points without a scratch parameter
//! borrow a per-thread scratch transparently.
//!
//! Oracle trees settle on demand (see [`ShortestPathTree`]). Between
//! queries such a tree keeps one settled bit and one frontier bit per
//! node, and a resume queues the frontier by walking its set bits, so
//! its cost follows the frontier, not the node count.

use super::heap::{search_weighted_in, settle_until, SearchState, Stop};
use super::scratch::{with_thread_scratch, RoutingScratch};
use super::LinkFilter;
use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use crate::snapshot::NetworkSnapshot;
use parking_lot::Mutex;
use std::sync::Arc;

/// Which per-arc scalar a weighted tree build minimizes.
///
/// `Price` is the classic min-cost search; `Delay` minimizes the summed
/// link propagation delay; `Lagrange(λ)` minimizes the LARAC aggregate
/// `price + λ·delay` used by the delay-constrained oracle mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArcWeight {
    /// Link price `c_e`.
    Price,
    /// Link propagation delay `d_e` (microseconds).
    Delay,
    /// The Lagrangian aggregate `c_e + λ·d_e`.
    Lagrange(f64),
}

impl ArcWeight {
    /// The weight of arc `i` under this criterion.
    #[inline]
    pub(crate) fn of(self, snap: &NetworkSnapshot, i: usize) -> f64 {
        match self {
            ArcWeight::Price => snap.arc_price(i),
            ArcWeight::Delay => snap.arc_delay(i),
            ArcWeight::Lagrange(lambda) => snap.arc_price(i) + lambda * snap.arc_delay(i),
        }
    }

    /// A stable cache key: `Price` and `Delay` are reserved sentinels,
    /// `Lagrange(λ)` keys on the bits of λ.
    #[inline]
    pub fn cache_key(self) -> u64 {
        match self {
            ArcWeight::Price => u64::MAX,
            ArcWeight::Delay => u64::MAX - 1,
            ArcWeight::Lagrange(lambda) => lambda.to_bits(),
        }
    }
}

/// Runs the CSR Dijkstra loop, leaving distances/predecessors in
/// `scratch` under a fresh epoch.
pub(crate) fn search_in<F: LinkFilter>(
    snap: &NetworkSnapshot,
    source: NodeId,
    filter: &F,
    target: Option<NodeId>,
    scratch: &mut RoutingScratch,
) {
    let stop = target.map_or(Stop::Exhausted, Stop::Settled);
    search_weighted_in(snap, &[source], filter, stop, scratch, ArcWeight::Price)
}

/// Settles in `scratch` every node whose price distance from the
/// nearest of `sources` is at most `radius`, ties at the radius
/// included (`f64::INFINITY` settles every reachable node), over the
/// links `filter` admits.
///
/// Every source starts at 0.0, so a node's distance is the least of its
/// [`ShortestPathTree::dist_to`] over the sources' trees under the same
/// filter, bit for bit. With one source, a settled node's distance and
/// path are that source's tree's. Read them with
/// [`RoutingScratch::settled_dist`] and [`RoutingScratch::settled_path`].
pub fn settle_within_in<F: LinkFilter>(
    net: &Network,
    sources: &[NodeId],
    filter: &F,
    radius: f64,
    scratch: &mut RoutingScratch,
) {
    let snap: &NetworkSnapshot = net.snapshot();
    let stop = Stop::Beyond(radius);
    search_weighted_in(snap, sources, filter, stop, scratch, ArcWeight::Price);
}

/// Predecessor entry of the source and of unreached nodes.
const NO_PREV: (u32, u32) = (u32::MAX, u32::MAX);

/// A single-source shortest-path tree, answering distance and path queries
/// to every reachable node.
///
/// [`build`](Self::build) and its siblings return a complete tree. A
/// tree from a [`PathOracle`](crate::PathOracle) miss settles nodes on
/// demand instead: it starts with only its source reached, and a
/// [`dist_to`](Self::dist_to) or [`path_to`](Self::path_to) of a node
/// not yet settled resumes the search until that node is settled. The
/// answers are bit-identical to a complete tree's under the same filter,
/// in any query order and from any thread: the search settles nodes in
/// the same (distance, node id) order whenever it pauses, and a settled
/// node's distance and predecessor never change.
///
/// A paused tree holds its distance and predecessor arrays, two bitsets
/// of one bit per node — the settled nodes, and the frontier (reached
/// but not settled) — and shared handles to what it searches (the CSR
/// snapshot and the admitted-link set it was built with), so it keeps
/// answering as built whatever the oracle's overlay does later. A resume
/// queues the frontier by walking its bits, and the tree drops the
/// bitsets and handles once the search is complete.
#[derive(Debug)]
pub struct ShortestPathTree {
    source: NodeId,
    nodes: Mutex<TreeNodes>,
}

/// A tree's per-node arrays.
#[derive(Debug)]
struct TreeNodes {
    dist: Vec<f64>,
    /// `(prev_node, via_link)`, [`NO_PREV`] at the source and at
    /// unreached nodes.
    prev: Vec<(u32, u32)>,
    /// What the search needs to resume; `None` once it is complete.
    paused: Option<Paused>,
}

/// One bit per node, 64 nodes a word.
#[derive(Debug)]
struct NodeBits(Vec<u64>);

impl NodeBits {
    /// `n` clear bits.
    fn new(n: usize) -> Self {
        NodeBits(vec![0; n.div_ceil(64)])
    }

    #[inline]
    fn get(&self, v: NodeId) -> bool {
        self.0[v.index() / 64] >> (v.index() % 64) & 1 == 1
    }

    #[inline]
    fn set(&mut self, v: NodeId) {
        self.0[v.index() / 64] |= 1 << (v.index() % 64);
    }

    #[inline]
    fn clear(&mut self, v: NodeId) {
        self.0[v.index() / 64] &= !(1 << (v.index() % 64));
    }

    /// The set bits' nodes, ascending.
    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    NodeId(w as u32 * 64 + bit)
                })
            })
        })
    }
}

/// The resumable part of a tree that settles on demand.
#[derive(Debug)]
struct Paused {
    settled: NodeBits,
    /// Reached but not settled: the nodes a resume queues.
    frontier: NodeBits,
    snap: Arc<NetworkSnapshot>,
    /// Per link: whether the tree's filter admits it.
    admitted: Arc<[bool]>,
    weight: ArcWeight,
}

/// A paused tree's arrays, borrowed for one resumed run of the kernel.
struct Resumed<'a> {
    dist: &'a mut [f64],
    prev: &'a mut [(u32, u32)],
    settled: &'a mut NodeBits,
    frontier: &'a mut NodeBits,
}

impl SearchState for Resumed<'_> {
    #[inline]
    fn dist(&self, v: NodeId) -> f64 {
        self.dist[v.index()]
    }

    #[inline]
    fn relax(&mut self, v: NodeId, d: f64, prev: Option<(NodeId, LinkId)>) {
        self.dist[v.index()] = d;
        self.prev[v.index()] = prev.map_or(NO_PREV, |(p, l)| (p.0, l.0));
        self.frontier.set(v);
    }

    #[inline]
    fn is_settled(&self, v: NodeId) -> bool {
        self.settled.get(v)
    }

    #[inline]
    fn settle(&mut self, v: NodeId) {
        self.settled.set(v);
        self.frontier.clear(v);
    }
}

impl TreeNodes {
    /// Resumes a paused search until `node` is settled, or until the
    /// search completes. A complete tree, or a settled `node`, returns
    /// at once.
    fn settle_through(&mut self, node: NodeId) {
        let TreeNodes { dist, prev, paused } = self;
        let Some(p) = paused else {
            return;
        };
        if p.settled.get(node) {
            return;
        }
        let admitted = &p.admitted;
        let filter = |l: LinkId| admitted[l.index()];
        let mut state = Resumed {
            dist,
            prev,
            settled: &mut p.settled,
            frontier: &mut p.frontier,
        };
        let complete = with_thread_scratch(|scratch| {
            let heap = &mut scratch.heap;
            heap.clear();
            for v in state.frontier.iter() {
                heap.push(state.dist[v.index()], v);
            }
            let complete = settle_until(
                &p.snap,
                &filter,
                p.weight,
                &mut state,
                heap,
                Stop::Relaxed(node),
            );
            heap.clear();
            complete
        });
        if complete {
            *paused = None;
        }
    }
}

impl ShortestPathTree {
    /// Runs Dijkstra from `source`, using only links admitted by `filter`.
    ///
    /// With an early `target`, the search stops as soon as the target is
    /// settled (remaining distances stay `f64::INFINITY`).
    pub fn build<F: LinkFilter>(
        net: &Network,
        source: NodeId,
        filter: &F,
        target: Option<NodeId>,
    ) -> Self {
        with_thread_scratch(|scratch| Self::build_in(net, source, filter, target, scratch))
    }

    /// Like [`build`](Self::build), but runs in a caller-provided
    /// scratch so repeated builds (Steiner rounds, LARAC iterations)
    /// reuse one set of working buffers.
    pub fn build_in<F: LinkFilter>(
        net: &Network,
        source: NodeId,
        filter: &F,
        target: Option<NodeId>,
        scratch: &mut RoutingScratch,
    ) -> Self {
        Self::build_weighted_in(net, source, filter, target, scratch, ArcWeight::Price)
    }

    /// Builds the tree under an explicit [`ArcWeight`] criterion. The
    /// LARAC oracle mode uses this with `Delay` and `Lagrange(λ)`
    /// weights; `Price` reproduces [`build_in`](Self::build_in) exactly.
    ///
    /// `dist` values are *weights* under the chosen criterion, not
    /// prices — evaluate returned paths with [`Path::price`] /
    /// [`Path::delay_us`] when both axes matter.
    pub fn build_weighted_in<F: LinkFilter>(
        net: &Network,
        source: NodeId,
        filter: &F,
        target: Option<NodeId>,
        scratch: &mut RoutingScratch,
        weight: ArcWeight,
    ) -> Self {
        let snap: &NetworkSnapshot = net.snapshot();
        let stop = target.map_or(Stop::Exhausted, Stop::Settled);
        search_weighted_in(snap, &[source], filter, stop, scratch, weight);
        let n = snap.node_count();
        let mut dist = Vec::with_capacity(n);
        let mut prev = Vec::with_capacity(n);
        for v in 0..n as u32 {
            dist.push(scratch.dist(NodeId(v)));
            prev.push(
                scratch
                    .prev_of(NodeId(v))
                    .map_or(NO_PREV, |(p, l)| (p.0, l.0)),
            );
        }
        ShortestPathTree {
            source,
            nodes: Mutex::new(TreeNodes {
                dist,
                prev,
                paused: None,
            }),
        }
    }

    /// A tree that settles on demand (see the type docs): only `source`
    /// is reached, and queries resume the search over `snap` through
    /// the links `admitted` marks, under `weight`.
    pub(crate) fn paused(
        snap: Arc<NetworkSnapshot>,
        source: NodeId,
        admitted: Arc<[bool]>,
        weight: ArcWeight,
    ) -> Self {
        let n = snap.node_count();
        let mut dist = vec![f64::INFINITY; n];
        dist[source.index()] = 0.0;
        let mut frontier = NodeBits::new(n);
        frontier.set(source);
        ShortestPathTree {
            source,
            nodes: Mutex::new(TreeNodes {
                dist,
                prev: vec![NO_PREV; n],
                paused: Some(Paused {
                    settled: NodeBits::new(n),
                    frontier,
                    snap,
                    admitted,
                    weight,
                }),
            }),
        }
    }

    /// The tree's source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Total weight of the lightest path to `node` under the tree's
    /// [`ArcWeight`] (its price for a price tree), if reachable.
    pub fn dist_to(&self, node: NodeId) -> Option<f64> {
        let mut nodes = self.nodes.lock();
        nodes.settle_through(node);
        let d = nodes.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// The cheapest path from the source to `node`, if reachable.
    pub fn path_to(&self, node: NodeId) -> Option<Path> {
        let mut tree = self.nodes.lock();
        tree.settle_through(node);
        if !tree.dist[node.index()].is_finite() {
            return None;
        }
        let mut nodes = vec![node];
        let mut links = Vec::new();
        let mut cur = node;
        loop {
            let (p, l) = tree.prev[cur.index()];
            if (p, l) == NO_PREV {
                break;
            }
            nodes.push(NodeId(p));
            links.push(LinkId(l));
            cur = NodeId(p);
        }
        debug_assert_eq!(cur, self.source);
        nodes.reverse();
        links.reverse();
        // Contiguity holds by construction of the predecessor chain.
        Some(Path::from_parts_unchecked(nodes, links))
    }
}

/// Cheapest path from `from` to `to` using only links admitted by `filter`.
///
/// Returns `None` when `to` is unreachable. A query with `from == to`
/// yields the zero-length trivial path.
pub fn min_cost_path<F: LinkFilter>(
    net: &Network,
    from: NodeId,
    to: NodeId,
    filter: &F,
) -> Option<Path> {
    with_thread_scratch(|scratch| min_cost_path_in(net, from, to, filter, scratch))
}

/// Like [`min_cost_path`], but runs in a caller-provided scratch: the
/// only allocation in the steady state is the returned [`Path`].
pub fn min_cost_path_in<F: LinkFilter>(
    net: &Network,
    from: NodeId,
    to: NodeId,
    filter: &F,
    scratch: &mut RoutingScratch,
) -> Option<Path> {
    if from == to {
        return Some(Path::trivial(from));
    }
    let snap: &NetworkSnapshot = net.snapshot();
    search_in(snap, from, filter, Some(to), scratch);
    scratch.settled_path(to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::NoFilter;
    use crate::routing::RateFilter;
    use crate::state::NetworkState;

    /// Diamond: 0-1 (1.0), 0-2 (0.4), 1-3 (1.0), 2-3 (0.4), 1-2 (0.1).
    fn diamond() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(2), 0.4, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(3), 1.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 0.4, 1.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 0.1, 10.0).unwrap();
        g
    }

    #[test]
    fn picks_cheapest_not_fewest_hops() {
        let g = diamond();
        let p = min_cost_path(&g, NodeId(0), NodeId(3), &NoFilter).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        assert!((p.price(&g) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn trivial_query() {
        let g = diamond();
        let p = min_cost_path(&g, NodeId(2), NodeId(2), &NoFilter).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.source(), NodeId(2));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Network::new();
        g.add_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        assert!(min_cost_path(&g, NodeId(0), NodeId(2), &NoFilter).is_none());
    }

    #[test]
    fn filter_reroutes_around_saturated_link() {
        let g = diamond();
        let mut s = NetworkState::new(&g);
        s.reserve_link(LinkId(3), 1.0).unwrap(); // saturate 2-3
        let f = RateFilter::new(&s, 0.5);
        let p = min_cost_path(&g, NodeId(0), NodeId(3), &f).unwrap();
        // Cheapest remaining: 0-2 (0.4) + 2-1 (0.1) + 1-3 (1.0) = 1.5.
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(1), NodeId(3)]);
        assert!((p.price(&g) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn filter_can_disconnect() {
        let g = diamond();
        let never = |_l: LinkId| false;
        assert!(min_cost_path(&g, NodeId(0), NodeId(3), &never).is_none());
    }

    #[test]
    fn tree_answers_all_targets() {
        let g = diamond();
        let t = ShortestPathTree::build(&g, NodeId(0), &NoFilter, None);
        assert_eq!(t.source(), NodeId(0));
        assert!((t.dist_to(NodeId(1)).unwrap() - 0.5).abs() < 1e-12); // via 2
        assert!((t.dist_to(NodeId(2)).unwrap() - 0.4).abs() < 1e-12);
        assert!((t.dist_to(NodeId(3)).unwrap() - 0.8).abs() < 1e-12);
        let p1 = t.path_to(NodeId(1)).unwrap();
        assert_eq!(p1.nodes(), &[NodeId(0), NodeId(2), NodeId(1)]);
    }

    #[test]
    fn path_price_matches_tree_distance() {
        let g = diamond();
        let t = ShortestPathTree::build(&g, NodeId(3), &NoFilter, None);
        for n in g.node_ids() {
            let d = t.dist_to(n).unwrap();
            let p = t.path_to(n).unwrap();
            assert!((p.price(&g) - d).abs() < 1e-12);
            assert_eq!(p.source(), NodeId(3));
            assert_eq!(p.target(), n);
            assert!(!p.has_node_cycle());
        }
    }

    /// The 30-node ring with chords `i → i+6`, every price 1.0 and
    /// every delay 2.0: shortest-path trees on it are all tie-breaks.
    fn uniform_ring() -> Network {
        let n = 30u32;
        let mut g = Network::new();
        g.add_nodes(n as usize);
        for i in 0..n {
            g.add_link_with_delay(NodeId(i), NodeId((i + 1) % n), 1.0, 100.0, 2.0)
                .unwrap();
        }
        for i in 0..n {
            g.add_link_with_delay(NodeId(i), NodeId((i + 6) % n), 1.0, 100.0, 2.0)
                .unwrap();
        }
        g
    }

    /// Predecessor link of every node in the tree, `-1` at the source.
    fn prev_links<F: LinkFilter>(
        g: &Network,
        source: u32,
        filter: &F,
        weight: ArcWeight,
    ) -> Vec<i64> {
        let mut scratch = RoutingScratch::new();
        let t = ShortestPathTree::build_weighted_in(
            g,
            NodeId(source),
            filter,
            None,
            &mut scratch,
            weight,
        );
        let nodes = t.nodes.lock();
        nodes
            .prev
            .iter()
            .map(|&(p, l)| if (p, l) == NO_PREV { -1 } else { i64::from(l) })
            .collect()
    }

    /// Frozen trees: on uniform prices the (distance, node id) pop order
    /// alone picks every predecessor, so these literals pin the
    /// tie-break. Ties going to the larger node id change them.
    #[test]
    fn uniform_prices_pin_tie_breaks() {
        let g = uniform_ring();
        #[rustfmt::skip]
        let golden: [(u32, [i64; 30]); 3] = [
            (0, [-1, 0, 1, 2, 4, 5, 30, 31, 32, 33, 34, 35, 36, 37, 38,
                 39, 16, 17, 48, 18, 19, 21, 22, 23, 54, 55, 56, 27, 28, 29]),
            (13, [0, 31, 1, 2, 4, 5, 6, 37, 7, 8, 10, 11, 12, -1, 13,
                  14, 15, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 58, 29]),
            (29, [29, 0, 1, 3, 4, 59, 30, 31, 32, 33, 34, 35, 36, 37, 38,
                  15, 16, 47, 17, 18, 20, 21, 22, 53, 54, 55, 26, 27, 28, -1]),
        ];
        for (source, want) in golden {
            for weight in [ArcWeight::Price, ArcWeight::Lagrange(0.5)] {
                assert_eq!(
                    prev_links(&g, source, &NoFilter, weight),
                    want,
                    "source {source}, {weight:?}"
                );
            }
        }
        // Without the chord 0–6 (link 30), nodes 5, 6 and 12 re-parent.
        #[rustfmt::skip]
        let want: [i64; 30] = [-1, 0, 1, 2, 4, 59, 5, 31, 32, 33, 34, 35, 42, 37, 38,
                               39, 16, 17, 48, 18, 19, 21, 22, 23, 54, 55, 56, 27, 28, 29];
        let no_chord = |l: LinkId| l.0 != 30;
        for weight in [ArcWeight::Price, ArcWeight::Lagrange(0.5)] {
            assert_eq!(prev_links(&g, 0, &no_chord, weight), want, "{weight:?}");
        }
    }

    /// Seeded at several sources, the search gives each node the least
    /// of its distances in the sources' trees; from one source, a radius
    /// settles every node at most that far, with its tree path, ties at
    /// the radius included, and no node farther.
    #[test]
    fn settle_within_takes_the_nearest_source_and_stops_past_the_radius() {
        let g = uniform_ring();
        let mut scratch = RoutingScratch::new();
        let sources = [NodeId(3), NodeId(17)];
        let trees = sources.map(|s| ShortestPathTree::build(&g, s, &NoFilter, None));
        settle_within_in(&g, &sources, &NoFilter, f64::INFINITY, &mut scratch);
        for v in g.node_ids() {
            let least = trees.iter().filter_map(|t| t.dist_to(v)).reduce(f64::min);
            assert_eq!(scratch.settled_dist(v), least, "node {v:?}");
        }
        let tree = ShortestPathTree::build(&g, NodeId(0), &NoFilter, None);
        settle_within_in(&g, &[NodeId(0)], &NoFilter, 2.0, &mut scratch);
        let mut at_radius = 0;
        for v in g.node_ids() {
            let d = tree.dist_to(v).expect("the ring is connected");
            at_radius += usize::from(d == 2.0);
            assert_eq!(
                scratch.settled_dist(v),
                (d <= 2.0).then_some(d),
                "node {v:?}"
            );
            let path = scratch.settled_path(v).map(|p| p.links().to_vec());
            let want = (d <= 2.0).then(|| tree.path_to(v).expect("reached").links().to_vec());
            assert_eq!(path, want, "node {v:?}");
        }
        assert!(at_radius > 1, "the radius must cut through a tie");
    }

    /// A paused tree's frontier bits, after any sequence of queries, are
    /// exactly the nodes it reached but has not settled, and every
    /// answer equals the complete tree's.
    #[test]
    fn paused_frontier_bits_are_the_reached_unsettled_nodes() {
        let mut g = uniform_ring();
        // Uneven prices past the ring make distances differ, and a
        // second component keeps some nodes unreached.
        g.add_nodes(3);
        g.add_link(NodeId(30), NodeId(31), 1.0, 100.0).unwrap();
        g.add_link(NodeId(31), NodeId(32), 0.5, 100.0).unwrap();
        for (a, b, price) in [(1, 16, 0.2), (7, 21, 0.0), (12, 27, 3.0), (20, 4, 0.7)] {
            g.add_link(NodeId(a), NodeId(b), price, 100.0).unwrap();
        }
        let admitted: Arc<[bool]> = g.link_ids().map(|l| l.0 % 9 != 4).collect();
        let filter = |l: LinkId| admitted[l.index()];
        let n = g.node_count() as u32;
        let mut lcg = 0x9E37_79B9_u32;
        let mut paused_checks = 0;
        for (source, weight) in [
            (0, ArcWeight::Price),
            (13, ArcWeight::Delay),
            (31, ArcWeight::Price),
        ] {
            let full = ShortestPathTree::build_weighted_in(
                &g,
                NodeId(source),
                &filter,
                None,
                &mut RoutingScratch::new(),
                weight,
            );
            let tree = ShortestPathTree::paused(
                Arc::clone(g.snapshot()),
                NodeId(source),
                Arc::clone(&admitted),
                weight,
            );
            for q in 0..40 {
                lcg = lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                // Ring nodes first, so trees on the ring stay paused for
                // a while; then any node, unreached ones included.
                let v = NodeId(lcg % if q < 20 { 30 } else { n });
                if q % 2 == 0 {
                    assert_eq!(tree.dist_to(v), full.dist_to(v), "{source} -> {v:?}");
                } else {
                    let links = |t: &ShortestPathTree| t.path_to(v).map(|p| p.links().to_vec());
                    assert_eq!(links(&tree), links(&full), "{source} -> {v:?}");
                }
                let nodes = tree.nodes.lock();
                let Some(p) = &nodes.paused else {
                    break;
                };
                paused_checks += 1;
                for u in 0..n {
                    let u = NodeId(u);
                    let reached = nodes.dist[u.index()].is_finite();
                    assert_eq!(
                        p.frontier.get(u),
                        reached && !p.settled.get(u),
                        "source {source}, query {q}, node {u:?}"
                    );
                }
                let frontier: Vec<NodeId> = p.frontier.iter().collect();
                assert!(frontier.windows(2).all(|w| w[0] < w[1]));
                assert!(frontier.iter().all(|&u| p.frontier.get(u)));
            }
        }
        assert!(paused_checks >= 10, "{paused_checks} paused states checked");
    }

    #[test]
    fn shared_scratch_reproduces_per_call_results() {
        let g = diamond();
        let mut scratch = RoutingScratch::new();
        for from in g.node_ids() {
            for to in g.node_ids() {
                let fresh = min_cost_path(&g, from, to, &NoFilter);
                let reused = min_cost_path_in(&g, from, to, &NoFilter, &mut scratch);
                match (fresh, reused) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.nodes(), b.nodes());
                        assert_eq!(a.links(), b.links());
                    }
                    (a, b) => assert_eq!(a.is_none(), b.is_none()),
                }
            }
        }
    }
}
