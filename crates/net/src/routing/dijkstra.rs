//! Min-cost (price-weighted) shortest paths via Dijkstra's algorithm.
//!
//! Link prices are the edge weights; all prices are finite and
//! non-negative by construction ([`crate::Network::add_link`] validates
//! this, and networks loaded from files are rebuilt through it), so
//! Dijkstra's preconditions hold.
//!
//! The search loop is the crate's one weighted-search kernel, kept in
//! the private `routing::heap` module. It runs over the network's
//! cached CSR [`NetworkSnapshot`](crate::NetworkSnapshot) — a flat
//! struct-of-arrays adjacency whose arc order matches
//! [`Network::neighbors`] exactly, so results are bit-identical to the
//! historical adjacency-list implementation — and keeps its working
//! state in an epoch-tagged [`RoutingScratch`], making steady-state
//! searches allocation-free. Entry points without a scratch parameter
//! borrow a per-thread scratch transparently.

use super::heap::search_weighted_in;
use super::scratch::{with_thread_scratch, RoutingScratch};
use super::LinkFilter;
use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use crate::snapshot::NetworkSnapshot;

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
    search_weighted_in(snap, source, filter, target, scratch, ArcWeight::Price)
}

/// A single-source shortest-path tree, answering distance and path queries
/// to every reachable node.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, LinkId)>>,
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
    /// scratch so repeated builds (oracle cache fills, Steiner rounds)
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
        search_weighted_in(snap, source, filter, target, scratch, weight);
        let n = snap.node_count();
        let mut dist = Vec::with_capacity(n);
        let mut prev = Vec::with_capacity(n);
        for v in 0..n as u32 {
            dist.push(scratch.dist(NodeId(v)));
            prev.push(scratch.prev_of(NodeId(v)));
        }
        ShortestPathTree { source, dist, prev }
    }

    /// The tree's source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Total price of the cheapest path to `node`, if reachable.
    pub fn dist_to(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// The cheapest path from the source to `node`, if reachable.
    pub fn path_to(&self, node: NodeId) -> Option<Path> {
        if !self.dist[node.index()].is_finite() {
            return None;
        }
        let mut nodes = vec![node];
        let mut links = Vec::new();
        let mut cur = node;
        while let Some((p, l)) = self.prev[cur.index()] {
            nodes.push(p);
            links.push(l);
            cur = p;
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
    scratch.extract_path(from, to)
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
        t.prev
            .iter()
            .map(|p| p.map_or(-1, |(_, l)| i64::from(l.0)))
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
