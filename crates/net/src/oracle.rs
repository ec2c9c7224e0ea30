//! Shared path oracle: memoized single-source Dijkstra trees.
//!
//! Every solver in the workspace answers the same query shape over and
//! over — "cheapest path from `v` over links that fit a flow of rate
//! `R`" — and most of them ask it with the *static* capacity filter
//! (`capacity + CAP_EPS >= rate`). For a fixed network the admitted link
//! set depends only on which side of each distinct capacity value the
//! rate falls, so rates collapse into a small number of **capacity
//! classes**, each named by its **threshold** — the smallest link
//! capacity that admits the rate — and one [`ShortestPathTree`] per
//! `(source, threshold)` serves every query of that class. The
//! [`PathOracle`] caches exactly those trees behind a `parking_lot`
//! mutex, so one oracle instance can be shared by all runs (and
//! threads) of a simulation instance.
//!
//! Solvers that route on *residual* capacities (the RANV/MINV baselines
//! reserve bandwidth as they go) cannot share trees across concurrent
//! solves: each solve owns a private [`NetworkState`]. For those, an
//! [`OracleSession`] provides a per-solve cache with explicit
//! residual-capacity-aware invalidation — the caller invalidates after
//! every reservation that changed the residuals, and hit/miss traffic
//! still rolls up into the shared oracle's counters.
//!
//! [`NetworkState`]: crate::state::NetworkState

use crate::fault::FaultEvent;
use crate::fxmap::FxHashMap;
use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use crate::routing::csp::{larac_core, ConstrainedPath};
use crate::routing::{ArcWeight, LinkFilter, RoutingScratch, ShortestPathTree};
use crate::state::CAP_EPS;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default bound on cached trees (LRU-evicted beyond this).
const DEFAULT_CAPACITY: usize = 1024;

/// Bound on memoized rate → threshold entries; the memo starts over
/// once it is full, so an oracle that sees many distinct rates stays
/// small.
const THRESHOLD_MEMO_CAPACITY: usize = 256;

/// Counter snapshot of a [`PathOracle`] (see [`PathOracle::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Tree queries answered from the cache.
    pub hits: u64,
    /// Tree queries that had to run Dijkstra.
    pub misses: u64,
    /// Trees dropped by the LRU bound.
    pub evictions: u64,
    /// Explicit invalidations (global flushes and session flushes).
    pub invalidations: u64,
}

impl OracleStats {
    /// Fraction of queries served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// LRU bookkeeping guarded by the oracle's mutex.
///
/// The [`RoutingScratch`] lives here because tree builds happen while
/// the mutex is held: every cache fill on every thread reuses one set
/// of search buffers, allocation-free in the steady state.
struct TreeCache {
    /// Price trees keyed by `(source, threshold bits)`.
    map: FxHashMap<(NodeId, u64), (Arc<ShortestPathTree>, u64)>,
    /// Weighted (delay / Lagrangian) trees for the LARAC bounded mode,
    /// keyed by `(source, threshold bits, ArcWeight::cache_key())`.
    /// Flushed together with `map` on every invalidation.
    wmap: FxHashMap<(NodeId, u64, u64), (Arc<ShortestPathTree>, u64)>,
    /// Memoized [`PathOracle::rate_threshold`] per rate (keyed by the
    /// rate's bits).
    thresholds: FxHashMap<u64, f64>,
    tick: u64,
    scratch: RoutingScratch,
    /// Fault overlay: links taken out of service. Trees built while a
    /// resource is down exclude it, and flipping any flag flushes the
    /// cache (counted as an invalidation) — the fault-injection
    /// analogue of an epoch bump.
    down_links: Vec<bool>,
    /// Fault overlay: nodes taken out of service (incident links are
    /// excluded too).
    down_nodes: Vec<bool>,
}

/// Memoized single-source Dijkstra trees over the static-capacity link
/// filter, keyed by `(source, capacity class)`.
///
/// Thread-safe and intended to be shared (`&PathOracle` is `Send + Sync`):
/// the cache sits behind a [`parking_lot::Mutex`] and the counters are
/// atomics, so one oracle serves every run of a sim instance.
pub struct PathOracle<'n> {
    net: &'n Network,
    capacity: usize,
    cache: Mutex<TreeCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl<'n> PathOracle<'n> {
    /// An oracle over `net` with the default LRU bound.
    pub fn new(net: &'n Network) -> Self {
        Self::with_capacity(net, DEFAULT_CAPACITY)
    }

    /// An oracle over `net` keeping at most `capacity` trees.
    pub fn with_capacity(net: &'n Network, capacity: usize) -> Self {
        PathOracle {
            net,
            capacity: capacity.max(1),
            cache: Mutex::new(TreeCache {
                map: FxHashMap::default(),
                wmap: FxHashMap::default(),
                thresholds: FxHashMap::default(),
                tick: 0,
                scratch: RoutingScratch::new(),
                down_links: vec![false; net.link_count()],
                down_nodes: vec![false; net.node_count()],
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The underlying network.
    #[inline]
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The capacity class of `rate`, named by its threshold: the
    /// smallest link capacity that admits a flow of `rate` (`+∞` when
    /// no link does). All rates of one class admit the identical link
    /// set, so their trees are interchangeable.
    pub fn rate_threshold(&self, rate: f64) -> f64 {
        threshold_in(self.net, &mut self.cache.lock().thresholds, rate)
    }

    /// The shortest-path tree rooted at `source` over links admitting
    /// `rate`, from the cache when possible.
    pub fn tree(&self, source: NodeId, rate: f64) -> Arc<ShortestPathTree> {
        self.tree_tracked(source, rate).0
    }

    /// Like [`Self::tree`], also reporting whether the query was a cache
    /// hit — callers use this for per-solve hit/miss accounting.
    pub fn tree_tracked(&self, source: NodeId, rate: f64) -> (Arc<ShortestPathTree>, bool) {
        let mut cache = self.cache.lock();
        let threshold = threshold_in(self.net, &mut cache.thresholds, rate);
        let key = (source, threshold.to_bits());
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((tree, last_used)) = cache.map.get_mut(&key) {
            *last_used = tick;
            let tree = Arc::clone(tree);
            drop(cache);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (tree, true);
        }
        // Build with the class's canonical threshold so every rate of the
        // class produces the bit-identical tree. Destructured so the
        // filter can read the down flags while the scratch is borrowed
        // mutably for the build.
        let net = self.net;
        let TreeCache {
            map,
            scratch,
            down_links,
            down_nodes,
            ..
        } = &mut *cache;
        let filter = |l: LinkId| {
            if down_links[l.index()] {
                return false;
            }
            let link = net.link(l);
            if down_nodes[link.a.index()] || down_nodes[link.b.index()] {
                return false;
            }
            link.capacity >= threshold
        };
        let tree = Arc::new(ShortestPathTree::build_in(
            net, source, &filter, None, scratch,
        ));
        if map.len() >= self.capacity {
            // `used` ticks are unique (the counter bumps on every cache
            // access), so the min is unique and map iteration order
            // cannot change the evicted victim.
            // lint:allow(unordered-iter)
            if let Some(&victim) = map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k)
            {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, (Arc::clone(&tree), tick));
        drop(cache);
        self.misses.fetch_add(1, Ordering::Relaxed);
        (tree, false)
    }

    /// Cheapest path `from → to` over links admitting `rate` (static
    /// capacities). `from == to` yields the trivial path without touching
    /// the cache.
    pub fn min_cost_path(&self, from: NodeId, to: NodeId, rate: f64) -> Option<Path> {
        if from == to {
            return Some(Path::trivial(from));
        }
        self.tree(from, rate).path_to(to)
    }

    /// The shortest-path tree rooted at `source` under an explicit
    /// [`ArcWeight`], from the weighted cache when possible. `Price`
    /// delegates to the classic per-class cache; `Delay` and
    /// `Lagrange(λ)` trees are keyed by `(source, class, λ-bits)` so the
    /// LARAC iteration reuses trees across queries sharing a λ. The
    /// fault overlay (down links / nodes) applies exactly as it does to
    /// price trees.
    pub fn weighted_tree(
        &self,
        source: NodeId,
        rate: f64,
        weight: ArcWeight,
    ) -> Arc<ShortestPathTree> {
        if weight == ArcWeight::Price {
            return self.tree(source, rate);
        }
        let mut cache = self.cache.lock();
        let threshold = threshold_in(self.net, &mut cache.thresholds, rate);
        let key = (source, threshold.to_bits(), weight.cache_key());
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((tree, last_used)) = cache.wmap.get_mut(&key) {
            *last_used = tick;
            let tree = Arc::clone(tree);
            drop(cache);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return tree;
        }
        let net = self.net;
        let TreeCache {
            wmap,
            scratch,
            down_links,
            down_nodes,
            ..
        } = &mut *cache;
        let filter = |l: LinkId| {
            if down_links[l.index()] {
                return false;
            }
            let link = net.link(l);
            if down_nodes[link.a.index()] || down_nodes[link.b.index()] {
                return false;
            }
            link.capacity >= threshold
        };
        let tree = Arc::new(ShortestPathTree::build_weighted_in(
            net, source, &filter, None, scratch, weight,
        ));
        if wmap.len() >= self.capacity {
            // `used` ticks are unique (the counter bumps on every cache
            // access), so the min is unique and map iteration order
            // cannot change the evicted victim.
            // lint:allow(unordered-iter)
            if let Some(&victim) = wmap
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k)
            {
                wmap.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        wmap.insert(key, (Arc::clone(&tree), tick));
        drop(cache);
        self.misses.fetch_add(1, Ordering::Relaxed);
        tree
    }

    /// Delay-bounded cheapest path `from → to` over links admitting
    /// `rate`: LARAC over cached weighted trees. Guarantees the returned
    /// path's summed link delay is within `max_delay_us` (plus float
    /// slack) and returns `None` only when no admitted path can meet the
    /// budget — including when faults have taken the fast links down.
    pub fn min_cost_path_bounded(
        &self,
        from: NodeId,
        to: NodeId,
        rate: f64,
        max_delay_us: f64,
    ) -> Option<Path> {
        if max_delay_us.is_nan() || max_delay_us < 0.0 {
            return None;
        }
        if from == to {
            return Some(Path::trivial(from));
        }
        larac_core(
            |w| {
                let tree = self.weighted_tree(from, rate, w);
                tree.path_to(to)
                    .map(|p| ConstrainedPath::evaluate(self.net, p))
            },
            max_delay_us,
        )
        .map(|c| c.path)
    }

    /// Flushes every cached tree (counted as one invalidation).
    pub fn invalidate(&self) {
        let mut cache = self.cache.lock();
        cache.map.clear();
        cache.wmap.clear();
        drop(cache);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks `link` in or out of service. Returns whether the flag
    /// changed; a change flushes every cached tree (one invalidation),
    /// since any of them may route over the link.
    pub fn set_link_down(&self, link: LinkId, down: bool) -> bool {
        let mut cache = self.cache.lock();
        let flag = match cache.down_links.get_mut(link.index()) {
            Some(f) => f,
            None => return false,
        };
        if *flag == down {
            return false;
        }
        *flag = down;
        cache.map.clear();
        cache.wmap.clear();
        drop(cache);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Marks `node` in or out of service (incident links are excluded
    /// from routing while it is down). Returns whether the flag changed;
    /// a change flushes every cached tree.
    pub fn set_node_down(&self, node: NodeId, down: bool) -> bool {
        let mut cache = self.cache.lock();
        let flag = match cache.down_nodes.get_mut(node.index()) {
            Some(f) => f,
            None => return false,
        };
        if *flag == down {
            return false;
        }
        *flag = down;
        cache.map.clear();
        cache.wmap.clear();
        drop(cache);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Mirrors a substrate [`FaultEvent`] into the oracle's overlay.
    /// Reachability events toggle the down flags (flushing the cache on
    /// change); capacity churn is a no-op here because class trees
    /// filter on *base* capacities — churned-down capacity is caught by
    /// the solve against the residual network. Returns whether the
    /// overlay changed.
    pub fn apply_fault(&self, event: &FaultEvent) -> bool {
        match *event {
            FaultEvent::LinkDown { link } => self.set_link_down(link, true),
            FaultEvent::LinkUp { link } => self.set_link_down(link, false),
            FaultEvent::NodeDown { node } => self.set_node_down(node, true),
            FaultEvent::NodeUp { node } => self.set_node_down(node, false),
            FaultEvent::LinkCapacity { .. } | FaultEvent::VnfCapacity { .. } => false,
        }
    }

    /// Snapshot of the hit/miss/eviction/invalidation counters.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Opens a per-solve session for residual-capacity routing (see
    /// [`OracleSession`]).
    pub fn session(&self) -> OracleSession<'_, 'n> {
        OracleSession {
            oracle: self,
            cache: FxHashMap::default(),
            scratch: RoutingScratch::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn record_session(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The threshold of `rate` on `net` (see [`PathOracle::rate_threshold`]),
/// from `memo` or by one scan over the link capacities. The scan keeps
/// the smallest capacity `c` that is not below `rate` by `CAP_EPS` —
/// `!(c + CAP_EPS < rate)`, so a NaN rate still maps to the smallest
/// capacity — taking the first in `total_cmp` order among equal values.
fn threshold_in(net: &Network, memo: &mut FxHashMap<u64, f64>, rate: f64) -> f64 {
    if let Some(&t) = memo.get(&rate.to_bits()) {
        return t;
    }
    let mut threshold = f64::INFINITY;
    for l in net.link_ids() {
        let c = net.link(l).capacity;
        let admits = (c + CAP_EPS).partial_cmp(&rate) != Some(std::cmp::Ordering::Less);
        if admits && c.total_cmp(&threshold).is_lt() {
            threshold = c;
        }
    }
    if memo.len() >= THRESHOLD_MEMO_CAPACITY {
        memo.clear();
    }
    memo.insert(rate.to_bits(), threshold);
    threshold
}

/// A private, residual-capacity-aware tree cache for one solve.
///
/// Residual-filtered trees depend on the solve's own [`NetworkState`]
/// and on caller context (e.g. which links a multicast group already
/// owns), so they must never be shared across solves. A session caches
/// them keyed by `(source, context)`; the caller **must** call
/// [`OracleSession::invalidate`] after any reservation that changed the
/// residual capacities — every cached tree may be stale after that.
/// Hits and misses also accumulate in the parent oracle's counters.
///
/// [`NetworkState`]: crate::state::NetworkState
pub struct OracleSession<'o, 'n> {
    oracle: &'o PathOracle<'n>,
    cache: FxHashMap<(NodeId, u64), Arc<ShortestPathTree>>,
    /// Session-owned search buffers, reused by every tree build of the
    /// solve (see [`RoutingScratch`]).
    scratch: RoutingScratch,
    hits: u64,
    misses: u64,
}

impl OracleSession<'_, '_> {
    /// Cheapest path `from → to` under a caller-supplied filter
    /// (typically residual capacity plus shared multicast links).
    /// `context` must distinguish filters with different semantics
    /// (e.g. the multicast group index); trees cached under one context
    /// are reused only for that context.
    pub fn min_cost_path_with<F: LinkFilter>(
        &mut self,
        from: NodeId,
        to: NodeId,
        context: u64,
        filter: &F,
    ) -> Option<Path> {
        if from == to {
            return Some(Path::trivial(from));
        }
        let key = (from, context);
        if let Some(tree) = self.cache.get(&key) {
            self.hits += 1;
            self.oracle.record_session(true);
            return tree.path_to(to);
        }
        let tree = Arc::new(ShortestPathTree::build_in(
            self.oracle.net,
            from,
            filter,
            None,
            &mut self.scratch,
        ));
        let path = tree.path_to(to);
        self.cache.insert(key, tree);
        self.misses += 1;
        self.oracle.record_session(false);
        path
    }

    /// Drops every cached tree — call after reserving capacity, which
    /// makes residual-filtered trees stale.
    pub fn invalidate(&mut self) {
        if !self.cache.is_empty() {
            self.cache.clear();
        }
        self.oracle.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Session-local cache hits.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Session-local cache misses.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LinkId;
    use crate::routing::min_cost_path;
    use crate::state::NetworkState;

    /// Diamond: 0-1 (1.0), 0-2 (0.4), 1-3 (1.0), 2-3 (0.4), 1-2 (0.1);
    /// link 2-3 has capacity 1.0, the rest 10.0.
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
    fn cached_paths_match_direct_dijkstra() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        for rate in [0.5, 2.0] {
            let direct = min_cost_path(&g, NodeId(0), NodeId(3), &|l: LinkId| {
                g.link(l).capacity + CAP_EPS >= rate
            });
            let cached = oracle.min_cost_path(NodeId(0), NodeId(3), rate);
            assert_eq!(
                direct.as_ref().map(Path::nodes),
                cached.as_ref().map(Path::nodes),
                "rate {rate}"
            );
        }
        // First query per class was a miss; repeat queries hit.
        let before = oracle.stats();
        let again = oracle.min_cost_path(NodeId(0), NodeId(3), 0.5).unwrap();
        assert_eq!(again.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        let after = oracle.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn rates_of_one_capacity_class_share_a_tree() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        assert_eq!(oracle.rate_threshold(0.3), 1.0);
        assert_eq!(oracle.rate_threshold(0.9), 1.0);
        assert_eq!(oracle.rate_threshold(2.0), 10.0);
        // Rate above every capacity maps to the all-blocked class, and a
        // NaN rate to the smallest capacity (it fails every `<` test).
        assert_eq!(oracle.rate_threshold(99.0), f64::INFINITY);
        assert_eq!(oracle.rate_threshold(f64::NAN), 1.0);
        assert!(oracle.min_cost_path(NodeId(0), NodeId(3), 99.0).is_none());

        oracle.min_cost_path(NodeId(0), NodeId(3), 0.3);
        let s1 = oracle.stats();
        oracle.min_cost_path(NodeId(0), NodeId(3), 0.9); // same class → hit
        let s2 = oracle.stats();
        assert_eq!(s2.hits, s1.hits + 1);
        assert_eq!(s2.misses, s1.misses);
    }

    #[test]
    fn class_partition_excludes_small_links() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        // Rate 2.0 exceeds link 2-3's capacity (1.0): the tree must route
        // around it via the 1-2 cross link.
        let p = oracle.min_cost_path(NodeId(0), NodeId(3), 2.0).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn trivial_queries_bypass_the_cache() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        let p = oracle.min_cost_path(NodeId(2), NodeId(2), 1.0).unwrap();
        assert!(p.is_empty());
        assert_eq!(oracle.stats(), OracleStats::default());
    }

    #[test]
    fn lru_bound_evicts_oldest_tree() {
        let g = diamond();
        let oracle = PathOracle::with_capacity(&g, 1);
        oracle.tree(NodeId(0), 0.5);
        oracle.tree(NodeId(1), 0.5); // evicts the NodeId(0) tree
        oracle.tree(NodeId(0), 0.5); // rebuilt → miss
        let s = oracle.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn invalidate_flushes_and_counts() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        oracle.tree(NodeId(0), 0.5);
        oracle.invalidate();
        oracle.tree(NodeId(0), 0.5);
        let s = oracle.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn session_invalidation_tracks_residual_updates() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        let mut state = NetworkState::new(&g);
        let mut session = oracle.session();

        let filter = |l: LinkId| state.link_fits(l, 0.8);
        let p1 = session
            .min_cost_path_with(NodeId(0), NodeId(3), 0, &filter)
            .unwrap();
        assert_eq!(p1.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        // Cached: the same query hits.
        let _ = session.min_cost_path_with(NodeId(0), NodeId(3), 0, &filter);
        assert_eq!(session.hits(), 1);

        // Reserve the cheap 2-3 link to saturation, then invalidate: the
        // refreshed tree must route around it.
        state.reserve_link(LinkId(3), 1.0).unwrap();
        session.invalidate();
        let filter = |l: LinkId| state.link_fits(l, 0.8);
        let p2 = session
            .min_cost_path_with(NodeId(0), NodeId(3), 0, &filter)
            .unwrap();
        assert_eq!(p2.nodes(), &[NodeId(0), NodeId(2), NodeId(1), NodeId(3)]);
        assert_eq!(session.misses(), 2);
        // Session traffic rolls up into the shared counters.
        let s = oracle.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    }

    #[test]
    fn session_contexts_are_isolated() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        let mut session = oracle.session();
        let all = |_l: LinkId| true;
        let none = |_l: LinkId| false;
        assert!(session
            .min_cost_path_with(NodeId(0), NodeId(3), 1, &all)
            .is_some());
        // Different context: the permissive tree must not be reused.
        assert!(session
            .min_cost_path_with(NodeId(0), NodeId(3), 2, &none)
            .is_none());
        assert_eq!(session.misses(), 2);
    }

    /// Diamond with delays: 0-1 and 1-3 are fast (5 µs) but pricey,
    /// 0-2 and 2-3 are cheap but slow (50 µs), 1-2 is fast (5 µs).
    fn delayed_diamond() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        g.add_link_with_delay(NodeId(0), NodeId(1), 1.0, 10.0, 5.0)
            .unwrap();
        g.add_link_with_delay(NodeId(0), NodeId(2), 0.4, 10.0, 50.0)
            .unwrap();
        g.add_link_with_delay(NodeId(1), NodeId(3), 1.0, 10.0, 5.0)
            .unwrap();
        g.add_link_with_delay(NodeId(2), NodeId(3), 0.4, 10.0, 50.0)
            .unwrap();
        g.add_link_with_delay(NodeId(1), NodeId(2), 0.1, 10.0, 5.0)
            .unwrap();
        g
    }

    #[test]
    fn bounded_path_switches_route_under_tight_budget() {
        let g = delayed_diamond();
        let oracle = PathOracle::new(&g);
        // Loose budget: the classic cheapest route (0-2-3, delay 100).
        let loose = oracle
            .min_cost_path_bounded(NodeId(0), NodeId(3), 0.5, 200.0)
            .unwrap();
        assert_eq!(loose.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        // Tight budget: forced onto the fast 0-1-3 route (delay 10).
        let tight = oracle
            .min_cost_path_bounded(NodeId(0), NodeId(3), 0.5, 20.0)
            .unwrap();
        assert_eq!(tight.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert!(tight.delay_us(&g) <= 20.0);
        // Budget below the fastest path: provably infeasible.
        assert!(oracle
            .min_cost_path_bounded(NodeId(0), NodeId(3), 0.5, 5.0)
            .is_none());
        // Negative budgets and trivial queries behave sanely.
        assert!(oracle
            .min_cost_path_bounded(NodeId(0), NodeId(3), 0.5, -1.0)
            .is_none());
        assert!(oracle
            .min_cost_path_bounded(NodeId(2), NodeId(2), 0.5, 0.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bounded_mode_excludes_down_links() {
        let g = delayed_diamond();
        let oracle = PathOracle::new(&g);
        let tight = oracle
            .min_cost_path_bounded(NodeId(0), NodeId(3), 0.5, 20.0)
            .unwrap();
        assert_eq!(tight.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        // Fail the fast 0-1 link: budget 20 is now unreachable (best
        // remaining is 0-2-1-3 at 60 µs) — the bounded mode must not
        // route over the dead link.
        assert!(oracle.set_link_down(LinkId(0), true));
        assert!(oracle
            .min_cost_path_bounded(NodeId(0), NodeId(3), 0.5, 20.0)
            .is_none());
        // A 90 µs budget admits only the detour via the cross link.
        let detour = oracle
            .min_cost_path_bounded(NodeId(0), NodeId(3), 0.5, 90.0)
            .unwrap();
        assert_eq!(
            detour.nodes(),
            &[NodeId(0), NodeId(2), NodeId(1), NodeId(3)]
        );
        assert!(!detour.links().contains(&LinkId(0)));
        // Recovery restores the fast route.
        assert!(oracle.set_link_down(LinkId(0), false));
        let back = oracle
            .min_cost_path_bounded(NodeId(0), NodeId(3), 0.5, 20.0)
            .unwrap();
        assert_eq!(back.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn weighted_trees_are_cached_per_lambda() {
        let g = delayed_diamond();
        let oracle = PathOracle::new(&g);
        let t1 = oracle.weighted_tree(NodeId(0), 0.5, ArcWeight::Delay);
        let before = oracle.stats();
        let t2 = oracle.weighted_tree(NodeId(0), 0.5, ArcWeight::Delay);
        let after = oracle.stats();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
        // A different λ is a different tree.
        let t3 = oracle.weighted_tree(NodeId(0), 0.5, ArcWeight::Lagrange(0.5));
        assert!(!Arc::ptr_eq(&t1, &t3));
        // Invalidation flushes the weighted cache too.
        oracle.invalidate();
        let t4 = oracle.weighted_tree(NodeId(0), 0.5, ArcWeight::Delay);
        assert!(!Arc::ptr_eq(&t1, &t4));
    }

    #[test]
    fn down_link_reroutes_and_recovery_restores() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        let cheap = oracle.min_cost_path(NodeId(0), NodeId(3), 0.5).unwrap();
        assert_eq!(cheap.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        // Fail the cheap 2-3 link: trees rebuild around it.
        assert!(oracle.set_link_down(LinkId(3), true));
        // Repeat is a no-op and must not count another invalidation.
        assert!(!oracle.set_link_down(LinkId(3), true));
        let rerouted = oracle.min_cost_path(NodeId(0), NodeId(3), 0.5).unwrap();
        assert_eq!(
            rerouted.nodes(),
            &[NodeId(0), NodeId(2), NodeId(1), NodeId(3)]
        );
        assert_eq!(oracle.stats().invalidations, 1);
        // Recovery flushes again and the cheap route returns.
        assert!(oracle.apply_fault(&FaultEvent::LinkUp { link: LinkId(3) }));
        let back = oracle.min_cost_path(NodeId(0), NodeId(3), 0.5).unwrap();
        assert_eq!(back.nodes(), cheap.nodes());
        assert_eq!(oracle.stats().invalidations, 2);
    }

    #[test]
    fn down_node_partitions_the_oracle() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        // Nodes 1 AND 2 down: 0 and 3 are disconnected.
        oracle.set_node_down(NodeId(1), true);
        oracle.set_node_down(NodeId(2), true);
        assert!(oracle.min_cost_path(NodeId(0), NodeId(3), 0.5).is_none());
        oracle.apply_fault(&FaultEvent::NodeUp { node: NodeId(1) });
        assert!(oracle.min_cost_path(NodeId(0), NodeId(3), 0.5).is_some());
    }

    #[test]
    fn capacity_churn_does_not_flush_class_trees() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        oracle.tree(NodeId(0), 0.5);
        assert!(!oracle.apply_fault(&FaultEvent::LinkCapacity {
            link: LinkId(0),
            factor: 0.5
        }));
        assert_eq!(oracle.stats().invalidations, 0);
        // Out-of-range targets are a safe no-op.
        assert!(!oracle.set_link_down(LinkId(99), true));
    }

    #[test]
    fn concurrent_queries_agree() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        let paths: Vec<Option<Path>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| oracle.min_cost_path(NodeId(0), NodeId(3), 0.5)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &paths {
            assert_eq!(
                p.as_ref().map(Path::nodes),
                paths[0].as_ref().map(Path::nodes)
            );
        }
        let s = oracle.stats();
        assert_eq!(s.hits + s.misses, 4);
        assert!(s.misses >= 1);
    }

    /// Six distinct capacities (one of them zero, two a hair apart
    /// within `CAP_EPS`), so the scripted rates below cross every
    /// class boundary, both sides of the epsilon, NaN and ±∞.
    fn graded() -> Network {
        let mut g = Network::new();
        g.add_nodes(6);
        let caps = [0.5, 1.0, 1.0 + 0.4e-9, 2.0, 0.0, 3.5, 1.0, 2.0];
        let ends = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (0, 5),
            (1, 4),
            (2, 5),
        ];
        for (k, (&(a, b), &cap)) in ends.iter().zip(&caps).enumerate() {
            g.add_link_with_delay(
                NodeId(a),
                NodeId(b),
                1.0 + k as f64 * 0.3,
                cap,
                5.0 + k as f64,
            )
            .unwrap();
        }
        g
    }

    /// Runs a fixed query script against a 6-tree oracle and spells out
    /// each query's outcome: `h` a hit, `m` a miss, `M` a miss that
    /// evicted a tree.
    fn scripted_outcomes() -> String {
        let g = graded();
        let oracle = PathOracle::with_capacity(&g, 6);
        let rates = [
            0.3,
            0.5,
            0.5 + 0.5e-9,
            0.5 + 2e-9,
            1.0,
            1.0 + 0.9e-9,
            1.0 + 1.2e-9,
            2.0,
            2.5,
            3.5,
            4.0,
            f64::NAN,
            -1.0,
            0.0,
            f64::INFINITY,
            1e-12,
        ];
        let mut seq = String::new();
        let mut last = OracleStats::default();
        let mut record = |o: &PathOracle<'_>| {
            let s = o.stats();
            seq.push(match (s.hits > last.hits, s.evictions > last.evictions) {
                (true, _) => 'h',
                (false, false) => 'm',
                (false, true) => 'M',
            });
            last = s;
        };
        for round in 0..3u32 {
            for (k, &rate) in rates.iter().enumerate() {
                let src = NodeId(round % 2 + (k % 2) as u32);
                oracle.tree_tracked(src, rate);
                record(&oracle);
                oracle.weighted_tree(src, rate, ArcWeight::Delay);
                record(&oracle);
                if k % 4 == 0 {
                    oracle.weighted_tree(src, rate, ArcWeight::Lagrange(0.5));
                    record(&oracle);
                }
            }
            if round == 1 {
                oracle.invalidate();
            }
        }
        seq
    }

    /// The per-query outcomes of a fixed query script (one line per
    /// round), as the oracle keyed by sorted-class index produced them:
    /// keying trees by threshold bits must group rates exactly as class
    /// indices did.
    #[test]
    fn threshold_keys_repeat_the_class_keyed_counters() {
        let expected = concat!(
            "mmmmmhhmmmmmhhmMmMMMMMMMMMMMMMhhhhhh",
            "MMMMMhhMMMMMhhMMMMMMMMMMMMMMMMhhhhhh",
            "mmmmmhhmmmmmhhmMmMMMMMMMMMMMMMhhhhhh",
        );
        assert_eq!(scripted_outcomes(), expected);
    }
}
