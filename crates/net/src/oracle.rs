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
//! A rate's class ([`RateClass`]) is found in one pass over the links,
//! which yields the threshold and the links that admit the rate
//! together, and is memoized per rate. The BBE engine reads the same
//! class for its static rate filter, so a fresh oracle scans the links
//! once per rate, whoever asks first.
//!
//! A cache miss does not run a search: it returns a tree that settles
//! nodes on demand (see [`ShortestPathTree`]). Each query settles the
//! tree only as far as the queried node, and the next query resumes
//! where the last one stopped, so a tree whose queries reach the nearest
//! third of the network never settles the rest. The tree captures its
//! filter — the class's links less the down links and nodes, as one
//! admitted-link set shared by every tree of the class — and the CSR
//! snapshot when it is built, so its answers are those of a complete
//! tree built at that moment, whatever the overlay does afterwards.
//!
//! Solvers that route on *residual* capacities (the RANV/MINV baselines
//! reserve bandwidth as they go) route through an [`OracleSession`],
//! which holds the solve's link reservations itself: the remaining
//! bandwidth of each link the solve reserved, keyed by link. Until one
//! of them leaves a link unable to fit the flow's rate, the residual
//! filter admits exactly the links of the rate's class, so the session
//! answers from the class trees. It reads them while the overlay marks
//! no link or node down and no reservation has left a link below the
//! rate. From the first query at which one fails, every later query of
//! the session runs a target-bounded Dijkstra under the residual filter
//! in the session's own search buffers.

use crate::error::{NetError, NetResult};
use crate::fault::FaultEvent;
use crate::fxmap::FxHashMap;
use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use crate::routing::csp::{larac_core, ConstrainedPath};
use crate::routing::{min_cost_path_in, ArcWeight, LinkFilter, RoutingScratch, ShortestPathTree};
use crate::state::CAP_EPS;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default bound on cached trees (LRU-evicted beyond this).
const DEFAULT_CAPACITY: usize = 1024;

/// Bound on memoized rate classes, and on cached overlay-filtered link
/// sets (one per threshold); each memo starts over once it is full, so
/// an oracle that sees many distinct rates stays small.
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
    /// Explicit whole-cache flushes (invalidations and fault toggles).
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

/// A rate's capacity class on an oracle's network (see
/// [`PathOracle::rate_class`]): its threshold and the links whose
/// capacity reaches it, whatever the fault overlay marks down.
#[derive(Debug, Clone)]
pub struct RateClass {
    /// The smallest link capacity that admits the rate (`+∞` when no
    /// link does).
    pub threshold: f64,
    /// Per link: whether its capacity reaches the threshold.
    links: Arc<[bool]>,
}

impl RateClass {
    /// The class of `rate` on `net`, in one pass over the links: a link
    /// admits the rate unless `capacity + CAP_EPS < rate` (so a NaN rate
    /// admits every link), and the threshold is the smallest admitting
    /// capacity, the first in `total_cmp` order among equal values.
    /// Every link admits the rate exactly when its capacity reaches the
    /// threshold, so every rate of one class admits the same links.
    fn scan(net: &Network, rate: f64) -> Self {
        let mut threshold = f64::INFINITY;
        let links = net
            .link_ids()
            .map(|l| {
                let c = net.link(l).capacity;
                let admits = (c + CAP_EPS).partial_cmp(&rate) != Some(std::cmp::Ordering::Less);
                if admits && c.total_cmp(&threshold).is_lt() {
                    threshold = c;
                }
                admits
            })
            .collect();
        RateClass { threshold, links }
    }

    /// Whether `link`'s capacity admits the class's rates.
    #[inline]
    pub fn admits(&self, link: LinkId) -> bool {
        self.links[link.index()]
    }
}

/// Fault overlay: links and nodes taken out of service. Trees built
/// while a resource is down exclude it, and flipping any flag flushes
/// the cache (counted as an invalidation) — the fault-injection
/// analogue of an epoch bump.
struct Overlay {
    links: Vec<bool>,
    /// Incident links of a down node are excluded too.
    nodes: Vec<bool>,
    /// How many flags of `links` and `nodes` are set.
    down: usize,
}

/// LRU bookkeeping guarded by the oracle's mutex.
struct TreeCache {
    /// Price trees keyed by `(source, threshold bits)`.
    map: FxHashMap<(NodeId, u64), (Arc<ShortestPathTree>, u64)>,
    /// Weighted (delay / Lagrangian) trees for the LARAC bounded mode,
    /// keyed by `(source, threshold bits, ArcWeight::cache_key())`.
    /// Flushed together with `map` on every invalidation.
    wmap: FxHashMap<(NodeId, u64, u64), (Arc<ShortestPathTree>, u64)>,
    /// Memoized [`RateClass`] per rate (keyed by the rate's bits).
    classes: FxHashMap<u64, RateClass>,
    /// Per threshold, while the overlay marks anything down: the class's
    /// links that are up and between up nodes, shared by the class's
    /// trees. Flushed with the trees.
    up_links: FxHashMap<u64, Arc<[bool]>>,
    tick: u64,
    overlay: Overlay,
}

impl TreeCache {
    /// Drops every cached tree and every overlay-filtered link set.
    fn flush(&mut self) {
        self.map.clear();
        self.wmap.clear();
        self.up_links.clear();
    }

    /// The class of `rate` on `net`, from the memo or by one pass over
    /// the links.
    fn class(&mut self, net: &Network, rate: f64) -> RateClass {
        let key = rate.to_bits();
        if self.classes.len() >= THRESHOLD_MEMO_CAPACITY && !self.classes.contains_key(&key) {
            self.classes.clear();
        }
        let class = self.classes.entry(key);
        class.or_insert_with(|| RateClass::scan(net, rate)).clone()
    }

    /// The links a tree of `class` may use under the current overlay:
    /// the class's links, less those down or with a down end.
    fn tree_links(&mut self, net: &Network, class: &RateClass) -> Arc<[bool]> {
        let TreeCache {
            up_links, overlay, ..
        } = self;
        if overlay.down == 0 {
            return Arc::clone(&class.links);
        }
        if up_links.len() >= THRESHOLD_MEMO_CAPACITY {
            up_links.clear();
        }
        let set = up_links
            .entry(class.threshold.to_bits())
            .or_insert_with(|| {
                net.link_ids()
                    .map(|l| {
                        let link = net.link(l);
                        class.admits(l)
                            && !overlay.links[l.index()]
                            && !overlay.nodes[link.a.index()]
                            && !overlay.nodes[link.b.index()]
                    })
                    .collect()
            });
        Arc::clone(set)
    }
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
                classes: FxHashMap::default(),
                up_links: FxHashMap::default(),
                tick: 0,
                overlay: Overlay {
                    links: vec![false; net.link_count()],
                    nodes: vec![false; net.node_count()],
                    down: 0,
                },
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
        self.rate_class(rate).threshold
    }

    /// The capacity class of `rate`: its threshold (see
    /// [`Self::rate_threshold`]) and the links whose capacity admits
    /// it, faults aside — the static capacity filter
    /// `capacity + CAP_EPS >= rate` of a finite rate.
    pub fn rate_class(&self, rate: f64) -> RateClass {
        self.cache.lock().class(self.net, rate)
    }

    /// The shortest-path tree rooted at `source` over links admitting
    /// `rate`, from the cache when possible.
    pub fn tree(&self, source: NodeId, rate: f64) -> Arc<ShortestPathTree> {
        self.tree_tracked(source, rate).0
    }

    /// Like [`Self::tree`], also reporting whether the query was a cache
    /// hit — callers use this for per-solve hit/miss accounting.
    pub fn tree_tracked(&self, source: NodeId, rate: f64) -> (Arc<ShortestPathTree>, bool) {
        self.price_tree(&mut self.cache.lock(), source, rate)
    }

    /// Like [`Self::tree_tracked`], but `None` while the overlay marks
    /// any link or node down: such a tree excludes them, and a session's
    /// residual filter, which knows no faults, does not.
    fn tree_without_faults(
        &self,
        source: NodeId,
        rate: f64,
    ) -> Option<(Arc<ShortestPathTree>, bool)> {
        let mut cache = self.cache.lock();
        (cache.overlay.down == 0).then(|| self.price_tree(&mut cache, source, rate))
    }

    /// The price tree of `(source, class of rate)`, from `cache` (the
    /// locked cache) when it holds one.
    fn price_tree(
        &self,
        cache: &mut TreeCache,
        source: NodeId,
        rate: f64,
    ) -> (Arc<ShortestPathTree>, bool) {
        let class = cache.class(self.net, rate);
        let key = (source, class.threshold.to_bits());
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((tree, last_used)) = cache.map.get_mut(&key) {
            *last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(tree), true);
        }
        // Every rate of the class admits the same links, so every rate of
        // the class produces the bit-identical tree.
        let admitted = cache.tree_links(self.net, &class);
        let tree = Arc::new(ShortestPathTree::paused(
            Arc::clone(self.net.snapshot()),
            source,
            admitted,
            ArcWeight::Price,
        ));
        let map = &mut cache.map;
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
        let class = cache.class(self.net, rate);
        let key = (source, class.threshold.to_bits(), weight.cache_key());
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((tree, last_used)) = cache.wmap.get_mut(&key) {
            *last_used = tick;
            let tree = Arc::clone(tree);
            drop(cache);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return tree;
        }
        let admitted = cache.tree_links(self.net, &class);
        let tree = Arc::new(ShortestPathTree::paused(
            Arc::clone(self.net.snapshot()),
            source,
            admitted,
            weight,
        ));
        let wmap = &mut cache.wmap;
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
        self.cache.lock().flush();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks `link` in or out of service. Returns whether the flag
    /// changed; a change flushes every cached tree (one invalidation),
    /// since any of them may route over the link.
    pub fn set_link_down(&self, link: LinkId, down: bool) -> bool {
        self.set_down(down, |o| o.links.get_mut(link.index()))
    }

    /// Marks `node` in or out of service (incident links are excluded
    /// from routing while it is down). Returns whether the flag changed;
    /// a change flushes every cached tree.
    pub fn set_node_down(&self, node: NodeId, down: bool) -> bool {
        self.set_down(down, |o| o.nodes.get_mut(node.index()))
    }

    /// Sets the overlay flag `flag` picks (`None` out of range) to
    /// `down`; a change flushes every cached tree.
    fn set_down(&self, down: bool, flag: impl FnOnce(&mut Overlay) -> Option<&mut bool>) -> bool {
        let mut cache = self.cache.lock();
        let overlay = &mut cache.overlay;
        match flag(overlay) {
            Some(flag) if *flag != down => *flag = down,
            _ => return false,
        }
        overlay.down = if down {
            overlay.down + 1
        } else {
            overlay.down - 1
        };
        cache.flush();
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

    /// Opens a per-solve session routing a flow of `rate` on residual
    /// capacities (see [`OracleSession`]).
    pub fn session(&self, rate: f64) -> OracleSession<'_, 'n> {
        OracleSession {
            oracle: self,
            rate,
            reads_trees: rate.is_finite() && rate > 0.0,
            reserved: FxHashMap::default(),
            scratch: RoutingScratch::new(),
            hits: 0,
            misses: 0,
            searches: 0,
        }
    }
}

/// Residual-capacity routing for one solve of a flow of one rate.
///
/// The session holds the solve's link reservations: every link starts at
/// its capacity on the oracle's network, nothing down, and the solve
/// reserves links through [`Self::reserve_link`] or
/// [`Self::reserve_path`], which keep the remaining bandwidth of each
/// link they touched in a map keyed by link. A query admits the links
/// whose remaining bandwidth fits the rate, plus the links the caller
/// says a multicast group already shares, which are links the solve
/// reserved.
///
/// For a finite positive rate, `capacity + CAP_EPS >= rate` holds
/// exactly when the capacity reaches the rate's class threshold, so
/// until a reservation leaves a link below the rate the residual filter
/// admits the class's links and the class tree's path is the answer. The
/// session reads the oracle's trees while
///
/// - the overlay marks no link or node down, and
/// - no reservation made through the session has left a link unable to
///   fit the rate.
///
/// Once one of them fails, this query and every later one runs a
/// Dijkstra under the residual filter that stops once its target is
/// settled, in buffers the session reuses; its filter reads the
/// reservation map once per arc. Both give the path a complete tree
/// under the residual filter would: a settled node's predecessor never
/// changes, and both search the same CSR snapshot. Debug builds check
/// every tree answer against that search.
///
/// A tree found in the cache counts as a hit, and a tree built or a
/// search run as a miss, in the session's counters and the oracle's.
pub struct OracleSession<'o, 'n> {
    oracle: &'o PathOracle<'n>,
    rate: f64,
    /// Whether queries still read the class trees.
    reads_trees: bool,
    /// Remaining bandwidth of each link the session reserved; every
    /// other link has its full capacity.
    reserved: FxHashMap<LinkId, f64>,
    /// Session-owned search buffers, reused by every search of the
    /// solve (see [`RoutingScratch`]).
    scratch: RoutingScratch,
    hits: u64,
    misses: u64,
    searches: u64,
}

impl OracleSession<'_, '_> {
    /// Cheapest path `from → to` over the links whose remaining
    /// bandwidth fits the session's rate and the links `shared` allows.
    pub fn residual_path<F: LinkFilter>(
        &mut self,
        from: NodeId,
        to: NodeId,
        shared: &F,
    ) -> Option<Path> {
        if from == to {
            return Some(Path::trivial(from));
        }
        if self.reads_trees {
            if let Some((tree, hit)) = self.oracle.tree_without_faults(from, self.rate) {
                if hit {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                let path = tree.path_to(to);
                #[cfg(debug_assertions)]
                {
                    let searched = self.search(from, to, shared);
                    debug_assert_eq!(
                        path.as_ref().map(|p| (p.nodes(), p.links())),
                        searched.as_ref().map(|p| (p.nodes(), p.links())),
                        "tree answer {from} -> {to} differs from the residual search"
                    );
                }
                return path;
            }
            self.reads_trees = false;
        }
        self.misses += 1;
        self.searches += 1;
        self.oracle.misses.fetch_add(1, Ordering::Relaxed);
        self.search(from, to, shared)
    }

    /// The target-bounded search under the residual filter.
    fn search<F: LinkFilter>(&mut self, from: NodeId, to: NodeId, shared: &F) -> Option<Path> {
        let OracleSession {
            oracle,
            rate,
            reserved,
            scratch,
            ..
        } = self;
        let net = oracle.net;
        let filter = |l: LinkId| {
            shared.allows(l)
                || reserved.get(&l).copied().unwrap_or(net.link(l).capacity) + CAP_EPS >= *rate
        };
        min_cost_path_in(net, from, to, &filter, scratch)
    }

    /// Remaining bandwidth of `link` after the session's reservations.
    pub fn link_remaining(&self, link: LinkId) -> NetResult<f64> {
        match self.reserved.get(&link) {
            Some(&left) => Ok(left),
            None => Ok(self.oracle.net.try_link(link)?.capacity),
        }
    }

    /// Whether `link` can absorb `load` more, as the error
    /// [`NetworkState::reserve_link`](crate::NetworkState::reserve_link)
    /// returns for it on a fresh state carrying the same reservations.
    fn check(&self, link: LinkId, load: f64) -> NetResult<()> {
        let available = self.link_remaining(link)?;
        if available + CAP_EPS < load {
            return Err(NetError::InsufficientBandwidth {
                link,
                requested: load,
                available,
            });
        }
        Ok(())
    }

    /// Takes the session's rate off `link`, which [`Self::check`]
    /// admitted. A link left unable to fit the rate ends the tree reads.
    fn take(&mut self, link: LinkId) {
        let net = self.oracle.net;
        let left = self
            .reserved
            .entry(link)
            .or_insert_with(|| net.link(link).capacity);
        *left -= self.rate;
        self.reads_trees &= *left + CAP_EPS >= self.rate;
    }

    /// Reserves the session's rate on `link`.
    pub fn reserve_link(&mut self, link: LinkId) -> NetResult<()> {
        self.check(link, self.rate)?;
        self.take(link);
        Ok(())
    }

    /// Reserves the session's rate on every link of `path`, or nothing:
    /// each link is checked for the rate times the number of times the
    /// path crosses it before any is reserved, as
    /// [`NetworkState::reserve_path`](crate::NetworkState::reserve_path)
    /// does.
    pub fn reserve_path(&mut self, path: &Path) -> NetResult<()> {
        let links = path.links();
        for (i, &link) in links.iter().enumerate() {
            if !links[..i].contains(&link) {
                let crossings = links[i..].iter().filter(|&&l| l == link).count();
                self.check(link, self.rate * crossings as f64)?;
            }
        }
        for &link in links {
            self.take(link);
        }
        Ok(())
    }

    /// Queries answered from a cached tree.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Queries that built a tree or ran a search (trivial queries
    /// excluded).
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Queries that ran a search under the residual filter.
    #[inline]
    pub fn searches(&self) -> u64 {
        self.searches
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
    fn session_paths_track_residual_updates() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        let mut session = oracle.session(0.8);
        let none = |_l: LinkId| false;

        // Nothing reserved yet: the class tree answers, and a second
        // query from the same source finds it in the cache.
        let p1 = session.residual_path(NodeId(0), NodeId(3), &none).unwrap();
        assert_eq!(p1.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        session.residual_path(NodeId(0), NodeId(1), &none).unwrap();
        assert_eq!((session.hits(), session.misses()), (1, 1));

        // A reservation that still leaves the rate room keeps the trees.
        session.reserve_link(LinkId(0)).unwrap();
        session.residual_path(NodeId(0), NodeId(3), &none).unwrap();
        assert_eq!(session.searches(), 0);

        // Reserving the cheap 2-3 link (capacity 1.0) leaves 0.2 < 0.8:
        // the next query searches the residuals and routes around it.
        session.reserve_link(LinkId(3)).unwrap();
        let p2 = session.residual_path(NodeId(0), NodeId(3), &none).unwrap();
        assert_eq!(p2.nodes(), &[NodeId(0), NodeId(2), NodeId(1), NodeId(3)]);
        // Links a multicast group shares stay admitted.
        let shared = |l: LinkId| l == LinkId(3);
        let p3 = session
            .residual_path(NodeId(0), NodeId(3), &shared)
            .unwrap();
        assert_eq!(p3.nodes(), p1.nodes());
        // Trivial queries count nothing.
        let p4 = session.residual_path(NodeId(1), NodeId(1), &none);
        assert!(p4.unwrap().is_empty());
        assert_eq!(session.searches(), 2);
        assert_eq!((session.hits(), session.misses()), (2, 3));
        let s = oracle.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (2, 3, 0));
    }

    #[test]
    fn session_searches_under_faults() {
        let g = diamond();
        let none = |_l: LinkId| false;
        // A link down on the oracle: the session's filter does not know
        // it, so the session searches.
        let oracle = PathOracle::new(&g);
        oracle.set_link_down(LinkId(3), true);
        let mut session = oracle.session(0.5);
        let p = session.residual_path(NodeId(0), NodeId(3), &none).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        // Bringing it back up does not resume the tree reads.
        oracle.set_link_down(LinkId(3), false);
        session.residual_path(NodeId(0), NodeId(3), &none);
        assert_eq!(session.searches(), 2);
        // A rate outside the finite positive range never reads a tree.
        let mut session = oracle.session(f64::INFINITY);
        assert!(session.residual_path(NodeId(0), NodeId(3), &none).is_none());
        assert_eq!(session.searches(), 1);
    }

    /// A reservation the link cannot absorb fails as a fresh
    /// `NetworkState` carrying the same reservations fails, and reserves
    /// nothing: a path is checked for every crossing first.
    #[test]
    fn refused_reservations_match_the_state_and_reserve_nothing() {
        let g = diamond();
        let oracle = PathOracle::new(&g);
        let mut state = NetworkState::new(&g);
        let mut session = oracle.session(0.6);
        // Link 2-3 (capacity 1.0) takes one 0.6 reservation, not two.
        session.reserve_link(LinkId(3)).unwrap();
        state.reserve_link(LinkId(3), 0.6).unwrap();
        assert_eq!(
            session.reserve_link(LinkId(3)),
            state.reserve_link(LinkId(3), 0.6)
        );
        assert_eq!(
            session.reserve_link(LinkId(99)),
            state.reserve_link(LinkId(99), 0.6)
        );
        // 0-2-3 fails on 2-3 after checking 0-2; 0-2 keeps its capacity.
        let p = Path::from_nodes(&g, vec![NodeId(0), NodeId(2), NodeId(3)]).unwrap();
        assert!(session.reserve_path(&p).is_err());
        assert_eq!(session.reserve_path(&p), state.reserve_path(&p, 0.6));
        // 0-1-0 crosses 0-1 twice: checked for 1.2, and fits.
        let back = Path::from_nodes(&g, vec![NodeId(0), NodeId(1), NodeId(0)]).unwrap();
        session.reserve_path(&back).unwrap();
        state.reserve_path(&back, 0.6).unwrap();
        for l in g.link_ids() {
            assert_eq!(session.link_remaining(l), state.link_remaining(l));
        }
        assert_eq!(session.reserved.len(), 2, "only 2-3 and 0-1 are reserved");
    }

    /// The session's answers equal a complete tree's under the residual
    /// filter for every node pair: first read from the class trees, then,
    /// once a reservation has left a link too thin, from the searches.
    #[test]
    fn session_paths_equal_full_tree_paths() {
        let g = graded();
        let oracle = PathOracle::new(&g);
        let mut state = NetworkState::new(&g);
        let mut session = oracle.session(0.9);
        let none = |_l: LinkId| false;
        // Links 0-1 and 4-5 are too thin for the rate; reserving 2-5
        // twice leaves it too thin as well. That splits {0, 5} from the
        // 1-2-3-4 cycle, which 0-5 and 2-5 joined before.
        for reserve in [0, 2] {
            for _ in 0..reserve {
                session.reserve_link(LinkId(7)).unwrap();
                state.reserve_link(LinkId(7), 0.9).unwrap();
            }
            let filter = |l: LinkId| state.link_fits(l, 0.9);
            let searches = session.searches();
            let mut unreachable = 0;
            for from in 0..g.node_count() as u32 {
                let tree = ShortestPathTree::build(&g, NodeId(from), &filter, None);
                for to in 0..g.node_count() as u32 {
                    let got = session.residual_path(NodeId(from), NodeId(to), &none);
                    let full = if from == to {
                        Some(Path::trivial(NodeId(from)))
                    } else {
                        tree.path_to(NodeId(to))
                    };
                    unreachable += usize::from(full.is_none());
                    assert_eq!(
                        got.as_ref().map(|p| (p.nodes(), p.links())),
                        full.as_ref().map(|p| (p.nodes(), p.links())),
                        "{from} -> {to} after {reserve} reservations"
                    );
                }
            }
            assert_eq!(
                unreachable > 0,
                reserve > 0,
                "{unreachable} pairs cut apart"
            );
            let searched = session.searches() - searches;
            assert_eq!(searched > 0, reserve > 0, "{searched} searches");
        }
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
