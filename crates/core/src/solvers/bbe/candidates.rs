//! Step 3 of BBE: candidate sub-solution generation (paper §4.4).
//!
//! Given the FST–BST pair of a layer, candidates are produced in the
//! paper's four sub-steps: (i) every combination of parallel-VNF
//! allocations found in the BST, (ii) inner-layer real-paths by
//! traversing the BST, (iii) inter-layer real-paths by traversing the
//! FST, and (iv) a feasibility filter. MBBE's strategy (2) replaces the
//! tree traversals of (ii)/(iii) with minimum-cost paths on the real-time
//! network.
//!
//! Bounded enumeration: combination counts are capped by the constants
//! below — candidates are explored cheapest-first so truncation discards
//! the expensive tail.
//!
//! A layer expansion's candidates live in one [`LayerSubs`] arena: every
//! path option its FST–BST pairs look up is moved in once, and each
//! candidate holds one [`Pick`] per parallel slot — its node and the
//! arena indices of its paths. Candidates are ranked and cut on those
//! picks; paths are copied out only for the lineages the finals try.

use super::loads::Loads;
use super::stamped::Stamped;
use super::tree::SearchTree;
use super::{cuts_never_bind, BbeConfig};
use crate::chain::{DagSfc, Layer};
use crate::cost::CostBreakdown;
use crate::flow::Flow;
use crate::vnf::VnfCatalog;
use dagsfc_net::routing::{ArcWeight, ShortestPathTree};
use dagsfc_net::{LinkId, Network, NodeId, Path, PathOracle, RateClass, CAP_EPS};
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;

/// Real-path alternatives kept per node pair in tree-traversal mode (the
/// paper's `h`).
const MAX_PATHS_PER_PAIR: usize = 3;
/// Raw prev-chain enumeration bound behind [`MAX_PATHS_PER_PAIR`].
const MAX_RAW_CHAINS: usize = 32;
/// Bound on VNF-allocation combinations per FST–BST pair (step i).
const MAX_ASSIGNMENT_COMBOS: usize = 64;
/// Bound on path-choice combinations per allocation (steps ii+iii).
const MAX_PATH_COMBOS: usize = 16;
/// Candidate hosting nodes considered per slot, cheapest rental first.
const MAX_CANDIDATES_PER_SLOT: usize = 8;

/// One parallel slot of a layer sub-solution: the node its VNF runs on
/// and its real-paths, as indices into the [`LayerSubs`] path arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pick {
    /// The slot's node.
    pub node: NodeId,
    /// Inter-layer real-path (start → node).
    pub inter: u32,
    /// Inner-layer real-path (node → merger); unused in singleton layers.
    pub inner: u32,
}

/// One embedded layer: the paper's per-layer sub-solution. Its slots are
/// picks in the [`LayerSubs`] arena that holds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayerSub {
    /// This layer's cost contribution (VNF rentals + multicast-deduped
    /// inter links + per-version inner links, scaled by the flow size).
    pub cost: CostBreakdown,
    /// The layer's end node (the merger of a parallel layer): next
    /// layer's search start.
    pub end_node: NodeId,
    /// Offset of its picks, one per parallel slot, in the arena.
    picks: u32,
}

/// Where a [`LayerSubs`] arena stood before a batch of candidates was
/// added (see [`LayerSubs::rank_since`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Mark {
    subs: usize,
    picks: usize,
}

/// The sub-solutions of one layer expansion in one arena: every path
/// option its FST–BST pairs looked up (and MBBE-ST's Steiner paths),
/// moved in once, and per sub-solution one [`Pick`] per parallel slot.
#[derive(Debug)]
pub(crate) struct LayerSubs {
    paths: Vec<Path>,
    picks: Vec<Pick>,
    subs: Vec<LayerSub>,
    /// Parallel slots per sub-solution (the layer's width).
    width: usize,
    /// Whether the layer merges: its slots then have inner paths, and
    /// its sub-solutions end on the merger.
    merger: bool,
}

impl LayerSubs {
    /// An empty arena for sub-solutions of `layer`.
    pub fn new(layer: &Layer) -> Self {
        LayerSubs {
            paths: Vec::new(),
            picks: Vec::new(),
            subs: Vec::new(),
            width: layer.width(),
            merger: layer.needs_merger(),
        }
    }

    /// The sub-solutions, in the order they were added or last ranked.
    pub fn subs(&self) -> &[LayerSub] {
        &self.subs
    }

    /// A sub-solution's picks, one per parallel slot.
    pub fn picks(&self, sub: &LayerSub) -> &[Pick] {
        let at = sub.picks as usize;
        &self.picks[at..at + self.width]
    }

    /// The path at arena index `i`.
    pub fn path(&self, i: u32) -> &Path {
        &self.paths[i as usize]
    }

    /// A sub-solution's inter-layer real-paths, slot by slot.
    pub fn inter_paths<'s>(&'s self, sub: &LayerSub) -> impl Iterator<Item = &'s Path> + 's {
        self.picks(sub).iter().map(|p| self.path(p.inter))
    }

    /// A sub-solution's inner real-paths, slot by slot (none in a
    /// singleton layer).
    pub fn inner_paths<'s>(&'s self, sub: &LayerSub) -> impl Iterator<Item = &'s Path> + 's {
        let picks = if self.merger { self.picks(sub) } else { &[] };
        picks.iter().map(|p| self.path(p.inner))
    }

    /// A sub-solution's node per slot, the merger last in a parallel
    /// layer.
    pub fn assignment(&self, sub: &LayerSub) -> impl Iterator<Item = NodeId> + '_ {
        let merger = self.merger.then_some(sub.end_node);
        self.picks(sub).iter().map(|p| p.node).chain(merger)
    }

    /// Where the arena stands now.
    pub fn mark(&self) -> Mark {
        Mark {
            subs: self.subs.len(),
            picks: self.picks.len(),
        }
    }

    /// Ranks the sub-solutions added since `mark` cheapest-first, ties in
    /// the order they were added (a stable sort), keeps the `keep`
    /// cheapest (all when `None`) and returns how many it dropped. Only
    /// the survivors' picks stay in the arena; paths stay where they are.
    pub fn rank_since(&mut self, mark: Mark, keep: Option<usize>) -> usize {
        let batch = &mut self.subs[mark.subs..];
        batch.sort_by(|a, b| a.cost.total().total_cmp(&b.cost.total()));
        let dropped = keep.map_or(0, |k| batch.len().saturating_sub(k));
        if dropped == 0 {
            return 0;
        }
        self.subs.truncate(self.subs.len() - dropped);
        // Append the survivors' picks in rank order, then close the gap
        // the batch's picks leave behind them.
        let end = self.picks.len();
        let gap = end - mark.picks;
        for sub in &mut self.subs[mark.subs..] {
            let at = sub.picks as usize;
            sub.picks = (self.picks.len() - gap) as u32;
            self.picks.extend_from_within(at..at + self.width);
        }
        self.picks.drain(mark.picks..end);
        dropped
    }

    /// Moves the path options `look_up` appends into the arena and
    /// returns their index range.
    fn push_paths(&mut self, look_up: impl FnOnce(&mut Vec<Path>)) -> Range<u32> {
        let start = self.paths.len() as u32;
        look_up(&mut self.paths);
        start..self.paths.len() as u32
    }

    /// Scores the candidate whose picks were pushed from offset `from`
    /// and adds it as a sub-solution ending on `end_node`.
    fn push_sub(&mut self, ctx: &EngineCtx<'_>, vnf_prices: f64, end_node: NodeId, from: usize) {
        let chosen = &self.picks[from..from + self.width];
        let inner = if self.merger { chosen } else { &[] };
        let cost = layer_cost(
            ctx,
            vnf_prices,
            chosen.iter().map(|p| self.path(p.inter)),
            inner.iter().map(|p| self.path(p.inner)),
        );
        self.subs.push(LayerSub {
            cost,
            end_node,
            picks: from as u32,
        });
    }
}

/// Shared per-solve context: network, flow, config, and the shared
/// [`PathOracle`] serving MBBE's min-cost path instantiation.
pub(crate) struct EngineCtx<'a> {
    pub net: &'a Network,
    pub catalog: VnfCatalog,
    pub flow: Flow,
    pub cfg: &'a BbeConfig,
    oracle: &'a PathOracle<'a>,
    /// The flow rate's capacity class on the oracle, faults aside: the
    /// static rate filter, scanned once per rate by the oracle.
    class: RateClass,
    /// How the chain loads the residual, when lineage loads are tracked:
    /// while no level cut can bind, with or without a delay constraint,
    /// and only if some link or instance the chain can use binds (see
    /// [`super::loads`]).
    pub loads: Option<Loads>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
}

impl<'a> EngineCtx<'a> {
    pub fn new(
        net: &'a Network,
        sfc: &DagSfc,
        flow: Flow,
        cfg: &'a BbeConfig,
        oracle: &'a PathOracle<'a>,
    ) -> Self {
        let catalog = *sfc.catalog();
        let class = oracle.rate_class(flow.rate);
        // The threshold is the least admitted capacity and `link_binds`
        // only loosens as capacity grows, so some admitted link binds
        // exactly when the threshold does.
        let loads = cuts_never_bind(cfg, sfc.depth())
            .then(|| Loads::new(sfc, &catalog, flow.rate, net.link_count()))
            .filter(|m| {
                (class.threshold.is_finite() && m.link_binds(class.threshold))
                    || m.any_instance_binds(net)
            });
        EngineCtx {
            net,
            catalog,
            flow,
            cfg,
            oracle,
            class,
            loads,
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
        }
    }

    /// Static rate-feasibility of a link (no global reservations during
    /// the search; complete solutions are re-validated at the end).
    pub fn link_ok(&self, l: LinkId) -> bool {
        self.class.admits(l)
    }

    /// Static rate-feasibility of every link on a path.
    pub fn path_ok(&self, p: &Path) -> bool {
        p.links().iter().all(|&l| self.link_ok(l))
    }

    /// Cheapest path `from → to` over rate-feasible links, via the shared
    /// oracle's memoized single-source Dijkstra trees.
    pub fn min_cost_path(&self, from: NodeId, to: NodeId) -> Option<Path> {
        if from == to {
            return Some(Path::trivial(from));
        }
        self.oracle_tree(from).path_to(to)
    }

    /// Cheapest path `from → to` over rate-feasible links whose summed
    /// substrate propagation delay stays within `max_delay_us`, via the
    /// oracle's LARAC (Lagrangian relaxation) mode. `None` means no
    /// rate-feasible route meets the bound. The λ-keyed trees live in
    /// the oracle's shared cache, not this solve's hit/miss counters.
    pub fn min_cost_path_bounded(
        &self,
        from: NodeId,
        to: NodeId,
        max_delay_us: f64,
    ) -> Option<Path> {
        self.oracle
            .min_cost_path_bounded(from, to, self.flow.rate, max_delay_us)
    }

    /// The least-delay tree rooted at `root` over rate-feasible links —
    /// the links LARAC admits — from the shared oracle's weighted cache
    /// (not this solve's hit/miss counters, like
    /// [`Self::min_cost_path_bounded`]). Links are undirected, so its
    /// distance to a node is that node's least substrate delay to
    /// `root`.
    pub fn delay_tree(&self, root: NodeId) -> Arc<ShortestPathTree> {
        self.oracle
            .weighted_tree(root, self.flow.rate, ArcWeight::Delay)
    }

    /// The Dijkstra tree rooted at `root` over rate-feasible links, from
    /// the shared oracle (hit/miss tracked like [`Self::min_cost_path`];
    /// the tree settles as far as its queries reach). The finals stage
    /// uses one destination-rooted tree to price every leaf instead of
    /// building one tree per distinct leaf end node.
    pub fn oracle_tree(&self, root: NodeId) -> Arc<ShortestPathTree> {
        let (tree, hit) = self.oracle.tree_tracked(root, self.flow.rate);
        let counter = if hit {
            &self.cache_hits
        } else {
            &self.cache_misses
        };
        counter.set(counter.get() + 1);
        tree
    }

    /// This solve's path-cache traffic as `(hits, misses)`.
    pub fn cache_counts(&self) -> (u64, u64) {
        (self.cache_hits.get(), self.cache_misses.get())
    }
}

/// Visits the index combinations of the dimension sizes `dims` in
/// odometer order — index 0 of every dimension first, the last
/// dimension turning fastest, so the cheapest options come first —
/// capped at `cap` combinations.
pub(crate) fn for_each_bounded_combo(dims: &[usize], cap: usize, mut visit: impl FnMut(&[usize])) {
    if dims.contains(&0) || cap == 0 {
        return;
    }
    let mut idx = vec![0usize; dims.len()];
    let mut count = 0usize;
    loop {
        visit(&idx);
        count += 1;
        if count >= cap {
            return;
        }
        // Odometer increment, least-significant dimension last.
        let mut dim = dims.len();
        loop {
            if dim == 0 {
                return;
            }
            dim -= 1;
            idx[dim] += 1;
            if idx[dim] < dims[dim] {
                break;
            }
            idx[dim] = 0;
        }
    }
}

thread_local! {
    /// Per-thread multicast dedup for layer scoring (a link's count is
    /// nonzero once seen), reused by every solve on the thread (the sim
    /// runner solves on several threads at once).
    static SEEN_LINKS: RefCell<Stamped> = const { RefCell::new(Stamped::new()) };
}

/// Computes a layer's cost: VNF rentals plus links, with multicast dedup
/// across the inter-layer paths and per-occurrence charges on inner ones.
///
/// The link sum accumulates left-to-right in path order — inter paths
/// (first occurrence only) then inner paths link-by-link — so every
/// candidate of every layer kind is priced in one float order and
/// cheapest-first orderings are reproducible bit for bit.
pub(crate) fn layer_cost<'p>(
    ctx: &EngineCtx<'_>,
    vnf_prices: f64,
    inter: impl IntoIterator<Item = &'p Path>,
    inner: impl IntoIterator<Item = &'p Path>,
) -> CostBreakdown {
    SEEN_LINKS.with(|cell| {
        let seen = &mut *cell.borrow_mut();
        seen.begin(ctx.net.link_count());
        let mut link_price = 0.0;
        for p in inter {
            for &l in p.links() {
                if seen.get(l.0) == 0 {
                    seen.add(l.0, 1);
                    link_price += ctx.net.link(l).price;
                }
            }
        }
        for p in inner {
            for &l in p.links() {
                link_price += ctx.net.link(l).price;
            }
        }
        CostBreakdown {
            vnf: vnf_prices * ctx.flow.size,
            link: link_price * ctx.flow.size,
        }
    })
}

/// Appends the alternatives for the path `start → node`, using the FST
/// (BBE) or the real-time network (MBBE), to `out`.
fn inter_path_options(ctx: &EngineCtx<'_>, fst: &SearchTree, node: NodeId, out: &mut Vec<Path>) {
    if ctx.cfg.use_min_cost_paths {
        out.extend(ctx.min_cost_path(fst.root(), node));
    } else if let Some(idx) = fst.index_of(node) {
        let options = fst.paths_from_root(ctx.net, idx, MAX_RAW_CHAINS, MAX_PATHS_PER_PAIR);
        out.extend(options.into_iter().filter(|p| ctx.path_ok(p)));
    }
}

/// Appends the alternatives for the inner path `node → merger`, using
/// the BST (BBE) or the real-time network (MBBE), to `out`. Paths are
/// oriented node → merger.
fn inner_path_options(ctx: &EngineCtx<'_>, bst: &SearchTree, node: NodeId, out: &mut Vec<Path>) {
    if ctx.cfg.use_min_cost_paths {
        // Dijkstra tree rooted at the merger, path reversed (links are
        // bi-directional).
        out.extend(ctx.min_cost_path(bst.root(), node).map(Path::reversed));
    } else if let Some(idx) = bst.index_of(node) {
        let options = bst.paths_from_root(ctx.net, idx, MAX_RAW_CHAINS, MAX_PATHS_PER_PAIR);
        out.extend(
            options
                .into_iter()
                .map(Path::reversed)
                .filter(|p| ctx.path_ok(p)),
        );
    }
}

/// Candidate hosts of a slot as `(price, node)`, cheapest rental first,
/// capped: each tree node's instance is read once, and the hosts sort on
/// the stored (price, node id).
fn slot_candidates(
    ctx: &EngineCtx<'_>,
    tree: &SearchTree,
    kind: dagsfc_net::VnfTypeId,
) -> Vec<(f64, NodeId)> {
    let mut cands: Vec<(f64, NodeId)> = (0..tree.len())
        .filter_map(|i| {
            let node = tree.node(i).node;
            let instance = ctx.net.instance(node, kind)?;
            (instance.capacity + CAP_EPS >= ctx.flow.rate).then_some((instance.price, node))
        })
        .collect();
    cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    cands.truncate(MAX_CANDIDATES_PER_SLOT);
    cands
}

/// Generates sub-solutions for a *singleton* layer from its FST into
/// `arena`: one candidate per (hosting node, inter-path alternative).
/// Returns how many it generated.
pub(crate) fn singleton_layer_subs(
    ctx: &EngineCtx<'_>,
    layer: &Layer,
    fst: &SearchTree,
    arena: &mut LayerSubs,
) -> usize {
    debug_assert!(!layer.needs_merger());
    let kind = layer.vnfs()[0];
    let before = arena.subs.len();
    for (price, node) in slot_candidates(ctx, fst, kind) {
        for inter in arena.push_paths(|out| inter_path_options(ctx, fst, node, out)) {
            let from = arena.picks.len();
            arena.picks.push(Pick {
                node,
                inter,
                inner: 0,
            });
            arena.push_sub(ctx, price, node, from);
        }
    }
    arena.subs.len() - before
}

/// One candidate node's path options within an FST–BST pair, as arena
/// index ranges, each looked up the first time an allocation needs it.
struct NodePaths {
    node: NodeId,
    /// Inter-layer options `start → node`.
    inter: Option<Range<u32>>,
    /// Inner-layer options `node → merger`.
    inner: Option<Range<u32>>,
}

impl NodePaths {
    fn inter(&self) -> Range<u32> {
        self.inter.clone().unwrap_or_default()
    }

    fn inner(&self) -> Range<u32> {
        self.inner.clone().unwrap_or_default()
    }
}

/// Generates sub-solutions for a *parallel* layer from one FST–BST pair
/// (the BST is rooted at the merger candidate) into `arena`, keeping
/// the `keep` cheapest (all when `None`) cheapest-first, and returns how
/// many candidates it generated.
///
/// Candidates are generated in a fixed order: per allocation combination
/// (step i), MBBE-ST's Steiner-tree candidates first, then the
/// independent-path ones (steps ii+iii). Each is scored on its picks and
/// ranked by (cost, generation order), what a stable sort of every
/// candidate leaves. A node's path options are looked up once per pair,
/// the first time an allocation uses it, so the oracle sees its first
/// queries in generation order.
pub(crate) fn parallel_layer_subs(
    ctx: &EngineCtx<'_>,
    layer: &Layer,
    fst: &SearchTree,
    bst: &SearchTree,
    keep: Option<usize>,
    arena: &mut LayerSubs,
) -> usize {
    debug_assert!(layer.needs_merger());
    let merger_node = bst.root();
    let merger_kind = ctx.catalog.merger();
    let Some(merger_inst) = ctx.net.instance(merger_node, merger_kind) else {
        return 0;
    };
    if merger_inst.capacity + CAP_EPS < ctx.flow.rate {
        return 0;
    }

    // Step (i): allocation combinations from the BST, each slot's
    // candidates mapped onto the pair's node table.
    let mut nodes: Vec<NodePaths> = Vec::new();
    let per_slot: Vec<Vec<usize>> = layer
        .vnfs()
        .iter()
        .map(|&kind| {
            slot_candidates(ctx, bst, kind)
                .into_iter()
                .map(
                    |(_, node)| match nodes.iter().position(|n| n.node == node) {
                        Some(i) => i,
                        None => {
                            nodes.push(NodePaths {
                                node,
                                inter: None,
                                inner: None,
                            });
                            nodes.len() - 1
                        }
                    },
                )
                .collect()
        })
        .collect();
    let dims: Vec<usize> = per_slot.iter().map(Vec::len).collect();
    let pair_cap = MAX_PATHS_PER_PAIR * MAX_PATHS_PER_PAIR;

    let mark = arena.mark();
    // The current allocation: one node-table index per slot.
    let mut slots: Vec<usize> = Vec::with_capacity(per_slot.len());
    for_each_bounded_combo(&dims, MAX_ASSIGNMENT_COMBOS, |choice| {
        slots.clear();
        slots.extend(choice.iter().enumerate().map(|(s, &c)| per_slot[s][c]));
        let vnf_prices: f64 = slots
            .iter()
            .zip(layer.vnfs())
            .map(|(&i, &k)| {
                // lint:allow(expect) — invariant: candidate hosts kind
                ctx.net
                    .vnf_price(nodes[i].node, k)
                    .expect("candidate hosts kind")
            })
            .sum::<f64>()
            + merger_inst.price;
        // MBBE-ST extension: additionally route the layer's inter-layer
        // multicast as one Takahashi–Matsuyama Steiner tree, maximizing
        // the eq. (9) link sharing. These candidates *augment* the
        // independent-path ones below; cheapest-first ranking and `X_d`
        // pruning then pick whichever routing wins.
        if ctx.cfg.use_steiner_multicast {
            let targets: Vec<NodeId> = slots.iter().map(|&i| nodes[i].node).collect();
            let tree =
                dagsfc_net::routing::multicast_tree(ctx.net, fst.root(), &targets, &|l: LinkId| {
                    ctx.link_ok(l)
                });
            if let Some(mt) = tree {
                for &i in &slots {
                    if nodes[i].inner.is_none() {
                        let node = nodes[i].node;
                        nodes[i].inner =
                            Some(arena.push_paths(|out| inner_path_options(ctx, bst, node, out)));
                    }
                }
                // The tree's paths are aligned with the slots.
                let tree_paths = arena.push_paths(|out| out.extend(mt.paths));
                let inner_dims: Vec<usize> =
                    slots.iter().map(|&i| nodes[i].inner().len()).collect();
                for_each_bounded_combo(&inner_dims, MAX_PATH_COMBOS, |combo| {
                    let from = arena.picks.len();
                    let picks = slots.iter().zip(combo).zip(tree_paths.clone());
                    arena.picks.extend(picks.map(|((&i, &n), inter)| Pick {
                        node: nodes[i].node,
                        inter,
                        inner: nodes[i].inner().start + n as u32,
                    }));
                    arena.push_sub(ctx, vnf_prices, merger_node, from);
                });
            }
        }
        // Steps (ii)+(iii): per slot, every (inter, inner) option pair in
        // row-major order, capped at `MAX_PATHS_PER_PAIR²`.
        for &i in &slots {
            let node = nodes[i].node;
            if nodes[i].inter.is_none() {
                nodes[i].inter =
                    Some(arena.push_paths(|out| inter_path_options(ctx, fst, node, out)));
            }
            if nodes[i].inner.is_none() {
                nodes[i].inner =
                    Some(arena.push_paths(|out| inner_path_options(ctx, bst, node, out)));
            }
            if nodes[i].inter().is_empty() || nodes[i].inner().is_empty() {
                return;
            }
        }
        let pair_dims: Vec<usize> = slots
            .iter()
            .map(|&i| (nodes[i].inter().len() * nodes[i].inner().len()).min(pair_cap))
            .collect();
        for_each_bounded_combo(&pair_dims, MAX_PATH_COMBOS, |combo| {
            let from = arena.picks.len();
            arena.picks.extend(slots.iter().zip(combo).map(|(&i, &c)| {
                let (inter, inner) = (nodes[i].inter(), nodes[i].inner());
                let inners = inner.len();
                Pick {
                    node: nodes[i].node,
                    inter: inter.start + (c / inners) as u32,
                    inner: inner.start + (c % inners) as u32,
                }
            }));
            arena.push_sub(ctx, vnf_prices, merger_node, from);
        });
    });

    // Step (iv): the static feasibility filters are applied inline above
    // (capacity-vs-rate on every candidate node and path link). Rank by
    // (cost, generation order) and keep the `keep` cheapest.
    let generated = arena.subs.len() - mark.subs;
    arena.rank_since(mark, keep);
    generated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::solvers::bbe::backward::backward_search;
    use crate::solvers::bbe::forward::forward_search;
    use dagsfc_net::VnfTypeId;

    fn cfg() -> BbeConfig {
        BbeConfig::default()
    }

    /// A one-VNF chain over catalog `c`: the engine context reads only
    /// its catalog and load model.
    fn chain(c: VnfCatalog) -> DagSfc {
        DagSfc::sequential(&[VnfTypeId(0)], c).unwrap()
    }

    /// Diamond: v0-v1-v2, v0-v3-v2; f0@v1, f1@v3, merger@v2; plus
    /// direct src links.
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 2.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(3), 1.5, 10.0).unwrap();
        g.add_link(NodeId(3), NodeId(2), 0.5, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(1), 2.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(2), 0.5, 10.0).unwrap();
        g
    }

    /// A sub-solution read through its arena's accessors.
    struct Sub<'a> {
        assignment: Vec<NodeId>,
        inter_paths: Vec<&'a Path>,
        inner_paths: Vec<&'a Path>,
        cost: CostBreakdown,
        end_node: NodeId,
    }

    /// The arena's sub-solutions in order, read through its accessors.
    fn read(arena: &LayerSubs) -> Vec<Sub<'_>> {
        arena
            .subs()
            .iter()
            .map(|s| Sub {
                assignment: arena.assignment(s).collect(),
                inter_paths: arena.inter_paths(s).collect(),
                inner_paths: arena.inner_paths(s).collect(),
                cost: s.cost,
                end_node: s.end_node,
            })
            .collect()
    }

    /// One FST–BST pair's generation into a fresh arena, and the number
    /// of candidates it generated.
    fn parallel(
        ctx: &EngineCtx<'_>,
        layer: &Layer,
        fst: &SearchTree,
        bst: &SearchTree,
        keep: Option<usize>,
    ) -> (LayerSubs, usize) {
        let mut arena = LayerSubs::new(layer);
        let generated = parallel_layer_subs(ctx, layer, fst, bst, keep, &mut arena);
        (arena, generated)
    }

    /// Every combination the visitor yields, in order.
    fn combos(dims: &[usize], cap: usize) -> Vec<Vec<usize>> {
        let mut visited = Vec::new();
        for_each_bounded_combo(dims, cap, |c| visited.push(c.to_vec()));
        visited
    }

    #[test]
    fn combo_visitor_orders_and_caps() {
        let all = combos(&[2, 2], 100);
        assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
        // Capped: the cheapest-first prefix.
        assert_eq!(combos(&[2, 2], 3), all[..3].to_vec());
        assert!(combos(&[1, 0], 10).is_empty());
        assert!(combos(&[], 0).is_empty());
        // Empty dimension list with positive cap → single empty combo.
        assert_eq!(combos(&[], 5), vec![Vec::<usize>::new()]);
        // Odometer order is mixed-radix counting, last dimension fastest.
        let dims = [3usize, 1, 2];
        for (rank, combo) in combos(&dims, 100).iter().enumerate() {
            assert_eq!(combo, &vec![rank / 2, 0, rank % 2], "rank {rank}");
        }
    }

    #[test]
    fn layer_cost_dedups_inter_links_only() {
        // Reference the flat epoch-stamped dedup against a plain
        // hash-set model: inter links are charged once on first
        // occurrence, inner links per occurrence.
        let g = net();
        let c = VnfCatalog::new(2);
        let cfg = cfg();
        let oracle = PathOracle::new(&g);
        let sfc = chain(c);
        let ctx = EngineCtx::new(&g, &sfc, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let p01 = ctx.min_cost_path(NodeId(0), NodeId(1)).unwrap();
        let p02 = ctx.min_cost_path(NodeId(0), NodeId(2)).unwrap();
        let inter = [&p01, &p01, &p02];
        let inner = [&p01, &p01];
        let cost = layer_cost(&ctx, 3.0, inter, inner);
        let mut seen = dagsfc_net::FxHashSet::default();
        let mut expect_link = 0.0;
        for p in &inter {
            for &l in p.links() {
                if seen.insert(l) {
                    expect_link += g.link(l).price;
                }
            }
        }
        for p in &inner {
            for &l in p.links() {
                expect_link += g.link(l).price;
            }
        }
        assert_eq!(cost.vnf.to_bits(), 3.0f64.to_bits());
        assert_eq!(cost.link.to_bits(), expect_link.to_bits());
        // A second scoring on the same thread must reset the dedup scope.
        let again = layer_cost(&ctx, 3.0, inter, inner);
        assert_eq!(again.link.to_bits(), cost.link.to_bits());
    }

    #[test]
    fn singleton_candidates_cover_hosting_nodes() {
        let g = net();
        let c = VnfCatalog::new(2);
        let cfg = cfg();
        let oracle = PathOracle::new(&g);
        let sfc = chain(c);
        let ctx = EngineCtx::new(&g, &sfc, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        let mut arena = LayerSubs::new(&layer);
        singleton_layer_subs(&ctx, &layer, &fst, &mut arena);
        let subs = read(&arena);
        assert!(!subs.is_empty());
        for s in &subs {
            assert_eq!(s.assignment, vec![NodeId(1)]);
            assert_eq!(s.end_node, NodeId(1));
            assert!(s.inner_paths.is_empty());
            assert_eq!(s.inter_paths[0].source(), NodeId(0));
            assert_eq!(s.inter_paths[0].target(), NodeId(1));
            // cost = vnf 1.0 + link v0-v1 1.0
            assert!((s.cost.total() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_layer_generation_builds_complete_subs() {
        let g = net();
        let c = VnfCatalog::new(2);
        let cfg = cfg();
        let oracle = PathOracle::new(&g);
        let sfc = chain(c);
        let ctx = EngineCtx::new(&g, &sfc, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        assert!(fst.covered());
        let bst = backward_search(&g, NodeId(2), &layer, &c, &fst);
        assert!(bst.covered());
        let (arena, generated) = parallel(&ctx, &layer, &fst, &bst, None);
        let subs = read(&arena);
        assert!(!subs.is_empty());
        assert_eq!(generated, subs.len());
        let best = &subs[0];
        assert_eq!(best.assignment.len(), 3); // f0, f1, merger
        assert_eq!(best.assignment[2], NodeId(2));
        assert_eq!(best.end_node, NodeId(2));
        assert_eq!(best.inter_paths.len(), 2);
        assert_eq!(best.inner_paths.len(), 2);
        // Inner paths end on the merger.
        for p in &best.inner_paths {
            assert_eq!(p.target(), NodeId(2));
        }
        // Costs sorted ascending.
        for w in subs.windows(2) {
            assert!(w[0].cost.total() <= w[1].cost.total() + 1e-12);
        }
        // Expected optimum: f0@v1 (1.0) + f1@v3 (2.0) + merger (0.5)
        // + inter links {v0-v1 1.0, v0-v3 1.5} + inner {v1-v2 2.0,
        //   v3-v2 0.5} = 8.5.
        assert!((best.cost.total() - 8.5).abs() < 1e-12);
    }

    #[test]
    fn min_cost_mode_produces_single_alternative_per_pair() {
        let g = net();
        let c = VnfCatalog::new(2);
        let mut cfg = cfg();
        cfg.use_min_cost_paths = true;
        let oracle = PathOracle::new(&g);
        let sfc = chain(c);
        let ctx = EngineCtx::new(&g, &sfc, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        let bst = backward_search(&g, NodeId(2), &layer, &c, &fst);
        let (arena, generated) = parallel(&ctx, &layer, &fst, &bst, None);
        let subs = read(&arena);
        // One assignment combo × one path combo.
        assert_eq!((subs.len(), generated), (1, 1));
        assert!((subs[0].cost.total() - 8.5).abs() < 1e-12);
    }

    /// Where an independent-path candidate stands in generation order:
    /// the odometer ranks of its allocation over the slots' candidate
    /// lists and of its path combination over the slots' (inter, inner)
    /// option pairs.
    fn generation_key(
        ctx: &EngineCtx<'_>,
        layer: &Layer,
        fst: &SearchTree,
        bst: &SearchTree,
        sub: &Sub<'_>,
    ) -> (usize, usize) {
        let pair_cap = MAX_PATHS_PER_PAIR * MAX_PATHS_PER_PAIR;
        let (mut allocation, mut combo) = (0, 0);
        for (s, &kind) in layer.vnfs().iter().enumerate() {
            let node = sub.assignment[s];
            let hosts = slot_candidates(ctx, bst, kind);
            let (mut inters, mut inners) = (Vec::new(), Vec::new());
            inter_path_options(ctx, fst, node, &mut inters);
            inner_path_options(ctx, bst, node, &mut inners);
            let at = |opts: &[Path], p: &Path| opts.iter().position(|o| o == p).unwrap();
            allocation =
                allocation * hosts.len() + hosts.iter().position(|&(_, h)| h == node).unwrap();
            let pair =
                at(&inters, sub.inter_paths[s]) * inners.len() + at(&inners, sub.inner_paths[s]);
            combo = combo * (inters.len() * inners.len()).min(pair_cap) + pair;
        }
        (allocation, combo)
    }

    /// A random parallel layer's generation under `cfg` on a generated
    /// network: for every FST–BST pair, each `keep = Some(k)` returns the
    /// first `k` of the `keep = None` ranking — same order, cost bits,
    /// assignments and paths — and counts the same candidates as
    /// generated. Without Steiner candidates, the ranking is checked to
    /// be (cost, generation order), what a stable sort leaves. Returns
    /// the largest candidate count seen.
    fn check_keep_prefixes(seed: u64, cfg: &BbeConfig) -> usize {
        use dagsfc_net::{generator, NetGenConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // Even seeds draw flat prices: most candidates then tie on cost,
        // and only generation order ranks them.
        let spread = if seed.is_multiple_of(2) { 0.0 } else { 0.3 };
        let gen = NetGenConfig {
            nodes: rng.gen_range(20..45usize),
            avg_degree: 4.0,
            vnf_kinds: 5,
            deploy_ratio: 0.6,
            vnf_price_fluctuation: spread,
            link_price_fluctuation: spread,
            ..NetGenConfig::default()
        };
        let g = generator::generate(&gen, &mut rng).unwrap();
        let c = VnfCatalog::new(4);
        let width = rng.gen_range(2..4usize);
        let layer = Layer::new((0..width).map(|k| VnfTypeId(k as u16)).collect());
        let src = NodeId(rng.gen_range(0..gen.nodes) as u32);
        let oracle = PathOracle::new(&g);
        let ctx = EngineCtx::new(&g, &chain(c), Flow::unit(src, src), cfg, &oracle);
        let fst = forward_search(&g, src, &layer, &c, cfg.x_max);
        let mut largest = 0;
        for i in fst.hosting(&g, c.merger()) {
            let bst = backward_search(&g, fst.node(i).node, &layer, &c, &fst);
            if !bst.covered() {
                continue;
            }
            let (all, generated) = parallel(&ctx, &layer, &fst, &bst, None);
            let all = read(&all);
            assert_eq!(all.len(), generated);
            largest = largest.max(generated);
            for k in 0..=generated + 1 {
                let (kept, counted) = parallel(&ctx, &layer, &fst, &bst, Some(k));
                let kept = read(&kept);
                assert_eq!(counted, generated, "seed {seed} k {k}");
                assert_eq!(kept.len(), k.min(generated), "seed {seed} k {k}");
                for (j, (a, b)) in kept.iter().zip(&all).enumerate() {
                    let what = format!("seed {seed} k {k} candidate {j}");
                    assert_eq!(a.assignment, b.assignment, "{what}");
                    assert_eq!(a.end_node, b.end_node, "{what}");
                    assert_eq!(a.cost.vnf.to_bits(), b.cost.vnf.to_bits(), "{what}");
                    assert_eq!(a.cost.link.to_bits(), b.cost.link.to_bits(), "{what}");
                    for (pa, pb) in a.inter_paths.iter().zip(&b.inter_paths) {
                        assert_eq!((pa.nodes(), pa.links()), (pb.nodes(), pb.links()), "{what}");
                    }
                    for (pa, pb) in a.inner_paths.iter().zip(&b.inner_paths) {
                        assert_eq!((pa.nodes(), pa.links()), (pb.nodes(), pb.links()), "{what}");
                    }
                    assert_eq!(a.inter_paths.len(), b.inter_paths.len(), "{what}");
                    assert_eq!(a.inner_paths.len(), b.inner_paths.len(), "{what}");
                }
            }
            for w in all.windows(2) {
                assert!(
                    w[0].cost.total() <= w[1].cost.total(),
                    "seed {seed}: unranked"
                );
            }
            if !cfg.use_steiner_multicast {
                let keys: Vec<(usize, usize)> = all
                    .iter()
                    .map(|sub| generation_key(&ctx, &layer, &fst, &bst, sub))
                    .collect();
                for (j, w) in all.windows(2).enumerate() {
                    let order = w[0].cost.total().total_cmp(&w[1].cost.total());
                    assert!(
                        order.then(keys[j].cmp(&keys[j + 1])).is_lt(),
                        "seed {seed}: candidates {j} and {} out of (cost, generation) order",
                        j + 1
                    );
                }
            }
        }
        largest
    }

    #[test]
    fn kept_candidates_are_a_prefix_of_the_full_ranking() {
        let configs = [
            ("BBE", BbeConfig::default()),
            ("MBBE", BbeConfig::mbbe()),
            ("MBBE-ST", BbeConfig::mbbe_steiner()),
        ];
        for (name, cfg) in &configs {
            let largest = (0..8).map(|seed| check_keep_prefixes(seed, cfg)).max();
            // The instances must give the cut something to choose from.
            assert!(
                largest > Some(32),
                "{name}: at most {largest:?} candidates per pair"
            );
        }
    }

    /// The engine's static rate filter and its lineage-tracking decision
    /// read the oracle's rate class. On seeded networks whose link
    /// capacities sit on and around the rate and the chain's binding
    /// loads (±`CAP_EPS`, zero, signed zero and ties included), they
    /// equal the per-link definitions — `capacity + CAP_EPS >= rate`,
    /// and tracking when some admitted link or some instance binds —
    /// also while the oracle's overlay marks a link and a node down,
    /// which the engine's filter ignores.
    #[test]
    fn rate_filter_and_tracking_match_the_per_link_definitions() {
        use crate::solvers::bbe::loads::Loads;
        use dagsfc_net::{generator, NetGenConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let c = VnfCatalog::new(3);
        let cfg = BbeConfig::mbbe();
        let mut outcomes = [0usize; 2];
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rate = [0.5, 1.0, 2.5][seed as usize % 3];
            let gen = NetGenConfig {
                nodes: rng.gen_range(6..24usize),
                avg_degree: 3.0,
                vnf_kinds: 3,
                deploy_ratio: 0.6,
                // Odd seeds: instances fit one use of the rate, not two.
                vnf_capacity: if seed % 2 == 1 { 1.5 * rate } else { 1e6 },
                ..NetGenConfig::default()
            };
            let mut g = generator::generate(&gen, &mut rng).unwrap();
            // Capacities on and around m·rate for m from a seeded floor
            // up, so the least admitted one binds on some seeds only.
            let floor = rng.gen_range(1..=8u32);
            let mut palette = vec![0.0, -0.0, 1e6];
            for m in floor..=8 {
                for off in [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0] {
                    palette.push((f64::from(m) * rate + off * CAP_EPS).max(0.0));
                }
            }
            let links: Vec<LinkId> = g.link_ids().collect();
            for &l in &links {
                let cap = palette[rng.gen_range(0..palette.len())];
                g.set_link_capacity(l, cap).unwrap();
            }
            let kinds: &[u16] = if seed % 4 < 2 { &[0, 1, 0] } else { &[0, 1, 2] };
            let kinds: Vec<VnfTypeId> = kinds.iter().map(|&k| VnfTypeId(k)).collect();
            let sfc = DagSfc::sequential(&kinds, c).unwrap();
            let flow = Flow {
                rate,
                ..Flow::unit(NodeId(0), NodeId(1))
            };
            let loads = Loads::new(&sfc, &c, rate, g.link_count());
            let admits = |l: LinkId| g.link(l).capacity + CAP_EPS >= rate;
            let binds = links
                .iter()
                .any(|&l| admits(l) && loads.link_binds(g.link(l).capacity));
            let tracked = binds || loads.any_instance_binds(&g);
            // Links alone decide on the seeds whose instances cannot bind.
            if !loads.any_instance_binds(&g) {
                outcomes[usize::from(binds)] += 1;
            }
            let oracle = PathOracle::new(&g);
            for faults in [false, true] {
                if faults {
                    oracle.set_link_down(links[seed as usize % links.len()], true);
                    oracle.set_node_down(NodeId(1), true);
                }
                let ctx = EngineCtx::new(&g, &sfc, flow, &cfg, &oracle);
                for &l in &links {
                    assert_eq!(ctx.link_ok(l), admits(l), "seed {seed} {l:?}");
                }
                assert_eq!(ctx.loads.is_some(), tracked, "seed {seed}");
            }
        }
        assert!(outcomes.iter().all(|&n| n >= 8), "{outcomes:?}");
    }

    #[test]
    fn rate_infeasible_candidates_filtered() {
        let g = net();
        let c = VnfCatalog::new(2);
        let cfg = cfg();
        // Rate 20 exceeds every capacity (10).
        let flow = Flow {
            src: NodeId(0),
            dst: NodeId(2),
            rate: 20.0,
            size: 1.0,
            delay_budget_us: None,
        };
        let oracle = PathOracle::new(&g);
        let ctx = EngineCtx::new(&g, &chain(c), flow, &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        let mut arena = LayerSubs::new(&layer);
        singleton_layer_subs(&ctx, &layer, &fst, &mut arena);
        assert!(read(&arena).is_empty());
    }

    #[test]
    fn merger_capacity_gate() {
        let mut g = net();
        // Second merger instance with tiny capacity on v1.
        g.deploy_vnf(NodeId(1), VnfTypeId(2), 0.1, 0.5).unwrap();
        let c = VnfCatalog::new(2);
        let cfg = cfg();
        let oracle = PathOracle::new(&g);
        let sfc = chain(c);
        let ctx = EngineCtx::new(&g, &sfc, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        let bst = backward_search(&g, NodeId(1), &layer, &c, &fst);
        // Merger on v1 has capacity 0.5 < rate 1.0 → no candidates.
        let (arena, generated) = parallel(&ctx, &layer, &fst, &bst, None);
        let subs = read(&arena);
        assert!(subs.is_empty());
        assert_eq!(generated, 0);
    }
}
