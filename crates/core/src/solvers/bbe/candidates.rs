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
//! Bounded enumeration: combination counts are capped by the
//! [`super::BbeConfig`] knobs — candidates are explored cheapest-first so
//! truncation discards the expensive tail.

use super::tree::SearchTree;
use super::BbeConfig;
use crate::chain::Layer;
use crate::cost::CostBreakdown;
use crate::flow::Flow;
use crate::vnf::VnfCatalog;
use dagsfc_net::routing::ShortestPathTree;
use dagsfc_net::{LinkId, Network, NodeId, Path, PathOracle, CAP_EPS};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// One embedded layer: the paper's per-layer sub-solution.
#[derive(Debug, Clone)]
pub(crate) struct LayerSub {
    /// Node per slot (merger last for parallel layers).
    pub assignment: Vec<NodeId>,
    /// Inter-layer real-paths, one per parallel slot (start → VNF node).
    pub inter_paths: Vec<Path>,
    /// Inner-layer real-paths, one per parallel slot (VNF node → merger);
    /// empty for singleton layers.
    pub inner_paths: Vec<Path>,
    /// This layer's cost contribution (VNF rentals + multicast-deduped
    /// inter links + per-version inner links, scaled by the flow size).
    pub cost: CostBreakdown,
    /// The layer's end node: next layer's search start.
    pub end_node: NodeId,
}

/// Shared per-solve context: network, flow, config, and the shared
/// [`PathOracle`] serving MBBE's min-cost path instantiation.
pub(crate) struct EngineCtx<'a> {
    pub net: &'a Network,
    pub catalog: VnfCatalog,
    pub flow: Flow,
    pub cfg: &'a BbeConfig,
    oracle: &'a PathOracle<'a>,
    /// Flat per-link price table (struct-of-arrays copy of
    /// `net.link(l).price`): candidate scoring sweeps read contiguous
    /// `f64`s instead of chasing a `Link` struct per relaxed link.
    link_price: Vec<f64>,
    /// Flat per-link static rate-feasibility under this flow's rate,
    /// precomputed once per solve for the same reason.
    link_rate_ok: Vec<bool>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
}

impl<'a> EngineCtx<'a> {
    pub fn new(
        net: &'a Network,
        catalog: VnfCatalog,
        flow: Flow,
        cfg: &'a BbeConfig,
        oracle: &'a PathOracle<'a>,
    ) -> Self {
        let mut link_price = Vec::with_capacity(net.link_count());
        let mut link_rate_ok = Vec::with_capacity(net.link_count());
        for l in 0..net.link_count() {
            let link = net.link(LinkId(l as u32));
            link_price.push(link.price);
            link_rate_ok.push(link.capacity + CAP_EPS >= flow.rate);
        }
        EngineCtx {
            net,
            catalog,
            flow,
            cfg,
            oracle,
            link_price,
            link_rate_ok,
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
        }
    }

    /// Static rate-feasibility of a link (no global reservations during
    /// the search; complete solutions are re-validated at the end).
    pub fn link_ok(&self, l: LinkId) -> bool {
        self.link_rate_ok[l.index()]
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

    /// The full Dijkstra tree rooted at `root` over rate-feasible links,
    /// from the shared oracle (hit/miss tracked like
    /// [`Self::min_cost_path`]). The finals stage uses one
    /// destination-rooted tree to price every leaf instead of building
    /// one tree per distinct leaf end node.
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

/// Mixed-radix cartesian product of `options`, cheapest-first (index 0 of
/// every dimension first), capped at `cap` combinations.
pub(crate) fn bounded_cartesian<T: Clone>(options: &[Vec<T>], cap: usize) -> Vec<Vec<T>> {
    if options.iter().any(Vec::is_empty) || cap == 0 {
        return Vec::new();
    }
    let mut combos = Vec::new();
    let mut idx = vec![0usize; options.len()];
    loop {
        combos.push(
            idx.iter()
                .zip(options)
                .map(|(&i, opts)| opts[i].clone())
                .collect(),
        );
        if combos.len() >= cap {
            break;
        }
        // Odometer increment, least-significant dimension last.
        let mut dim = options.len();
        loop {
            if dim == 0 {
                return combos;
            }
            dim -= 1;
            idx[dim] += 1;
            if idx[dim] < options[dim].len() {
                break;
            }
            idx[dim] = 0;
        }
    }
    combos
}

/// Visits the same index combinations [`bounded_cartesian`] would
/// produce over the dimension sizes `dims` (cheapest-first odometer,
/// capped at `cap`), without materializing or cloning anything — the
/// flat-sweep scoring loops walk these indices straight into their
/// struct-of-arrays path tables.
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

/// Epoch-stamped first-occurrence set over link ids: the multicast
/// dedup behind layer scoring. `begin` is O(1) (an epoch bump), so the
/// set is reused across thousands of candidate scorings without the
/// per-candidate hash-set allocation the old scorer paid.
struct SeenLinks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl SeenLinks {
    /// Starts a fresh dedup scope covering link ids `0..links`.
    fn begin(&mut self, links: usize) {
        if self.stamp.len() < links {
            self.stamp.resize(links, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: hard-reset the stamps so stale marks from
                // u32::MAX scopes ago cannot alias the new epoch.
                self.stamp.fill(0);
                1
            }
        };
    }

    /// Whether this is the first occurrence of `l` in the current scope.
    fn first(&mut self, l: LinkId) -> bool {
        let s = &mut self.stamp[l.index()];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }
}

thread_local! {
    /// Per-thread scoring dedup set, reused by every solve on the
    /// thread (the sim runner solves on several threads at once).
    static SEEN_LINKS: RefCell<SeenLinks> = const {
        RefCell::new(SeenLinks {
            stamp: Vec::new(),
            epoch: 0,
        })
    };
}

/// Computes a layer's cost: VNF rentals plus links, with multicast dedup
/// across the inter-layer paths and per-occurrence charges on inner ones.
///
/// The link sum accumulates left-to-right in path order — inter paths
/// (first occurrence only) then inner paths link-by-link — exactly as
/// the original hash-set scorer did, so totals are bit-identical and
/// downstream cheapest-first orderings cannot shift.
pub(crate) fn layer_cost(
    ctx: &EngineCtx<'_>,
    vnf_prices: f64,
    inter: &[Path],
    inner: &[Path],
) -> CostBreakdown {
    SEEN_LINKS.with(|cell| {
        let seen = &mut *cell.borrow_mut();
        seen.begin(ctx.net.link_count());
        let mut link_price = 0.0;
        for p in inter {
            for &l in p.links() {
                if seen.first(l) {
                    link_price += ctx.link_price[l.index()];
                }
            }
        }
        for p in inner {
            for &l in p.links() {
                link_price += ctx.link_price[l.index()];
            }
        }
        CostBreakdown {
            vnf: vnf_prices * ctx.flow.size,
            link: link_price * ctx.flow.size,
        }
    })
}

/// Alternatives for the path `start → node` using the FST (BBE) or the
/// real-time network (MBBE).
fn inter_path_options(ctx: &EngineCtx<'_>, fst: &SearchTree, node: NodeId) -> Vec<Path> {
    if ctx.cfg.use_min_cost_paths {
        ctx.min_cost_path(fst.root(), node).into_iter().collect()
    } else {
        let Some(idx) = fst.index_of(node) else {
            return Vec::new();
        };
        fst.paths_from_root(
            ctx.net,
            idx,
            ctx.cfg.max_raw_chains,
            ctx.cfg.max_paths_per_pair,
        )
        .into_iter()
        .filter(|p| ctx.path_ok(p))
        .collect()
    }
}

/// Alternatives for the inner path `node → merger` using the BST (BBE) or
/// the real-time network (MBBE). Paths are oriented node → merger.
fn inner_path_options(ctx: &EngineCtx<'_>, bst: &SearchTree, node: NodeId) -> Vec<Path> {
    if ctx.cfg.use_min_cost_paths {
        // Dijkstra tree rooted at the merger, path reversed (links are
        // bi-directional).
        ctx.min_cost_path(bst.root(), node)
            .into_iter()
            .map(Path::reversed)
            .collect()
    } else {
        let Some(idx) = bst.index_of(node) else {
            return Vec::new();
        };
        bst.paths_from_root(
            ctx.net,
            idx,
            ctx.cfg.max_raw_chains,
            ctx.cfg.max_paths_per_pair,
        )
        .into_iter()
        .map(Path::reversed)
        .filter(|p| ctx.path_ok(p))
        .collect()
    }
}

/// Candidate nodes of a slot, cheapest rental first, capped.
fn slot_candidates(
    ctx: &EngineCtx<'_>,
    tree: &SearchTree,
    kind: dagsfc_net::VnfTypeId,
) -> Vec<NodeId> {
    let mut cands: Vec<NodeId> = tree
        .hosting(kind)
        .into_iter()
        .map(|i| tree.node(i).node)
        .filter(|&n| {
            ctx.net
                .instance(n, kind)
                .is_some_and(|i| i.capacity + CAP_EPS >= ctx.flow.rate)
        })
        .collect();
    cands.sort_by(|&a, &b| {
        let pa = ctx.net.vnf_price(a, kind).unwrap_or(f64::INFINITY);
        let pb = ctx.net.vnf_price(b, kind).unwrap_or(f64::INFINITY);
        pa.total_cmp(&pb).then(a.cmp(&b))
    });
    cands.truncate(ctx.cfg.max_candidates_per_slot);
    cands
}

/// Generates sub-solutions for a *singleton* layer from its FST: one
/// candidate per (hosting node, inter-path alternative).
pub(crate) fn singleton_layer_subs(
    ctx: &EngineCtx<'_>,
    layer: &Layer,
    fst: &SearchTree,
) -> Vec<LayerSub> {
    debug_assert!(!layer.needs_merger());
    let kind = layer.vnfs()[0];
    let mut subs = Vec::new();
    for node in slot_candidates(ctx, fst, kind) {
        // lint:allow(expect) — invariant: candidate hosts kind
        let price = ctx.net.vnf_price(node, kind).expect("candidate hosts kind");
        for path in inter_path_options(ctx, fst, node) {
            let cost = layer_cost(ctx, price, std::slice::from_ref(&path), &[]);
            subs.push(LayerSub {
                assignment: vec![node],
                inter_paths: vec![path],
                inner_paths: Vec::new(),
                cost,
                end_node: node,
            });
        }
    }
    subs
}

/// Generates sub-solutions for a *parallel* layer from one FST–BST pair
/// (the BST is rooted at the merger candidate).
pub(crate) fn parallel_layer_subs(
    ctx: &EngineCtx<'_>,
    layer: &Layer,
    fst: &SearchTree,
    bst: &SearchTree,
) -> Vec<LayerSub> {
    debug_assert!(layer.needs_merger());
    let merger_node = bst.root();
    let merger_kind = ctx.catalog.merger();
    let Some(merger_inst) = ctx.net.instance(merger_node, merger_kind) else {
        return Vec::new();
    };
    if merger_inst.capacity + CAP_EPS < ctx.flow.rate {
        return Vec::new();
    }

    // Step (i): allocation combinations from the BST.
    let per_slot: Vec<Vec<NodeId>> = layer
        .vnfs()
        .iter()
        .map(|&kind| slot_candidates(ctx, bst, kind))
        .collect();
    let assignments = bounded_cartesian(&per_slot, ctx.cfg.max_assignment_combos);

    let mut subs = Vec::new();
    for assignment in assignments {
        // MBBE-ST extension: additionally route the layer's inter-layer
        // multicast as one Takahashi–Matsuyama Steiner tree, maximizing
        // the eq. (9) link sharing. These candidates *augment* the
        // independent-path ones below; cheapest-first sorting and `X_d`
        // pruning then pick whichever routing wins, so MBBE-ST is never
        // worse than MBBE on a layer.
        if ctx.cfg.use_steiner_multicast {
            let tree = dagsfc_net::routing::multicast_tree(
                ctx.net,
                fst.root(),
                &assignment,
                &|l: LinkId| ctx.link_ok(l),
            );
            if let Some(mt) = tree {
                let inner_opts: Vec<Vec<Path>> = assignment
                    .iter()
                    .map(|&node| inner_path_options(ctx, bst, node))
                    .collect();
                if inner_opts.iter().all(|o| !o.is_empty()) {
                    let vnf_prices: f64 = assignment
                        .iter()
                        .zip(layer.vnfs())
                        // lint:allow(expect) — invariant: candidate hosts kind
                        .map(|(&n, &k)| ctx.net.vnf_price(n, k).expect("candidate hosts kind"))
                        .sum::<f64>()
                        + merger_inst.price;
                    let dims: Vec<usize> = inner_opts.iter().map(Vec::len).collect();
                    for_each_bounded_combo(&dims, ctx.cfg.max_path_combos, |combo| {
                        let inner_paths: Vec<Path> = combo
                            .iter()
                            .enumerate()
                            .map(|(s, &i)| inner_opts[s][i].clone())
                            .collect();
                        let cost = layer_cost(ctx, vnf_prices, &mt.paths, &inner_paths);
                        let mut full_assignment = assignment.clone();
                        full_assignment.push(merger_node);
                        subs.push(LayerSub {
                            assignment: full_assignment,
                            inter_paths: mt.paths.clone(),
                            inner_paths,
                            cost,
                            end_node: merger_node,
                        });
                    });
                }
            }
        }
        // Steps (ii)+(iii) in struct-of-arrays form: each slot keeps its
        // inter/inner path alternatives in place plus a flat index-pair
        // list replicating the old cheapest-first (inter × inner)
        // enumeration. Candidate scoring then runs as one flat sweep per
        // combination over these arrays — contiguous price reads, no
        // per-candidate hash set, and no `Path` clones until a candidate
        // is actually emitted.
        let mut slot_paths: Vec<(Vec<Path>, Vec<Path>)> = Vec::with_capacity(assignment.len());
        let mut pair_idx: Vec<Vec<(usize, usize)>> = Vec::with_capacity(assignment.len());
        let mut feasible = true;
        for &node in &assignment {
            let inters = inter_path_options(ctx, fst, node);
            let inners = inner_path_options(ctx, bst, node);
            if inters.is_empty() || inners.is_empty() {
                feasible = false;
                break;
            }
            let cap = ctx.cfg.max_paths_per_pair * ctx.cfg.max_paths_per_pair;
            let mut pairs = Vec::with_capacity((inters.len() * inners.len()).min(cap));
            'fill: for i in 0..inters.len() {
                for n in 0..inners.len() {
                    if pairs.len() >= cap {
                        break 'fill;
                    }
                    pairs.push((i, n));
                }
            }
            slot_paths.push((inters, inners));
            pair_idx.push(pairs);
        }
        if !feasible {
            continue;
        }
        let vnf_prices: f64 = assignment
            .iter()
            .zip(layer.vnfs())
            // lint:allow(expect) — invariant: candidate hosts kind
            .map(|(&n, &k)| ctx.net.vnf_price(n, k).expect("candidate hosts kind"))
            .sum::<f64>()
            + merger_inst.price;

        let dims: Vec<usize> = pair_idx.iter().map(Vec::len).collect();
        SEEN_LINKS.with(|cell| {
            let seen = &mut *cell.borrow_mut();
            for_each_bounded_combo(&dims, ctx.cfg.max_path_combos, |combo| {
                // Flat scoring sweep, in the exact accumulation order of
                // [`layer_cost`]: deduped inter links slot-by-slot, then
                // per-occurrence inner links slot-by-slot.
                seen.begin(ctx.net.link_count());
                let mut link_price = 0.0;
                for (s, &c) in combo.iter().enumerate() {
                    let (pi, _) = pair_idx[s][c];
                    for &l in slot_paths[s].0[pi].links() {
                        if seen.first(l) {
                            link_price += ctx.link_price[l.index()];
                        }
                    }
                }
                for (s, &c) in combo.iter().enumerate() {
                    let (_, ni) = pair_idx[s][c];
                    for &l in slot_paths[s].1[ni].links() {
                        link_price += ctx.link_price[l.index()];
                    }
                }
                let cost = CostBreakdown {
                    vnf: vnf_prices * ctx.flow.size,
                    link: link_price * ctx.flow.size,
                };
                let inter_paths: Vec<Path> = combo
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| slot_paths[s].0[pair_idx[s][c].0].clone())
                    .collect();
                let inner_paths: Vec<Path> = combo
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| slot_paths[s].1[pair_idx[s][c].1].clone())
                    .collect();
                let mut full_assignment = assignment.clone();
                full_assignment.push(merger_node);
                subs.push(LayerSub {
                    assignment: full_assignment,
                    inter_paths,
                    inner_paths,
                    cost,
                    end_node: merger_node,
                });
            });
        });
    }
    // Step (iv): the static feasibility filters are applied inline above
    // (capacity-vs-rate on every candidate node and path link); order
    // candidates cheapest-first for downstream X_d pruning.
    subs.sort_by(|a, b| a.cost.total().total_cmp(&b.cost.total()));
    subs
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

    #[test]
    fn bounded_cartesian_orders_and_caps() {
        let opts = vec![vec![1, 2], vec![10, 20]];
        let all = bounded_cartesian(&opts, 100);
        assert_eq!(
            all,
            vec![vec![1, 10], vec![1, 20], vec![2, 10], vec![2, 20]]
        );
        let capped = bounded_cartesian(&opts, 3);
        assert_eq!(capped.len(), 3);
        assert_eq!(capped[0], vec![1, 10]); // cheapest-first prefix
        assert!(bounded_cartesian(&[vec![1], vec![]], 10).is_empty());
        assert!(bounded_cartesian::<i32>(&[], 0).is_empty());
        // Empty dimension list with positive cap → single empty combo.
        assert_eq!(bounded_cartesian::<i32>(&[], 5), vec![Vec::<i32>::new()]);
    }

    #[test]
    fn combo_visitor_matches_bounded_cartesian() {
        // The flat-sweep scorer enumerates index combos through
        // `for_each_bounded_combo`; any divergence from the materializing
        // odometer would silently reorder candidates.
        for dims in [
            vec![2usize, 3],
            vec![1],
            vec![3, 1, 2],
            vec![2, 0, 2],
            vec![],
        ] {
            for cap in [0usize, 1, 3, 5, 100] {
                let options: Vec<Vec<usize>> = dims.iter().map(|&d| (0..d).collect()).collect();
                let expected = bounded_cartesian(&options, cap);
                let mut visited = Vec::new();
                for_each_bounded_combo(&dims, cap, |c| visited.push(c.to_vec()));
                assert_eq!(visited, expected, "dims {dims:?} cap {cap}");
            }
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
        let ctx = EngineCtx::new(&g, c, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let p01 = ctx.min_cost_path(NodeId(0), NodeId(1)).unwrap();
        let p02 = ctx.min_cost_path(NodeId(0), NodeId(2)).unwrap();
        let inter = vec![p01.clone(), p01.clone(), p02.clone()];
        let inner = vec![p01.clone(), p01];
        let cost = layer_cost(&ctx, 3.0, &inter, &inner);
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
        let again = layer_cost(&ctx, 3.0, &inter, &inner);
        assert_eq!(again.link.to_bits(), cost.link.to_bits());
    }

    #[test]
    fn singleton_candidates_cover_hosting_nodes() {
        let g = net();
        let c = VnfCatalog::new(2);
        let cfg = cfg();
        let oracle = PathOracle::new(&g);
        let ctx = EngineCtx::new(&g, c, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        let subs = singleton_layer_subs(&ctx, &layer, &fst);
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
        let ctx = EngineCtx::new(&g, c, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        assert!(fst.covered());
        let bst = backward_search(&g, NodeId(2), &layer, &c, &fst);
        assert!(bst.covered());
        let subs = parallel_layer_subs(&ctx, &layer, &fst, &bst);
        assert!(!subs.is_empty());
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
        let ctx = EngineCtx::new(&g, c, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        let bst = backward_search(&g, NodeId(2), &layer, &c, &fst);
        let subs = parallel_layer_subs(&ctx, &layer, &fst, &bst);
        // One assignment combo × one path combo.
        assert_eq!(subs.len(), 1);
        assert!((subs[0].cost.total() - 8.5).abs() < 1e-12);
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
        let ctx = EngineCtx::new(&g, c, flow, &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        assert!(singleton_layer_subs(&ctx, &layer, &fst).is_empty());
    }

    #[test]
    fn merger_capacity_gate() {
        let mut g = net();
        // Second merger instance with tiny capacity on v1.
        g.deploy_vnf(NodeId(1), VnfTypeId(2), 0.1, 0.5).unwrap();
        let c = VnfCatalog::new(2);
        let cfg = cfg();
        let oracle = PathOracle::new(&g);
        let ctx = EngineCtx::new(&g, c, Flow::unit(NodeId(0), NodeId(2)), &cfg, &oracle);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        let bst = backward_search(&g, NodeId(1), &layer, &c, &fst);
        // Merger on v1 has capacity 0.5 < rate 1.0 → no candidates.
        assert!(parallel_layer_subs(&ctx, &layer, &fst, &bst).is_empty());
    }
}
