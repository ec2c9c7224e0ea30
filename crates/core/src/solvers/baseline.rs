//! The paper's benchmark algorithms (§5.1): RANV and MINV.
//!
//! Both follow the same two-phase shape — assign every VNF of the chain
//! to a node with enough processing capability, then implement all
//! meta-paths with minimum-cost (Dijkstra) paths on the residual
//! network. They differ only in the node choice: RANV picks uniformly at
//! random among feasible hosts, MINV picks the cheapest feasible host.
//! Neither considers link proximity when assigning, which is exactly the
//! weakness BBE/MBBE exploit.

use super::{layering, RuleFilter, SolveCtx, Solver, SolverStats};
use crate::chain::DagSfc;
use crate::embedding::Embedding;
use crate::error::rule_infeasible_reason;
use crate::error::SolveError;
use crate::flow::Flow;
use crate::metapath::{meta_paths, Endpoint, MetaPathKind};
use dagsfc_net::{LinkId, NodeId, Path, VnfTypeId, CAP_EPS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Mutex;

/// A host of a slot's kind with room for the flow.
#[derive(Debug, Clone, Copy)]
struct Host {
    /// Rental price of the host's instance.
    price: f64,
    node: NodeId,
    /// The instance's capability left after this solve's reservations.
    left: f64,
}

/// Node-selection policy of a two-phase baseline.
trait PickNode {
    /// One of `feasible` (non-empty, in host order).
    fn pick(&self, feasible: &[Host]) -> Host;
}

/// RANV: random feasible node per VNF + min-cost paths.
#[derive(Debug)]
pub struct RanvSolver {
    rng: Mutex<StdRng>,
}

impl RanvSolver {
    /// A RANV instance with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RanvSolver {
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }
}

impl PickNode for RanvSolver {
    fn pick(&self, feasible: &[Host]) -> Host {
        *feasible
            .choose(
                &mut *self
                    .rng
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            )
            // lint:allow(expect) — invariant: feasible set checked non-empty
            .expect("feasible set checked non-empty")
    }
}

impl Solver for RanvSolver {
    fn name(&self) -> &'static str {
        "RANV"
    }

    fn solve_raw(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<(Embedding, SolverStats), SolveError> {
        assign_then_route(ctx, sfc, flow, self, "RANV")
    }
}

/// MINV: cheapest feasible node per VNF + min-cost paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinvSolver;

impl MinvSolver {
    /// A MINV instance.
    pub fn new() -> Self {
        MinvSolver
    }
}

impl PickNode for MinvSolver {
    /// The least (price, node id).
    fn pick(&self, feasible: &[Host]) -> Host {
        *feasible
            .iter()
            .min_by(|a, b| a.price.total_cmp(&b.price).then(a.node.cmp(&b.node)))
            // lint:allow(expect) — invariant: feasible set checked non-empty
            .expect("feasible set checked non-empty")
    }
}

impl Solver for MinvSolver {
    fn name(&self) -> &'static str {
        "MINV"
    }

    fn solve_raw(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<(Embedding, SolverStats), SolveError> {
        assign_then_route(ctx, sfc, flow, self, "MINV")
    }
}

/// Shared two-phase skeleton: assignment pass, then routing pass with
/// residual-capacity tracking and multicast-aware reservation (a link
/// already reserved for a layer's inter-layer multicast group carries
/// the extra branches for free).
fn assign_then_route(
    ctx: &SolveCtx<'_>,
    sfc: &DagSfc,
    flow: &Flow,
    pick: &dyn PickNode,
    solver: &'static str,
) -> Result<(Embedding, SolverStats), SolveError> {
    let net = ctx.net;
    let catalog = sfc.catalog();
    // Routing filters on this solve's residuals through an oracle
    // session, which holds the solve's link reservations. It reads the
    // oracle's class trees while the overlay marks nothing down and no
    // reservation has left a link below the rate; after that, one
    // target-bounded search per meta-path.
    let mut session = ctx.oracle.session(flow.rate);
    let mut explored = 0usize;

    // Phase 1: assign every slot (parallel VNFs and mergers). The rule
    // filter is greedy-consistent: each pick must stay compatible with
    // the slots placed before it, so a rule conflict surfaces the
    // moment (not after) the candidate set empties.
    let rule_filter = RuleFilter::new(sfc);
    let mut rule_rejected = 0usize;
    let mut placed: Vec<(VnfTypeId, NodeId)> = Vec::new();
    // Capability left on each instance this solve reserved; every other
    // instance has its full capability.
    let mut taken: Vec<((NodeId, VnfTypeId), f64)> = Vec::new();
    // One slot's hosts with room for the flow, reused across slots.
    let mut feasible: Vec<Host> = Vec::new();
    let mut assignments: Vec<Vec<NodeId>> = Vec::with_capacity(sfc.depth());
    for layer in layering::layers(sfc) {
        let mut slots = Vec::with_capacity(layer.slot_count());
        for slot in 0..layer.slot_count() {
            let kind = layer.slot_kind(slot, catalog);
            let reused = taken.iter().any(|&((_, k), _)| k == kind);
            feasible.clear();
            for &node in net.hosts_of(kind) {
                let Some(instance) = net.instance(node, kind) else {
                    continue;
                };
                let left = if reused {
                    taken
                        .iter()
                        .find(|&&(key, _)| key == (node, kind))
                        .map_or(instance.capacity, |&(_, left)| left)
                } else {
                    instance.capacity
                };
                if left + CAP_EPS >= flow.rate {
                    feasible.push(Host {
                        price: instance.price,
                        node,
                        left,
                    });
                }
            }
            explored += feasible.len();
            if feasible.is_empty() {
                return Err(SolveError::NoFeasibleEmbedding {
                    solver,
                    reason: format!("no node with residual capability for {kind}"),
                });
            }
            if let Some(rf) = &rule_filter {
                let before = feasible.len();
                feasible.retain(|h| rf.admits(&placed, kind, h.node));
                rule_rejected += before - feasible.len();
                if feasible.is_empty() {
                    return Err(SolveError::NoFeasibleEmbedding {
                        solver,
                        reason: rule_infeasible_reason(&format!(
                            "placement rules leave no admissible host for {kind}"
                        )),
                    });
                }
            }
            let host = pick.pick(&feasible);
            let left = host.left - flow.rate;
            match taken.iter_mut().find(|(key, _)| *key == (host.node, kind)) {
                Some((_, entry)) => *entry = left,
                None => taken.push(((host.node, kind), left)),
            }
            if rule_filter.is_some() {
                placed.push((kind, host.node));
            }
            slots.push(host.node);
        }
        assignments.push(slots);
    }

    // Phase 2: minimum-cost paths per meta-path, honoring residual
    // bandwidth and per-layer multicast sharing. A group's inter-layer
    // meta-paths are contiguous, so only the current group's links are
    // kept.
    let metas = meta_paths(sfc);
    let mut group = None;
    let mut group_links: Vec<LinkId> = Vec::new();
    let mut paths: Vec<Path> = Vec::with_capacity(metas.len());
    let endpoint = |ep| match ep {
        Endpoint::Source => flow.src,
        Endpoint::Destination => flow.dst,
        Endpoint::Slot { layer, slot } => assignments[layer][slot],
    };
    for mp in &metas {
        let from = endpoint(mp.from);
        let to = endpoint(mp.to);
        let path = match mp.kind {
            MetaPathKind::InterLayer => {
                if group != Some(mp.group) {
                    group = Some(mp.group);
                    group_links.clear();
                }
                // The group's already reserved links stay admitted.
                let path = session
                    .residual_path(from, to, &|l: LinkId| group_links.contains(&l))
                    .ok_or_else(|| SolveError::NoFeasibleEmbedding {
                        solver,
                        reason: format!("no bandwidth-feasible path {from} → {to}"),
                    })?;
                for &l in path.links() {
                    if !group_links.contains(&l) {
                        group_links.push(l);
                        session
                            .reserve_link(l)
                            .map_err(|_| SolveError::NoFeasibleEmbedding {
                                solver,
                                reason: format!("link {l} saturated while reserving"),
                            })?;
                    }
                }
                path
            }
            MetaPathKind::InnerLayer => {
                let path = session.residual_path(from, to, &|_| false).ok_or_else(|| {
                    SolveError::NoFeasibleEmbedding {
                        solver,
                        reason: format!("no bandwidth-feasible path {from} → {to}"),
                    }
                })?;
                session
                    .reserve_path(&path)
                    .map_err(|_| SolveError::NoFeasibleEmbedding {
                        solver,
                        reason: "inner-layer path saturated while reserving".into(),
                    })?;
                path
            }
        };
        paths.push(path);
    }

    let stats = SolverStats {
        explored,
        kept: 1,
        // Tree hits, and tree builds plus residual searches. The solver
        // battery's work and cache-traffic digests leave both out for
        // MINV/RANV: they count oracle traffic, not search.
        cache_hits: session.hits(),
        cache_misses: session.misses(),
        candidates_rule_rejected: rule_rejected,
        ..SolverStats::default()
    };
    Ok((Embedding::new(sfc, assignments, paths)?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::solvers::MbbeSolver;
    use crate::validate::validate;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::Network;
    use std::collections::HashSet;

    /// v0..v4 path + chord; f0@{v1:1.0, v2:5.0}, f1@{v3}, merger@{v3}.
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(5);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 1.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 1.0, 10.0).unwrap();
        g.add_link(NodeId(3), NodeId(4), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(3), 0.5, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(0), 5.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(1), 2.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(2), 1.0, 10.0).unwrap();
        g
    }

    fn catalog() -> VnfCatalog {
        VnfCatalog::new(2)
    }

    #[test]
    fn minv_picks_cheapest_host() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(4));
        let out = MinvSolver::new().solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
        assert_eq!(out.embedding.node_of(0, 0), NodeId(1)); // price 1.0 < 5.0
                                                            // cost: f0 1.0 + links v0-v1 (1) + v1-v3-v4 (0.5+1) = 3.5
        assert!((out.cost.total() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn ranv_is_deterministic_under_seed_and_valid() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(1)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(4));
        let a = RanvSolver::new(11).solve(&g, &sfc, &flow).unwrap();
        let b = RanvSolver::new(11).solve(&g, &sfc, &flow).unwrap();
        assert_eq!(a.embedding, b.embedding);
        validate(&g, &sfc, &flow, &a.embedding).unwrap();
    }

    #[test]
    fn ranv_varies_across_seeds() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(4));
        let picks: HashSet<NodeId> = (0..32)
            .map(|s| {
                RanvSolver::new(s)
                    .solve(&g, &sfc, &flow)
                    .unwrap()
                    .embedding
                    .node_of(0, 0)
            })
            .collect();
        assert_eq!(picks.len(), 2, "both hosts should appear across seeds");
    }

    #[test]
    fn parallel_layer_handled_with_merger() {
        let g = net();
        let sfc = DagSfc::new(
            vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1)])],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(4));
        let out = MinvSolver::new().solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
        assert_eq!(out.embedding.assignments()[0].len(), 3);
        assert_eq!(out.embedding.assignments()[0][2], NodeId(3)); // merger host
    }

    #[test]
    fn fails_when_capacity_exhausted() {
        let mut g = Network::new();
        g.add_nodes(2);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(0), VnfTypeId(0), 1.0, 1.5).unwrap();
        // Chain uses f0 twice: 2 × rate 1.0 > capability 1.5.
        let sfc = DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(1));
        assert!(matches!(
            MinvSolver::new().solve(&g, &sfc, &flow),
            Err(SolveError::NoFeasibleEmbedding { .. })
        ));
    }

    #[test]
    fn fails_when_links_saturated() {
        let mut g = Network::new();
        g.add_nodes(2);
        g.add_link(NodeId(0), NodeId(1), 1.0, 0.5).unwrap(); // tiny bandwidth
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(1));
        assert!(matches!(
            MinvSolver::new().solve(&g, &sfc, &flow),
            Err(SolveError::NoFeasibleEmbedding { .. })
        ));
    }

    /// At capacity 10 no reservation leaves a link below rate 1, so a
    /// MINV solve after an MBBE solve on one context reads MBBE's trees
    /// and neither builds a tree nor runs a search.
    #[test]
    fn minv_after_mbbe_reads_cached_trees() {
        let g = net();
        let sfc =
            DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(1), VnfTypeId(0)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(4));
        let ctx = SolveCtx::new(&g);
        MbbeSolver::new().solve_in(&ctx, &sfc, &flow).unwrap();
        let before = ctx.oracle.stats();
        let out = MinvSolver::new().solve_in(&ctx, &sfc, &flow).unwrap();
        let after = ctx.oracle.stats();
        assert_eq!((out.stats.cache_hits, out.stats.cache_misses), (4, 0));
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.hits, before.hits + 4);
        let fresh = MinvSolver::new().solve(&g, &sfc, &flow).unwrap();
        assert_eq!(out.embedding, fresh.embedding);
    }

    /// With the 1-3 chord at capacity 1.5, reserving it for the 1 → 3
    /// meta-path leaves 0.5 < rate 1: the two later meta-paths search
    /// the residuals (though MBBE left trees from both sources) and
    /// route around the chord. The pinned embedding is the one a
    /// residual search for every meta-path gives.
    #[test]
    fn reservation_below_rate_falls_back_to_search() {
        let mut g = Network::new();
        g.add_nodes(5);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 1.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 1.0, 10.0).unwrap();
        g.add_link(NodeId(3), NodeId(4), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(3), 0.5, 1.5).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(0), 5.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(1), 2.0, 10.0).unwrap();
        let sfc =
            DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(1), VnfTypeId(0)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(4));
        let ctx = SolveCtx::new(&g);
        MbbeSolver::new().solve_in(&ctx, &sfc, &flow).unwrap();
        let out = MinvSolver::new().solve_in(&ctx, &sfc, &flow).unwrap();
        assert_eq!((out.stats.cache_hits, out.stats.cache_misses), (2, 2));
        let links = |p: &Path| p.links().iter().map(|l| l.0).collect::<Vec<_>>();
        let paths: Vec<Vec<u32>> = out.embedding.paths().iter().map(links).collect();
        assert_eq!(paths, [vec![0], vec![4], vec![2, 1], vec![1, 2, 3]]);
        let hosts = out.embedding.assignments();
        assert_eq!(hosts, [[NodeId(1)], [NodeId(3)], [NodeId(1)]]);
        assert_eq!(out.cost.total().to_bits(), 10.5f64.to_bits());
    }

    #[test]
    fn solver_names() {
        assert_eq!(RanvSolver::new(0).name(), "RANV");
        assert_eq!(MinvSolver::new().name(), "MINV");
    }
}
