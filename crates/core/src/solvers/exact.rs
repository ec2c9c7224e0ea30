//! Exact reference solver for small instances.
//!
//! The paper formulates DAG-SFC embedding as an integer program and
//! proves it NP-hard; it never solves the IP at evaluation scale. For
//! *testing* the heuristics we still want certified optima on small
//! instances, so this module implements branch-and-bound over
//!
//! * every feasible slot→node assignment (depth-first, pruned by the
//!   accumulated VNF cost), and
//! * every combination of the `k` cheapest loopless real-paths per
//!   meta-path (depth-first, pruned by the accumulated total cost),
//!
//! with the full multicast-aware link accounting of eqs. (8)–(10) and
//! both capacity constraint families enforced exactly.
//!
//! The optimum is exact *within the k-cheapest-path universe per
//! meta-path*; on the small dense test networks we use it with `k` large
//! enough to enumerate every loopless path, making it exact outright.
//! Runtime is exponential — guard rails reject oversized instances.

use super::{layering, RuleFilter, SolveCtx, Solver, SolverStats};
use crate::chain::DagSfc;
use crate::embedding::Embedding;
use crate::error::{rule_infeasible_reason, SolveError};
use crate::flow::Flow;
use crate::metapath::{meta_paths, Endpoint, MetaPath, MetaPathKind};
use dagsfc_net::routing::k_shortest_paths;
use dagsfc_net::{LinkId, Network, NodeId, Path, VnfTypeId, CAP_EPS};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the exact solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExactConfig {
    /// Real-path alternatives per meta-path (Yen's k).
    pub k_paths: usize,
    /// Hard cap on assignment combinations; larger instances are
    /// rejected instead of running forever.
    pub max_assignments: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            k_paths: 6,
            max_assignments: 200_000,
        }
    }
}

/// Branch-and-bound optimal embedder for small instances.
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    /// Solver configuration.
    pub config: ExactConfig,
}

impl ExactSolver {
    /// Exact solver with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact solver with a custom path universe size.
    pub fn with_k(k_paths: usize) -> Self {
        ExactSolver {
            config: ExactConfig {
                k_paths,
                ..ExactConfig::default()
            },
        }
    }
}

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "EXACT"
    }

    fn solve_raw(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<(Embedding, SolverStats), SolveError> {
        // The shared oracle serves single-source shortest-path trees; the
        // exact solver needs k-shortest *alternatives* per endpoint pair,
        // so it keeps its own private Yen memo and only reports its
        // hit/miss counts through the common stats channel.
        let net = ctx.net;
        let catalog = sfc.catalog();

        // Flatten slots and their candidate hosts.
        let mut slots: Vec<(usize, usize, VnfTypeId)> = Vec::new();
        for (l, layer) in layering::layers(sfc).iter().enumerate() {
            for s in 0..layer.slot_count() {
                slots.push((l, s, layer.slot_kind(s, catalog)));
            }
        }
        let candidates: Vec<Vec<NodeId>> = slots
            .iter()
            .map(|&(_, _, kind)| {
                net.hosts_of(kind)
                    .iter()
                    .copied()
                    .filter(|&n| {
                        net.instance(n, kind)
                            .is_some_and(|i| i.capacity + CAP_EPS >= flow.rate)
                    })
                    .collect()
            })
            .collect();
        let combos: u64 = candidates
            .iter()
            .map(|c| c.len() as u64)
            .try_fold(1u64, u64::checked_mul)
            .unwrap_or(u64::MAX);
        if combos > self.config.max_assignments {
            return Err(SolveError::Infeasible(format!(
                "instance too large for the exact solver ({combos} assignments)"
            )));
        }
        if candidates.iter().any(Vec::is_empty) {
            return Err(SolveError::NoFeasibleEmbedding {
                solver: "EXACT",
                reason: "a slot has no capacity-feasible host".into(),
            });
        }

        let mps = meta_paths(sfc);
        let rule_filter = RuleFilter::new(sfc);
        let mut search = Search {
            net,
            flow,
            cfg: &self.config,
            slots: &slots,
            candidates: &candidates,
            mps: &mps,
            rules: rule_filter.as_ref(),
            placed: Vec::with_capacity(slots.len()),
            rule_rejected: 0,
            best: None,
            first_feasible: false,
            explored: 0,
            path_cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
        };
        search.run();
        let Some((_, assignment, paths)) = search.best else {
            // The rule pruning is prefix-monotone, so this search is
            // complete under the rules. To report a *certified* cause,
            // re-run it rule-blind up to the first feasible embedding: if
            // one exists, the rules — not capacity — made the instance
            // infeasible.
            if search.rule_rejected > 0 {
                search.rules = None;
                search.first_feasible = true;
                search.run();
                if search.best.is_some() {
                    return Err(SolveError::NoFeasibleEmbedding {
                        solver: "EXACT",
                        reason: rule_infeasible_reason(
                            "placement rules exclude every feasible assignment \
                             (an unconstrained embedding exists)",
                        ),
                    });
                }
            }
            return Err(SolveError::NoFeasibleEmbedding {
                solver: "EXACT",
                reason: "no assignment admits a capacity-feasible routing".into(),
            });
        };
        // Reshape the flat assignment back into layers.
        let mut shaped: Vec<Vec<NodeId>> = layering::layers(sfc)
            .iter()
            .map(|l| Vec::with_capacity(l.slot_count()))
            .collect();
        for (&(l, _, _), &n) in slots.iter().zip(&assignment) {
            shaped[l].push(n);
        }
        let stats = SolverStats {
            explored: search.explored,
            kept: 1,
            cache_hits: search.cache_hits,
            cache_misses: search.cache_misses,
            candidates_rule_rejected: search.rule_rejected,
            ..SolverStats::default()
        };
        Ok((Embedding::new(sfc, shaped, paths)?, stats))
    }
}

/// Mutable search state of the branch and bound.
struct Search<'a> {
    net: &'a Network,
    flow: &'a Flow,
    cfg: &'a ExactConfig,
    slots: &'a [(usize, usize, VnfTypeId)],
    candidates: &'a [Vec<NodeId>],
    mps: &'a [MetaPath],
    /// Placement-rule filter, when the chain carries rules. Pruning on
    /// it in [`Search::assign`] keeps the search complete (the check is
    /// prefix-monotone), so the optimum stays certified under rules.
    rules: Option<&'a RuleFilter<'a>>,
    /// `(kind, node)` of each slot assigned so far, kept in lockstep
    /// with the DFS assignment for rule-consistency checks.
    placed: Vec<(VnfTypeId, NodeId)>,
    /// Candidates pruned by the rule filter.
    rule_rejected: usize,
    /// Best (total cost, flat assignment, paths) found so far.
    best: Option<(f64, Vec<NodeId>, Vec<Path>)>,
    /// Stop at the first feasible embedding instead of the optimum:
    /// once `best` holds one, every branch is pruned.
    first_feasible: bool,
    explored: usize,
    /// Memoized k-cheapest paths per (from, to).
    path_cache: HashMap<(NodeId, NodeId), Vec<Path>>,
    /// Yen-memo lookups answered from `path_cache`.
    cache_hits: u64,
    /// Yen-memo lookups that had to run the k-shortest-path search.
    cache_misses: u64,
}

impl Search<'_> {
    /// Runs the branch and bound from the first slot.
    fn run(&mut self) {
        let mut assignment = Vec::with_capacity(self.slots.len());
        self.assign(0, 0.0, &mut assignment, &mut HashMap::new());
    }

    /// The cost a branch must stay below to be explored: the
    /// incumbent's, or −∞ once a first-feasible search holds one.
    fn best_cost(&self) -> f64 {
        match &self.best {
            None => f64::INFINITY,
            Some(_) if self.first_feasible => f64::NEG_INFINITY,
            Some(b) => b.0,
        }
    }

    /// DFS over slot assignments with VNF-cost and capability pruning.
    fn assign(
        &mut self,
        slot: usize,
        vnf_cost: f64,
        assignment: &mut Vec<NodeId>,
        vnf_count: &mut HashMap<(NodeId, VnfTypeId), u32>,
    ) {
        if vnf_cost >= self.best_cost() {
            return; // link costs are non-negative
        }
        if slot == self.slots.len() {
            self.route(assignment.clone(), vnf_cost);
            return;
        }
        let (_, _, kind) = self.slots[slot];
        for i in 0..self.candidates[slot].len() {
            let node = self.candidates[slot][i];
            if let Some(rf) = self.rules {
                if !rf.admits(&self.placed, kind, node) {
                    self.rule_rejected += 1;
                    continue;
                }
            }
            let count = vnf_count.entry((node, kind)).or_insert(0);
            // lint:allow(expect) — invariant: candidate hosts kind
            let inst = self.net.instance(node, kind).expect("candidate hosts kind");
            // Constraint (2): cumulative instance load.
            if (*count + 1) as f64 * self.flow.rate > inst.capacity + CAP_EPS {
                continue;
            }
            *count += 1;
            assignment.push(node);
            self.placed.push((kind, node));
            let add = inst.price * self.flow.size;
            self.assign(slot + 1, vnf_cost + add, assignment, vnf_count);
            self.placed.pop();
            assignment.pop();
            // lint:allow(expect) — invariant: just inserted
            *vnf_count.get_mut(&(node, kind)).expect("just inserted") -= 1;
        }
    }

    fn endpoint(&self, assignment: &[NodeId], ep: Endpoint) -> NodeId {
        match ep {
            Endpoint::Source => self.flow.src,
            Endpoint::Destination => self.flow.dst,
            Endpoint::Slot { layer, slot } => {
                let flat = self
                    .slots
                    .iter()
                    .position(|&(l, s, _)| l == layer && s == slot)
                    // lint:allow(expect) — invariant: slot exists
                    .expect("slot exists");
                assignment[flat]
            }
        }
    }

    /// DFS over path choices for a fixed assignment, with exact
    /// multicast-aware cost and bandwidth accounting.
    fn route(&mut self, assignment: Vec<NodeId>, vnf_cost: f64) {
        self.explored += 1;
        // Path universes per meta-path.
        let mut universes: Vec<Vec<Path>> = Vec::with_capacity(self.mps.len());
        for mp in self.mps {
            let from = self.endpoint(&assignment, mp.from);
            let to = self.endpoint(&assignment, mp.to);
            let rate = self.flow.rate;
            let net = self.net;
            let k = self.cfg.k_paths;
            let paths = match self.path_cache.get(&(from, to)) {
                Some(cached) => {
                    self.cache_hits += 1;
                    cached.clone()
                }
                None => {
                    self.cache_misses += 1;
                    let fresh = k_shortest_paths(net, from, to, k, &|l: LinkId| {
                        net.link(l).capacity + CAP_EPS >= rate
                    });
                    self.path_cache.insert((from, to), fresh.clone());
                    fresh
                }
            };
            if paths.is_empty() {
                return; // unroutable assignment
            }
            universes.push(paths);
        }

        // DFS with group-dedup cost and per-link load accounting.
        struct Frame {
            chosen: Vec<Path>,
        }
        let mut frame = Frame { chosen: Vec::new() };
        let mut link_load: HashMap<LinkId, f64> = HashMap::new();
        // group → link → multiplicity within that inter-layer group
        let mut group_used: HashMap<(usize, LinkId), u32> = HashMap::new();
        self.route_dfs(
            0,
            vnf_cost,
            &assignment,
            &universes,
            &mut frame.chosen,
            &mut link_load,
            &mut group_used,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn route_dfs(
        &mut self,
        idx: usize,
        cost: f64,
        assignment: &[NodeId],
        universes: &[Vec<Path>],
        chosen: &mut Vec<Path>,
        link_load: &mut HashMap<LinkId, f64>,
        group_used: &mut HashMap<(usize, LinkId), u32>,
    ) {
        if cost >= self.best_cost() {
            return;
        }
        if idx == self.mps.len() {
            self.best = Some((cost, assignment.to_vec(), chosen.clone()));
            return;
        }
        let mp = self.mps[idx];
        for p in &universes[idx] {
            // Tentatively account this path.
            let mut added_cost = 0.0;
            let mut touched: Vec<LinkId> = Vec::new();
            let mut feasible = true;
            for &l in p.links() {
                let newly_charged = match mp.kind {
                    MetaPathKind::InterLayer => {
                        let m = group_used.entry((mp.group, l)).or_insert(0);
                        *m += 1;
                        touched.push(l);
                        *m == 1
                    }
                    MetaPathKind::InnerLayer => {
                        touched.push(l);
                        true
                    }
                };
                if newly_charged {
                    added_cost += self.net.link(l).price * self.flow.size;
                    let load = link_load.entry(l).or_insert(0.0);
                    *load += self.flow.rate;
                    if *load > self.net.link(l).capacity + CAP_EPS {
                        feasible = false;
                    }
                }
            }
            if feasible {
                chosen.push(p.clone());
                self.route_dfs(
                    idx + 1,
                    cost + added_cost,
                    assignment,
                    universes,
                    chosen,
                    link_load,
                    group_used,
                );
                chosen.pop();
            }
            // Undo the tentative accounting.
            for &l in touched.iter().rev() {
                match mp.kind {
                    MetaPathKind::InterLayer => {
                        // lint:allow(expect) — invariant: accounted
                        let m = group_used.get_mut(&(mp.group, l)).expect("accounted");
                        *m -= 1;
                        if *m == 0 {
                            // lint:allow(expect) — invariant: loaded
                            *link_load.get_mut(&l).expect("loaded") -= self.flow.rate;
                        }
                    }
                    MetaPathKind::InnerLayer => {
                        // lint:allow(expect) — invariant: loaded
                        *link_load.get_mut(&l).expect("loaded") -= self.flow.rate;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::solvers::bbe::BbeSolver;
    use crate::validate::validate;
    use crate::vnf::VnfCatalog;

    /// Small diamond network with asymmetric prices.
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(3), 1.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(2), 2.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 2.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 3.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(2), 0.5, 10.0).unwrap(); // merger
        g
    }

    fn catalog() -> VnfCatalog {
        VnfCatalog::new(2)
    }

    #[test]
    fn finds_global_optimum_balancing_vnf_and_link_cost() {
        // f0 is cheap on v2 (1.0) but v2's links are pricey; the optimum
        // must weigh both terms, exactly the paper's motivation.
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let out = ExactSolver::with_k(8).solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
        // Via v2: vnf 1 + links 2+2 = 5. Via v1: vnf 3 + links 1+1 = 5.
        // Both optimal at 5.0.
        assert!((out.cost.total() - 5.0).abs() < 1e-9, "{}", out.cost);
    }

    #[test]
    fn optimal_parallel_embedding() {
        let g = net();
        let sfc = DagSfc::new(
            vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1)])],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let out = ExactSolver::with_k(8).solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
        // Optimal: f0@v2? vnf(f0@v2)=1, f1@v1=1, merger@v3=0.5.
        // inter: v0→v2 (2), v0→v1 (1); inner: v2→v3 (2), v1→v3 (1);
        // final: trivial. total = 2.5 + 3 + 3 = 8.5.
        // Alternative f0@v1 (3): vnf 4.5, inter v0→v1 (1, shared),
        // inner v1→v3 ×2 = 2 → 1+2+4.5 = 7.5! Cheaper.
        assert!((out.cost.total() - 7.5).abs() < 1e-9, "{}", out.cost);
        // Exact exploits colocation: both parallel VNFs on v1.
        assert_eq!(out.embedding.node_of(0, 0), NodeId(1));
        assert_eq!(out.embedding.node_of(0, 1), NodeId(1));
    }

    #[test]
    fn exact_never_worse_than_bbe() {
        let g = net();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        for sfc in [
            DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(1)], catalog()).unwrap(),
            DagSfc::new(
                vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1)])],
                catalog(),
            )
            .unwrap(),
        ] {
            let exact = ExactSolver::with_k(8).solve(&g, &sfc, &flow).unwrap();
            let bbe = BbeSolver::new().solve(&g, &sfc, &flow).unwrap();
            assert!(
                exact.cost.total() <= bbe.cost.total() + 1e-9,
                "exact {} > bbe {}",
                exact.cost,
                bbe.cost
            );
        }
    }

    #[test]
    fn rejects_oversized_instances() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let solver = ExactSolver {
            config: ExactConfig {
                k_paths: 2,
                max_assignments: 1,
            },
        };
        assert!(matches!(
            solver.solve(&g, &sfc, &flow),
            Err(SolveError::Infeasible(_))
        ));
    }

    #[test]
    fn respects_link_capacity_exactly() {
        // Two inner-layer paths forced over one link of capacity 1.5
        // must be rejected (loads add); an alternative assignment wins.
        let mut g = Network::new();
        g.add_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 1.0, 1.5).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(2), 1.0, 10.0).unwrap(); // merger only on v2
        let sfc = DagSfc::new(
            vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1)])],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(2));
        // Both inner paths v1→v2 need 2.0 > 1.5 → infeasible everywhere.
        assert!(matches!(
            ExactSolver::with_k(4).solve(&g, &sfc, &flow),
            Err(SolveError::NoFeasibleEmbedding { .. })
        ));
    }

    #[test]
    fn solver_name() {
        assert_eq!(ExactSolver::new().name(), "EXACT");
    }
}
