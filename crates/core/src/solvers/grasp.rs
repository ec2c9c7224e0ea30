//! GRASP — Greedy Randomized Adaptive Search Procedure — an extension
//! metaheuristic built from the workspace's own pieces.
//!
//! Each start draws a *randomized-greedy* assignment (every slot picks
//! uniformly among the α-cheapest feasible hosts rather than strictly
//! the cheapest), routes it with min-cost paths, polishes it with the
//! [`super::localsearch`] hill climber, and the best of `starts`
//! restarts wins. GRASP brackets the design space between MINV (pure
//! greedy, α = 1 equivalent) and RANV (pure random, α = ∞), showing how
//! much of BBE/MBBE's advantage a generic metaheuristic can recover
//! without the paper's structured search.

use super::localsearch::{improve_in, LocalSearchConfig};
use super::{
    first_rule_violation, layering, oracle_min_cost_path, RuleFilter, SolveCtx, Solver, SolverStats,
};
use crate::chain::DagSfc;
use crate::embedding::Embedding;
use crate::error::{rule_infeasible_reason, SolveError};
use crate::flow::Flow;
use crate::metapath::{meta_paths, Endpoint};
use dagsfc_net::VnfTypeId;
use dagsfc_net::{NodeId, CAP_EPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// GRASP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraspConfig {
    /// Number of randomized restarts.
    pub starts: usize,
    /// Restricted-candidate-list size: each slot draws uniformly from
    /// its `alpha` cheapest feasible hosts.
    pub alpha: usize,
    /// Local-search settings applied to every start.
    pub local_search: LocalSearchConfig,
}

impl Default for GraspConfig {
    fn default() -> Self {
        GraspConfig {
            starts: 8,
            alpha: 3,
            local_search: LocalSearchConfig::default(),
        }
    }
}

/// The GRASP solver.
#[derive(Debug)]
pub struct GraspSolver {
    /// Configuration.
    pub config: GraspConfig,
    rng: Mutex<StdRng>,
}

impl GraspSolver {
    /// GRASP with a deterministic seed and default configuration.
    pub fn new(seed: u64) -> Self {
        GraspSolver {
            config: GraspConfig::default(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// GRASP with explicit restarts and candidate-list size.
    pub fn with_config(seed: u64, config: GraspConfig) -> Self {
        GraspSolver {
            config,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }
}

impl Solver for GraspSolver {
    fn name(&self) -> &'static str {
        "GRASP"
    }

    fn solve_raw(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<(Embedding, SolverStats), SolveError> {
        let net = ctx.net;
        let catalog = sfc.catalog();
        let mut rng = self
            .rng
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);

        // Pre-sort each slot's feasible hosts by rental price.
        let mut slot_candidates: Vec<Vec<NodeId>> = Vec::new();
        let mut slot_kinds: Vec<VnfTypeId> = Vec::new();
        for layer in layering::layers(sfc) {
            for slot in 0..layer.slot_count() {
                let kind = layer.slot_kind(slot, catalog);
                slot_kinds.push(kind);
                let mut hosts: Vec<NodeId> = net
                    .hosts_of(kind)
                    .iter()
                    .copied()
                    .filter(|&v| {
                        net.instance(v, kind)
                            .is_some_and(|i| i.capacity + CAP_EPS >= flow.rate)
                    })
                    .collect();
                if hosts.is_empty() {
                    return Err(SolveError::NoFeasibleEmbedding {
                        solver: "GRASP",
                        reason: format!("no capacity-feasible host for {kind}"),
                    });
                }
                hosts.sort_by(|&a, &b| {
                    let pa = net.vnf_price(a, kind).unwrap_or(f64::INFINITY);
                    let pb = net.vnf_price(b, kind).unwrap_or(f64::INFINITY);
                    pa.total_cmp(&pb).then(a.cmp(&b))
                });
                slot_candidates.push(hosts);
            }
        }

        let rate = flow.rate;
        let rule_filter = RuleFilter::new(sfc);
        let mut rule_rejected = 0usize;
        let mut rule_dead_starts = 0usize;
        let starts = self.config.starts.max(1);
        let mut best: Option<(f64, Embedding)> = None;
        let mut explored = 0usize;
        let (mut cache_hits, mut cache_misses) = (0u64, 0u64);

        'starts: for _ in 0..starts {
            // Randomized-greedy assignment over the RCL. With rules, the
            // RCL is drawn from the admissible prefix only: each slot's
            // hosts are filtered against the placements made so far, so
            // a rule conflict kills the start instead of the solve.
            let mut assignments: Vec<Vec<NodeId>> = Vec::with_capacity(sfc.depth());
            let mut placed: Vec<(VnfTypeId, NodeId)> = Vec::new();
            let mut flat = slot_candidates.iter().zip(slot_kinds.iter());
            for layer in layering::layers(sfc) {
                let mut slots = Vec::with_capacity(layer.slot_count());
                for _ in 0..layer.slot_count() {
                    // lint:allow(expect) — invariant: pre-sorted per slot
                    let (hosts, &kind) = flat.next().expect("pre-sorted per slot");
                    let node = match &rule_filter {
                        Some(rf) => {
                            let admissible: Vec<NodeId> = hosts
                                .iter()
                                .copied()
                                .filter(|&n| rf.admits(&placed, kind, n))
                                .collect();
                            rule_rejected += hosts.len() - admissible.len();
                            if admissible.is_empty() {
                                rule_dead_starts += 1;
                                continue 'starts;
                            }
                            let rcl = self.config.alpha.max(1).min(admissible.len());
                            let node = admissible[rng.gen_range(0..rcl)];
                            placed.push((kind, node));
                            node
                        }
                        None => {
                            let rcl = self.config.alpha.max(1).min(hosts.len());
                            hosts[rng.gen_range(0..rcl)]
                        }
                    };
                    slots.push(node);
                }
                assignments.push(slots);
            }
            // Min-cost routing; a disconnected draw is just skipped.
            let node_of = |ep: Endpoint| match ep {
                Endpoint::Source => flow.src,
                Endpoint::Destination => flow.dst,
                Endpoint::Slot { layer, slot } => assignments[layer][slot],
            };
            let mut paths = Vec::new();
            let mut routable = true;
            for mp in meta_paths(sfc) {
                match oracle_min_cost_path(
                    &ctx.oracle,
                    node_of(mp.from),
                    node_of(mp.to),
                    rate,
                    &mut cache_hits,
                    &mut cache_misses,
                ) {
                    Some(p) => paths.push(p),
                    None => {
                        routable = false;
                        break;
                    }
                }
            }
            if !routable {
                continue;
            }
            let Ok(embedding) = Embedding::new(sfc, assignments, paths) else {
                continue;
            };
            let Ok(pre_cost) = crate::validate::validate(net, sfc, flow, &embedding) else {
                continue;
            };
            // Polish. The hill climber is rule-blind, so when rules are
            // present a polished embedding that re-violates them is
            // discarded in favor of the rule-clean construction.
            let polished = improve_in(ctx, sfc, flow, &embedding, self.config.local_search);
            explored += 1 + polished.moves;
            cache_hits += polished.cache_hits;
            cache_misses += polished.cache_misses;
            let polish_broke_rules = sfc
                .rules()
                .is_some_and(|r| first_rule_violation(r, sfc, &polished.embedding).is_some());
            let (cost, chosen) = if polish_broke_rules {
                (pre_cost.total(), embedding)
            } else {
                (polished.after, polished.embedding)
            };
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, chosen));
            }
        }

        let Some((_, embedding)) = best else {
            if rule_dead_starts == starts {
                return Err(SolveError::NoFeasibleEmbedding {
                    solver: "GRASP",
                    reason: rule_infeasible_reason(
                        "placement rules emptied the candidate list in every start",
                    ),
                });
            }
            return Err(SolveError::NoFeasibleEmbedding {
                solver: "GRASP",
                reason: "no randomized start produced a feasible embedding".into(),
            });
        };
        let stats = SolverStats {
            explored,
            kept: 1,
            cache_hits,
            cache_misses,
            candidates_rule_rejected: rule_rejected,
            ..SolverStats::default()
        };
        Ok((embedding, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::solvers::{MbbeSolver, MinvSolver};
    use crate::validate::validate;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::Network;
    use dagsfc_net::{generator, NetGenConfig, VnfTypeId};

    fn net(seed: u64) -> Network {
        let cfg = NetGenConfig {
            nodes: 40,
            avg_degree: 5.0,
            vnf_kinds: 6,
            deploy_ratio: 0.5,
            vnf_price_fluctuation: 0.3,
            ..NetGenConfig::default()
        };
        generator::generate(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap()
    }

    fn sfc() -> DagSfc {
        DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0)]),
                Layer::new(vec![VnfTypeId(1), VnfTypeId(2)]),
            ],
            VnfCatalog::new(5),
        )
        .unwrap()
    }

    #[test]
    fn produces_valid_embeddings() {
        for seed in [1u64, 2, 3] {
            let g = net(seed);
            let flow = Flow::unit(NodeId(0), NodeId(39));
            let out = GraspSolver::new(seed).solve(&g, &sfc(), &flow).unwrap();
            let cost = validate(&g, &sfc(), &flow, &out.embedding).unwrap();
            assert!((cost.total() - out.cost.total()).abs() < 1e-9);
        }
    }

    #[test]
    fn beats_minv_on_average() {
        let mut grasp_total = 0.0;
        let mut minv_total = 0.0;
        for seed in 4u64..9 {
            let g = net(seed);
            let flow = Flow::unit(NodeId(1), NodeId(38));
            grasp_total += GraspSolver::new(seed)
                .solve(&g, &sfc(), &flow)
                .unwrap()
                .cost
                .total();
            minv_total += MinvSolver::new()
                .solve(&g, &sfc(), &flow)
                .unwrap()
                .cost
                .total();
        }
        assert!(
            grasp_total < minv_total,
            "GRASP {grasp_total} should beat MINV {minv_total}"
        );
    }

    #[test]
    fn competitive_with_mbbe() {
        // A generic metaheuristic with LS lands near the structured
        // search — within a modest factor, aggregated over seeds.
        let mut grasp_total = 0.0;
        let mut mbbe_total = 0.0;
        for seed in 10u64..14 {
            let g = net(seed);
            let flow = Flow::unit(NodeId(2), NodeId(37));
            grasp_total += GraspSolver::new(seed)
                .solve(&g, &sfc(), &flow)
                .unwrap()
                .cost
                .total();
            mbbe_total += MbbeSolver::new()
                .solve(&g, &sfc(), &flow)
                .unwrap()
                .cost
                .total();
        }
        assert!(
            grasp_total <= mbbe_total * 1.25,
            "GRASP {grasp_total} far above MBBE {mbbe_total}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let g = net(20);
        let flow = Flow::unit(NodeId(0), NodeId(39));
        let a = GraspSolver::new(5).solve(&g, &sfc(), &flow).unwrap();
        let b = GraspSolver::new(5).solve(&g, &sfc(), &flow).unwrap();
        assert_eq!(a.embedding, b.embedding);
    }

    #[test]
    fn more_starts_never_hurt() {
        let g = net(21);
        let flow = Flow::unit(NodeId(0), NodeId(39));
        let few = GraspSolver::with_config(
            7,
            GraspConfig {
                starts: 1,
                ..GraspConfig::default()
            },
        )
        .solve(&g, &sfc(), &flow)
        .unwrap();
        let many = GraspSolver::with_config(
            7,
            GraspConfig {
                starts: 12,
                ..GraspConfig::default()
            },
        )
        .solve(&g, &sfc(), &flow)
        .unwrap();
        // Same seed: the first start coincides, so the 12-start run can
        // only match or improve it.
        assert!(many.cost.total() <= few.cost.total() + 1e-9);
    }

    #[test]
    fn missing_kind_fails_cleanly() {
        let g = net(22);
        let wide = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(30)).unwrap();
        let missing = DagSfc::sequential(&[VnfTypeId(20)], VnfCatalog::new(30)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(39));
        assert!(GraspSolver::new(1).solve(&g, &wide, &flow).is_ok());
        assert!(GraspSolver::new(1).solve(&g, &missing, &flow).is_err());
    }
}
