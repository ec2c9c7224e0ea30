//! Local-search post-optimization — an extension beyond the paper.
//!
//! Any solver's embedding can be polished by hill climbing over slot
//! relocations: for each slot (parallel VNF or merger), try every
//! alternative capacity-feasible host, re-route all meta-paths touching
//! the slot with minimum-cost paths, and keep the move if the *total*
//! objective improves. Repeats until a fixpoint (or the round limit).
//!
//! Used two ways:
//! * as a quality probe — how far does a heuristic land from its own
//!   local optimum? (MBBE is typically already at or near one; RANV
//!   improves dramatically);
//! * as a wrapper solver (`ImprovedSolver`) that runs any inner solver
//!   and then polishes its result.

use super::{layering, oracle_min_cost_path, RuleFilter, SolveCtx, SolveOutcome, Solver};
use crate::chain::DagSfc;
use crate::embedding::Embedding;
use crate::error::SolveError;
use crate::flow::Flow;
use crate::metapath::{meta_paths, Endpoint, MetaPathKind};
use dagsfc_net::{Network, NodeId, Path, VnfTypeId, CAP_EPS};
use std::time::Instant;

/// Configuration of the local search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalSearchConfig {
    /// Maximum improvement rounds (each round scans every slot).
    pub max_rounds: usize,
    /// Minimum cost improvement to accept a move (guards float noise).
    pub min_gain: f64,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            max_rounds: 8,
            min_gain: 1e-9,
        }
    }
}

/// Outcome of an improvement pass.
#[derive(Debug, Clone)]
pub struct Improvement {
    /// The improved embedding (may equal the input).
    pub embedding: Embedding,
    /// Objective before.
    pub before: f64,
    /// Objective after.
    pub after: f64,
    /// Accepted relocation moves.
    pub moves: usize,
    /// Shortest-path-tree cache hits during rerouting.
    pub cache_hits: u64,
    /// Shortest-path-tree cache misses during rerouting.
    pub cache_misses: u64,
}

impl Improvement {
    /// Relative improvement in (0..1].
    pub fn gain(&self) -> f64 {
        if self.before == 0.0 {
            0.0
        } else {
            1.0 - self.after / self.before
        }
    }
}

/// Objective value of `emb`, or `+∞` when the embedding references an
/// undeployed instance — an infinite cost is never an improvement, so
/// the hill-climber discards such candidates without aborting.
fn total_or_inf(emb: &Embedding, net: &Network, sfc: &DagSfc, flow: &Flow) -> f64 {
    emb.try_cost(net, sfc, flow)
        .map(|c| c.total())
        .unwrap_or(f64::INFINITY)
}

/// Rebuilds every real-path of an assignment with min-cost routing
/// (multicast-unaware during routing; the returned embedding is scored
/// with the full multicast-aware accounting).
fn reroute(
    ctx: &SolveCtx<'_>,
    sfc: &DagSfc,
    flow: &Flow,
    assignments: &[Vec<NodeId>],
    hits: &mut u64,
    misses: &mut u64,
) -> Option<Embedding> {
    let rate = flow.rate;
    let node_of = |ep: Endpoint| match ep {
        Endpoint::Source => flow.src,
        Endpoint::Destination => flow.dst,
        Endpoint::Slot { layer, slot } => assignments[layer][slot],
    };
    let mut paths = Vec::new();
    for mp in meta_paths(sfc) {
        let (from, to) = (node_of(mp.from), node_of(mp.to));
        let path: Path = oracle_min_cost_path(&ctx.oracle, from, to, rate, hits, misses)?;
        debug_assert!(matches!(
            mp.kind,
            MetaPathKind::InterLayer | MetaPathKind::InnerLayer
        ));
        paths.push(path);
    }
    Embedding::new(sfc, assignments.to_vec(), paths).ok()
}

/// Hill-climbs slot relocations starting from `emb`. The result is
/// always validated; an invalid candidate move is simply not taken.
///
/// Convenience wrapper over [`improve_in`] that builds a fresh
/// [`SolveCtx`] (and thus a cold path-oracle) for this one call.
pub fn improve(
    net: &Network,
    sfc: &DagSfc,
    flow: &Flow,
    emb: &Embedding,
    config: LocalSearchConfig,
) -> Improvement {
    improve_in(&SolveCtx::new(net), sfc, flow, emb, config)
}

/// [`improve`] against a caller-provided context, sharing its
/// path-oracle with whatever solver produced `emb`.
pub fn improve_in(
    ctx: &SolveCtx<'_>,
    sfc: &DagSfc,
    flow: &Flow,
    emb: &Embedding,
    config: LocalSearchConfig,
) -> Improvement {
    let net = ctx.net;
    let catalog = *sfc.catalog();
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    let before = total_or_inf(emb, net, sfc, flow);
    let mut assignments: Vec<Vec<NodeId>> = emb.assignments().to_vec();
    // Re-route the starting point too, so the baseline is consistent
    // with the move evaluator; keep the original if rerouting fails or
    // is worse.
    let mut current = match reroute(
        ctx,
        sfc,
        flow,
        &assignments,
        &mut cache_hits,
        &mut cache_misses,
    ) {
        Some(e)
            if crate::validate::validate(net, sfc, flow, &e).is_ok()
                && total_or_inf(&e, net, sfc, flow) <= before =>
        {
            e
        }
        _ => emb.clone(),
    };
    let mut current_cost = total_or_inf(&current, net, sfc, flow);
    let mut moves = 0usize;

    let rule_filter = RuleFilter::new(sfc);
    for _ in 0..config.max_rounds {
        let mut improved = false;
        for l in 0..sfc.depth() {
            let layer = layering::layer(sfc, l);
            for slot in 0..layer.slot_count() {
                let kind = layer.slot_kind(slot, &catalog);
                let original = assignments[l][slot];
                // Rule-constrained moves: with every *other* slot fixed,
                // `admits` against the rest of the assignment is exactly
                // the complete-assignment consistency condition for the
                // relocated slot — so the climber never walks a
                // rule-clean embedding into a violation.
                let mut others: Vec<(VnfTypeId, NodeId)> = Vec::new();
                if rule_filter.is_some() {
                    for (ol, row) in assignments.iter().enumerate().take(sfc.depth()) {
                        let olayer = layering::layer(sfc, ol);
                        for (os, &node) in row.iter().enumerate().take(olayer.slot_count()) {
                            if (ol, os) != (l, slot) {
                                others.push((olayer.slot_kind(os, &catalog), node));
                            }
                        }
                    }
                }
                let mut best: Option<(f64, NodeId, Embedding)> = None;
                for &candidate in net.hosts_of(kind) {
                    if candidate == original {
                        continue;
                    }
                    if !net
                        .instance(candidate, kind)
                        .is_some_and(|i| i.capacity + CAP_EPS >= flow.rate)
                    {
                        continue;
                    }
                    if let Some(rf) = &rule_filter {
                        if !rf.admits(&others, kind, candidate) {
                            continue;
                        }
                    }
                    assignments[l][slot] = candidate;
                    if let Some(cand) = reroute(
                        ctx,
                        sfc,
                        flow,
                        &assignments,
                        &mut cache_hits,
                        &mut cache_misses,
                    ) {
                        // A candidate whose assignment references a
                        // non-deployed instance is infeasible, not a
                        // modelling bug — skip it instead of panicking.
                        let Ok(cost) = cand.try_cost(net, sfc, flow).map(|c| c.total()) else {
                            continue;
                        };
                        if cost + config.min_gain < current_cost
                            && best.as_ref().is_none_or(|(b, _, _)| cost < *b)
                            && crate::validate::validate(net, sfc, flow, &cand).is_ok()
                        {
                            best = Some((cost, candidate, cand));
                        }
                    }
                }
                match best {
                    Some((cost, node, cand)) => {
                        assignments[l][slot] = node;
                        current = cand;
                        current_cost = cost;
                        moves += 1;
                        improved = true;
                    }
                    None => assignments[l][slot] = original,
                }
            }
        }
        if !improved {
            break;
        }
    }

    Improvement {
        before,
        after: current_cost.min(before),
        embedding: if current_cost <= before {
            current
        } else {
            emb.clone()
        },
        moves,
        cache_hits,
        cache_misses,
    }
}

/// A wrapper solver: run `inner`, then polish with local search.
pub struct ImprovedSolver<S> {
    /// The wrapped solver.
    pub inner: S,
    /// Local-search configuration.
    pub config: LocalSearchConfig,
}

impl<S: Solver> ImprovedSolver<S> {
    /// Wraps `inner` with the default local-search configuration.
    pub fn new(inner: S) -> Self {
        ImprovedSolver {
            inner,
            config: LocalSearchConfig::default(),
        }
    }
}

impl<S: Solver> Solver for ImprovedSolver<S> {
    fn name(&self) -> &'static str {
        "LS"
    }

    fn solve_raw(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<SolveOutcome, SolveError> {
        let start = Instant::now();
        let base = self.inner.solve_in(ctx, sfc, flow)?;
        let improved = improve_in(ctx, sfc, flow, &base.embedding, self.config);
        let cost = improved.embedding.try_cost(ctx.net, sfc, flow)?;
        let mut stats = base.stats.clone();
        stats.explored += improved.moves;
        stats.cache_hits += improved.cache_hits;
        stats.cache_misses += improved.cache_misses;
        stats.elapsed = start.elapsed();
        Ok(SolveOutcome {
            embedding: improved.embedding,
            cost,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{MbbeSolver, MinvSolver, RanvSolver};
    use crate::validate::validate;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::{generator, NetGenConfig, VnfTypeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
                crate::chain::Layer::new(vec![VnfTypeId(0)]),
                crate::chain::Layer::new(vec![VnfTypeId(1), VnfTypeId(2)]),
            ],
            VnfCatalog::new(5),
        )
        .unwrap()
    }

    #[test]
    fn never_worsens_and_stays_valid() {
        for seed in [1u64, 2, 3, 4] {
            let g = net(seed);
            let flow = Flow::unit(NodeId(0), NodeId(39));
            for out in [
                MbbeSolver::new().solve(&g, &sfc(), &flow).unwrap(),
                MinvSolver::new().solve(&g, &sfc(), &flow).unwrap(),
                RanvSolver::new(seed).solve(&g, &sfc(), &flow).unwrap(),
            ] {
                let imp = improve(
                    &g,
                    &sfc(),
                    &flow,
                    &out.embedding,
                    LocalSearchConfig::default(),
                );
                assert!(
                    imp.after <= imp.before + 1e-9,
                    "seed {seed}: worsened {} → {}",
                    imp.before,
                    imp.after
                );
                validate(&g, &sfc(), &flow, &imp.embedding).unwrap();
                let reported = imp.embedding.try_cost(&g, &sfc(), &flow).unwrap().total();
                assert!((reported - imp.after).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn lifts_ranv_substantially() {
        // RANV places VNFs blindly; local search must claw back a big
        // chunk of the gap to MBBE, aggregated over seeds.
        let mut ranv_total = 0.0;
        let mut improved_total = 0.0;
        let mut mbbe_total = 0.0;
        for seed in 5u64..10 {
            let g = net(seed);
            let flow = Flow::unit(NodeId(1), NodeId(38));
            let ranv = RanvSolver::new(seed).solve(&g, &sfc(), &flow).unwrap();
            let imp = improve(
                &g,
                &sfc(),
                &flow,
                &ranv.embedding,
                LocalSearchConfig::default(),
            );
            let mbbe = MbbeSolver::new().solve(&g, &sfc(), &flow).unwrap();
            ranv_total += imp.before;
            improved_total += imp.after;
            mbbe_total += mbbe.cost.total();
        }
        assert!(
            improved_total < ranv_total * 0.9,
            "LS should cut RANV by >10%: {ranv_total} → {improved_total}"
        );
        // And land in MBBE's neighbourhood.
        assert!(
            improved_total <= mbbe_total * 1.3,
            "LS(RANV) {improved_total} far above MBBE {mbbe_total}"
        );
    }

    #[test]
    fn mbbe_is_near_its_local_optimum() {
        let mut gains = 0.0;
        for seed in 11u64..15 {
            let g = net(seed);
            let flow = Flow::unit(NodeId(2), NodeId(37));
            let mbbe = MbbeSolver::new().solve(&g, &sfc(), &flow).unwrap();
            let imp = improve(
                &g,
                &sfc(),
                &flow,
                &mbbe.embedding,
                LocalSearchConfig::default(),
            );
            gains += imp.gain();
        }
        assert!(
            gains / 4.0 < 0.08,
            "MBBE should be near-locally-optimal; mean LS gain {:.1}%",
            gains / 4.0 * 100.0
        );
    }

    #[test]
    fn wrapper_solver_works() {
        let g = net(20);
        let flow = Flow::unit(NodeId(0), NodeId(39));
        let wrapped = ImprovedSolver::new(RanvSolver::new(7));
        assert_eq!(wrapped.name(), "LS");
        let out = wrapped.solve(&g, &sfc(), &flow).unwrap();
        validate(&g, &sfc(), &flow, &out.embedding).unwrap();
        let plain = RanvSolver::new(7).solve(&g, &sfc(), &flow).unwrap();
        assert!(out.cost.total() <= plain.cost.total() + 1e-9);
    }

    #[test]
    fn zero_rounds_is_identity_cost() {
        let g = net(30);
        let flow = Flow::unit(NodeId(0), NodeId(39));
        let out = MinvSolver::new().solve(&g, &sfc(), &flow).unwrap();
        let imp = improve(
            &g,
            &sfc(),
            &flow,
            &out.embedding,
            LocalSearchConfig {
                max_rounds: 0,
                min_gain: 1e-9,
            },
        );
        // With zero rounds only the initial reroute may help; never hurt.
        assert!(imp.after <= imp.before + 1e-9);
        assert_eq!(imp.moves, 0);
    }
}
