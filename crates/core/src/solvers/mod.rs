//! Embedding solvers: BBE, MBBE, the RANV/MINV baselines, and an exact
//! branch-and-bound reference.
//!
//! All solvers implement [`Solver`]: given an immutable network, a
//! DAG-SFC, and a flow, their search returns a complete [`Embedding`]
//! (with its search statistics) or a typed failure, and
//! [`Solver::solve_in`] accounts that embedding once and gates it.
//! Solvers never mutate the network; feasibility is checked against the
//! declared capacities and every returned embedding passes
//! [`crate::validate::validate`].

pub mod baseline;
pub mod bbe;
pub mod exact;
pub mod grasp;
pub mod instrument;
pub mod layering;
pub mod localsearch;

pub use baseline::{MinvSolver, RanvSolver};
pub use bbe::{BbeConfig, BbeSolver, DelayConstraint, MbbeSolver, MbbeStSolver};
pub use exact::ExactSolver;
pub use grasp::{GraspConfig, GraspSolver};
pub use instrument::{Counters, Instrument, NoInstrument};
pub use layering::verify_admissible;
pub use localsearch::{improve, ImprovedSolver, Improvement, LocalSearchConfig};

use crate::chain::DagSfc;
use crate::cost::CostBreakdown;
use crate::delay::DelayModel;
use crate::embedding::Embedding;
use crate::error::{deadline_infeasible_reason, rule_infeasible_reason, SolveError};
use crate::flow::{Flow, PlacementRules};
use dagsfc_net::Network;
use dagsfc_net::{LinkId, NodeId, Path, PathOracle, VnfTypeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Search statistics reported by every solver.
///
/// `explored`/`kept`/`elapsed` are reported by every solver; the finer
/// counters are populated where they apply (FST/BST sizes only by the
/// BBE family, cache counters by every solver that routes through the
/// shared [`PathOracle`] or a private path memo) and stay zero
/// elsewhere.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverStats {
    /// Candidate (sub-)solutions examined during the search.
    pub explored: usize,
    /// Candidates retained in the final decision set (e.g. sub-solution
    /// tree size for BBE/MBBE).
    pub kept: usize,
    /// Wall-clock time spent in `solve`.
    pub elapsed: Duration,
    /// Search-tree nodes expanded (BBE family: sub-solutions extended
    /// layer by layer; exact: branch-and-bound nodes).
    pub nodes_expanded: usize,
    /// Total forward-search-tree placements examined across layers.
    pub fst_nodes: usize,
    /// Total backward-search-tree placements examined across layers.
    pub bst_nodes: usize,
    /// Candidates produced before any truncation.
    pub candidates_generated: usize,
    /// Candidates discarded by `x_d`/level-width truncation; counted at
    /// every truncation point, so one candidate generated then dropped
    /// twice counts twice here.
    pub candidates_pruned: usize,
    /// Candidates discarded because their modeled end-to-end delay (or a
    /// per-layer lower bound on it) exceeded the delay budget. Rejections
    /// here are *deadline* failures, not capacity failures — serve-side
    /// statistics report the two separately.
    pub candidates_delay_rejected: usize,
    /// Candidates discarded during generation because they would break a
    /// placement rule (affinity / anti-affinity pair). Populated by the
    /// rule-aware searches (MINV/RANV, GRASP, EXACT); zero for solvers
    /// that rely on the central [`enforce_placement_rules`] gate alone.
    pub candidates_rule_rejected: usize,
    /// BBE-family candidates dropped from the search because their
    /// sub-solution lineage already overloads a link or VNF instance of
    /// the residual. Such a lineage can never validate, so these are
    /// search work saved, not accepted embeddings lost; under a delay
    /// budget a dropped lineage no longer makes a request a deadline
    /// rejection.
    pub candidates_overloaded: usize,
    /// BBE-family LARAC repairs run: delay-bounded final paths searched
    /// for leaves whose min-cost final path blew the delay budget. A
    /// leaf whose least substrate delay to the destination already
    /// misses its slack runs none.
    pub delay_repairs: usize,
    /// Shortest-path queries answered from a cache.
    pub cache_hits: u64,
    /// Shortest-path queries that ran a fresh search.
    pub cache_misses: u64,
    /// Wall-clock time per SFC layer (BBE family only; empty elsewhere).
    pub layer_wall: Vec<Duration>,
}

impl SolverStats {
    /// Fraction of path queries served from a cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Per-instance solve context shared by every run of every solver.
///
/// Owns the [`PathOracle`] so repeated solves on the same network reuse
/// each other's shortest-path trees. The context is `Sync`: the sim
/// runner builds one per instance and shares it across worker threads.
pub struct SolveCtx<'n> {
    /// The substrate network being embedded into.
    pub net: &'n Network,
    /// Memoized shortest-path trees over static link capacities.
    pub oracle: PathOracle<'n>,
    /// Whether [`Solver::solve_in`] re-validates every produced
    /// embedding against the model constraints and cross-checks the
    /// reported cost before returning it (the built-in audit gate).
    /// Defaults to on under `debug_assertions` — so every test run
    /// audits every solve — and off in release builds, where callers
    /// opt in via [`SolveCtx::with_audit`].
    pub audit: bool,
    /// Lazily-built canonical delay model for `net` (see
    /// [`DelayModel::for_network`]); shared by the delay gate and any
    /// solver that prunes on the flow's delay budget.
    canonical_delay: OnceLock<DelayModel>,
}

impl<'n> SolveCtx<'n> {
    /// A fresh context (and oracle) over `net`.
    pub fn new(net: &'n Network) -> Self {
        SolveCtx {
            net,
            oracle: PathOracle::new(net),
            audit: cfg!(debug_assertions),
            canonical_delay: OnceLock::new(),
        }
    }

    /// Same context with the audit gate forced on or off.
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// The canonical substrate delay model (pure link-propagation), built
    /// on first use and shared by every solve through this context.
    pub fn delay_model(&self) -> &DelayModel {
        self.canonical_delay
            .get_or_init(|| DelayModel::for_network(self.net))
    }
}

/// Slack applied by the delay gate so float accumulation order cannot
/// flip a boundary decision.
pub const DELAY_GATE_EPS: f64 = 1e-9;

/// The central delay gate run by [`Solver::solve_in`] whenever the flow
/// carries a [`delay budget`](Flow::delay_budget_us): re-derives the
/// embedding's end-to-end delay under the canonical substrate model and
/// rejects it as *deadline infeasible* (a [`SolveError`] whose reason
/// carries [`crate::error::DEADLINE_INFEASIBLE_PREFIX`]) when it blows
/// the budget. Running after `solve_raw` makes every solver — including
/// the baselines and the exact reference, which do not search
/// delay-aware — respect the budget rather than silently returning a
/// late embedding.
pub fn enforce_delay_budget(
    solver: &'static str,
    ctx: &SolveCtx<'_>,
    sfc: &DagSfc,
    flow: &Flow,
    out: &SolveOutcome,
) -> Result<(), SolveError> {
    let Some(budget) = flow.delay_budget_us else {
        return Ok(());
    };
    let delay = ctx.delay_model().embedding_delay(sfc, &out.embedding, flow);
    if delay > budget + DELAY_GATE_EPS {
        return Err(SolveError::NoFeasibleEmbedding {
            solver,
            reason: deadline_infeasible_reason(delay, budget),
        });
    }
    Ok(())
}

/// The node set hosting each VNF kind in an embedding, keyed by kind —
/// the shared substrate of the placement-rule checks. Merger slots are
/// included (rules normally name regular kinds only, in which case the
/// merger entries are simply never consulted).
fn nodes_by_kind(sfc: &DagSfc, emb: &Embedding) -> BTreeMap<dagsfc_net::VnfTypeId, Vec<NodeId>> {
    let mut map: BTreeMap<dagsfc_net::VnfTypeId, Vec<NodeId>> = BTreeMap::new();
    for (l, slots) in emb.assignments().iter().enumerate() {
        let layer = layering::layer(sfc, l);
        for (s, &node) in slots.iter().enumerate() {
            let kind = layer.slot_kind(s, sfc.catalog());
            let nodes = map.entry(kind).or_default();
            if !nodes.contains(&node) {
                nodes.push(node);
            }
        }
    }
    map
}

/// Finds the first placement-rule violation in an embedding, if any:
/// an affinity pair split across nodes, or an anti-affinity pair
/// co-located. Returns a human-readable description of the offense.
pub fn first_rule_violation(
    rules: &PlacementRules,
    sfc: &DagSfc,
    emb: &Embedding,
) -> Option<String> {
    let by_kind = nodes_by_kind(sfc, emb);
    let empty: Vec<NodeId> = Vec::new();
    let nodes = |k: &dagsfc_net::VnfTypeId| by_kind.get(k).unwrap_or(&empty);
    for &(a, b) in &rules.affinity {
        let (na, nb) = (nodes(&a), nodes(&b));
        if na.is_empty() || nb.is_empty() {
            continue; // vacuous: one side of the pair is not embedded
        }
        let mut union: Vec<NodeId> = na.iter().chain(nb).copied().collect();
        union.sort_unstable();
        union.dedup();
        if union.len() > 1 {
            return Some(format!(
                "affinity ({a}, {b}) split across {} nodes",
                union.len()
            ));
        }
    }
    for &(a, b) in &rules.anti_affinity {
        let (na, nb) = (nodes(&a), nodes(&b));
        if let Some(shared) = na.iter().find(|n| nb.contains(n)) {
            return Some(format!("anti-affinity ({a}, {b}) co-located on {shared}"));
        }
    }
    None
}

/// Incremental placement-rule checker shared by the rule-aware searches
/// (MINV/RANV, GRASP, EXACT): given the `(kind, node)` slots placed so
/// far, decides whether one more placement can still satisfy every
/// rule. The check is prefix-monotone — every prefix of a rule-clean
/// complete assignment is admitted — so pruning on it preserves the
/// exact search's completeness.
pub(crate) struct RuleFilter<'a> {
    rules: &'a PlacementRules,
    /// Kinds occurring among the chain's slots, sorted: an affinity pair
    /// only constrains when both its kinds are actually embedded.
    present: Vec<dagsfc_net::VnfTypeId>,
}

impl<'a> RuleFilter<'a> {
    /// A filter for `sfc`'s rules, or `None` when the chain carries no
    /// rules (the common case, which must stay zero-cost).
    pub fn new(sfc: &'a DagSfc) -> Option<Self> {
        let rules = sfc.rules()?;
        let catalog = sfc.catalog();
        let mut present: Vec<dagsfc_net::VnfTypeId> = layering::layers(sfc)
            .iter()
            .flat_map(|l| l.required_kinds(catalog))
            .collect();
        present.sort_unstable();
        present.dedup();
        Some(RuleFilter { rules, present })
    }

    fn both_present(&self, a: dagsfc_net::VnfTypeId, b: dagsfc_net::VnfTypeId) -> bool {
        self.present.binary_search(&a).is_ok() && self.present.binary_search(&b).is_ok()
    }

    /// Whether placing `kind` on `node` is consistent with the
    /// already-placed slots.
    pub fn admits(
        &self,
        placed: &[(dagsfc_net::VnfTypeId, NodeId)],
        kind: dagsfc_net::VnfTypeId,
        node: NodeId,
    ) -> bool {
        for &(a, b) in &self.rules.affinity {
            if (kind == a || kind == b) && self.both_present(a, b) {
                // Every already-placed slot of either kind must share
                // the candidate node.
                if placed
                    .iter()
                    .any(|&(pk, pn)| (pk == a || pk == b) && pn != node)
                {
                    return false;
                }
            }
        }
        for &(a, b) in &self.rules.anti_affinity {
            if a == b {
                if kind == a {
                    // A reflexive anti-pair is unsatisfiable the moment
                    // its kind is embedded at all.
                    return false;
                }
                continue;
            }
            let partner = if kind == a {
                b
            } else if kind == b {
                a
            } else {
                continue;
            };
            if placed.iter().any(|&(pk, pn)| pk == partner && pn == node) {
                return false;
            }
        }
        true
    }
}

/// The central placement-rule gate run by [`Solver::solve_in`] whenever
/// the chain carries [`PlacementRules`]: re-derives the per-kind node
/// sets of the produced embedding and rejects it as *rule infeasible*
/// (a [`SolveError`] whose reason carries
/// [`crate::error::RULE_INFEASIBLE_PREFIX`]) on any affinity split or
/// anti-affinity co-location. Running after `solve_raw` makes every
/// solver — including the BBE family, which does not search rule-aware —
/// respect the rules rather than silently returning a violating
/// embedding.
pub fn enforce_placement_rules(
    solver: &'static str,
    sfc: &DagSfc,
    out: &SolveOutcome,
) -> Result<(), SolveError> {
    let Some(rules) = sfc.rules() else {
        return Ok(());
    };
    if let Some(offense) = first_rule_violation(rules, sfc, &out.embedding) {
        return Err(SolveError::NoFeasibleEmbedding {
            solver,
            reason: rule_infeasible_reason(&offense),
        });
    }
    Ok(())
}

/// Absolute tolerance of the audit gate's reported-vs-revalidated cost
/// comparison.
pub const AUDIT_COST_TOLERANCE: f64 = 1e-9;

/// The built-in audit gate run by [`Solver::solve_in`]: re-validates the
/// outcome's embedding against every model constraint
/// ([`crate::validate::validate`]) and cross-checks the cost the solver
/// reported against the re-derived objective. The full solver-independent
/// recomputation lives in the `dagsfc-audit` crate; this gate is the
/// in-crate guard every solve passes through when `ctx.audit` is set.
pub fn audit_outcome(
    solver: &'static str,
    net: &Network,
    sfc: &DagSfc,
    flow: &Flow,
    out: &SolveOutcome,
) -> Result<(), SolveError> {
    match crate::validate::validate(net, sfc, flow, &out.embedding) {
        Ok(cost) => {
            let drift = (cost.total() - out.cost.total()).abs();
            if drift > AUDIT_COST_TOLERANCE {
                return Err(SolveError::AuditFailed {
                    solver,
                    violations: vec![format!(
                        "reported cost {} deviates from revalidated cost {} by {drift:e}",
                        out.cost.total(),
                        cost.total()
                    )],
                });
            }
            Ok(())
        }
        Err(violations) => Err(SolveError::AuditFailed {
            solver,
            violations: violations.iter().map(|v| v.to_string()).collect(),
        }),
    }
}

/// Cheapest path over the static capacity filter (`capacity + CAP_EPS >=
/// rate`) via the shared oracle, bumping the caller's per-solve hit/miss
/// counters. Trivial `from == to` queries bypass the cache entirely.
pub(crate) fn oracle_min_cost_path(
    oracle: &PathOracle<'_>,
    from: NodeId,
    to: NodeId,
    rate: f64,
    hits: &mut u64,
    misses: &mut u64,
) -> Option<Path> {
    if from == to {
        return Some(Path::trivial(from));
    }
    let (tree, hit) = oracle.tree_tracked(from, rate);
    if hit {
        *hits += 1;
    } else {
        *misses += 1;
    }
    tree.path_to(to)
}

/// A successful embedding with its cost, its loads and statistics.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The embedding found.
    pub embedding: Embedding,
    /// Its objective value (eq. (1)).
    pub cost: CostBreakdown,
    /// Its load on every VNF instance it uses
    /// ([`crate::Accounting::vnf_load`]): what a commit reserves.
    pub vnf_load: Vec<((NodeId, VnfTypeId), f64)>,
    /// Its load on every link it uses ([`crate::Accounting::link_load`]).
    pub link_load: Vec<(LinkId, f64)>,
    /// Search statistics.
    pub stats: SolverStats,
}

/// Common interface of all embedding algorithms.
pub trait Solver {
    /// Short algorithm name as used in the paper ("BBE", "MBBE", "RANV",
    /// "MINV", …).
    fn name(&self) -> &'static str;

    /// The search: embeds `sfc` for `flow` and returns the embedding
    /// with the search's own counters. Implementations provide this;
    /// callers go through [`Solver::solve_in`] so the envelope cannot be
    /// skipped by accident.
    fn solve_raw(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<(Embedding, SolverStats), SolveError>;

    /// Embeds `sfc` for `flow` using a shared [`SolveCtx`], so repeated
    /// solves on one network reuse cached shortest-path trees: the one
    /// envelope around every search. Before the search, the chain's
    /// carried precedence order is verified against its layered
    /// rendering ([`layering::verify_admissible`]) and the request is
    /// [`precheck`]ed; after it, the embedding is accounted once
    /// ([`Embedding::try_account`]) into the outcome's cost and loads,
    /// and the delay and placement-rule gates run. When `ctx.audit` is
    /// set (the default under `debug_assertions`), every produced
    /// embedding is re-validated against the model constraints and its
    /// reported cost cross-checked before being returned — failures
    /// surface as [`SolveError::AuditFailed`], never as a silently wrong
    /// embedding.
    fn solve_in(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<SolveOutcome, SolveError> {
        layering::verify_admissible(sfc)?;
        let start = Instant::now();
        precheck(ctx.net, sfc, flow)?;
        let (embedding, mut stats) = self.solve_raw(ctx, sfc, flow)?;
        let acct = embedding.try_account(ctx.net, sfc, flow)?;
        stats.elapsed = start.elapsed();
        let out = SolveOutcome {
            embedding,
            cost: acct.cost,
            vnf_load: acct.vnf_load,
            link_load: acct.link_load,
            stats,
        };
        enforce_delay_budget(self.name(), ctx, sfc, flow, &out)?;
        enforce_placement_rules(self.name(), sfc, &out)?;
        if ctx.audit {
            audit_outcome(self.name(), ctx.net, sfc, flow, &out)?;
        }
        Ok(out)
    }

    /// Embeds `sfc` for `flow` into `net` with a fresh private context.
    fn solve(&self, net: &Network, sfc: &DagSfc, flow: &Flow) -> Result<SolveOutcome, SolveError> {
        self.solve_in(&SolveCtx::new(net), sfc, flow)
    }
}

/// The named solvers: the one table that maps a name to a solver, for
/// the CLI, the wire protocol, traces and the simulator alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algo {
    /// Breadth-first Backtracking Embedding (paper §4.1–4.4).
    Bbe,
    /// Mini-path BBE (paper §4.5).
    Mbbe,
    /// MBBE with Steiner-tree inter-layer multicast (extension).
    MbbeSt,
    /// Random-assignment baseline (paper §5.1).
    Ranv,
    /// Cheapest-VNF greedy baseline (paper §5.1).
    Minv,
    /// GRASP metaheuristic (extension: randomized greedy + local search).
    Grasp,
    /// Exact branch and bound (small instances only).
    Exact,
}

impl Algo {
    /// Every algorithm, in declaration order.
    pub const ALL: [Algo; 7] = [
        Algo::Bbe,
        Algo::Mbbe,
        Algo::MbbeSt,
        Algo::Ranv,
        Algo::Minv,
        Algo::Grasp,
        Algo::Exact,
    ];

    /// Display name matching the paper (and [`Solver::name`]).
    pub fn name(self) -> &'static str {
        match self {
            Algo::Bbe => "BBE",
            Algo::Mbbe => "MBBE",
            Algo::MbbeSt => "MBBE-ST",
            Algo::Ranv => "RANV",
            Algo::Minv => "MINV",
            Algo::Grasp => "GRASP",
            Algo::Exact => "EXACT",
        }
    }

    /// Lowercase name used on the command line and the wire.
    pub fn wire_name(self) -> &'static str {
        match self {
            Algo::Bbe => "bbe",
            Algo::Mbbe => "mbbe",
            Algo::MbbeSt => "mbbe-st",
            Algo::Ranv => "ranv",
            Algo::Minv => "minv",
            Algo::Grasp => "grasp",
            Algo::Exact => "exact",
        }
    }

    /// Parses a [`wire_name`](Algo::wire_name); `None` for an unknown
    /// name.
    pub fn parse(name: &str) -> Option<Algo> {
        Algo::ALL.into_iter().find(|a| a.wire_name() == name)
    }

    /// Builds a solver instance for one run (`run_seed` feeds RANV's
    /// and GRASP's random choices so runs stay reproducible;
    /// deterministic solvers ignore it).
    pub fn build(self, run_seed: u64) -> Box<dyn Solver> {
        match self {
            Algo::Bbe => Box::new(BbeSolver::new()),
            Algo::Mbbe => Box::new(MbbeSolver::new()),
            Algo::MbbeSt => Box::new(MbbeStSolver::new()),
            Algo::Ranv => Box::new(RanvSolver::new(run_seed)),
            Algo::Minv => Box::new(MinvSolver::new()),
            Algo::Grasp => Box::new(GraspSolver::new(run_seed)),
            Algo::Exact => Box::new(ExactSolver::new()),
        }
    }
}

/// Fast infeasibility screen shared by all solvers: the flow's numbers
/// must pass [`Flow::validate`], every required VNF kind (mergers
/// included) must be hosted somewhere, and the flow endpoints must
/// exist.
///
/// Public so serving-layer admission control can turn requests away
/// before they ever occupy a queue slot, with the exact same
/// feasibility judgement the solvers apply.
pub fn precheck(net: &Network, sfc: &DagSfc, flow: &Flow) -> Result<(), SolveError> {
    flow.validate().map_err(SolveError::Infeasible)?;
    if flow.src.index() >= net.node_count() || flow.dst.index() >= net.node_count() {
        return Err(SolveError::Infeasible(
            "flow endpoints outside the network".into(),
        ));
    }
    for layer in layering::layers(sfc) {
        for kind in layer.required_kinds(sfc.catalog()) {
            if net.hosts_of(kind).is_empty() {
                return Err(SolveError::Infeasible(format!(
                    "no node hosts required kind {kind}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::{NodeId, VnfTypeId};

    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(2);
        g.add_link(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        g.deploy_vnf(NodeId(0), VnfTypeId(0), 1.0, 1.0).unwrap();
        g
    }

    #[test]
    fn precheck_accepts_feasible() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        assert!(precheck(&g, &sfc, &Flow::unit(NodeId(0), NodeId(1))).is_ok());
    }

    #[test]
    fn precheck_rejects_bad_flow_numbers_and_keeps_zero_size() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let unit = Flow::unit(NodeId(0), NodeId(1));
        for (rate, size, field) in [
            (0.0, 1.0, "rate"),
            (-1.0, 1.0, "rate"),
            (f64::NAN, 1.0, "rate"),
            (f64::INFINITY, 1.0, "rate"),
            (1.0, -5.0, "size"),
            (1.0, f64::NAN, "size"),
            (1.0, f64::NEG_INFINITY, "size"),
        ] {
            let flow = Flow { rate, size, ..unit };
            match precheck(&g, &sfc, &flow) {
                Err(SolveError::Infeasible(why)) => {
                    assert!(why.contains(field), "rate {rate} size {size}: '{why}'")
                }
                other => panic!("rate {rate} size {size}: expected a rejection, got {other:?}"),
            }
        }
        let free = Flow { size: 0.0, ..unit };
        assert!(
            precheck(&g, &sfc, &free).is_ok(),
            "a zero-size flow is legal"
        );
    }

    #[test]
    fn precheck_rejects_missing_kind() {
        let g = net();
        let c = VnfCatalog::new(2);
        let sfc = DagSfc::sequential(&[VnfTypeId(1)], c).unwrap();
        assert!(matches!(
            precheck(&g, &sfc, &Flow::unit(NodeId(0), NodeId(1))),
            Err(SolveError::Infeasible(_))
        ));
    }

    #[test]
    fn precheck_rejects_missing_merger() {
        let g = net(); // hosts f0 but no merger
        let c = VnfCatalog::new(1);
        let sfc = DagSfc::new(vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(0)])], c).unwrap();
        assert!(precheck(&g, &sfc, &Flow::unit(NodeId(0), NodeId(1))).is_err());
    }

    #[test]
    fn registry_covers_every_solver() {
        for (name, display) in [
            ("bbe", "BBE"),
            ("mbbe", "MBBE"),
            ("mbbe-st", "MBBE-ST"),
            ("minv", "MINV"),
            ("ranv", "RANV"),
            ("exact", "EXACT"),
            ("grasp", "GRASP"),
        ] {
            let algo = Algo::parse(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(algo.wire_name(), name);
            assert_eq!(algo.name(), display);
            assert_eq!(algo.build(7).name(), display);
        }
        assert_eq!(Algo::parse("quantum"), None);
        assert_eq!(Algo::parse("MBBE"), None, "wire names are lowercase");
    }

    #[test]
    fn precheck_rejects_bad_endpoints() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        assert!(precheck(&g, &sfc, &Flow::unit(NodeId(0), NodeId(9))).is_err());
    }
}
