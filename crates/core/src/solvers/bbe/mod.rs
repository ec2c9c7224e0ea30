//! BBE — Breadth-first Backtracking Embedding (paper §4) — and its
//! complexity-reduced variant MBBE (§4.5).
//!
//! Per layer, BBE runs a forward search from the layer's start node
//! (building an FST), a backward search from every merger candidate
//! (building BSTs), and generates candidate sub-solutions from each
//! FST–BST pair; candidates accumulate in a sub-solution tree whose
//! cheapest complete leaf — after connecting the last layer to the
//! destination with a minimum-cost path — is the returned embedding.
//!
//! MBBE layers three strategies on top (paper §4.5):
//! 1. the forward node set is capped at `X_max`;
//! 2. meta-paths are instantiated with minimum-cost paths on the
//!    real-time network instead of tree traversals;
//! 3. only the cheapest `X_d` sub-solutions per FST–BST pair (and per
//!    sub-solution-tree node) are retained, making the tree an
//!    `X_d`-tree.
//!
//! Two engineering bounds not in the paper keep worst cases finite
//! without changing the algorithm on realistic inputs: path/assignment
//! enumeration per pair is capped (cheapest-first, so truncation drops
//! the expensive tail), and each sub-solution-tree level is capped at
//! `max_level_width` cheapest nodes. Classic BBE with unbounded
//! enumeration is exponential (the paper reports the same and stops BBE
//! at SFC size 5).

mod backward;
mod candidates;
mod forward;
mod subtree;
mod tree;

pub use tree::{SearchTree, TreeNode};

use self::backward::backward_search;
use self::candidates::{parallel_layer_subs, singleton_layer_subs, EngineCtx, LayerSub};
use self::forward::forward_search;
use self::subtree::SubTree;
use self::tree::SearchTree as Fst;
use super::instrument::{Counters, Instrument};
use super::{precheck, SolveCtx, SolveOutcome, Solver};
use crate::chain::{DagSfc, Layer};
use crate::delay::DelayModel;
use crate::embedding::Embedding;
use crate::error::{deadline_infeasible_reason, SolveError};
use crate::flow::Flow;
use crate::vnf::VnfCatalog;
use dagsfc_net::{NodeId, Path};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Tuning knobs of the BBE/MBBE engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BbeConfig {
    /// MBBE strategy (1): bound on the forward-search node set, `None`
    /// for classic BBE.
    pub x_max: Option<usize>,
    /// MBBE strategy (3): cheapest-`X_d` pruning of sub-solutions per
    /// FST–BST pair and per sub-solution-tree node; `None` keeps all.
    pub x_d: Option<usize>,
    /// MBBE strategy (2): instantiate meta-paths with minimum-cost paths
    /// on the real-time network instead of FST/BST traversals.
    pub use_min_cost_paths: bool,
    /// MBBE-ST extension (not in the paper): route each parallel layer's
    /// inter-layer multicast as a Takahashi–Matsuyama Steiner tree,
    /// maximizing the eq. (9) link sharing. Implies meta-path routing on
    /// the real-time network for inter-layer paths.
    pub use_steiner_multicast: bool,
    /// Retry with doubled `x_max` (up to the network size) when a failed
    /// attempt had a forward search cut by the bound — keeps MBBE's
    /// "always returns a solution" robustness on sparse deployments.
    /// Failures the bound played no part in are final: every forward
    /// search would grow the same tree under a larger bound, so a retry
    /// could only replay the failed attempt.
    pub adaptive_x_max: bool,
    /// Real-path alternatives kept per node pair in tree-traversal mode
    /// (the paper's `h`).
    pub max_paths_per_pair: usize,
    /// Raw prev-chain enumeration bound behind `max_paths_per_pair`.
    pub max_raw_chains: usize,
    /// Bound on VNF-allocation combinations per FST–BST pair (step i).
    pub max_assignment_combos: usize,
    /// Bound on path-choice combinations per allocation (steps ii+iii).
    pub max_path_combos: usize,
    /// Candidate hosting nodes considered per slot, cheapest rental
    /// first.
    pub max_candidates_per_slot: usize,
    /// Global cap on sub-solution-tree nodes per level (cheapest kept).
    pub max_level_width: usize,
    /// Optional end-to-end delay SLA (extension): among the complete
    /// candidates, return the cheapest whose delay under the given model
    /// stays within the bound; candidates violating it are skipped.
    /// When `None` but the flow carries a `delay_budget_us`, the engine
    /// promotes the budget to a constraint under the canonical
    /// substrate model ([`DelayModel::for_network`]).
    pub delay_constraint: Option<DelayConstraint>,
    /// Prune sub-solution-tree nodes as soon as their accumulated
    /// per-layer delay exceeds the active delay constraint, instead of
    /// scoring delays only on finished leaves. Safe: the accumulated
    /// layer delays are a lower bound on every completion's end-to-end
    /// delay (the final path only adds non-negative latency), so
    /// pruning never removes a feasible candidate. On by default; the
    /// flag exists for the pruned-vs-unpruned differential test.
    pub early_delay_pruning: bool,
    /// Score the merger candidates of a parallel layer on crossbeam
    /// scoped threads. The reduction is deterministic (results are
    /// re-ordered by merger index), so this only changes wall-clock, not
    /// output. Off by default: the sim runner already saturates the cores
    /// with run-level parallelism.
    pub parallel_merger_scoring: bool,
}

/// A delay SLA attached to an embedding request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayConstraint {
    /// The delay model used to score candidate embeddings.
    pub model: DelayModel,
    /// Upper bound on end-to-end delay (µs).
    pub max_delay_us: f64,
}

impl Default for BbeConfig {
    /// Classic BBE: no `X_max`/`X_d`, tree-traversal paths.
    fn default() -> Self {
        BbeConfig {
            x_max: None,
            x_d: None,
            use_min_cost_paths: false,
            use_steiner_multicast: false,
            adaptive_x_max: false,
            max_paths_per_pair: 3,
            max_raw_chains: 32,
            max_assignment_combos: 64,
            max_path_combos: 16,
            max_candidates_per_slot: 8,
            max_level_width: 2048,
            delay_constraint: None,
            early_delay_pruning: true,
            parallel_merger_scoring: false,
        }
    }
}

impl BbeConfig {
    /// The MBBE configuration used in the evaluation: `X_max = 40`,
    /// `X_d = 4`, min-cost-path instantiation, adaptive retry.
    pub fn mbbe() -> Self {
        BbeConfig {
            x_max: Some(40),
            x_d: Some(4),
            use_min_cost_paths: true,
            adaptive_x_max: true,
            ..BbeConfig::default()
        }
    }

    /// The MBBE-ST extension: MBBE plus Steiner-tree inter-layer
    /// multicast routing.
    pub fn mbbe_steiner() -> Self {
        BbeConfig {
            use_steiner_multicast: true,
            ..BbeConfig::mbbe()
        }
    }
}

/// The classic BBE solver (paper Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct BbeSolver {
    /// Engine configuration (defaults to classic BBE).
    pub config: BbeConfig,
}

impl BbeSolver {
    /// BBE with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for BbeSolver {
    fn name(&self) -> &'static str {
        "BBE"
    }

    fn solve_raw(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<SolveOutcome, SolveError> {
        run(ctx, sfc, flow, &self.config, "BBE")
    }
}

/// The Mini-path BBE solver (paper §4.5).
#[derive(Debug, Clone)]
pub struct MbbeSolver {
    /// Engine configuration (defaults to [`BbeConfig::mbbe`]).
    pub config: BbeConfig,
}

impl Default for MbbeSolver {
    fn default() -> Self {
        MbbeSolver {
            config: BbeConfig::mbbe(),
        }
    }
}

impl MbbeSolver {
    /// MBBE with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// MBBE with explicit `X_max` and `X_d`.
    pub fn with_limits(x_max: usize, x_d: usize) -> Self {
        MbbeSolver {
            config: BbeConfig {
                x_max: Some(x_max),
                x_d: Some(x_d),
                ..BbeConfig::mbbe()
            },
        }
    }
}

impl Solver for MbbeSolver {
    fn name(&self) -> &'static str {
        "MBBE"
    }

    fn solve_raw(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<SolveOutcome, SolveError> {
        run(ctx, sfc, flow, &self.config, "MBBE")
    }
}

/// MBBE-ST — an extension beyond the paper: MBBE whose inter-layer
/// multicasts ride heuristic Steiner trees instead of independent
/// minimum-cost paths, squeezing more sharing out of the eq. (9)
/// multicast accounting. See the `ablation` bench for its effect.
#[derive(Debug, Clone)]
pub struct MbbeStSolver {
    /// Engine configuration (defaults to [`BbeConfig::mbbe_steiner`]).
    pub config: BbeConfig,
}

impl Default for MbbeStSolver {
    fn default() -> Self {
        MbbeStSolver {
            config: BbeConfig::mbbe_steiner(),
        }
    }
}

impl MbbeStSolver {
    /// MBBE-ST with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for MbbeStSolver {
    fn name(&self) -> &'static str {
        "MBBE-ST"
    }

    fn solve_raw(
        &self,
        ctx: &SolveCtx<'_>,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<SolveOutcome, SolveError> {
        run(ctx, sfc, flow, &self.config, "MBBE-ST")
    }
}

/// Engine entry point shared by BBE and MBBE.
fn run(
    ctx: &SolveCtx<'_>,
    sfc: &DagSfc,
    flow: &Flow,
    config: &BbeConfig,
    solver: &'static str,
) -> Result<SolveOutcome, SolveError> {
    let start = Instant::now();
    let net = ctx.net;
    precheck(net, sfc, flow)?;
    let mut cfg = config.clone();
    // Promote a request-level delay budget to a solver-level constraint
    // under the canonical substrate model, so the search itself prunes
    // and ranks deadline-aware instead of relying solely on the
    // post-hoc gate in `Solver::solve_in`. An explicit SLA in the
    // config keeps precedence (it may carry a richer model).
    if cfg.delay_constraint.is_none() {
        if let Some(budget) = flow.delay_budget_us {
            cfg.delay_constraint = Some(DelayConstraint {
                model: ctx.delay_model().clone(),
                max_delay_us: budget,
            });
        }
    }
    loop {
        // Counters is the always-on sink so every solve surfaces its
        // statistics; search code internal to `attempt` stays generic so
        // a NoInstrument caller would compile the probes away entirely.
        let mut ins = Counters::default();
        match attempt(ctx, sfc, flow, &cfg, solver, &mut ins) {
            Ok((embedding, explored, kept)) => {
                let cost = embedding.try_cost(net, sfc, flow)?;
                let mut stats = ins.stats;
                stats.explored = explored;
                stats.kept = kept;
                stats.elapsed = start.elapsed();
                return Ok(SolveOutcome {
                    embedding,
                    cost,
                    stats,
                });
            }
            Err(failed) => {
                // Adaptive X_max: double and retry only when the bound cut
                // a forward search. An uncut search grows the same tree
                // under any larger bound and nothing else reads `x_max`,
                // so any other retry would replay this attempt bit for
                // bit and return this error.
                let retry = failed.capped
                    && cfg.adaptive_x_max
                    && cfg.x_max.is_some_and(|x| x < net.node_count());
                if !retry {
                    return Err(failed.error);
                }
                cfg.x_max = cfg.x_max.map(|x| (x * 2).min(net.node_count()));
            }
        }
    }
}

/// Sub-solutions produced from one FST–BST (merger) pair.
struct MergerScore {
    /// Pair sub-solutions, already `X_d`-truncated cheapest-first.
    subs: Vec<LayerSub>,
    /// BST size for instrumentation.
    bst_nodes: usize,
    /// Candidates produced before the per-pair truncation.
    generated: usize,
}

/// Scores one merger candidate: backward search plus candidate
/// generation (paper steps 2–3 for one FST–BST pair). Deterministic and
/// independent of every other merger, which is what makes the parallel
/// fan-out below safe.
fn score_merger(
    ctx: &EngineCtx<'_>,
    layer: &Layer,
    fst: &Fst,
    merger_node: NodeId,
    cfg: &BbeConfig,
    catalog: &VnfCatalog,
) -> Option<MergerScore> {
    let bst = backward_search(ctx.net, merger_node, layer, catalog, fst);
    if !bst.covered() {
        return None;
    }
    let mut subs = parallel_layer_subs(ctx, layer, fst, &bst);
    let generated = subs.len();
    // Strategy (3), per FST–BST pair.
    if let Some(xd) = cfg.x_d {
        subs.truncate(xd);
    }
    Some(MergerScore {
        subs,
        bst_nodes: bst.len(),
        generated,
    })
}

/// Scores every merger candidate of a parallel layer, optionally on
/// crossbeam scoped threads ([`BbeConfig::parallel_merger_scoring`]).
///
/// The reduction is deterministic either way: workers pull merger
/// indices from a shared atomic counter and push `(index, score)` pairs,
/// and the collected results are re-sorted by index before use — so the
/// output is bit-identical to the sequential loop regardless of thread
/// interleaving (each pair's computation depends only on its own merger;
/// oracle evictions at worst rebuild identical trees).
fn score_mergers(
    ctx: &EngineCtx<'_>,
    layer: &Layer,
    fst: &Fst,
    mergers: &[NodeId],
    cfg: &BbeConfig,
    catalog: &VnfCatalog,
) -> Vec<MergerScore> {
    if !cfg.parallel_merger_scoring || mergers.len() < 2 {
        return mergers
            .iter()
            .filter_map(|&m| score_merger(ctx, layer, fst, m, cfg, catalog))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let scored: Mutex<Vec<(usize, Option<MergerScore>)>> =
        Mutex::new(Vec::with_capacity(mergers.len()));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(mergers.len());
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&merger) = mergers.get(i) else {
                    break;
                };
                let score = score_merger(ctx, layer, fst, merger, cfg, catalog);
                scored.lock().push((i, score));
            });
        }
    });
    let mut scored = scored.into_inner();
    scored.sort_by_key(|&(i, _)| i);
    scored.into_iter().filter_map(|(_, s)| s).collect()
}

/// The memoized expansion of one layer from one start node.
///
/// Within a layer, everything downstream of a sub-solution-tree parent —
/// forward search, backward searches, candidate generation, the per-node
/// `X_d` truncation — is a pure function of the parent's *end node*; the
/// parent only contributes its accumulated cost. Levels hold up to
/// `max_level_width` parents but at most `|V|` distinct end nodes, so
/// caching by end node collapses the layer's dominant cost by the
/// level-width / distinct-end-node ratio (often 30x+ deep in a BBE
/// search). Instrumentation totals are stored alongside and replayed per
/// parent, keeping every counter identical to the unmemoized loop.
struct StartMemo {
    /// Final sub-solutions (sorted cheapest-first, `X_d`-truncated).
    subs: Vec<LayerSub>,
    /// FST size (replayed into `fst_nodes` per parent).
    fst_nodes: usize,
    /// Whether the FST covered the layer (uncovered ⇒ no subs).
    covered: bool,
    /// Whether `X_max` cut the forward search (implies uncovered).
    capped: bool,
    /// Summed BST sizes over all merger candidates.
    bst_nodes: usize,
    /// Candidates generated before any truncation.
    generated: usize,
    /// Candidates dropped by per-pair and per-node truncation.
    pruned: usize,
    /// Per-parent `explored` increment (candidates after per-pair, before
    /// per-node truncation — the pre-memoization accounting).
    explored: usize,
}

/// Expands `layer` from `start_node`: forward search, merger scoring (or
/// singleton generation), sort, and `X_d` truncation. Pure in
/// `start_node`; see [`StartMemo`].
fn expand_start(
    ctx: &EngineCtx<'_>,
    layer: &Layer,
    start_node: NodeId,
    cfg: &BbeConfig,
    catalog: &VnfCatalog,
) -> StartMemo {
    let fst = forward_search(ctx.net, start_node, layer, catalog, cfg.x_max);
    let mut memo = StartMemo {
        subs: Vec::new(),
        fst_nodes: fst.len(),
        covered: fst.covered(),
        capped: fst.capped(),
        bst_nodes: 0,
        generated: 0,
        pruned: 0,
        explored: 0,
    };
    if !memo.covered {
        return memo;
    }
    let mut subs: Vec<LayerSub> = if layer.needs_merger() {
        let mergers: Vec<NodeId> = fst
            .hosting(catalog.merger())
            .into_iter()
            .map(|i| fst.node(i).node)
            .collect();
        let mut collected = Vec::new();
        for score in score_mergers(ctx, layer, &fst, &mergers, cfg, catalog) {
            memo.bst_nodes += score.bst_nodes;
            memo.generated += score.generated;
            memo.pruned += score.generated - score.subs.len();
            collected.extend(score.subs);
        }
        collected
    } else {
        let subs = singleton_layer_subs(ctx, layer, &fst);
        memo.generated += subs.len();
        subs
    };
    memo.explored = subs.len();
    // Strategy (3), per sub-solution-tree node: cheapest X_d children
    // (the X_d-tree of the paper).
    subs.sort_by(|a, b| a.cost.total().total_cmp(&b.cost.total()));
    if let Some(xd) = cfg.x_d {
        if subs.len() > xd {
            memo.pruned += subs.len() - xd;
            subs.truncate(xd);
        }
    }
    memo.subs = subs;
    memo
}

/// Exact delay contribution of one layer sub-solution under `model`:
/// the slowest branch (inter-layer path + processing + inner path)
/// plus the merge overhead for parallel layers. Mirrors one layer term
/// of [`DelayModel::embedding_delay`], so accumulating it down the
/// sub-solution tree yields each node's share of the end-to-end delay
/// exactly — and a lower bound on any completion, since the final path
/// only adds non-negative latency.
fn sub_delay_us(model: &DelayModel, layer: &Layer, catalog: &VnfCatalog, sub: &LayerSub) -> f64 {
    let merger = layer.needs_merger();
    let mut slowest: f64 = 0.0;
    for slot in 0..layer.width() {
        let kind = layer.slot_kind(slot, catalog);
        let mut branch = model.path_us(&sub.inter_paths[slot]) + model.proc(kind);
        if merger {
            branch += model.path_us(&sub.inner_paths[slot]);
        }
        slowest = slowest.max(branch);
    }
    if merger {
        slowest += model.merge_us;
    }
    slowest
}

/// A search attempt that found no embedding.
struct Failed {
    error: SolveError,
    /// Whether `X_max` cut at least one of the attempt's forward
    /// searches — the only way a retry under a larger bound can differ.
    capped: bool,
}

/// One search attempt under a fixed configuration.
fn attempt<I: Instrument>(
    ctx: &SolveCtx<'_>,
    sfc: &DagSfc,
    flow: &Flow,
    cfg: &BbeConfig,
    solver: &'static str,
    ins: &mut I,
) -> Result<(Embedding, usize, usize), Failed> {
    let net = ctx.net;
    let catalog = *sfc.catalog();
    let ctx = EngineCtx::new(net, catalog, *flow, cfg, &ctx.oracle);
    let mut tree = SubTree::new(flow.src);
    let mut level: Vec<usize> = vec![0];
    let mut explored = 0usize;
    let substrate_n = net.node_count();
    let dc = cfg.delay_constraint.as_ref();
    // Accumulated layer delays per sub-solution-tree node, indexed like
    // the tree's arena (root = 0.0). Maintained only under a delay
    // constraint; drives early pruning and the LARAC final-path repair.
    let mut node_delay: Vec<f64> = vec![0.0];
    let mut capped = false;

    for l in 0..sfc.depth() {
        // Per-layer wall clock only when a recording sink asks for it.
        let layer_start = if I::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let layer = super::layering::layer(sfc, l);
        let mut next_level: Vec<usize> = Vec::new();
        // Cheapest accumulated delay among this layer's delay-pruned
        // nodes — evidence for classifying an empty level as a deadline
        // (not capacity) failure.
        let mut layer_delay_pruned: Option<f64> = None;
        // End-node memo, fresh per layer (expansions depend on the layer).
        let mut memo: Vec<Option<StartMemo>> =
            std::iter::repeat_with(|| None).take(substrate_n).collect();
        for &parent in &level {
            ins.nodes_expanded(1);
            let start_node = tree.node(parent).end_node;
            let slot = &mut memo[start_node.index()];
            if slot.is_none() {
                *slot = Some(expand_start(&ctx, layer, start_node, cfg, &catalog));
            }
            // lint:allow(expect) — invariant: filled just above
            let m = slot.as_ref().expect("memo slot filled");
            ins.fst_nodes(m.fst_nodes);
            capped |= m.capped;
            if !m.covered {
                continue;
            }
            ins.bst_nodes(m.bst_nodes);
            ins.candidates_generated(m.generated);
            ins.candidates_pruned(m.pruned);
            explored += m.explored;
            for sub in &m.subs {
                let Some(dc) = dc else {
                    next_level.push(tree.insert(parent, sub.clone()));
                    continue;
                };
                let d = node_delay[parent] + sub_delay_us(&dc.model, layer, &catalog, sub);
                if cfg.early_delay_pruning && d > dc.max_delay_us + 1e-9 {
                    // Already over budget with layers still to embed and
                    // the final path unpaid: no completion can recover.
                    ins.candidates_delay_rejected(1);
                    layer_delay_pruned = Some(layer_delay_pruned.map_or(d, |b: f64| b.min(d)));
                    continue;
                }
                let idx = tree.insert(parent, sub.clone());
                debug_assert_eq!(idx, node_delay.len());
                node_delay.push(d);
                next_level.push(idx);
            }
        }
        if next_level.is_empty() {
            let (h, m) = ctx.cache_counts();
            ins.cache(h, m);
            // A level emptied by delay pruning is a deadline failure:
            // capacity-feasible sub-solutions existed, every one blew
            // the budget.
            let reason = match (dc, layer_delay_pruned) {
                (Some(dc), Some(best)) => deadline_infeasible_reason(best, dc.max_delay_us),
                _ => format!("layer {l} produced no feasible sub-solution"),
            };
            let error = SolveError::NoFeasibleEmbedding { solver, reason };
            return Err(Failed { error, capped });
        }
        // Global level cap: keep the cheapest prefixes.
        next_level.sort_by(|&a, &b| tree.node(a).cum_cost.total_cmp(&tree.node(b).cum_cost));
        if next_level.len() > cfg.max_level_width {
            ins.candidates_pruned(next_level.len() - cfg.max_level_width);
            next_level.truncate(cfg.max_level_width);
        }
        level = next_level;
        if let Some(t) = layer_start {
            ins.layer_wall(t.elapsed());
        }
    }

    // Connect each leaf to the destination with a minimum-cost path
    // (Algorithm 1, lines 9–10), then take the cheapest valid candidate.
    //
    // Every leaf shares the one destination, so a single dst-rooted
    // Dijkstra tree prices them all: links are undirected, so the tree's
    // distance to a leaf's end node *is* the exact end → dst min-cost —
    // the per-leaf exact version of the `bounds.rs` link-term lower
    // bound. Candidates are ranked best-first by that completed total
    // and the final path is materialized lazily (reversed tree walk)
    // only for candidates actually attempted, so the common case
    // extracts exactly one path instead of one per leaf. Under a delay
    // SLA the per-leaf forward search is kept: equal-cost final paths
    // can differ in hop count, which the delay model observes.
    let dst_tree = if cfg.delay_constraint.is_none() {
        Some(ctx.oracle_tree(flow.dst))
    } else {
        None
    };
    let mut finals: Vec<(f64, usize, Option<Path>)> = Vec::new();
    for &leaf in &level {
        let end = tree.node(leaf).end_node;
        match &dst_tree {
            Some(dt) => {
                let remaining = if end == flow.dst {
                    Some(0.0)
                } else {
                    dt.dist_to(end)
                };
                if let Some(d) = remaining {
                    finals.push((tree.node(leaf).cum_cost + d * flow.size, leaf, None));
                }
            }
            None => {
                if let Some(p) = ctx.min_cost_path(end, flow.dst) {
                    let total = tree.node(leaf).cum_cost + p.price(net) * flow.size;
                    finals.push((total, leaf, Some(p)));
                }
            }
        }
    }
    finals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let kept = tree.len();
    let (h, m) = ctx.cache_counts();
    ins.cache(h, m);
    // Cheapest end-to-end delay among deadline-rejected candidates, and
    // the rejected leaves themselves (for the LARAC repair pass).
    let mut best_rejected: Option<f64> = None;
    let mut deadline_rejected: Vec<usize> = Vec::new();
    for (_, leaf, eager_path) in finals {
        let final_path = match eager_path {
            Some(p) => p,
            None => {
                let end = tree.node(leaf).end_node;
                if end == flow.dst {
                    Path::trivial(end)
                } else {
                    match dst_tree.as_ref().and_then(|dt| dt.path_to(end)) {
                        Some(p) => p.reversed(),
                        None => continue,
                    }
                }
            }
        };
        let embedding =
            assemble(sfc, &tree, leaf, final_path).map_err(|error| Failed { error, capped })?;
        if let Some(dc) = dc {
            let delay = dc.model.embedding_delay(sfc, &embedding, flow);
            if delay > dc.max_delay_us + 1e-9 {
                // Blown SLA is counted and remembered — the rejection
                // split (deadline vs capacity) and the failure reason
                // below depend on it. The leaf stays in play for the
                // LARAC repair pass.
                ins.candidates_delay_rejected(1);
                best_rejected = Some(best_rejected.map_or(delay, |b: f64| b.min(delay)));
                deadline_rejected.push(leaf);
                continue; // violates the SLA; try the next-cheapest
            }
        }
        if crate::validate::validate(net, sfc, flow, &embedding).is_ok() {
            return Ok((embedding, explored, kept));
        }
    }

    // LARAC repair pass: every candidate blew the budget with its
    // min-cost final path. A delay-bounded final path (constrained
    // shortest path via the oracle's LARAC mode) trades final-hop price
    // for latency headroom; the repaired candidate is re-scored under
    // the SLA model and re-validated, so the swap is sound even when
    // the SLA model differs from the substrate propagation table LARAC
    // optimizes over. Leaves are tried cheapest-lineage-first.
    if let Some(dc) = dc {
        if dc.model.link_delay_us.is_some() {
            for leaf in deadline_rejected {
                let end = tree.node(leaf).end_node;
                if end == flow.dst {
                    continue; // final path already trivial: nothing to repair
                }
                let slack = dc.max_delay_us - node_delay[leaf];
                if slack.is_nan() || slack <= 0.0 {
                    continue;
                }
                let Some(p) = ctx.min_cost_path_bounded(end, flow.dst, slack) else {
                    continue;
                };
                let repaired_delay = node_delay[leaf] + dc.model.path_us(&p);
                if repaired_delay > dc.max_delay_us + 1e-9 {
                    continue;
                }
                let embedding =
                    assemble(sfc, &tree, leaf, p).map_err(|error| Failed { error, capped })?;
                if crate::validate::validate(net, sfc, flow, &embedding).is_ok() {
                    return Ok((embedding, explored, kept));
                }
            }
        }
    }

    // Candidates that reached the destination but blew the budget make
    // this a deadline failure; otherwise it is the capacity/coverage
    // fallthrough.
    let reason = match (dc, best_rejected) {
        (Some(dc), Some(best)) => deadline_infeasible_reason(best, dc.max_delay_us),
        _ => "no complete candidate reached the destination within capacity and delay bound".into(),
    };
    let error = SolveError::NoFeasibleEmbedding { solver, reason };
    Err(Failed { error, capped })
}

/// Reconstructs the [`Embedding`] from a sub-solution-tree leaf.
fn assemble(
    sfc: &DagSfc,
    tree: &SubTree,
    leaf: usize,
    final_path: Path,
) -> Result<Embedding, SolveError> {
    let lineage = tree.lineage(leaf);
    debug_assert_eq!(lineage.len(), sfc.depth());
    let mut assignments = Vec::with_capacity(sfc.depth());
    let mut paths = Vec::new();
    for sub in &lineage {
        assignments.push(sub.assignment.clone());
        paths.extend(sub.inter_paths.iter().cloned());
        paths.extend(sub.inner_paths.iter().cloned());
    }
    paths.push(final_path);
    Embedding::new(sfc, assignments, paths).map_err(SolveError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::validate::validate;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::Network;
    use dagsfc_net::{NodeId, VnfTypeId};

    /// Deterministic 6-node test network:
    ///
    /// ```text
    /// v0 —1— v1 —1— v2 —1— v5
    ///  \      |      |
    ///   2     1      1
    ///    \    |      |
    ///     —— v3 —1— v4
    /// ```
    /// f0@{v1,v3}, f1@{v2,v4}, f2@{v3}, merger f3@{v2,v4}.
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(6);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 1.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(5), 1.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(3), 2.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(3), 1.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(4), 1.0, 10.0).unwrap();
        g.add_link(NodeId(3), NodeId(4), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(0), 1.5, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(4), VnfTypeId(1), 1.2, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(2), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(3), 0.5, 10.0).unwrap();
        g.deploy_vnf(NodeId(4), VnfTypeId(3), 0.5, 10.0).unwrap();
        g
    }

    fn catalog() -> VnfCatalog {
        VnfCatalog::new(3) // merger = f(3)
    }

    #[test]
    fn bbe_embeds_sequential_chain() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(1)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(5));
        let out = BbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        let cost = validate(&g, &sfc, &flow, &out.embedding).unwrap();
        assert!((cost.total() - out.cost.total()).abs() < 1e-9);
        // Optimal by hand: f0@v1 (1.0) + f1@v2 (1.0) + links
        // v0-v1 (1) + v1-v2 (1) + v2-v5 (1) = 5.0.
        assert!((out.cost.total() - 5.0).abs() < 1e-9, "{}", out.cost);
        assert!(out.stats.explored >= 1);
    }

    #[test]
    fn bbe_embeds_parallel_layer() {
        let g = net();
        let sfc = DagSfc::new(
            vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1)])],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(5));
        let out = BbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
        // Hand-optimal: f0@v1, f1@v2, merger@v2:
        // vnf 1+1+0.5 = 2.5; inter v0-v1 (1) + v0-v1-v2 dedups v0-v1 →
        // +v1-v2 (1); inner v1→v2 (1) + trivial; final v2-v5 (1).
        // total = 2.5 + 3 + 1 = 6.5.
        assert!((out.cost.total() - 6.5).abs() < 1e-9, "{}", out.cost);
    }

    #[test]
    fn mbbe_matches_bbe_on_small_instances() {
        let g = net();
        let sfc = DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]),
                Layer::new(vec![VnfTypeId(2)]),
            ],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(5));
        let bbe = BbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        let mbbe = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &mbbe.embedding).unwrap();
        // The paper observes MBBE ≈ BBE; on this instance they coincide.
        assert!((bbe.cost.total() - mbbe.cost.total()).abs() < 1e-9);
    }

    #[test]
    fn reports_infeasible_kind() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(2), VnfTypeId(2)], catalog()).unwrap();
        // f2 only on v3 — feasible; but a kind with no host fails fast.
        let missing = DagSfc::sequential(
            &[VnfTypeId(0)],
            VnfCatalog::new(9), // kinds 0..9, but net only hosts 0..3
        )
        .unwrap();
        let _ = sfc;
        let err = BbeSolver::new()
            .solve(&g, &missing, &Flow::unit(NodeId(0), NodeId(5)))
            .map(|_| ());
        assert!(err.is_ok() || matches!(err, Err(SolveError::Infeasible(_))));
        // A chain needing an unhosted kind:
        let really_missing = DagSfc::sequential(&[VnfTypeId(7)], VnfCatalog::new(9)).unwrap();
        assert!(matches!(
            BbeSolver::new().solve(&g, &really_missing, &Flow::unit(NodeId(0), NodeId(5))),
            Err(SolveError::Infeasible(_))
        ));
    }

    #[test]
    fn adaptive_x_max_recovers_from_tight_bound() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(2)], catalog()).unwrap(); // f2 only on v3
        let flow = Flow::unit(NodeId(5), NodeId(0)); // far start
                                                     // X_max = 1 cannot cover; adaptive retry must succeed.
        let solver = MbbeSolver {
            config: BbeConfig {
                x_max: Some(1),
                adaptive_x_max: true,
                ..BbeConfig::mbbe()
            },
        };
        let out = solver.solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
        // Without adaptivity the same bound fails.
        let rigid = MbbeSolver {
            config: BbeConfig {
                x_max: Some(1),
                adaptive_x_max: false,
                ..BbeConfig::mbbe()
            },
        };
        assert!(matches!(
            rigid.solve(&g, &sfc, &flow),
            Err(SolveError::NoFeasibleEmbedding { .. })
        ));
    }

    #[test]
    fn solver_names() {
        assert_eq!(BbeSolver::new().name(), "BBE");
        assert_eq!(MbbeSolver::new().name(), "MBBE");
        assert_eq!(MbbeStSolver::new().name(), "MBBE-ST");
        assert_eq!(MbbeSolver::with_limits(10, 2).config.x_max, Some(10));
        assert!(BbeConfig::mbbe_steiner().use_steiner_multicast);
    }

    #[test]
    fn mbbe_st_valid_and_competitive() {
        let g = net();
        let sfc = DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]),
                Layer::new(vec![VnfTypeId(2)]),
            ],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(5));
        let st = MbbeStSolver::new().solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &st.embedding).unwrap();
        let plain = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        // Steiner sharing can only reduce this instance's inter-layer
        // link charge; allow numerical ties.
        assert!(
            st.cost.total() <= plain.cost.total() + 1e-9,
            "MBBE-ST {} worse than MBBE {}",
            st.cost,
            plain.cost
        );
    }

    /// A layer whose two VNFs sit along a cheap chain while each VNF's
    /// individual min-cost path from the start is a disjoint shortcut:
    /// only the Steiner variant discovers the shared trunk.
    #[test]
    fn mbbe_st_beats_mbbe_on_chain_topology() {
        let mut g = Network::new();
        g.add_nodes(5); // 0=start/src, 1,2 chain, 3 unused, 4 dst
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 0.5, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(2), 1.3, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(4), 0.5, 10.0).unwrap();
        g.add_link(NodeId(3), NodeId(4), 1.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(3), 1.0, 10.0).unwrap();
        // f0 only on v1, f1 only on v2, merger only on v2.
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(3), 0.5, 10.0).unwrap();
        let sfc = DagSfc::new(
            vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1)])],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(4));
        let st = MbbeStSolver::new().solve(&g, &sfc, &flow).unwrap();
        let plain = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &st.embedding).unwrap();
        // Plain MBBE routes v0→v2 via the 1.3 shortcut (disjoint from
        // v0→v1): inter cost 2.3. Steiner rides the chain: 1.5.
        assert!(
            st.cost.total() < plain.cost.total() - 0.5,
            "expected a strict Steiner win: ST {} vs MBBE {}",
            st.cost,
            plain.cost
        );
    }

    #[test]
    fn colocated_chain_uses_trivial_paths() {
        // Whole chain on one node: v3 hosts f0 and f2.
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(2)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(3), NodeId(3));
        let out = BbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
        // All on v3: vnf 1.5 + 1.0, no links.
        assert!((out.cost.total() - 2.5).abs() < 1e-9, "{}", out.cost);
        assert!(out.cost.link.abs() < 1e-12);
    }

    #[test]
    fn parallel_merger_scoring_is_bit_identical() {
        // The scoped-thread fan-out must be a pure wall-clock change:
        // the index-sorted reduction has to reproduce the sequential
        // embedding bit for bit, including tie-breaks.
        let g = net();
        let sfc = DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]),
                Layer::new(vec![VnfTypeId(2)]),
            ],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(5));
        let sequential = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        let mut parallel = MbbeSolver::new();
        parallel.config.parallel_merger_scoring = true;
        let parallel = parallel.solve(&g, &sfc, &flow).unwrap();
        assert_eq!(sequential.embedding, parallel.embedding);
        assert_eq!(
            sequential.cost.total().to_bits(),
            parallel.cost.total().to_bits()
        );
        // Same for classic BBE (tree-traversal candidate generation).
        let bbe_seq = BbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        let mut bbe_par = BbeSolver::new();
        bbe_par.config.parallel_merger_scoring = true;
        let bbe_par = bbe_par.solve(&g, &sfc, &flow).unwrap();
        assert_eq!(bbe_seq.embedding, bbe_par.embedding);
        assert_eq!(
            bbe_seq.cost.total().to_bits(),
            bbe_par.cost.total().to_bits()
        );
    }

    #[test]
    fn stats_counters_populate() {
        let g = net();
        let sfc = DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]),
                Layer::new(vec![VnfTypeId(2)]),
            ],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(5));
        let ctx = SolveCtx::new(&g);
        let out = MbbeSolver::new().solve_in(&ctx, &sfc, &flow).unwrap();
        let s = &out.stats;
        assert!(s.nodes_expanded > 0, "nodes_expanded = 0");
        assert!(s.fst_nodes > 0, "fst_nodes = 0");
        assert!(s.candidates_generated > 0, "candidates_generated = 0");
        assert!(
            s.candidates_generated >= s.candidates_pruned,
            "pruned {} > generated {}",
            s.candidates_pruned,
            s.candidates_generated
        );
        assert_eq!(s.layer_wall.len(), sfc.depth(), "one wall-time per layer");
        // First solve on a cold oracle: misses dominate. Re-solving the
        // same flow through the same context must now hit the cache.
        assert!(s.cache_misses > 0, "cold solve should miss");
        let again = MbbeSolver::new().solve_in(&ctx, &sfc, &flow).unwrap();
        assert!(
            again.stats.cache_hits > 0,
            "warm solve should hit the shared oracle"
        );
        assert_eq!(out.embedding, again.embedding);
        assert!(again.stats.cache_hit_rate() > 0.0);
    }
}

#[cfg(test)]
mod delay_tests {
    use super::*;
    use crate::delay::DelayModel;
    use crate::validate::validate;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::{Network, NodeId, VnfTypeId};

    /// Two hosts one hop from the source: v1 is pricey but two hops from
    /// the destination; v2 is cheap but five hops away.
    fn sla_net() -> Network {
        let mut g = Network::new();
        g.add_nodes(7);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(2), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(6), 1.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 0.05, 10.0).unwrap();
        g.add_link(NodeId(3), NodeId(4), 0.05, 10.0).unwrap();
        g.add_link(NodeId(4), NodeId(5), 0.05, 10.0).unwrap();
        g.add_link(NodeId(5), NodeId(6), 0.05, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 5.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(0), 1.0, 10.0).unwrap();
        g
    }

    fn model() -> DelayModel {
        DelayModel::uniform(2, 0.0, 10.0, 0.0) // pure hop delay
    }

    #[test]
    fn sla_forces_the_short_route() {
        let g = sla_net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(6));

        // Unconstrained: the cheap host wins despite five hops.
        let free = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        assert_eq!(free.embedding.node_of(0, 0), NodeId(2));
        let d_free = model().embedding_delay(&sfc, &free.embedding, &flow);
        assert!((d_free - 50.0).abs() < 1e-9);

        // With a 30µs SLA only the pricey near host qualifies.
        let sla = MbbeSolver {
            config: BbeConfig {
                delay_constraint: Some(DelayConstraint {
                    model: model(),
                    max_delay_us: 30.0,
                }),
                ..BbeConfig::mbbe()
            },
        };
        let bounded = sla.solve(&g, &sfc, &flow).unwrap();
        assert_eq!(bounded.embedding.node_of(0, 0), NodeId(1));
        let d = model().embedding_delay(&sfc, &bounded.embedding, &flow);
        assert!(d <= 30.0 + 1e-9);
        assert!(bounded.cost.total() > free.cost.total());
        validate(&g, &sfc, &flow, &bounded.embedding).unwrap();
    }

    /// `sla_net` with real substrate propagation delays (10 µs per
    /// link): via v1 the route totals 20 µs, via v2 it totals 50 µs.
    fn delayed_sla_net() -> Network {
        let mut g = sla_net();
        for l in 0..7u32 {
            g.set_link_delay(dagsfc_net::LinkId(l), 10.0).unwrap();
        }
        g
    }

    /// A flow-level `delay_budget_us` must shape the search itself
    /// (promoted to a canonical-model constraint), and rejected
    /// candidates must surface in `candidates_delay_rejected`.
    #[test]
    fn flow_budget_is_promoted_and_counted() {
        let g = delayed_sla_net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let free = MbbeSolver::new()
            .solve(&g, &sfc, &Flow::unit(NodeId(0), NodeId(6)))
            .unwrap();
        assert_eq!(free.embedding.node_of(0, 0), NodeId(2));
        assert_eq!(free.stats.candidates_delay_rejected, 0);

        let flow = Flow::unit(NodeId(0), NodeId(6)).with_delay_budget(30.0);
        let out = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        assert_eq!(out.embedding.node_of(0, 0), NodeId(1));
        let d = DelayModel::for_network(&g).embedding_delay(&sfc, &out.embedding, &flow);
        assert!(d <= 30.0 + 1e-9, "budget violated: {d}");
        assert!(
            out.stats.candidates_delay_rejected >= 1,
            "the cheap-but-slow candidate must be counted as a deadline rejection"
        );
        assert!(out.cost.total() > free.cost.total());
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
    }

    /// An unreachable budget must be reported as *deadline* infeasible —
    /// the serve-side rejection split keys off this classification.
    #[test]
    fn unsatisfiable_flow_budget_is_deadline_classified() {
        let g = delayed_sla_net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(6)).with_delay_budget(5.0);
        let err = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap_err();
        assert!(err.is_deadline_infeasible(), "misclassified: {err}");
        // A capacity failure must NOT be classified as a deadline one.
        let thick = Flow {
            rate: 1e6,
            ..Flow::unit(NodeId(0), NodeId(6))
        };
        let err = MbbeSolver::new().solve(&g, &sfc, &thick).unwrap_err();
        assert!(!err.is_deadline_infeasible(), "misclassified: {err}");
    }

    /// Early delay pruning is a pure speed-up: identical embedding,
    /// bit-identical cost, and the same infeasibility classification as
    /// the lazy leaves-only filter.
    #[test]
    fn early_pruning_matches_unpruned_search() {
        let g = delayed_sla_net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(6)).with_delay_budget(30.0);
        let pruned = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        let mut lazy = MbbeSolver::new();
        lazy.config.early_delay_pruning = false;
        let lazy_out = lazy.solve(&g, &sfc, &flow).unwrap();
        assert_eq!(pruned.embedding, lazy_out.embedding);
        assert_eq!(
            pruned.cost.total().to_bits(),
            lazy_out.cost.total().to_bits()
        );
        // Infeasible instances classify identically.
        let tight = Flow::unit(NodeId(0), NodeId(6)).with_delay_budget(5.0);
        let a = MbbeSolver::new().solve(&g, &sfc, &tight).unwrap_err();
        let b = lazy.solve(&g, &sfc, &tight).unwrap_err();
        assert!(a.is_deadline_infeasible(), "{a}");
        assert!(b.is_deadline_infeasible(), "{b}");
    }

    /// When the min-cost final path alone blows the budget, the LARAC
    /// repair pass must swap in a delay-bounded final path instead of
    /// rejecting the request.
    #[test]
    fn larac_repair_swaps_in_a_bounded_final_path() {
        let mut g = Network::new();
        g.add_nodes(5);
        g.add_link_with_delay(NodeId(0), NodeId(1), 1.0, 10.0, 10.0)
            .unwrap();
        // Cheap but slow direct final hop …
        g.add_link_with_delay(NodeId(1), NodeId(4), 0.5, 10.0, 100.0)
            .unwrap();
        // … vs a pricey fast detour.
        g.add_link_with_delay(NodeId(1), NodeId(2), 1.0, 10.0, 10.0)
            .unwrap();
        g.add_link_with_delay(NodeId(2), NodeId(3), 1.0, 10.0, 10.0)
            .unwrap();
        g.add_link_with_delay(NodeId(3), NodeId(4), 1.0, 10.0, 10.0)
            .unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(4)).with_delay_budget(50.0);
        let out = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        let d = DelayModel::for_network(&g).embedding_delay(&sfc, &out.embedding, &flow);
        assert!(d <= 50.0 + 1e-9, "repair missed the budget: {d}");
        // Direct final rejected once, detour accepted: vnf 1 + links
        // (0-1) 1 + (1-2-3-4) 3 = 5.
        assert_eq!(out.stats.candidates_delay_rejected, 1);
        assert!((out.cost.total() - 5.0).abs() < 1e-9, "{}", out.cost);
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
    }

    /// Delay-oblivious baselines go through the same central gate in
    /// `Solver::solve_in`: an over-budget embedding comes back as a
    /// deadline-classified rejection, not a silent SLA violation.
    #[test]
    fn central_gate_covers_baseline_solvers() {
        use crate::solvers::baseline::MinvSolver;
        let g = delayed_sla_net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        // MINV picks the cheapest host (v2, 50 µs route), blind to the
        // 30 µs budget — the gate must catch it.
        let flow = Flow::unit(NodeId(0), NodeId(6)).with_delay_budget(30.0);
        let err = MinvSolver.solve(&g, &sfc, &flow).unwrap_err();
        assert!(err.is_deadline_infeasible(), "gate missed: {err}");
        // Without a budget the same solve succeeds.
        let free = MinvSolver.solve(&g, &sfc, &Flow::unit(NodeId(0), NodeId(6)));
        assert!(free.is_ok());
    }

    #[test]
    fn unsatisfiable_sla_fails_cleanly() {
        let g = sla_net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(6));
        let solver = MbbeSolver {
            config: BbeConfig {
                delay_constraint: Some(DelayConstraint {
                    model: model(),
                    max_delay_us: 5.0, // below any possible route
                }),
                ..BbeConfig::mbbe()
            },
        };
        assert!(matches!(
            solver.solve(&g, &sfc, &flow),
            Err(SolveError::NoFeasibleEmbedding { .. })
        ));
    }
}
