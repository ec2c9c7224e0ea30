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
mod loads;
mod stamped;
mod subtree;
mod tree;

pub use tree::{SearchTree, TreeNode};

use self::backward::backward_search;
use self::candidates::{
    parallel_layer_subs, singleton_layer_subs, EngineCtx, LayerSub, LayerSubs, Mark,
};
use self::forward::forward_search;
use self::loads::{Use, UseLists};
use self::subtree::{SubHandle, SubTree};
use super::instrument::{Counters, Instrument};
use super::{SolveCtx, Solver, SolverStats};
use crate::chain::{DagSfc, Layer};
use crate::delay::DelayModel;
use crate::embedding::Embedding;
use crate::error::{deadline_infeasible_reason, SolveError};
use crate::flow::Flow;
use crate::vnf::VnfCatalog;
use dagsfc_net::routing::csp::DELAY_EPS;
use dagsfc_net::{NodeId, Path};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
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
            max_level_width: 2048,
            delay_constraint: None,
            early_delay_pruning: true,
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
    ) -> Result<(Embedding, SolverStats), SolveError> {
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
    ) -> Result<(Embedding, SolverStats), SolveError> {
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
    ) -> Result<(Embedding, SolverStats), SolveError> {
        run(ctx, sfc, flow, &self.config, "MBBE-ST")
    }
}

/// The delay SLA a search runs under, borrowed from its source.
#[derive(Clone, Copy)]
struct Budget<'a> {
    model: &'a DelayModel,
    max_delay_us: f64,
}

/// Engine entry point shared by BBE and MBBE.
fn run(
    ctx: &SolveCtx<'_>,
    sfc: &DagSfc,
    flow: &Flow,
    config: &BbeConfig,
    solver: &'static str,
) -> Result<(Embedding, SolverStats), SolveError> {
    let net = ctx.net;
    // Promote a request-level delay budget to a solver-level constraint
    // under the canonical substrate model, so the search itself prunes
    // and ranks deadline-aware instead of relying solely on the
    // post-hoc gate in `Solver::solve_in`. An explicit SLA in the
    // config keeps precedence (it may carry a richer model).
    let dc = match &config.delay_constraint {
        Some(dc) => Some(Budget {
            model: &dc.model,
            max_delay_us: dc.max_delay_us,
        }),
        None => flow.delay_budget_us.map(|budget| Budget {
            model: ctx.delay_model(),
            max_delay_us: budget,
        }),
    };
    let mut cfg = Cow::Borrowed(config);
    loop {
        // Counters is the always-on sink so every solve surfaces its
        // statistics; search code internal to `attempt` stays generic so
        // a NoInstrument caller would compile the probes away entirely.
        let mut ins = Counters::default();
        match attempt(ctx, sfc, flow, &cfg, dc, solver, &mut ins) {
            Ok((embedding, explored, kept)) => {
                let mut stats = ins.stats;
                stats.explored = explored;
                stats.kept = kept;
                return Ok((embedding, stats));
            }
            Err(failed) => {
                // Adaptive X_max: double and retry only when the bound cut
                // a forward search. An uncut search grows the same tree
                // under any larger bound and nothing else reads `x_max`,
                // so any other retry would replay this attempt bit for
                // bit and return this error. Doubling starts from at
                // least 1: a bound of 0 grows the same one-node tree as 1
                // and would otherwise retry at 0 forever.
                let retry = failed.capped
                    && cfg.adaptive_x_max
                    && cfg.x_max.is_some_and(|x| x < net.node_count());
                if !retry {
                    return Err(failed.error);
                }
                cfg.to_mut().x_max = cfg.x_max.map(|x| (x.max(1) * 2).min(net.node_count()));
            }
        }
    }
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
    /// Final sub-solutions (sorted cheapest-first, `X_d`-truncated) and
    /// the paths they pick from.
    arena: LayerSubs,
    /// Their uses of the resources the chain can overload, while
    /// lineage loads are tracked.
    uses: Option<UseLists>,
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

impl StartMemo {
    /// The uses sub-solution `i` makes of the resources the chain can
    /// overload (none while lineage loads are not tracked).
    fn uses(&self, i: usize) -> &[Use] {
        self.uses.as_ref().map_or(&[], |lists| lists.get(i))
    }
}

/// Expands `layer` from `start_node`: forward search, then per merger
/// candidate a backward search and candidate generation (paper steps
/// 2–3 for each FST–BST pair, strategy (3) cutting each pair to its
/// `X_d` cheapest), or singleton generation; then rank and `X_d`
/// truncation. Pure in `start_node`; see [`StartMemo`].
fn expand_start(
    ctx: &EngineCtx<'_>,
    layer: &Layer,
    start_node: NodeId,
    cfg: &BbeConfig,
    catalog: &VnfCatalog,
) -> StartMemo {
    let fst = forward_search(ctx.net, start_node, layer, catalog, cfg.x_max);
    let mut memo = StartMemo {
        arena: LayerSubs::new(layer),
        uses: None,
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
    if layer.needs_merger() {
        for i in fst.hosting(ctx.net, catalog.merger()) {
            let bst = backward_search(ctx.net, fst.node(i).node, layer, catalog, &fst);
            if !bst.covered() {
                continue;
            }
            let before = memo.arena.subs().len();
            let generated = parallel_layer_subs(ctx, layer, &fst, &bst, cfg.x_d, &mut memo.arena);
            memo.bst_nodes += bst.len();
            memo.generated += generated;
            memo.pruned += generated - (memo.arena.subs().len() - before);
        }
    } else {
        memo.generated += singleton_layer_subs(ctx, layer, &fst, &mut memo.arena);
    }
    memo.explored = memo.arena.subs().len();
    // Strategy (3), per sub-solution-tree node: cheapest X_d children
    // (the X_d-tree of the paper).
    memo.pruned += memo.arena.rank_since(Mark::default(), cfg.x_d);
    if let Some(loads) = &ctx.loads {
        memo.uses = Some(loads.use_lists(ctx.net, layer, catalog, &memo.arena));
    }
    memo
}

/// Exact delay contribution of one layer sub-solution under `model`:
/// the slowest branch (inter-layer path + processing + inner path)
/// plus the merge overhead for parallel layers. Mirrors one layer term
/// of [`DelayModel::embedding_delay`], so accumulating it down the
/// sub-solution tree yields each node's share of the end-to-end delay
/// exactly — and a lower bound on any completion, since the final path
/// only adds non-negative latency.
fn sub_delay_us(
    model: &DelayModel,
    layer: &Layer,
    catalog: &VnfCatalog,
    arena: &LayerSubs,
    sub: &LayerSub,
) -> f64 {
    let merger = layer.needs_merger();
    let mut slowest: f64 = 0.0;
    for (slot, pick) in arena.picks(sub).iter().enumerate() {
        let kind = layer.slot_kind(slot, catalog);
        let mut branch = model.path_us(arena.path(pick.inter)) + model.proc(kind);
        if merger {
            branch += model.path_us(arena.path(pick.inner));
        }
        slowest = slowest.max(branch);
    }
    if merger {
        slowest += model.merge_us;
    }
    slowest
}

/// A candidate child for the next sub-solution-tree level. A level is
/// ranked and cut on these small records; only the survivors enter the
/// tree.
struct Candidate {
    /// Tree index of the parent.
    parent: usize,
    /// Where the layer sub-solution lives.
    sub: SubHandle,
    /// The sub-solution's end node.
    end_node: NodeId,
    /// The parent's accumulated cost plus the sub-solution's.
    cum_cost: f64,
    /// Accumulated layer delay (0 without a delay constraint).
    delay: f64,
    /// Generation order within the level; breaks `cum_cost` ties.
    seq: usize,
}

/// How a level ranks its candidates: by `cum_cost`, then generation
/// order — what a stable sort of the level by `cum_cost` leaves.
fn level_rank(a: &Candidate, b: &Candidate) -> Ordering {
    a.cum_cost.total_cmp(&b.cum_cost).then(a.seq.cmp(&b.seq))
}

/// Keeps the `width` best candidates by [`level_rank`], in no particular
/// order — the set a stable sort of the whole level by `cum_cost`
/// followed by a truncation leaves — and returns how many it dropped.
fn cut_level(cands: &mut Vec<Candidate>, width: usize) -> usize {
    let dropped = cands.len().saturating_sub(width);
    if dropped > 0 {
        cands.select_nth_unstable_by(width, level_rank);
        cands.truncate(width);
    }
    dropped
}

/// A leaf of the last level in the finals.
#[derive(Debug, Clone, Copy)]
struct Final {
    /// Its accumulated cost plus its min-cost final path's.
    total: f64,
    /// Its accumulated cost.
    cum_cost: f64,
    /// Its generation order within the last level.
    seq: usize,
    /// Its position in the last level.
    at: usize,
}

impl PartialEq for Final {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Final {}

impl PartialOrd for Final {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Final {
    /// Completed total, then accumulated cost, then generation order.
    fn cmp(&self, other: &Self) -> Ordering {
        self.total
            .total_cmp(&other.total)
            .then(self.cum_cost.total_cmp(&other.cum_cost))
            .then(self.seq.cmp(&other.seq))
    }
}

/// Yields `finals` best first: by completed total, then accumulated
/// cost, then generation order — the order a stable sort by total
/// leaves of the last level ranked by [`level_rank`]. A binary heap
/// orders only the leaves actually taken.
fn ranked_finals(finals: Vec<Final>) -> impl Iterator<Item = Final> {
    let mut heap: BinaryHeap<Reverse<Final>> = finals.into_iter().map(Reverse).collect();
    std::iter::from_fn(move || heap.pop().map(|Reverse(f)| f))
}

/// Whether no level cut of a `depth`-layer search can bind: with at
/// most `X_d` children per parent, level `j` holds at most `X_d^(j+1)`
/// candidates, and the deepest level bounds them all.
fn cuts_never_bind(cfg: &BbeConfig, depth: usize) -> bool {
    cfg.x_d.is_some_and(|xd| {
        u32::try_from(depth)
            .ok()
            .and_then(|d| xd.checked_pow(d))
            .is_some_and(|widest| widest <= cfg.max_level_width)
    })
}

/// Why an attempt fails when no complete candidate validates.
const FINALS_CAPACITY_REASON: &str =
    "no complete candidate reached the destination within capacity and delay bound";

/// A search attempt that found no embedding.
struct Failed {
    error: SolveError,
    /// Whether `X_max` cut at least one of the attempt's forward
    /// searches — the only way a retry under a larger bound can differ.
    capped: bool,
}

/// One search attempt under a fixed configuration and delay SLA `dc`.
fn attempt<I: Instrument>(
    ctx: &SolveCtx<'_>,
    sfc: &DagSfc,
    flow: &Flow,
    cfg: &BbeConfig,
    dc: Option<Budget<'_>>,
    solver: &'static str,
    ins: &mut I,
) -> Result<(Embedding, usize, usize), Failed> {
    let net = ctx.net;
    let catalog = *sfc.catalog();
    let ctx = EngineCtx::new(net, sfc, *flow, cfg, &ctx.oracle);
    let mut tree = SubTree::new(flow.src);
    let mut level: Vec<usize> = vec![0];
    let mut explored = 0usize;
    // The root plus every candidate that reached a level before its
    // width cap.
    let mut kept = 1usize;
    // Accumulated layer delays per sub-solution-tree node, indexed like
    // the tree's arena (root = 0.0). Maintained only under a delay
    // constraint; drives early pruning and the LARAC final-path repair.
    let mut node_delay: Vec<f64> = vec![0.0];
    let mut capped = false;
    // Every layer expansion of the attempt, in the order they were made,
    // kept until the attempt returns: tree nodes hold handles into them
    // (see `SubHandle`).
    let mut memos: Vec<StartMemo> = Vec::new();
    // The arena index of each start node's expansion; an index below the
    // current layer's first expansion belongs to an earlier layer.
    let mut memo_at: Vec<u32> = vec![u32::MAX; net.node_count()];
    // Lineage loads (see `loads`), tracked while no level cut can bind,
    // under a delay constraint too. A lineage that already overloads the
    // residual can never validate, so it is dropped before its delay is
    // looked at; every level keeps all it is given, so dropping moves no
    // survivor.
    let loads = ctx.loads.as_ref();
    // Per child of the current parent: whether it overloads.
    let mut child_dead: Vec<bool> = Vec::new();
    // The level being generated; after the last layer, its leaves, each
    // at the tree index `level` holds at the same position.
    let mut cands: Vec<Candidate> = Vec::new();

    for l in 0..sfc.depth() {
        // Per-layer wall clock only when a recording sink asks for it.
        let layer_start = if I::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let layer = super::layering::layer(sfc, l);
        cands.clear();
        // Cheapest accumulated delay among this layer's delay-pruned
        // nodes — evidence for classifying an empty level as a deadline
        // (not capacity) failure.
        let mut layer_delay_pruned: Option<f64> = None;
        // Candidates dropped because their lineage overloads.
        let mut layer_overloaded = 0usize;
        // Expansions depend on the layer: this layer's are
        // `memos[layer_first..]`.
        let layer_first = memos.len();
        for &parent in &level {
            ins.nodes_expanded(1);
            let node = tree.node(parent);
            let start = node.end_node;
            let mut at = memo_at[start.index()] as usize;
            if !(layer_first..memos.len()).contains(&at) {
                at = memos.len();
                memo_at[start.index()] = at as u32;
                memos.push(expand_start(&ctx, layer, start, cfg, &catalog));
            }
            let m = &memos[at];
            ins.fst_nodes(m.fst_nodes);
            capped |= m.capped;
            if !m.covered {
                continue;
            }
            ins.bst_nodes(m.bst_nodes);
            ins.candidates_generated(m.generated);
            ins.candidates_pruned(m.pruned);
            explored += m.explored;
            child_dead.clear();
            let subs = m.arena.subs();
            if let Some(loads) = loads.filter(|_| !subs.is_empty()) {
                let lineage = tree
                    .handles(parent)
                    .map(|h| memo_of(&memos, h).uses(h.index as usize));
                loads.with_lineage(lineage, |load| {
                    child_dead.extend((0..subs.len()).map(|i| load.overloads_with(m.uses(i))));
                });
            }
            for (index, sub) in subs.iter().enumerate() {
                if child_dead.get(index) == Some(&true) {
                    ins.candidates_overloaded(1);
                    layer_overloaded += 1;
                    continue;
                }
                let mut delay = 0.0;
                if let Some(dc) = dc {
                    delay =
                        node_delay[parent] + sub_delay_us(dc.model, layer, &catalog, &m.arena, sub);
                    if cfg.early_delay_pruning && delay > dc.max_delay_us + 1e-9 {
                        // Already over budget with layers still to embed
                        // and the final path unpaid: no completion can
                        // recover.
                        ins.candidates_delay_rejected(1);
                        layer_delay_pruned =
                            Some(layer_delay_pruned.map_or(delay, |b: f64| b.min(delay)));
                        continue;
                    }
                }
                cands.push(Candidate {
                    parent,
                    sub: SubHandle {
                        memo: at as u32,
                        index: index as u32,
                    },
                    end_node: sub.end_node,
                    cum_cost: node.cum_cost + sub.cost.total(),
                    delay,
                    seq: cands.len(),
                });
            }
        }
        if cands.is_empty() {
            let (h, m) = ctx.cache_counts();
            ins.cache(h, m);
            // A level emptied by delay pruning is a deadline failure:
            // some candidate blew the budget, and where lineages are
            // tracked, only one that does not overload the residual is
            // delay-checked. A level whose every candidate overloads
            // fails as the finals would have: no lineage can validate.
            let reason = match (dc, layer_delay_pruned) {
                (Some(dc), Some(best)) => deadline_infeasible_reason(best, dc.max_delay_us),
                _ if layer_overloaded > 0 => FINALS_CAPACITY_REASON.into(),
                _ => format!("layer {l} produced no feasible sub-solution"),
            };
            let error = SolveError::NoFeasibleEmbedding { solver, reason };
            return Err(Failed { error, capped });
        }
        kept += cands.len();
        // Global level cap: only the cheapest prefixes enter the tree.
        let dropped = cut_level(&mut cands, cfg.max_level_width);
        if dropped > 0 {
            ins.candidates_pruned(dropped);
        }
        // The next layer expands the level in rank order. The last level
        // is ranked in the finals instead, unless a delay constraint has
        // each leaf's final path searched eagerly, in rank order.
        if l + 1 < sfc.depth() || dc.is_some() {
            cands.sort_unstable_by(level_rank);
        }
        level.clear();
        for c in &cands {
            let idx = tree.insert(c.parent, c.sub, c.cum_cost, c.end_node);
            if dc.is_some() {
                debug_assert_eq!(idx, node_delay.len());
                node_delay.push(c.delay);
            }
            level.push(idx);
        }
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
    // bound. Candidates are taken best-first by that completed total
    // from a heap, so only the leaves actually tried get ordered, and
    // the final path is materialized lazily (reversed tree walk) only
    // for those: the common case extracts exactly one path instead of
    // one per leaf. Under a delay SLA the per-leaf forward search is
    // kept: equal-cost final paths can differ in hop count, which the
    // delay model observes.
    let dst_tree = if dc.is_none() {
        Some(ctx.oracle_tree(flow.dst))
    } else {
        None
    };
    let mut finals: Vec<Final> = Vec::with_capacity(cands.len());
    // Each leaf's eagerly searched final path (delay constraint only).
    let mut eager: Vec<Option<Path>> = Vec::new();
    let mut price_leaf = |at: usize, remaining: Option<f64>| {
        if let Some(d) = remaining {
            let c = &cands[at];
            finals.push(Final {
                total: c.cum_cost + d * flow.size,
                cum_cost: c.cum_cost,
                seq: c.seq,
                at,
            });
        }
    };
    match &dst_tree {
        // Every leaf's distance under one lock of the tree.
        Some(dt) => dt.locked(|dt| {
            for (at, c) in cands.iter().enumerate() {
                let end = c.end_node;
                let remaining = if end == flow.dst {
                    Some(0.0)
                } else {
                    dt.dist_to(end)
                };
                price_leaf(at, remaining);
            }
        }),
        None => {
            for (at, c) in cands.iter().enumerate() {
                let p = ctx.min_cost_path(c.end_node, flow.dst);
                price_leaf(at, p.as_ref().map(|p| p.price(net)));
                eager.push(p);
            }
        }
    }
    let (h, m) = ctx.cache_counts();
    ins.cache(h, m);
    // Cheapest end-to-end delay among deadline-rejected candidates, and
    // the rejected leaves themselves (for the LARAC repair pass).
    let mut best_rejected: Option<f64> = None;
    let mut deadline_rejected: Vec<usize> = Vec::new();
    for f in ranked_finals(finals) {
        let leaf = level[f.at];
        let end = cands[f.at].end_node;
        let final_path = match &dst_tree {
            None => match eager[f.at].take() {
                Some(p) => p,
                None => continue,
            },
            Some(_) if end == flow.dst => Path::trivial(end),
            Some(dt) => match dt.path_to(end) {
                Some(p) => p.reversed(),
                None => continue,
            },
        };
        let embedding = assemble(sfc, &tree, &memos, leaf, final_path)
            .map_err(|error| Failed { error, capped })?;
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
    //
    // One least-delay tree from dst, fetched for the first leaf that
    // needs it, gives every leaf its fastest admitted route's delay
    // (links are undirected), so a leaf that LARAC cannot repair is
    // skipped without a search (see `repair_ruled_out`).
    if let Some(dc) = dc {
        if dc.model.link_delay_us.is_some() {
            let mut fastest = None;
            for leaf in deadline_rejected {
                let end = tree.node(leaf).end_node;
                if end == flow.dst {
                    continue; // final path already trivial: nothing to repair
                }
                let slack = dc.max_delay_us - node_delay[leaf];
                if slack.is_nan() || slack <= 0.0 {
                    continue;
                }
                let least = fastest
                    .get_or_insert_with(|| ctx.delay_tree(flow.dst))
                    .dist_to(end);
                if repair_ruled_out(least, slack) {
                    continue;
                }
                ins.delay_repairs(1);
                let Some(p) = ctx.min_cost_path_bounded(end, flow.dst, slack) else {
                    continue;
                };
                let repaired_delay = node_delay[leaf] + dc.model.path_us(&p);
                if repaired_delay > dc.max_delay_us + 1e-9 {
                    continue;
                }
                let embedding = assemble(sfc, &tree, &memos, leaf, p)
                    .map_err(|error| Failed { error, capped })?;
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
        _ => FINALS_CAPACITY_REASON.into(),
    };
    let error = SolveError::NoFeasibleEmbedding { solver, reason };
    Err(Failed { error, capped })
}

/// Whether LARAC provably finds no final path for a leaf with `slack`
/// µs of budget left whose least substrate delay to dst is `least`
/// (`None`: dst unreachable over the admitted links). LARAC returns no
/// path exactly when the fastest admitted route is later than
/// `slack + DELAY_EPS`; the route's delay summed from dst may differ
/// from LARAC's sum in the last bits, so the bound allows a further
/// `1e-9·max(1, slack)` and every repair LARAC could make still runs.
fn repair_ruled_out(least: Option<f64>, slack: f64) -> bool {
    least.is_none_or(|d| d > slack + DELAY_EPS + 1e-9 * slack.abs().max(1.0))
}

/// The layer expansion a tree node's handle points into.
fn memo_of(memos: &[StartMemo], handle: SubHandle) -> &StartMemo {
    &memos[handle.memo as usize]
}

/// Reconstructs the [`Embedding`] from a sub-solution-tree leaf: the only
/// place layer sub-solutions are copied out of the memos, and the only
/// place the search clones a path.
fn assemble(
    sfc: &DagSfc,
    tree: &SubTree,
    memos: &[StartMemo],
    leaf: usize,
    final_path: Path,
) -> Result<Embedding, SolveError> {
    let lineage = tree.lineage(leaf);
    debug_assert_eq!(lineage.len(), sfc.depth());
    let mut assignments = Vec::with_capacity(sfc.depth());
    let mut paths = Vec::new();
    for handle in lineage {
        let arena = &memo_of(memos, handle).arena;
        let sub = &arena.subs()[handle.index as usize];
        assignments.push(arena.assignment(sub).collect());
        paths.extend(arena.inter_paths(sub).cloned());
        paths.extend(arena.inner_paths(sub).cloned());
    }
    paths.push(final_path);
    Embedding::new(sfc, assignments, paths).map_err(SolveError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::solvers::SolverStats;
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

    /// The level cut, then a sort of the survivors by `level_rank`,
    /// leaves exactly what a stable sort of the whole level by
    /// `cum_cost` and a truncation leave, at every width, on levels full
    /// of ties.
    #[test]
    fn cut_level_matches_stable_sort_and_truncate() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for len in 0..40usize {
            let costs: Vec<f64> = (0..len).map(|_| f64::from(rng.gen_range(0..4u8))).collect();
            for width in 0..=len + 1 {
                let mut cands: Vec<Candidate> = costs
                    .iter()
                    .enumerate()
                    .map(|(seq, &cum_cost)| Candidate {
                        parent: 0,
                        sub: SubHandle {
                            memo: 0,
                            index: seq as u32,
                        },
                        end_node: NodeId(0),
                        cum_cost,
                        delay: 0.0,
                        seq,
                    })
                    .collect();
                let dropped = cut_level(&mut cands, width);
                cands.sort_unstable_by(level_rank);
                let mut reference: Vec<usize> = (0..len).collect();
                reference.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
                reference.truncate(width);
                assert_eq!(
                    dropped,
                    len.saturating_sub(width),
                    "len {len} width {width}"
                );
                let kept: Vec<usize> = cands.iter().map(|c| c.seq).collect();
                assert_eq!(kept, reference, "len {len} width {width}");
            }
        }
    }

    /// The finals take the leaves in exactly the order the last level's
    /// sort and the old finals sort left them: the level cut and sorted
    /// by (`cum_cost`, generation order), then stably sorted by completed
    /// total. Levels are tie-heavy — accumulated costs and final-path
    /// prices drawn from a few flat values, so totals tie across
    /// different accumulated costs and both tie across leaves — mostly
    /// wider than the cut, with unreachable leaves mixed in.
    #[test]
    fn finals_take_leaves_in_the_stable_sort_order() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        let flat = [1.0, 1.5, 2.0];
        let finals_paths = [None, Some(0.0), Some(0.5), Some(1.0)];
        let mut cut = 0;
        for _ in 0..500 {
            let len = rng.gen_range(0..80usize);
            let width = rng.gen_range(1..48usize);
            cut += usize::from(len > width);
            let costs: Vec<f64> = (0..len).map(|_| flat[rng.gen_range(0..3usize)]).collect();
            let remaining: Vec<Option<f64>> = (0..len)
                .map(|_| finals_paths[rng.gen_range(0..4usize)])
                .collect();
            let mut cands: Vec<Candidate> = costs
                .iter()
                .enumerate()
                .map(|(seq, &cum_cost)| Candidate {
                    parent: 0,
                    sub: SubHandle {
                        memo: 0,
                        index: seq as u32,
                    },
                    end_node: NodeId(0),
                    cum_cost,
                    delay: 0.0,
                    seq,
                })
                .collect();
            cut_level(&mut cands, width);
            let finals: Vec<Final> = cands
                .iter()
                .enumerate()
                .filter_map(|(at, c)| {
                    remaining[c.seq].map(|d| Final {
                        total: c.cum_cost + d,
                        cum_cost: c.cum_cost,
                        seq: c.seq,
                        at,
                    })
                })
                .collect();
            let taken: Vec<usize> = ranked_finals(finals).map(|f| cands[f.at].seq).collect();
            let mut level: Vec<usize> = (0..len).collect();
            level.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
            level.truncate(width);
            let mut reference: Vec<(f64, usize)> = level
                .iter()
                .filter_map(|&seq| remaining[seq].map(|d| (costs[seq] + d, seq)))
                .collect();
            reference.sort_by(|a, b| a.0.total_cmp(&b.0));
            let reference: Vec<usize> = reference.iter().map(|&(_, seq)| seq).collect();
            assert_eq!(taken, reference, "len {len} width {width}");
        }
        assert!(cut > 200, "only {cut} levels wider than the cut");
    }

    /// Three f0 hosts one link (price 1) from the source, all renting at
    /// 1: their layer sub-solutions tie at 2. Only the final paths
    /// differ — v1 → v4 costs 3, v2 → v4 costs 2, v3 → v4 costs 1.
    fn tied_net() -> Network {
        let mut g = Network::new();
        g.add_nodes(5);
        for (host, final_price) in [(1, 3.0), (2, 2.0), (3, 1.0)] {
            g.add_link(NodeId(0), NodeId(host), 1.0, 10.0).unwrap();
            g.add_link(NodeId(host), NodeId(4), final_price, 10.0)
                .unwrap();
            g.deploy_vnf(NodeId(host), VnfTypeId(0), 1.0, 10.0).unwrap();
        }
        g
    }

    /// Tied candidates leave the level cut in generation order (host id
    /// order here): a width-`w` level keeps v1..=vw, and the cheapest
    /// completion among those wins.
    #[test]
    fn level_cut_keeps_tied_candidates_in_generation_order() {
        let g = tied_net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(4));
        for (width, host, total) in [(1, 1, 5.0), (2, 2, 4.0), (3, 3, 3.0), (2048, 3, 3.0)] {
            let solver = BbeSolver {
                config: BbeConfig {
                    max_level_width: width,
                    ..BbeConfig::default()
                },
            };
            let out = solver.solve(&g, &sfc, &flow).unwrap();
            assert_eq!(out.embedding.node_of(0, 0), NodeId(host), "width {width}");
            assert!((out.cost.total() - total).abs() < 1e-9, "width {width}");
            // The root plus all three candidates count as kept; the cut
            // prunes the rest.
            assert_eq!(out.stats.kept, 4, "width {width}");
            assert_eq!(out.stats.candidates_pruned, 3 - width.min(3));
        }
    }

    /// The two-layer chain used by the width tests: a parallel layer
    /// (f0 ‖ f1, merged) then f2.
    fn two_layer_chain() -> DagSfc {
        DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]),
                Layer::new(vec![VnfTypeId(2)]),
            ],
            catalog(),
        )
        .unwrap()
    }

    /// Width 0 empties the first level: the second layer has no parent to
    /// expand, and the solve fails instead of panicking.
    #[test]
    fn zero_level_width_fails_at_the_next_layer() {
        let g = net();
        let flow = Flow::unit(NodeId(0), NodeId(5));
        for config in [BbeConfig::default(), BbeConfig::mbbe()] {
            let solver = BbeSolver {
                config: BbeConfig {
                    max_level_width: 0,
                    ..config
                },
            };
            let err = solver.solve(&g, &two_layer_chain(), &flow).unwrap_err();
            assert_eq!(
                err.to_string(),
                "BBE: no feasible embedding found (layer 1 produced no feasible sub-solution)"
            );
        }
    }

    /// Width 1 keeps one lineage: the cheapest first-layer candidate, then
    /// the cheapest extension of it (values as recorded before the level
    /// was ranked ahead of tree insertion).
    #[test]
    fn unit_level_width_keeps_one_lineage() {
        let g = net();
        let flow = Flow::unit(NodeId(0), NodeId(5));
        for (config, counters) in [
            (BbeConfig::default(), (7, 4, 6)),
            (BbeConfig::mbbe(), (6, 3, 5)),
        ] {
            let solver = BbeSolver {
                config: BbeConfig {
                    max_level_width: 1,
                    ..config
                },
            };
            let out = solver.solve(&g, &two_layer_chain(), &flow).unwrap();
            validate(&g, &two_layer_chain(), &flow, &out.embedding).unwrap();
            let slots = |nodes: &[u32]| nodes.iter().map(|&n| NodeId(n)).collect::<Vec<_>>();
            assert_eq!(
                out.embedding.assignments(),
                &[slots(&[1, 2, 2]), slots(&[3])]
            );
            assert!((out.cost.total() - 11.5).abs() < 1e-9, "{}", out.cost);
            let s = &out.stats;
            assert_eq!((s.kept, s.candidates_pruned, s.explored), counters);
        }
    }

    /// `X_max = 0` grows the same capped one-node first tree as
    /// `X_max = 1`, so the adaptive retry must climb from it exactly as
    /// from 1 — and return. Solved on a thread so a retry loop that never
    /// ends fails the test instead of hanging it.
    #[test]
    fn zero_x_max_retries_like_one() {
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(2)], catalog()).unwrap(); // f2 only on v3
        let flow = Flow::unit(NodeId(5), NodeId(0));
        let (tx, rx) = std::sync::mpsc::channel();
        let (g0, sfc0) = (g.clone(), sfc.clone());
        let worker = std::thread::spawn(move || {
            let _ = tx.send(MbbeSolver::with_limits(0, 4).solve(&g0, &sfc0, &flow));
        });
        let zero = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("MBBE with X_max = 0 did not return")
            .unwrap();
        worker.join().expect("solver thread panicked");
        let one = MbbeSolver::with_limits(1, 4)
            .solve(&g, &sfc, &flow)
            .unwrap();
        assert_eq!(zero.embedding, one.embedding);
        assert_eq!(zero.cost.total().to_bits(), one.cost.total().to_bits());
        let timeless = |s: &SolverStats| SolverStats {
            elapsed: std::time::Duration::ZERO,
            layer_wall: Vec::new(),
            ..s.clone()
        };
        assert_eq!(timeless(&zero.stats), timeless(&one.stats));
    }

    /// The source v0 reaches f0's host v1 at price 1, and v1 reaches
    /// f1's host v2 at price 0.1. Two merger hosts sit one link from v1:
    /// v4 over the one link of capacity 1.5 (price 0.1), v6 at price 1
    /// (also one link from v2). Both reach the destination v5 at price
    /// 1; without `merger_on_v6`, v6 hosts nothing. f2 sits on v7, which
    /// no link reaches.
    fn overload_net(merger_on_v6: bool) -> Network {
        let mut g = Network::new();
        g.add_nodes(8);
        for (a, b, price, capacity) in [
            (0, 1, 1.0, 10.0),
            (1, 2, 0.1, 10.0),
            (1, 4, 0.1, 1.5),
            (4, 5, 1.0, 10.0),
            (1, 6, 1.0, 10.0),
            (2, 6, 1.0, 10.0),
            (6, 5, 1.0, 10.0),
        ] {
            g.add_link(NodeId(a), NodeId(b), price, capacity).unwrap();
        }
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(4), VnfTypeId(3), 0.5, 10.0).unwrap();
        if merger_on_v6 {
            g.deploy_vnf(NodeId(6), VnfTypeId(3), 0.5, 10.0).unwrap();
        }
        g.deploy_vnf(NodeId(7), VnfTypeId(2), 1.0, 10.0).unwrap();
        g
    }

    /// The cheapest sub-solution merges on v4: VNFs 2.5, inter links
    /// v0–v1 and v1–v2 1.1, inner paths v1–v4 and v2–v1–v4 0.3, final
    /// v4–v5 1 — 4.9 in all, but both inner paths (2 units) cross the
    /// capacity-1.5 link v1–v4. MBBE drops it; BBE, whose levels have no
    /// `X_d` bound and so are not tracked, fails it at validation. Both
    /// return the merge on v6: VNFs 2.5, inter 1.1, inner v1–v6 and
    /// v2–v6 2, final v6–v5 1 = 6.6.
    #[test]
    fn overloaded_cheapest_sub_solution_yields_the_next_one() {
        let g = overload_net(true);
        let sfc = DagSfc::new(
            vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1)])],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(5));
        let solvers: [(&str, Box<dyn Solver>, bool); 2] = [
            ("MBBE", Box::new(MbbeSolver::new()), true),
            ("BBE", Box::new(BbeSolver::new()), false),
        ];
        for (name, solver, tracked) in solvers {
            let out = solver.solve(&g, &sfc, &flow).unwrap();
            validate(&g, &sfc, &flow, &out.embedding).unwrap();
            assert_eq!(
                out.embedding.assignments(),
                &[vec![NodeId(1), NodeId(2), NodeId(6)]],
                "{name}"
            );
            assert!(
                (out.cost.total() - 6.6).abs() < 1e-9,
                "{name}: {}",
                out.cost
            );
            assert_eq!(
                out.stats.candidates_overloaded >= 1,
                tracked,
                "{name}: {:?}",
                out.stats
            );
        }
    }

    /// f0 twice in a row, from v0 to v3. f0 sits on v1 (capacity 1.5)
    /// and v2, both one link from v0 and from v3: the cheaper lineage
    /// places both slots on v1 (4 in all), two units on an instance
    /// that takes 1.5; the other places both on v2 (4.5). No link can be
    /// overloaded, so the instance alone turns tracking on.
    #[test]
    fn overloaded_instance_yields_the_next_lineage() {
        let mut g = Network::new();
        g.add_nodes(4);
        for (a, b, price) in [(0, 1, 1.0), (0, 2, 1.5), (1, 3, 1.0), (2, 3, 1.0)] {
            g.add_link(NodeId(a), NodeId(b), price, 10.0).unwrap();
        }
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 1.5).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(0), 1.0, 10.0).unwrap();
        let sfc = DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(0)], catalog()).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let out = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        assert_eq!(
            out.embedding.assignments(),
            &[vec![NodeId(2)], vec![NodeId(2)]]
        );
        assert!((out.cost.total() - 4.5).abs() < 1e-9, "{}", out.cost);
        assert_eq!(out.stats.candidates_overloaded, 1);
    }

    /// The two-layer chain of the reason tests: f0 ‖ f1, then f2.
    fn overload_chain() -> DagSfc {
        DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]),
                Layer::new(vec![VnfTypeId(2)]),
            ],
            catalog(),
        )
        .unwrap()
    }

    /// Without v6's merger, MBBE's only first-layer sub-solution
    /// overloads v1–v4, and no host of f2 is reachable for the second
    /// layer. The attempt stops at the dead first level and fails as
    /// the finals would; a search that expanded the dead lineage failed
    /// at the empty second level instead ("layer 1 produced no feasible
    /// sub-solution"). Both are capacity failures.
    #[test]
    fn all_dead_level_fails_with_the_finals_reason() {
        let g = overload_net(false);
        let flow = Flow::unit(NodeId(0), NodeId(5));
        let err = MbbeSolver::new()
            .solve(&g, &overload_chain(), &flow)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "MBBE: no feasible embedding found (no complete candidate reached \
             the destination within capacity and delay bound)"
        );
        assert!(!err.is_deadline_infeasible());
    }

    /// Under a delay budget lineages are tracked as without one: the
    /// search stops at the dead first level with the finals' capacity
    /// reason, and the merge on v6 wins once the dead merge on v4 is
    /// dropped.
    #[test]
    fn delay_budgets_track_lineages_too() {
        let flow = Flow::unit(NodeId(0), NodeId(5)).with_delay_budget(1e6);
        let err = MbbeSolver::new()
            .solve(&overload_net(false), &overload_chain(), &flow)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "MBBE: no feasible embedding found (no complete candidate reached \
             the destination within capacity and delay bound)"
        );
        assert!(!err.is_deadline_infeasible());
        let sfc = DagSfc::new(
            vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1)])],
            catalog(),
        )
        .unwrap();
        let out = MbbeSolver::new()
            .solve(&overload_net(true), &sfc, &flow)
            .unwrap();
        assert_eq!(
            out.embedding.assignments(),
            &[vec![NodeId(1), NodeId(2), NodeId(6)]]
        );
        assert!(out.stats.candidates_overloaded >= 1, "{:?}", out.stats);
    }

    /// `overload_net(false)` with 1 µs links but 100 µs on v4–v5, under
    /// a 50 µs budget. MBBE's one sub-solution of f0 ‖ f1 merges on v4
    /// within 4 µs but overloads v1–v4, and its min-cost final path
    /// v4–v5 blows the budget: the only over-budget lineage is dead.
    /// Where lineages are tracked, the request is a capacity rejection.
    /// At level width 3 a cut could bind, nothing is tracked, and the
    /// dead leaf still makes it a deadline rejection.
    #[test]
    fn a_dead_lineage_over_budget_is_a_capacity_rejection() {
        let mut g = overload_net(false);
        for l in 0..g.link_count() as u32 {
            let delay = if l == 3 { 100.0 } else { 1.0 };
            g.set_link_delay(dagsfc_net::LinkId(l), delay).unwrap();
        }
        let sfc = DagSfc::new(
            vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1)])],
            catalog(),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(5)).with_delay_budget(50.0);
        let err = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap_err();
        assert_eq!(
            err.to_string(),
            "MBBE: no feasible embedding found (no complete candidate reached \
             the destination within capacity and delay bound)"
        );
        assert!(!err.is_deadline_infeasible());
        let untracked = MbbeSolver {
            config: BbeConfig {
                max_level_width: 3,
                ..BbeConfig::mbbe()
            },
        };
        let err = untracked.solve(&g, &sfc, &flow).unwrap_err();
        assert_eq!(
            err.to_string(),
            "MBBE: no feasible embedding found (deadline infeasible: best delay \
             104.000 us > budget 50.000 us)"
        );
    }
}

#[cfg(test)]
mod delay_tests {
    use super::*;
    use crate::delay::DelayModel;
    use crate::solvers::instrument::Counters;
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
        assert_eq!(out.stats.delay_repairs, 1);
        assert!((out.cost.total() - 5.0).abs() < 1e-9, "{}", out.cost);
        validate(&g, &sfc, &flow, &out.embedding).unwrap();
    }

    /// Under a 15 µs budget both leaves reach their f0 host in 10 µs and
    /// blow the budget with their min-cost final paths (20 and 50 µs).
    /// Neither can reach v6 within its 5 µs of slack: the fastest
    /// routes take 10 µs from v1 and 30 µs from v2. So no repair runs,
    /// and the finals' deadline reason stands.
    #[test]
    fn repairs_a_min_delay_bound_rules_out_are_skipped() {
        let g = delayed_sla_net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(6)).with_delay_budget(15.0);
        let ctx = SolveCtx::new(&g);
        let dc = Budget {
            model: ctx.delay_model(),
            max_delay_us: 15.0,
        };
        let mut ins = Counters::default();
        let cfg = BbeConfig::mbbe();
        let Err(failed) = attempt(&ctx, &sfc, &flow, &cfg, Some(dc), "MBBE", &mut ins) else {
            panic!("no route meets a 15 µs budget");
        };
        assert_eq!(
            failed.error.to_string(),
            "MBBE: no feasible embedding found (deadline infeasible: best delay \
             20.000 us > budget 15.000 us)"
        );
        assert!(failed.error.is_deadline_infeasible());
        assert_eq!(ins.stats.candidates_delay_rejected, 2);
        assert_eq!(ins.stats.delay_repairs, 0);
    }

    /// The repair skip never skips a repair LARAC could make. On random
    /// 10-node substrates with delays whose sums round differently by
    /// summation order, a link too thin for the rate and one link down
    /// in the oracle's overlay, every (leaf, dst) pair is tried at
    /// slacks on and around its least delay: whenever the dst-rooted
    /// delay tree rules the repair out, LARAC finds no path.
    #[test]
    fn ruled_out_repairs_find_no_path() {
        use dagsfc_net::routing::ArcWeight;
        use dagsfc_net::LinkId;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xDE1A);
        let delays = [0.1, 0.2, 0.3, 0.7, 1.1, 10.0];
        let (mut skipped, mut run) = (0usize, 0usize);
        for _ in 0..30 {
            let n = 10u32;
            let mut g = Network::new();
            g.add_nodes(n as usize);
            for _ in 0..20 {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a == b || g.link_between(NodeId(a), NodeId(b)).is_some() {
                    continue;
                }
                let price = f64::from(rng.gen_range(1..4u8));
                let capacity = if rng.gen_range(0..6u8) == 0 { 0.5 } else { 2.0 };
                let delay = delays[rng.gen_range(0..delays.len())];
                g.add_link_with_delay(NodeId(a), NodeId(b), price, capacity, delay)
                    .unwrap();
            }
            let ctx = SolveCtx::new(&g);
            if g.link_count() > 0 {
                let down = rng.gen_range(0..g.link_count() as u32);
                ctx.oracle.set_link_down(LinkId(down), true);
            }
            for dst in (0..n).map(NodeId) {
                let tree = ctx.oracle.weighted_tree(dst, 1.0, ArcWeight::Delay);
                for end in (0..n).map(NodeId).filter(|&v| v != dst) {
                    let least = tree.dist_to(end);
                    let d = least.unwrap_or(5.0);
                    for slack in [
                        d,
                        d - 1e-12,
                        d + 1e-12,
                        d - 2e-9,
                        d - 1e-6,
                        0.5 * d,
                        d + 1.0,
                    ] {
                        if slack <= 0.0 {
                            continue;
                        }
                        let larac = ctx.oracle.min_cost_path_bounded(end, dst, 1.0, slack);
                        if repair_ruled_out(least, slack) {
                            skipped += 1;
                            assert!(larac.is_none(), "skipped a repair LARAC makes");
                        } else {
                            run += 1;
                        }
                    }
                }
            }
        }
        assert!(skipped > 100 && run > 100, "skipped {skipped}, run {run}");
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
