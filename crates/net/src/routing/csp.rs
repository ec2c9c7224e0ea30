//! Delay-constrained cheapest paths (CSP).
//!
//! Finds a cheap path whose summed link delay stays within a budget
//! `D_max` — the routing primitive behind QoS-constrained embedding.
//! Two solvers live here:
//!
//! * **LARAC** (Lagrangian Aggregated Cost) — relaxes the delay
//!   constraint into the objective and runs plain Dijkstra on the
//!   aggregate weight `c_e + λ·d_e`, bisecting λ between the pure
//!   min-price path (cheap, possibly late) and the pure min-delay path
//!   (fast, possibly pricey). Polynomial, near-optimal in practice, and
//!   *sound*: every returned path respects the budget, and `None` is
//!   returned only when even the min-delay path is late — a proof of
//!   infeasibility. The gap to optimal is the Lagrangian duality gap.
//! * **Exact pareto label-setting** — multi-criteria Dijkstra keeping
//!   the full (price, delay) pareto frontier per node. Exponential in
//!   the worst case; used as the optimality reference on small
//!   instances (differential tests, `--exact` audits).

use super::dijkstra::ArcWeight;
use super::heap::{ParetoEntry, ParetoQueue};
use super::scratch::{with_thread_scratch, RoutingScratch};
use super::{LinkFilter, ShortestPathTree};
use crate::graph::Network;
use crate::ids::NodeId;
use crate::path::Path;

/// Hard cap on LARAC λ-iterations. Convergence is geometric and
/// typically takes well under ten rounds; the cap only guards against
/// floating-point stalemates.
pub const LARAC_MAX_ITERS: usize = 32;

/// Slack applied when comparing a path delay against the budget, so
/// accumulation order cannot flip a boundary decision.
pub const DELAY_EPS: f64 = 1e-9;

/// A path annotated with both objective values.
#[derive(Debug, Clone)]
pub struct ConstrainedPath {
    /// The concrete route.
    pub path: Path,
    /// Summed link prices per unit rate.
    pub price: f64,
    /// Summed link propagation delays in microseconds.
    pub delay_us: f64,
}

impl ConstrainedPath {
    /// Annotates `path` with its price and delay under `net`.
    pub fn evaluate(net: &Network, path: Path) -> Self {
        let price = path.price(net);
        let delay_us = path.delay_us(net);
        ConstrainedPath {
            path,
            price,
            delay_us,
        }
    }
}

/// The LARAC driver, generic over the λ-subproblem solver so the
/// [`PathOracle`](crate::PathOracle) can plug in its cached weighted
/// trees while the standalone entry points below solve directly.
///
/// `cheapest(w)` must return the weight-minimal `from → to` path under
/// criterion `w` (or `None` if unreachable). The driver guarantees any
/// returned path satisfies `delay_us <= max_delay_us + DELAY_EPS`, and
/// returns `None` only when no admitted path can.
pub(crate) fn larac_core(
    mut cheapest: impl FnMut(ArcWeight) -> Option<ConstrainedPath>,
    max_delay_us: f64,
) -> Option<ConstrainedPath> {
    if max_delay_us.is_nan() || max_delay_us < 0.0 {
        return None;
    }
    let p_cost = cheapest(ArcWeight::Price)?;
    if p_cost.delay_us <= max_delay_us + DELAY_EPS {
        // The unconstrained optimum already meets the deadline.
        return Some(p_cost);
    }
    let p_delay = cheapest(ArcWeight::Delay)?;
    if p_delay.delay_us > max_delay_us + DELAY_EPS {
        // Even the fastest admitted path is late: provably infeasible.
        return None;
    }
    // Bracket: `lo` is cheap-but-late, `hi` is feasible-but-pricey.
    let mut lo = p_cost;
    let mut hi = p_delay;
    for _ in 0..LARAC_MAX_ITERS {
        let denom = lo.delay_us - hi.delay_us;
        if denom <= DELAY_EPS {
            break;
        }
        let lambda = (hi.price - lo.price) / denom;
        if !lambda.is_finite() || lambda <= 0.0 {
            break;
        }
        let r = cheapest(ArcWeight::Lagrange(lambda))?;
        let aggr_r = r.price + lambda * r.delay_us;
        let aggr_lo = lo.price + lambda * lo.delay_us;
        // λ was chosen so lo and hi tie in aggregate weight; if the new
        // minimizer ties too, λ* is optimal and `hi` is LARAC's answer.
        if (aggr_lo - aggr_r).abs() <= 1e-9 * aggr_lo.abs().max(1.0) {
            break;
        }
        if r.delay_us <= max_delay_us + DELAY_EPS {
            hi = r;
        } else {
            lo = r;
        }
    }
    Some(hi)
}

/// LARAC delay-constrained cheapest path, with per-call scratch.
pub fn constrained_path<F: LinkFilter>(
    net: &Network,
    from: NodeId,
    to: NodeId,
    filter: &F,
    max_delay_us: f64,
) -> Option<ConstrainedPath> {
    with_thread_scratch(|scratch| constrained_path_in(net, from, to, filter, max_delay_us, scratch))
}

/// Like [`constrained_path`], but runs in a caller-provided scratch.
pub fn constrained_path_in<F: LinkFilter>(
    net: &Network,
    from: NodeId,
    to: NodeId,
    filter: &F,
    max_delay_us: f64,
    scratch: &mut RoutingScratch,
) -> Option<ConstrainedPath> {
    if max_delay_us.is_nan() || max_delay_us < 0.0 {
        return None;
    }
    if from == to {
        return Some(ConstrainedPath::evaluate(net, Path::trivial(from)));
    }
    larac_core(
        |w| {
            let tree = ShortestPathTree::build_weighted_in(net, from, filter, Some(to), scratch, w);
            tree.path_to(to).map(|p| ConstrainedPath::evaluate(net, p))
        },
        max_delay_us,
    )
}

/// Convenience wrapper returning just the route.
pub fn constrained_min_cost_path<F: LinkFilter>(
    net: &Network,
    from: NodeId,
    to: NodeId,
    filter: &F,
    max_delay_us: f64,
) -> Option<Path> {
    constrained_path(net, from, to, filter, max_delay_us).map(|c| c.path)
}

/// A pareto label in the exact search. The (price, delay) pair rides in
/// the heap entry; the label itself only records what path
/// reconstruction needs.
struct Label {
    node: NodeId,
    /// Index of the predecessor label (`usize::MAX` for the root) and
    /// the link traversed to get here.
    parent: usize,
    via: Option<crate::ids::LinkId>,
}

/// Exact delay-constrained cheapest path by pareto label-setting.
///
/// Labels pop in price order, so the first label settled on `to` is the
/// cheapest feasible path. A popped label is discarded if some already
/// settled label at its node weakly dominates it (price and delay both
/// no worse) — this also kills zero-weight cycles. Worst-case
/// exponential label count: reserve this for small instances (it is the
/// optimality reference for LARAC differentials, not a production
/// routine).
pub fn constrained_min_cost_path_exact<F: LinkFilter>(
    net: &Network,
    from: NodeId,
    to: NodeId,
    filter: &F,
    max_delay_us: f64,
) -> Option<ConstrainedPath> {
    if max_delay_us.is_nan() || max_delay_us < 0.0 {
        return None;
    }
    if from == to {
        return Some(ConstrainedPath::evaluate(net, Path::trivial(from)));
    }
    let snap = net.snapshot();
    let mut labels: Vec<Label> = vec![Label {
        node: from,
        parent: usize::MAX,
        via: None,
    }];
    // Settled (price, delay) pairs per node; entries arrive in
    // non-decreasing price order.
    let mut settled: Vec<Vec<(f64, f64)>> = vec![Vec::new(); snap.node_count()];
    let mut heap = ParetoQueue::default();
    heap.push(ParetoEntry {
        price: 0.0,
        delay_us: 0.0,
        label: 0,
    });
    while let Some(ParetoEntry {
        price,
        delay_us,
        label,
    }) = heap.pop()
    {
        let node = labels[label].node;
        if settled[node.index()]
            .iter()
            .any(|&(_, d)| d <= delay_us + DELAY_EPS)
        {
            continue; // weakly dominated by a settled label
        }
        settled[node.index()].push((price, delay_us));
        if node == to {
            // Cheapest feasible: walk the parent chain back to the root.
            let mut nodes = Vec::new();
            let mut links = Vec::new();
            let mut cur = label;
            loop {
                let l = &labels[cur];
                nodes.push(l.node);
                match l.via {
                    Some(link) => links.push(link),
                    None => break,
                }
                cur = l.parent;
            }
            nodes.reverse();
            links.reverse();
            let path = Path::from_parts_unchecked(nodes, links);
            return Some(ConstrainedPath {
                path,
                price,
                delay_us,
            });
        }
        for i in snap.arc_range(node) {
            let link = snap.arc_link(i);
            if !filter.allows(link) {
                continue;
            }
            let nd = delay_us + snap.arc_delay(i);
            if nd > max_delay_us + DELAY_EPS {
                continue; // budget prune: delays only grow
            }
            let np = price + snap.arc_price(i);
            let next = snap.arc_target(i);
            if settled[next.index()]
                .iter()
                .any(|&(p, d)| p <= np + DELAY_EPS && d <= nd + DELAY_EPS)
            {
                continue;
            }
            labels.push(Label {
                node: next,
                parent: label,
                via: Some(link),
            });
            heap.push(ParetoEntry {
                price: np,
                delay_us: nd,
                label: labels.len() - 1,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, NetGenConfig};
    use crate::ids::LinkId;
    use crate::routing::NoFilter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two-route square with a price/delay trade-off:
    /// top 0-1-3 is cheap (price 2) but slow (delay 100),
    /// bottom 0-2-3 is pricey (price 10) but fast (delay 10).
    fn tradeoff() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        g.add_link_with_delay(NodeId(0), NodeId(1), 1.0, 10.0, 50.0)
            .unwrap();
        g.add_link_with_delay(NodeId(1), NodeId(3), 1.0, 10.0, 50.0)
            .unwrap();
        g.add_link_with_delay(NodeId(0), NodeId(2), 5.0, 10.0, 5.0)
            .unwrap();
        g.add_link_with_delay(NodeId(2), NodeId(3), 5.0, 10.0, 5.0)
            .unwrap();
        g
    }

    #[test]
    fn loose_budget_returns_min_cost_path() {
        let g = tradeoff();
        let c = constrained_path(&g, NodeId(0), NodeId(3), &NoFilter, 500.0).unwrap();
        assert_eq!(c.path.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert!((c.price - 2.0).abs() < 1e-12);
        assert!((c.delay_us - 100.0).abs() < 1e-12);
    }

    #[test]
    fn tight_budget_switches_to_fast_route() {
        let g = tradeoff();
        let c = constrained_path(&g, NodeId(0), NodeId(3), &NoFilter, 50.0).unwrap();
        assert_eq!(c.path.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        assert!((c.price - 10.0).abs() < 1e-12);
        assert!(c.delay_us <= 50.0 + DELAY_EPS);
    }

    #[test]
    fn impossible_budget_is_infeasible() {
        let g = tradeoff();
        assert!(constrained_path(&g, NodeId(0), NodeId(3), &NoFilter, 5.0).is_none());
        assert!(constrained_path(&g, NodeId(0), NodeId(3), &NoFilter, -1.0).is_none());
        assert!(
            constrained_min_cost_path_exact(&g, NodeId(0), NodeId(3), &NoFilter, 5.0).is_none()
        );
    }

    #[test]
    fn trivial_query_is_free_and_instant() {
        let g = tradeoff();
        let c = constrained_path(&g, NodeId(2), NodeId(2), &NoFilter, 0.0).unwrap();
        assert!(c.path.is_empty());
        assert_eq!(c.delay_us, 0.0);
        let e = constrained_min_cost_path_exact(&g, NodeId(2), NodeId(2), &NoFilter, 0.0).unwrap();
        assert!(e.path.is_empty());
    }

    #[test]
    fn filter_is_respected() {
        let g = tradeoff();
        // Block the fast bottom route: a tight budget becomes infeasible.
        let no_fast = |l: LinkId| l != LinkId(2) && l != LinkId(3);
        assert!(constrained_path(&g, NodeId(0), NodeId(3), &no_fast, 50.0).is_none());
        assert!(
            constrained_min_cost_path_exact(&g, NodeId(0), NodeId(3), &no_fast, 50.0).is_none()
        );
    }

    #[test]
    fn exact_matches_hand_computed_optimum() {
        let g = tradeoff();
        let e = constrained_min_cost_path_exact(&g, NodeId(0), NodeId(3), &NoFilter, 50.0).unwrap();
        assert_eq!(e.path.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
        assert!((e.price - 10.0).abs() < 1e-12);
        let loose =
            constrained_min_cost_path_exact(&g, NodeId(0), NodeId(3), &NoFilter, 500.0).unwrap();
        assert!((loose.price - 2.0).abs() < 1e-12);
    }

    /// The acceptance-criteria differential: on a batch of random small
    /// instances, LARAC must (a) agree with the exact reference on
    /// feasibility, (b) never return a path over the budget, and
    /// (c) never beat the exact optimum.
    #[test]
    fn larac_vs_exact_differential() {
        let mut checked = 0usize;
        for seed in 0..12u64 {
            let cfg = NetGenConfig {
                nodes: 12,
                avg_degree: 3.0,
                avg_link_delay_us: 20.0,
                link_delay_fluctuation: 0.6,
                link_price_fluctuation: 0.5,
                ..NetGenConfig::default()
            };
            let g = generate(&cfg, &mut StdRng::seed_from_u64(7_000 + seed)).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                let from = NodeId(rng.gen_range(0..g.node_count() as u32));
                let to = NodeId(rng.gen_range(0..g.node_count() as u32));
                let budget = rng.gen_range(0.0..160.0);
                let larac = constrained_path(&g, from, to, &NoFilter, budget);
                let exact = constrained_min_cost_path_exact(&g, from, to, &NoFilter, budget);
                assert_eq!(
                    larac.is_some(),
                    exact.is_some(),
                    "feasibility must agree (seed {seed}, {from} → {to}, budget {budget})"
                );
                if let (Some(l), Some(e)) = (larac, exact) {
                    assert!(
                        l.delay_us <= budget + DELAY_EPS,
                        "LARAC path violates the budget: {} > {budget}",
                        l.delay_us
                    );
                    assert!(e.delay_us <= budget + DELAY_EPS);
                    assert!(
                        l.price >= e.price - 1e-9,
                        "LARAC ({}) beats the exact optimum ({})",
                        l.price,
                        e.price
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 50, "differential exercised too few instances");
    }
}
