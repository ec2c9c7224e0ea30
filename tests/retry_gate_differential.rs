//! Differential battery for MBBE's adaptive-`X_max` retry rule.
//!
//! `MbbeSolver` and `MbbeStSolver` retry a failed attempt with a
//! doubled `X_max` only when the bound cut one of its forward searches.
//! The reference below is the rule that gate replaced, built from the
//! public API alone: non-adaptive solves at `X_max` = 40, 80, … up to
//! |V|, all in one shared `SolveCtx`; the first `Ok` wins, otherwise
//! the last `Err`. Both must agree on every embedding, every cost bit,
//! every `SolverStats` counter (wall-clock fields zeroed), every error
//! string and every deadline/rule classification.
//!
//! The battery spans the three regimes the gate distinguishes, and
//! asserts that it reached each of them:
//!
//! * the bound cuts a search and a retry succeeds (sparse deployment);
//! * the bound cuts a search and every retry fails (sparse deployment
//!   with VNF capacity below the flow rate);
//! * the failure is cap-free (depleted residuals, with and without a
//!   delay budget): no forward search can be cut, so the gated solver
//!   stops after one attempt where the reference replays it.

use dagsfc::core::solvers::bbe::SearchTree;
use dagsfc::core::solvers::{BbeConfig, MbbeSolver, MbbeStSolver, SolveCtx};
use dagsfc::core::{DagSfc, Flow, SolveError, SolveOutcome, Solver, SolverStats};
use dagsfc::net::{Network, NodeId};
use dagsfc::sim::runner::{instance_network, instance_request};
use dagsfc::sim::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The first `X_max` of every MBBE solve (`BbeConfig::mbbe`).
const X_MAX: usize = 40;

/// One MBBE variant: the solver as callers build it, its default
/// configuration, and its solver type around any configuration.
struct Variant {
    gated: fn() -> Box<dyn Solver>,
    config: fn() -> BbeConfig,
    build: fn(BbeConfig) -> Box<dyn Solver>,
}

const VARIANTS: [Variant; 2] = [
    Variant {
        gated: || Box::new(MbbeSolver::new()),
        config: BbeConfig::mbbe,
        build: |config| Box::new(MbbeSolver { config }),
    },
    Variant {
        gated: || Box::new(MbbeStSolver::new()),
        config: BbeConfig::mbbe_steiner,
        build: |config| Box::new(MbbeStSolver { config }),
    },
];

/// Which regime one failed-first-attempt request fell in.
#[derive(Debug, Default)]
struct Regimes {
    /// The first attempt failed, a wider one succeeded.
    cut_then_ok: usize,
    /// The bound cut the first forward search; every attempt failed.
    cut_all_fail: usize,
    /// No forward search anywhere can be cut; every attempt failed.
    cap_free: usize,
    /// Of `cap_free`: failures classified deadline-infeasible.
    cap_free_deadline: usize,
}

/// The rule the gate replaced: `X_max` = 40, 80, … up to |V|, each a
/// non-adaptive solve in one shared context; first `Ok` wins, else the
/// last `Err`. Also reports whether the first attempt failed.
fn reference(
    variant: &Variant,
    net: &Network,
    sfc: &DagSfc,
    flow: &Flow,
) -> (Result<SolveOutcome, SolveError>, bool) {
    let ctx = SolveCtx::new(net);
    let n = net.node_count();
    let mut x = X_MAX;
    let mut first_failed = false;
    loop {
        let solver = (variant.build)(BbeConfig {
            x_max: Some(x),
            adaptive_x_max: false,
            ..(variant.config)()
        });
        let out = solver.solve_in(&ctx, sfc, flow);
        if out.is_ok() || x >= n {
            return (out, first_failed);
        }
        first_failed = true;
        x = (x * 2).min(n);
    }
}

/// Whether `X_max` cuts the first forward search of every attempt: the
/// first layer's, from the flow's source.
fn cuts_first_search(net: &Network, sfc: &DagSfc, flow: &Flow) -> bool {
    let kinds = sfc.layer(0).required_kinds(sfc.catalog());
    SearchTree::grow(net, flow.src, &kinds, |_| true, Some(X_MAX)).capped()
}

/// Whether `X_max` can cut any forward search at all: some layer's,
/// from some substrate node. When it cannot, no attempt is ever cut,
/// whatever start nodes its search tree reaches.
fn can_cut(net: &Network, sfc: &DagSfc) -> bool {
    sfc.layers().iter().any(|layer| {
        let kinds = layer.required_kinds(sfc.catalog());
        (0..net.node_count() as u32)
            .any(|v| SearchTree::grow(net, NodeId(v), &kinds, |_| true, Some(X_MAX)).capped())
    })
}

fn timeless(stats: &SolverStats) -> SolverStats {
    SolverStats {
        elapsed: Duration::ZERO,
        layer_wall: Vec::new(),
        ..stats.clone()
    }
}

/// Asserts the gated and the reference result are the same decision,
/// bit for bit.
fn assert_same(
    what: &str,
    gated: &Result<SolveOutcome, SolveError>,
    reference: &Result<SolveOutcome, SolveError>,
) {
    match (gated, reference) {
        (Ok(g), Ok(r)) => {
            assert_eq!(g.embedding, r.embedding, "{what}: embedding");
            assert_eq!(
                g.cost.vnf.to_bits(),
                r.cost.vnf.to_bits(),
                "{what}: vnf cost"
            );
            assert_eq!(
                g.cost.link.to_bits(),
                r.cost.link.to_bits(),
                "{what}: link cost"
            );
            assert_eq!(timeless(&g.stats), timeless(&r.stats), "{what}: stats");
        }
        (Err(g), Err(r)) => {
            assert_eq!(g.to_string(), r.to_string(), "{what}: error");
            assert_eq!(
                g.is_deadline_infeasible(),
                r.is_deadline_infeasible(),
                "{what}: deadline classification"
            );
            assert_eq!(
                g.is_rule_infeasible(),
                r.is_rule_infeasible(),
                "{what}: rule classification"
            );
        }
        (g, r) => panic!(
            "{what}: gated {:?} vs reference {:?}",
            g.as_ref().map(|o| o.cost),
            r.as_ref().map(|o| o.cost)
        ),
    }
}

/// Solves `requests` of `cfg` on `net` with both MBBE variants, gated
/// and reference, and tallies the regimes of every request whose first
/// attempt failed.
fn battery(label: &str, cfg: &SimConfig, net: &Network, requests: usize) -> Regimes {
    let mut regimes = Regimes::default();
    for i in 0..requests {
        let (sfc, flow) = instance_request(cfg, net, i);
        for variant in &VARIANTS {
            let solver = (variant.gated)();
            let what = format!("{label} request {i} {}", solver.name());
            let got = solver.solve_in(&SolveCtx::new(net), &sfc, &flow);
            let (want, first_failed) = reference(variant, net, &sfc, &flow);
            assert_same(&what, &got, &want);
            if !first_failed {
                continue;
            }
            if want.is_ok() {
                regimes.cut_then_ok += 1;
            } else if cuts_first_search(net, &sfc, &flow) {
                regimes.cut_all_fail += 1;
            } else if !can_cut(net, &sfc) {
                regimes.cap_free += 1;
                regimes.cap_free_deadline +=
                    usize::from(want.is_err_and(|e| e.is_deadline_infeasible()));
            }
        }
    }
    eprintln!("{label}: {regimes:?}");
    regimes
}

/// A sparse-deployment substrate: each VNF kind on 2–5% of 300 nodes,
/// so 40 nodes often miss a kind.
fn sparse(seed: u64, vnf_capacity: f64) -> SimConfig {
    SimConfig {
        network_size: 300,
        vnf_deploy_ratio: 0.02 + 0.01 * (seed % 4) as f64,
        vnf_capacity,
        seed,
        ..SimConfig::default()
    }
}

/// `net` with most of its residual capacity gone: each VNF instance
/// keeps its capacity with probability 0.3, each link with 0.7.
fn depleted(net: &Network, seed: u64) -> Network {
    let mut vnf_rng = StdRng::seed_from_u64(seed);
    let mut link_rng = StdRng::seed_from_u64(!seed);
    net.map_capacities(
        |_, _, cap| if vnf_rng.gen_bool(0.3) { cap } else { 0.0 },
        |_, cap| if link_rng.gen_bool(0.7) { cap } else { 0.0 },
    )
}

#[test]
fn cap_cut_retries_match_the_reference() {
    let mut cut_then_ok = 0;
    for seed in 1..=4u64 {
        let cfg = sparse(seed, 1e6);
        let net = instance_network(&cfg);
        cut_then_ok += battery(&format!("sparse seed {seed}"), &cfg, &net, 8).cut_then_ok;
    }
    assert!(
        cut_then_ok >= 4,
        "too few cap-cut retries that succeed: {cut_then_ok}"
    );
}

#[test]
fn cap_cut_failures_match_the_reference() {
    let mut cut_all_fail = 0;
    for seed in 5..=6u64 {
        // Every VNF instance carries half a unit flow: no attempt can
        // succeed, however wide.
        let cfg = sparse(seed, 0.5);
        let net = instance_network(&cfg);
        cut_all_fail += battery(&format!("starved seed {seed}"), &cfg, &net, 6).cut_all_fail;
    }
    assert!(
        cut_all_fail >= 4,
        "too few cap-cut failures: {cut_all_fail}"
    );
}

#[test]
fn cap_free_failures_match_the_reference() {
    let (mut cap_free, mut deadline) = (0, 0);
    for (seed, budget) in [(7u64, None), (8, Some(80.0)), (9, Some(40.0))] {
        let cfg = SimConfig {
            network_size: 200,
            delay_budget_us: budget,
            seed,
            ..SimConfig::default()
        };
        let net = depleted(&instance_network(&cfg), seed);
        let r = battery(&format!("depleted seed {seed}"), &cfg, &net, 6);
        cap_free += r.cap_free;
        deadline += r.cap_free_deadline;
    }
    assert!(cap_free >= 4, "too few cap-free failures: {cap_free}");
    assert!(deadline >= 1, "no cap-free deadline failure");
}
