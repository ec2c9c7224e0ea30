//! Cross-solver contracts: every algorithm, on a battery of random
//! instances, must (a) return embeddings the independent validator
//! accepts, with the cost and loads a fresh accounting gives, (b)
//! report failures as typed errors, and (c) respect the qualitative
//! orderings the paper claims.

use dagsfc::core::solvers::{
    BbeConfig, BbeSolver, ExactSolver, GraspSolver, ImprovedSolver, MbbeSolver, MbbeStSolver,
    MinvSolver, RanvSolver, SolveOutcome, Solver,
};
use dagsfc::core::{validate, DagSfc, Flow, SolveError};
use dagsfc::net::{Network, NodeId};
use dagsfc::sim::{runner::instance_network, runner::instance_request, SimConfig};

fn solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(BbeSolver::new()),
        Box::new(MbbeSolver::new()),
        Box::new(MbbeStSolver::new()),
        Box::new(RanvSolver::new(99)),
        Box::new(MinvSolver::new()),
        Box::new(GraspSolver::new(99)),
        Box::new(ImprovedSolver::new(RanvSolver::new(99))),
    ]
}

/// Asserts `out` validates, and that its cost and loads are those a
/// fresh accounting of its embedding gives, bit for bit: the loads a
/// commit reserves are the embedding's own.
fn assert_outcome_accounted(
    name: &str,
    net: &Network,
    sfc: &DagSfc,
    flow: &Flow,
    out: &SolveOutcome,
) {
    let cost = validate(net, sfc, flow, &out.embedding)
        .unwrap_or_else(|v| panic!("{name} invalid: {v:?}"));
    assert!(
        (cost.total() - out.cost.total()).abs() < 1e-9,
        "{name} reported {} but validator computed {cost}",
        out.cost,
    );
    let fresh = out
        .embedding
        .try_account(net, sfc, flow)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let cost_bits = |c: dagsfc::core::CostBreakdown| (c.vnf.to_bits(), c.link.to_bits());
    assert_eq!(cost_bits(out.cost), cost_bits(fresh.cost), "{name}: cost");
    assert_eq!(
        bits(&out.vnf_load),
        bits(&fresh.vnf_load),
        "{name}: VNF loads"
    );
    assert_eq!(
        bits(&out.link_load),
        bits(&fresh.link_load),
        "{name}: link loads"
    );
}

/// A load list with each load as its bit pattern.
fn bits<K: Copy>(loads: &[(K, f64)]) -> Vec<(K, u64)> {
    loads.iter().map(|&(k, r)| (k, r.to_bits())).collect()
}

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        network_size: 60,
        sfc_size: 5,
        seed,
        ..SimConfig::default()
    }
}

/// Every solver's output on every instance passes full validation, the
/// reported cost equals the independently recomputed cost, and the
/// outcome's cost and loads equal a fresh accounting bit for bit. EXACT
/// runs on a 10-node substrate, where its search stays small.
#[test]
fn all_outputs_validate_with_matching_cost() {
    for seed in 0..4u64 {
        let c = cfg(seed);
        let net = instance_network(&c);
        for run in 0..3usize {
            let (sfc, flow) = instance_request(&c, &net, run);
            for solver in solvers() {
                let out = solver
                    .solve(&net, &sfc, &flow)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
                assert_outcome_accounted(solver.name(), &net, &sfc, &flow, &out);
            }
        }
        let small = SimConfig {
            network_size: 10,
            sfc_size: 3,
            ..c
        };
        let net = instance_network(&small);
        let (sfc, flow) = instance_request(&small, &net, 0);
        let out = ExactSolver::new()
            .solve(&net, &sfc, &flow)
            .unwrap_or_else(|e| panic!("EXACT failed: {e}"));
        assert_outcome_accounted("EXACT", &net, &sfc, &flow, &out);
    }
}

/// BBE and MBBE never lose to the naive baselines on the same request
/// *on average* (the paper's central claim); per-request they may tie.
#[test]
fn bbe_family_beats_baselines_on_average() {
    let c = cfg(11);
    let net = instance_network(&c);
    let (mut bbe_sum, mut mbbe_sum, mut minv_sum, mut ranv_sum) = (0.0, 0.0, 0.0, 0.0);
    let runs = 8;
    for run in 0..runs {
        let (sfc, flow) = instance_request(&c, &net, run);
        bbe_sum += BbeSolver::new()
            .solve(&net, &sfc, &flow)
            .unwrap()
            .cost
            .total();
        mbbe_sum += MbbeSolver::new()
            .solve(&net, &sfc, &flow)
            .unwrap()
            .cost
            .total();
        minv_sum += MinvSolver::new()
            .solve(&net, &sfc, &flow)
            .unwrap()
            .cost
            .total();
        ranv_sum += RanvSolver::new(run as u64)
            .solve(&net, &sfc, &flow)
            .unwrap()
            .cost
            .total();
    }
    assert!(
        bbe_sum <= minv_sum + 1e-9,
        "BBE {bbe_sum} vs MINV {minv_sum}"
    );
    assert!(
        mbbe_sum <= minv_sum + 1e-9,
        "MBBE {mbbe_sum} vs MINV {minv_sum}"
    );
    assert!(
        mbbe_sum <= ranv_sum + 1e-9,
        "MBBE {mbbe_sum} vs RANV {ranv_sum}"
    );
    // §4.5: MBBE within a whisker of BBE.
    assert!(
        mbbe_sum <= bbe_sum * 1.10 + 1e-9,
        "MBBE {mbbe_sum} strays from BBE {bbe_sum}"
    );
}

/// Unsatisfiable requests produce typed errors from every solver.
#[test]
fn infeasible_requests_fail_cleanly() {
    let c = cfg(3);
    let net = instance_network(&c);
    // A chain over more kinds than the network deploys.
    let wide = SimConfig {
        vnf_kinds: 40,
        sfc_size: 20,
        ..c.clone()
    };
    let (sfc, flow) = instance_request(&wide, &net, 0);
    for solver in solvers() {
        match solver.solve(&net, &sfc, &flow) {
            Err(SolveError::Infeasible(_)) | Err(SolveError::NoFeasibleEmbedding { .. }) => {}
            Ok(_) => panic!("{} accepted an unsatisfiable request", solver.name()),
            Err(e) => panic!("{} returned unexpected error {e}", solver.name()),
        }
    }
}

/// Endpoints outside the network are rejected before any search runs.
#[test]
fn bad_endpoints_rejected() {
    let c = cfg(4);
    let net = instance_network(&c);
    let (sfc, _) = instance_request(&c, &net, 0);
    let flow = Flow::unit(NodeId(0), NodeId(10_000));
    for solver in solvers() {
        assert!(
            matches!(
                solver.solve(&net, &sfc, &flow),
                Err(SolveError::Infeasible(_))
            ),
            "{} must reject out-of-range endpoints",
            solver.name()
        );
    }
}

/// MBBE's three strategies are individually toggleable and all still
/// produce valid embeddings (the ablation surface of DESIGN.md §8).
#[test]
fn mbbe_strategy_ablation_stays_valid() {
    let c = cfg(8);
    let net = instance_network(&c);
    let (sfc, flow) = instance_request(&c, &net, 1);
    let variants = [
        (
            "xmax-only",
            BbeConfig {
                x_max: Some(40),
                x_d: None,
                use_min_cost_paths: false,
                adaptive_x_max: true,
                ..BbeConfig::default()
            },
        ),
        (
            "mincost-only",
            BbeConfig {
                x_max: None,
                x_d: None,
                use_min_cost_paths: true,
                ..BbeConfig::default()
            },
        ),
        (
            "xd-only",
            BbeConfig {
                x_max: None,
                x_d: Some(4),
                use_min_cost_paths: false,
                ..BbeConfig::default()
            },
        ),
        ("all-three", BbeConfig::mbbe()),
    ];
    let reference = BbeSolver::new()
        .solve(&net, &sfc, &flow)
        .unwrap()
        .cost
        .total();
    for (name, config) in variants {
        let out = MbbeSolver { config }
            .solve(&net, &sfc, &flow)
            .unwrap_or_else(|e| panic!("variant {name} failed: {e}"));
        validate(&net, &sfc, &flow, &out.embedding)
            .unwrap_or_else(|v| panic!("variant {name} invalid: {v:?}"));
        assert!(
            out.cost.total() <= reference * 1.25 + 1e-9,
            "variant {name} cost {} far above BBE {reference}",
            out.cost.total()
        );
    }
}

/// Tight `X_d = 1` (pure beam of width 1 per node) still embeds, at a
/// possibly higher cost — pruning must affect quality, not correctness.
#[test]
fn extreme_pruning_still_correct() {
    let c = cfg(9);
    let net = instance_network(&c);
    let (sfc, flow) = instance_request(&c, &net, 2);
    let out = MbbeSolver::with_limits(10, 1)
        .solve(&net, &sfc, &flow)
        .unwrap();
    validate(&net, &sfc, &flow, &out.embedding).unwrap();
}

/// Deterministic: the same solver, instance, and seed produce the same
/// embedding byte for byte.
#[test]
fn solver_determinism() {
    let c = cfg(12);
    let net = instance_network(&c);
    let (sfc, flow) = instance_request(&c, &net, 0);
    for (a, b) in [
        (
            BbeSolver::new().solve(&net, &sfc, &flow).unwrap(),
            BbeSolver::new().solve(&net, &sfc, &flow).unwrap(),
        ),
        (
            MbbeSolver::new().solve(&net, &sfc, &flow).unwrap(),
            MbbeSolver::new().solve(&net, &sfc, &flow).unwrap(),
        ),
        (
            RanvSolver::new(5).solve(&net, &sfc, &flow).unwrap(),
            RanvSolver::new(5).solve(&net, &sfc, &flow).unwrap(),
        ),
    ] {
        assert_eq!(a.embedding, b.embedding);
    }
}
