//! Differential battery: the partial-order chain path must be
//! *bit-identical* to the legacy layered path.
//!
//! Two routes produce a solvable [`DagSfc`] from the same NF chain:
//!
//! * **legacy** — `to_hybrid_legacy` (the original greedy grouping,
//!   preserved verbatim as the reference) → `DagSfc::from_hybrid`,
//!   with no precedence order attached; and
//! * **partial-order** — `PartialOrderChain::derive` →
//!   `DagSfc::from_partial_order`, which re-derives the layering as
//!   one admissible linear-extension grouping and carries the DAG's
//!   precedence edges alongside.
//!
//! Every solver must embed both forms identically: same embedding,
//! same cost bits, same search statistics (wall-clock fields zeroed —
//! they are the only sanctioned divergence). The battery also pins the
//! solver-level placement-rule contracts: affinity pairs co-locate,
//! anti-affinity pairs separate, and unsatisfiable rule sets reject
//! with the typed rule-infeasible classification, never a panic and
//! never a silent capacity blame.

use dagsfc::core::solvers::{
    BbeSolver, ExactSolver, GraspSolver, MbbeSolver, MbbeStSolver, MinvSolver, RanvSolver,
    SolveOutcome, Solver,
};
use dagsfc::core::{DagSfc, Flow, PlacementRules, VnfCatalog};
use dagsfc::net::{generator, NetGenConfig, Network, NodeId};
use dagsfc::nfp::{
    catalog::enterprise_catalog, to_hybrid_legacy, DependencyMatrix, PartialOrderChain,
    TransformOptions,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const SEEDS: u64 = 12;

fn solvers(seed: u64) -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(BbeSolver::new()),
        Box::new(MbbeSolver::new()),
        Box::new(MbbeStSolver::new()),
        Box::new(MinvSolver::new()),
        Box::new(RanvSolver::new(seed)),
        Box::new(GraspSolver::new(seed)),
    ]
}

/// A random chain of `len` distinct enterprise NFs, both DagSfc forms,
/// and the shared catalog.
fn both_forms(seed: u64, len: usize, opts: TransformOptions) -> (DagSfc, DagSfc) {
    let nfs = enterprise_catalog();
    let deps = DependencyMatrix::analyze(&nfs);
    let mut ids: Vec<usize> = (0..nfs.len()).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids.truncate(len);

    let catalog = VnfCatalog::new(nfs.len() as u16);
    let legacy = DagSfc::from_hybrid(&to_hybrid_legacy(&ids, &deps, opts), catalog)
        .expect("legacy form is valid");
    let po = PartialOrderChain::derive(&ids, &deps);
    let ordered = DagSfc::from_partial_order(&po, opts, catalog).expect("po form is valid");
    (legacy, ordered)
}

fn network(seed: u64, nodes: usize) -> Network {
    let cfg = NetGenConfig {
        nodes,
        vnf_kinds: VnfCatalog::new(enterprise_catalog().len() as u16).deployable_count(),
        ..NetGenConfig::default()
    };
    generator::generate(&cfg, &mut StdRng::seed_from_u64(seed)).expect("network generates")
}

/// Wall-clock fields are the only sanctioned divergence between the two
/// paths; everything else must match bit for bit.
fn strip_wall(mut out: SolveOutcome) -> SolveOutcome {
    out.stats.elapsed = std::time::Duration::ZERO;
    out.stats.layer_wall.clear();
    out
}

/// The tentpole claim: across 12 seeds and every solver, the
/// partial-order route and the legacy layered route produce the same
/// layers, the same embedding, the same cost bits, and the same search
/// statistics.
#[test]
fn partial_order_path_is_bit_identical_to_legacy_layering() {
    let opts = TransformOptions { max_width: Some(3) };
    for seed in 0..SEEDS {
        let (legacy, ordered) = both_forms(seed, 5, opts);

        // The layered structure itself must agree slot for slot.
        assert_eq!(legacy.depth(), ordered.depth(), "seed {seed}: depth");
        for l in 0..legacy.depth() {
            assert_eq!(
                legacy.layer(l).vnfs(),
                ordered.layer(l).vnfs(),
                "seed {seed}: layer {l}"
            );
        }
        assert!(legacy.order().is_none(), "legacy path carries no order");
        assert!(
            ordered.order().is_some() || ordered.size() < 2,
            "seed {seed}: partial-order path carries its edges"
        );

        let net = network(seed, 60);
        let flow = Flow::unit(NodeId(0), NodeId(59));
        // RANV/GRASP carry their RNG across solves: each form gets a
        // freshly seeded instance so both runs see the same stream.
        for (solver, twin) in solvers(seed).into_iter().zip(solvers(seed)) {
            let a = solver.solve(&net, &legacy, &flow);
            let b = twin.solve(&net, &ordered, &flow);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    let (a, b) = (strip_wall(a), strip_wall(b));
                    assert_eq!(
                        a.embedding,
                        b.embedding,
                        "seed {seed}: {} embedding diverged",
                        solver.name()
                    );
                    assert_eq!(
                        a.cost.total().to_bits(),
                        b.cost.total().to_bits(),
                        "seed {seed}: {} cost diverged",
                        solver.name()
                    );
                    assert_eq!(
                        a.stats,
                        b.stats,
                        "seed {seed}: {} stats diverged",
                        solver.name()
                    );
                }
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "seed {seed}: {} errors diverged",
                    solver.name()
                ),
                (a, b) => panic!(
                    "seed {seed}: {} outcome kind diverged: {a:?} vs {b:?}",
                    solver.name()
                ),
            }
        }
    }
}

/// The exact solver runs the same differential on instances small
/// enough for its assignment-count guard rail.
#[test]
fn exact_solver_matches_across_both_forms() {
    let opts = TransformOptions { max_width: Some(3) };
    for seed in 0..SEEDS {
        let (legacy, ordered) = both_forms(seed, 4, opts);
        let net = network(seed, 12);
        let flow = Flow::unit(NodeId(0), NodeId(11));
        let solver = ExactSolver::new();
        let a = solver.solve(&net, &legacy, &flow);
        let b = solver.solve(&net, &ordered, &flow);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                let (a, b) = (strip_wall(a), strip_wall(b));
                assert_eq!(a.embedding, b.embedding, "seed {seed}: EXACT embedding");
                assert_eq!(
                    a.cost.total().to_bits(),
                    b.cost.total().to_bits(),
                    "seed {seed}: EXACT cost"
                );
                assert_eq!(a.stats, b.stats, "seed {seed}: EXACT stats");
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "seed {seed}: EXACT errors")
            }
            (a, b) => panic!("seed {seed}: EXACT outcome kind diverged: {a:?} vs {b:?}"),
        }
    }
}

/// Chains without placement rules must report zero rule rejections —
/// the rule machinery is invisible until a request opts in.
#[test]
fn rule_counters_stay_zero_without_rules() {
    let opts = TransformOptions { max_width: Some(3) };
    let (_, ordered) = both_forms(3, 5, opts);
    let net = network(3, 60);
    let flow = Flow::unit(NodeId(0), NodeId(59));
    for solver in solvers(3) {
        if let Ok(out) = solver.solve(&net, &ordered, &flow) {
            assert_eq!(
                out.stats.candidates_rule_rejected,
                0,
                "{}: phantom rule rejections",
                solver.name()
            );
        }
    }
}

/// Every solver honors an affinity pair: when both kinds embed, they
/// embed on one node.
#[test]
fn affinity_pair_colocates_across_solvers() {
    let opts = TransformOptions { max_width: Some(3) };
    for seed in 0..SEEDS {
        let (_, ordered) = both_forms(seed, 5, opts);
        let kinds: Vec<_> = ordered
            .layers()
            .iter()
            .flat_map(|l| l.vnfs().iter().copied())
            .collect();
        let ruled = ordered.clone().with_rules(PlacementRules {
            affinity: vec![(kinds[0], kinds[1])],
            anti_affinity: vec![],
        });
        let net = network(seed, 60);
        let flow = Flow::unit(NodeId(0), NodeId(59));
        for solver in solvers(seed) {
            let Ok(out) = solver.solve(&net, &ruled, &flow) else {
                continue; // typed rejection is a legal answer under rules
            };
            let mut hosts = Vec::new();
            for (l, layer) in ruled.layers().iter().enumerate() {
                for (s, &kind) in layer.vnfs().iter().enumerate() {
                    if kind == kinds[0] || kind == kinds[1] {
                        hosts.push(out.embedding.assignments()[l][s]);
                    }
                }
            }
            hosts.dedup();
            assert!(
                hosts.len() <= 1,
                "seed {seed}: {} split affinity pair across {hosts:?}",
                solver.name()
            );
        }
    }
}

/// Every solver honors an anti-affinity pair: the two kinds never share
/// a node.
#[test]
fn anti_affinity_pair_separates_across_solvers() {
    let opts = TransformOptions { max_width: Some(3) };
    for seed in 0..SEEDS {
        let (_, ordered) = both_forms(seed, 5, opts);
        let kinds: Vec<_> = ordered
            .layers()
            .iter()
            .flat_map(|l| l.vnfs().iter().copied())
            .collect();
        let ruled = ordered.clone().with_rules(PlacementRules {
            affinity: vec![],
            anti_affinity: vec![(kinds[0], kinds[1])],
        });
        let net = network(seed, 60);
        let flow = Flow::unit(NodeId(0), NodeId(59));
        for solver in solvers(seed) {
            let Ok(out) = solver.solve(&net, &ruled, &flow) else {
                continue;
            };
            let (mut a_hosts, mut b_hosts) = (Vec::new(), Vec::new());
            for (l, layer) in ruled.layers().iter().enumerate() {
                for (s, &kind) in layer.vnfs().iter().enumerate() {
                    if kind == kinds[0] {
                        a_hosts.push(out.embedding.assignments()[l][s]);
                    } else if kind == kinds[1] {
                        b_hosts.push(out.embedding.assignments()[l][s]);
                    }
                }
            }
            assert!(
                a_hosts.iter().all(|n| !b_hosts.contains(n)),
                "seed {seed}: {} co-located anti-affinity pair",
                solver.name()
            );
        }
    }
}

/// An unsatisfiable rule set — a pair required both to co-locate and to
/// separate — rejects with the typed rule-infeasible classification on
/// every solver, never a panic and never a capacity blame.
#[test]
fn conflicting_rules_classify_as_rule_infeasible() {
    let opts = TransformOptions { max_width: Some(3) };
    let (_, ordered) = both_forms(7, 5, opts);
    let kinds: Vec<_> = ordered
        .layers()
        .iter()
        .flat_map(|l| l.vnfs().iter().copied())
        .collect();
    let ruled = ordered.clone().with_rules(PlacementRules {
        affinity: vec![(kinds[0], kinds[1])],
        anti_affinity: vec![(kinds[0], kinds[1])],
    });
    let net = network(7, 60);
    let flow = Flow::unit(NodeId(0), NodeId(59));
    for solver in solvers(7) {
        let err = solver
            .solve(&net, &ruled, &flow)
            .expect_err("conflicting rules cannot embed");
        assert!(
            err.is_rule_infeasible(),
            "{}: misclassified conflicting rules: {err}",
            solver.name()
        );
    }
    let exact_err = ExactSolver::new()
        .solve(&network(7, 12), &ruled, &flow_to(11))
        .expect_err("conflicting rules cannot embed");
    assert!(
        exact_err.is_rule_infeasible(),
        "EXACT: misclassified conflicting rules: {exact_err}"
    );
}

fn flow_to(dst: u32) -> Flow {
    Flow::unit(NodeId(0), NodeId(dst))
}
