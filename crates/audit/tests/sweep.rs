//! Solver sweep: every solver, over a set of standard generated
//! topologies and chain shapes, must produce embeddings the
//! solver-independent auditor certifies clean — with the recomputed
//! objective matching the solver-reported cost to within 1e-9.

use dagsfc_audit::ConstraintAuditor;
use dagsfc_core::solvers::{Algo, SolveCtx};
use dagsfc_core::{DagSfc, Flow, Layer, VnfCatalog};
use dagsfc_net::{generator, NetGenConfig, Network, NodeId, VnfTypeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KINDS: usize = 6;
const KINDS_U16: u16 = KINDS as u16;

fn network(nodes: usize, seed: u64) -> Network {
    let cfg = NetGenConfig {
        nodes,
        avg_degree: 5.0,
        // The generator's kind count includes the merger kind (id KINDS).
        vnf_kinds: KINDS + 1,
        deploy_ratio: 0.6,
        vnf_price_fluctuation: 0.3,
        ensure_full_coverage: true,
        ..NetGenConfig::default()
    };
    generator::generate(&cfg, &mut StdRng::seed_from_u64(seed)).expect("valid generator config")
}

/// The standard chain shapes of the sweep: sequential, one parallel
/// layer, and the paper's hybrid sandwich.
fn chains() -> Vec<DagSfc> {
    let c = VnfCatalog::new(KINDS_U16);
    vec![
        DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(1), VnfTypeId(2)], c).unwrap(),
        DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0)]),
                Layer::new(vec![VnfTypeId(1), VnfTypeId(2), VnfTypeId(3)]),
            ],
            c,
        )
        .unwrap(),
        DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(4)]),
                Layer::new(vec![VnfTypeId(0), VnfTypeId(5)]),
                Layer::new(vec![VnfTypeId(2)]),
            ],
            c,
        )
        .unwrap(),
    ]
}

#[test]
fn every_solver_survives_the_auditor_on_standard_topologies() {
    let auditor = ConstraintAuditor::new();
    let solvers = ["bbe", "mbbe", "mbbe-st", "minv", "ranv", "grasp"];
    let mut audited = 0usize;
    for (nodes, seed) in [(24usize, 11u64), (40, 12), (60, 13)] {
        let net = network(nodes, seed);
        // Audit through solve_in's own gate too: force it on regardless
        // of build profile.
        let ctx = SolveCtx::new(&net).with_audit(true);
        let flow = Flow {
            src: NodeId(0),
            dst: NodeId((nodes - 1) as u32),
            rate: 1.0,
            size: 1.0,
            delay_budget_us: None,
        };
        for sfc in chains() {
            for name in solvers {
                let solver = Algo::parse(name).expect("known solver name").build(seed);
                let out = match solver.solve_in(&ctx, &sfc, &flow) {
                    Ok(out) => out,
                    // A saturated/unlucky instance may genuinely be
                    // infeasible for a baseline; that is not an audit
                    // failure.
                    Err(e) => {
                        assert!(
                            !matches!(e, dagsfc_core::SolveError::AuditFailed { .. }),
                            "{name} failed its own audit gate: {e}"
                        );
                        continue;
                    }
                };
                let report = auditor.audit_outcome(&net, &sfc, &flow, &out);
                assert!(
                    report.is_clean(),
                    "{name} on {nodes}-node net (seed {seed}): {}",
                    report.summary()
                );
                assert!(
                    (report.recomputed.total() - out.cost.total()).abs() <= 1e-9,
                    "{name}: recomputed {} vs reported {}",
                    report.recomputed.total(),
                    out.cost.total()
                );
                audited += 1;
            }
        }
    }
    assert!(audited >= 30, "sweep too thin: only {audited} audits ran");
}

#[test]
fn exact_solver_survives_the_auditor_on_small_instances() {
    // The exact branch-and-bound is exponential; audit it on small nets.
    let auditor = ConstraintAuditor::new();
    let net = network(10, 21);
    let ctx = SolveCtx::new(&net).with_audit(true);
    let flow = Flow::unit(NodeId(0), NodeId(9));
    let c = VnfCatalog::new(KINDS_U16);
    let sfc = DagSfc::new(
        vec![
            Layer::new(vec![VnfTypeId(0)]),
            Layer::new(vec![VnfTypeId(1), VnfTypeId(2)]),
        ],
        c,
    )
    .unwrap();
    let solver = Algo::Exact.build(0);
    if let Ok(out) = solver.solve_in(&ctx, &sfc, &flow) {
        let report = auditor.audit_outcome(&net, &sfc, &flow, &out);
        assert!(report.is_clean(), "{}", report.summary());
    }
}
