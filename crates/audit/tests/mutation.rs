//! Mutation-style tests: corrupt a known-good embedding one way at a
//! time and assert the auditor reports exactly the violation the
//! corresponding paper constraint prescribes — proof that every check
//! can actually fire.

use dagsfc_audit::{Constraint, ConstraintAuditor, Violation};
use dagsfc_core::{
    CostBreakdown, DagSfc, Embedding, Flow, Layer, PlacementRules, PrecedenceOrder, VnfCatalog,
};
use dagsfc_net::{Network, NodeId, Path, VnfTypeId};

fn catalog() -> VnfCatalog {
    VnfCatalog::new(4)
}

/// Line v0-v1-v2-v3 with link prices 1; f0@v1 (price 2, cap 1.5),
/// f1/f2/merger@v2, merger@v3; link bandwidth 2.0.
fn net() -> Network {
    let mut g = Network::new();
    g.add_nodes(4);
    for i in 0..3u32 {
        g.add_link(NodeId(i), NodeId(i + 1), 1.0, 2.0).unwrap();
    }
    g.deploy_vnf(NodeId(1), VnfTypeId(0), 2.0, 1.5).unwrap();
    g.deploy_vnf(NodeId(2), VnfTypeId(1), 3.0, 10.0).unwrap();
    g.deploy_vnf(NodeId(2), VnfTypeId(2), 4.0, 10.0).unwrap();
    g.deploy_vnf(NodeId(2), VnfTypeId(4), 1.0, 10.0).unwrap();
    g.deploy_vnf(NodeId(3), VnfTypeId(4), 1.0, 10.0).unwrap();
    g
}

fn sfc() -> DagSfc {
    DagSfc::new(
        vec![
            Layer::new(vec![VnfTypeId(0)]),
            Layer::new(vec![VnfTypeId(1), VnfTypeId(2)]),
        ],
        catalog(),
    )
    .unwrap()
}

fn path(net: &Network, nodes: &[u32]) -> Path {
    Path::from_nodes(net, nodes.iter().map(|&n| NodeId(n)).collect()).unwrap()
}

/// The known-good embedding: src=v0, f0@v1, f1/f2/merger@v2, dst=v3;
/// the two inter-layer paths of layer 1 share link v1-v2 (multicast).
fn good_paths(g: &Network) -> Vec<Path> {
    vec![
        path(g, &[0, 1]),
        path(g, &[1, 2]),
        path(g, &[1, 2]),
        Path::trivial(NodeId(2)),
        Path::trivial(NodeId(2)),
        path(g, &[2, 3]),
    ]
}

fn good_assignments() -> Vec<Vec<NodeId>> {
    vec![vec![NodeId(1)], vec![NodeId(2), NodeId(2), NodeId(2)]]
}

fn good(g: &Network) -> Embedding {
    Embedding::new(&sfc(), good_assignments(), good_paths(g)).unwrap()
}

fn flow() -> Flow {
    Flow::unit(NodeId(0), NodeId(3))
}

fn audit(g: &Network, emb: &Embedding, f: &Flow) -> Vec<Violation> {
    ConstraintAuditor::new().audit(g, &sfc(), f, emb).violations
}

#[test]
fn baseline_is_clean() {
    let g = net();
    assert!(audit(&g, &good(&g), &flow()).is_empty());
}

#[test]
fn dropped_meta_path_hop_fires_5_6() {
    // Mutation: the src → f0 real-path loses its hop and collapses to a
    // trivial path at v1 — its source no longer matches the flow source.
    let g = net();
    let mut paths = good_paths(&g);
    paths[0] = Path::trivial(NodeId(1));
    let emb = Embedding::new(&sfc(), good_assignments(), paths).unwrap();
    let vs = audit(&g, &emb, &flow());
    assert_eq!(vs.len(), 1, "{vs:?}");
    match &vs[0] {
        Violation::PathEndpointMismatch {
            index,
            expected,
            actual,
        } => {
            assert_eq!(*index, 0);
            assert_eq!(*expected, (NodeId(0), NodeId(1)));
            assert_eq!(*actual, (NodeId(1), NodeId(1)));
        }
        other => panic!("expected (5)/(6) endpoint mismatch, got {other}"),
    }
    assert_eq!(vs[0].constraint(), Constraint::C5C6);
}

#[test]
fn discontiguous_path_fires_5_6() {
    // Mutation: splice a real-path whose recorded link does not join its
    // adjacent nodes. `Path` validates on construction, so smuggle the
    // corruption in the same way a hostile wire client would: via serde.
    let g = net();
    // e0 joins v0-v1, not v0-v2.
    let broken: Path = serde_json::from_str(r#"{"nodes": [0, 2], "links": [0]}"#)
        .expect("Path deserializes unchecked");
    let mut paths = good_paths(&g);
    // Replace src → f0 (v0 → v1) with the corrupt one; also mismatched
    // endpoint, so expect both (5)/(6) findings on index 0.
    paths[0] = broken;
    let emb = Embedding::new(&sfc(), good_assignments(), paths).unwrap();
    let vs = audit(&g, &emb, &flow());
    assert!(
        vs.iter().any(|v| matches!(
            v,
            Violation::PathDiscontiguous {
                index: 0,
                hop: 0,
                ..
            }
        )),
        "{vs:?}"
    );
    assert!(vs.iter().all(|v| v.constraint() == Constraint::C5C6));
}

#[test]
fn overbooked_link_fires_3() {
    // Mutation: push the flow rate past the 2.0 link bandwidth. The two
    // inner-layer paths are trivial here, so every link carries exactly
    // one charge; rate 2.5 overbooks all three used links.
    let g = net();
    let f = Flow {
        src: NodeId(0),
        dst: NodeId(3),
        rate: 2.5,
        size: 1.0,
        delay_budget_us: None,
    };
    let vs = audit(&g, &good(&g), &f);
    let overbooked: Vec<_> = vs
        .iter()
        .filter(|v| matches!(v, Violation::LinkBandwidthExceeded { .. }))
        .collect();
    assert_eq!(overbooked.len(), 3, "{vs:?}");
    for v in &overbooked {
        assert_eq!(v.constraint(), Constraint::C3);
        if let Violation::LinkBandwidthExceeded { load, capacity, .. } = v {
            assert!((*load - 2.5).abs() < 1e-12);
            assert!((*capacity - 2.0).abs() < 1e-12);
        }
    }
    // The VNF term also overloads f0 (cap 1.5) — but no other class.
    assert!(vs.iter().all(|v| matches!(
        v,
        Violation::LinkBandwidthExceeded { .. } | Violation::VnfCapacityExceeded { .. }
    )));
}

#[test]
fn multicast_sharing_loads_once_where_unicast_would_overbook() {
    // Rate 1.5 on bandwidth 2.0: the two inter-layer paths share link
    // v1-v2. Charged per-path that would be 3.0 > 2.0 and constraint (3)
    // would fire; the paper's eq. (9) multicast rule charges the layer
    // once, so the audit must be clean.
    let g = net();
    let f = Flow {
        src: NodeId(0),
        dst: NodeId(3),
        rate: 1.5,
        size: 1.0,
        delay_budget_us: None,
    };
    let vs = audit(&g, &good(&g), &f);
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn double_charged_multicast_link_fires_cost_check() {
    // Mutation: a producer that charges the shared inter-layer link per
    // path (the classic eq. (9) accounting bug) reports one extra unit
    // of link cost. The auditor's independent recomputation catches the
    // claim.
    let g = net();
    let f = flow();
    let emb = good(&g);
    let honest = emb.try_cost(&g, &sfc(), &f).unwrap();
    let double_charged = CostBreakdown {
        vnf: honest.vnf,
        link: honest.link + g.link(g.link_between(NodeId(1), NodeId(2)).unwrap()).price * f.size,
    };
    let report = ConstraintAuditor::new().audit_outcome(
        &g,
        &sfc(),
        &f,
        &dagsfc_core::SolveOutcome {
            embedding: emb,
            cost: double_charged,
            vnf_load: Vec::new(),
            link_load: Vec::new(),
            stats: Default::default(),
        },
    );
    assert_eq!(report.violations.len(), 1, "{}", report.summary());
    assert!(matches!(
        report.violations[0],
        Violation::CostMismatch { .. }
    ));
    assert_eq!(report.violations[0].constraint(), Constraint::Objective);
}

#[test]
fn vnf_past_capacity_fires_2() {
    // Mutation: sequential chain f1 → f1 on one instance doubles its
    // α-load; rate 6 → load 12 > capability 10.
    let g = net();
    let s = DagSfc::sequential(&[VnfTypeId(1), VnfTypeId(1)], catalog()).unwrap();
    let emb = Embedding::new(
        &s,
        vec![vec![NodeId(2)], vec![NodeId(2)]],
        vec![
            path(&g, &[0, 1, 2]),
            Path::trivial(NodeId(2)),
            path(&g, &[2, 3]),
        ],
    )
    .unwrap();
    let f = Flow {
        src: NodeId(0),
        dst: NodeId(3),
        rate: 6.0,
        size: 0.0, // zero size: isolate the load checks from cost terms
        delay_budget_us: None,
    };
    let vs = ConstraintAuditor::new().audit(&g, &s, &f, &emb).violations;
    let vnf: Vec<_> = vs
        .iter()
        .filter(|v| matches!(v, Violation::VnfCapacityExceeded { .. }))
        .collect();
    assert_eq!(vnf.len(), 1, "{vs:?}");
    if let Violation::VnfCapacityExceeded {
        node,
        kind,
        load,
        capacity,
    } = vnf[0]
    {
        assert_eq!(*node, NodeId(2));
        assert_eq!(*kind, VnfTypeId(1));
        assert!((*load - 12.0).abs() < 1e-12, "α=2 × rate 6");
        assert!((*capacity - 10.0).abs() < 1e-12);
    }
    assert_eq!(vnf[0].constraint(), Constraint::C2);
}

#[test]
fn unhosted_slot_fires_4() {
    // Mutation: f0 assigned to v0, which deploys nothing.
    let g = net();
    let mut assignments = good_assignments();
    assignments[0][0] = NodeId(0);
    let mut paths = good_paths(&g);
    paths[0] = Path::trivial(NodeId(0));
    paths[1] = path(&g, &[0, 1, 2]);
    paths[2] = path(&g, &[0, 1, 2]);
    let emb = Embedding::new(&sfc(), assignments, paths).unwrap();
    let vs = audit(&g, &emb, &flow());
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(matches!(
        vs[0],
        Violation::SlotUnhosted {
            layer: 0,
            slot: 0,
            node: NodeId(0),
            kind: VnfTypeId(0),
        }
    ));
    assert_eq!(vs[0].constraint(), Constraint::C4);
}

#[test]
fn wire_supplied_shape_mismatch_is_caught() {
    // An `Embedding` arriving over the wire can carry any shape; the
    // auditor must refuse it instead of indexing out of bounds.
    let g = net();
    let emb: Embedding = serde_json::from_str(r#"{"assignments": [[1]], "paths": []}"#)
        .expect("Embedding deserializes unchecked");
    let vs = audit(&g, &emb, &flow());
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(matches!(vs[0], Violation::ShapeMismatch { .. }));
}

#[test]
fn violations_serialize_for_machine_reports() {
    let v = Violation::LinkBandwidthExceeded {
        link: dagsfc_net::LinkId(3),
        load: 4.0,
        capacity: 2.0,
    };
    let json = serde_json::to_string(&v).unwrap();
    assert!(json.contains("LinkBandwidthExceeded"), "{json}");
}

/// The good() embedding against a chain carrying extra metadata —
/// rules or an order — audited against that chain. Rate 0.5 keeps the
/// rule mutations' detour paths clear of the 2.0 link bandwidth, so
/// only the rule checks can fire.
fn audit_ruled(g: &Network, s: &DagSfc, emb: &Embedding) -> Vec<Violation> {
    let f = Flow {
        rate: 0.5,
        ..flow()
    };
    ConstraintAuditor::new().audit(g, s, &f, emb).violations
}

#[test]
fn dishonored_precedence_edge_fires_o() {
    // Positions: 0 (f0, layer 0) | 1, 2 (f1/f2, layer 1). The honored
    // order (0→1, 0→2) audits clean; a same-layer edge (1→2) and a
    // backward edge (2→0) are corruptions of the declared partial order
    // and must each fire exactly one (O) violation.
    let g = net();
    let emb = good(&g);
    let honored = sfc().with_order(PrecedenceOrder {
        edges: vec![(0, 1), (0, 2)],
    });
    assert!(audit_ruled(&g, &honored, &emb).is_empty());

    for bad_edge in [(1u32, 2u32), (2, 0)] {
        let s = sfc().with_order(PrecedenceOrder {
            edges: vec![(0, 1), bad_edge],
        });
        let vs = audit_ruled(&g, &s, &emb);
        assert_eq!(vs.len(), 1, "{vs:?}");
        match &vs[0] {
            Violation::PrecedenceViolated { edge, detail } => {
                assert_eq!(*edge, bad_edge);
                assert!(detail.contains("does not precede"), "{detail}");
            }
            other => panic!("expected an (O) violation, got {other}"),
        }
        assert_eq!(vs[0].constraint(), Constraint::Order);
        assert!(vs[0].to_string().starts_with("(O) "));
    }

    // An edge naming a position the chain does not have is also (O).
    let s = sfc().with_order(PrecedenceOrder {
        edges: vec![(0, 9)],
    });
    let vs = audit_ruled(&g, &s, &emb);
    assert_eq!(vs.len(), 1, "{vs:?}");
    match &vs[0] {
        Violation::PrecedenceViolated { edge, detail } => {
            assert_eq!(*edge, (0, 9));
            assert!(detail.contains("outside the chain"), "{detail}");
        }
        other => panic!("expected an (O) violation, got {other}"),
    }
}

#[test]
fn split_affinity_pair_fires_a() {
    // good() hosts f1 and f2 together on v2, so affinity (f1, f2)
    // audits clean. Mutation: also deploy f2 on v3 and move its slot
    // there (re-routing the touched paths) — the pair splits across
    // {v2, v3} and exactly one (A) violation fires.
    let mut g = net();
    g.deploy_vnf(NodeId(3), VnfTypeId(2), 1.0, 10.0).unwrap();
    let s = sfc().with_rules(PlacementRules {
        affinity: vec![(VnfTypeId(1), VnfTypeId(2))],
        anti_affinity: vec![],
    });
    assert!(audit_ruled(&g, &s, &good(&g)).is_empty());

    let mut assignments = good_assignments();
    assignments[1][1] = NodeId(3); // f2 slot
    let mut paths = good_paths(&g);
    paths[2] = path(&g, &[1, 2, 3]); // f0 → f2 inter-layer
    paths[4] = path(&g, &[3, 2]); // f2 → merger inner-layer
    let split = Embedding::new(&s, assignments, paths).unwrap();
    let vs = audit_ruled(&g, &s, &split);
    assert_eq!(vs.len(), 1, "{vs:?}");
    match &vs[0] {
        Violation::AffinitySplit { pair, nodes } => {
            assert_eq!(*pair, (VnfTypeId(1), VnfTypeId(2)));
            assert_eq!(nodes.as_slice(), &[NodeId(2), NodeId(3)]);
        }
        other => panic!("expected an (A) violation, got {other}"),
    }
    assert_eq!(vs[0].constraint(), Constraint::Affinity);
    assert!(vs[0].to_string().starts_with("(A) "));
}

#[test]
fn colocated_anti_affinity_pair_fires_aa() {
    // Same mutation geometry, inverted rule: with anti-affinity
    // (f1, f2) the *split* embedding is the clean one, and good() —
    // which co-locates both kinds on v2 — must fire exactly one (AA)
    // violation naming the shared node.
    let mut g = net();
    g.deploy_vnf(NodeId(3), VnfTypeId(2), 1.0, 10.0).unwrap();
    let s = sfc().with_rules(PlacementRules {
        affinity: vec![],
        anti_affinity: vec![(VnfTypeId(1), VnfTypeId(2))],
    });
    let mut assignments = good_assignments();
    assignments[1][1] = NodeId(3);
    let mut paths = good_paths(&g);
    paths[2] = path(&g, &[1, 2, 3]);
    paths[4] = path(&g, &[3, 2]);
    let split = Embedding::new(&s, assignments, paths).unwrap();
    assert!(audit_ruled(&g, &s, &split).is_empty());

    let vs = audit_ruled(&g, &s, &good(&g));
    assert_eq!(vs.len(), 1, "{vs:?}");
    match &vs[0] {
        Violation::AntiAffinityColocated { pair, node } => {
            assert_eq!(*pair, (VnfTypeId(1), VnfTypeId(2)));
            assert_eq!(*node, NodeId(2));
        }
        other => panic!("expected an (AA) violation, got {other}"),
    }
    assert_eq!(vs[0].constraint(), Constraint::AntiAffinity);
    assert!(vs[0].to_string().starts_with("(AA) "));
}

#[test]
fn blown_delay_budget_fires_d() {
    // Mutation: the substrate's link delays push the (otherwise clean)
    // embedding past the flow's deadline — the delay check must fire,
    // and relaxing the budget must disarm it.
    let mut g = net();
    for l in 0..3u32 {
        g.set_link_delay(dagsfc_net::LinkId(l), 10.0).unwrap();
    }
    // good(): e01 + e12 (slowest branch) + e23 = 30 µs end to end.
    let f = flow().with_delay_budget(29.0);
    let vs = audit(&g, &good(&g), &f);
    assert_eq!(vs.len(), 1, "{vs:?}");
    match &vs[0] {
        Violation::DelayBudgetExceeded {
            delay_us,
            budget_us,
        } => {
            assert!((delay_us - 30.0).abs() < 1e-9);
            assert!((budget_us - 29.0).abs() < 1e-9);
        }
        other => panic!("expected a (D) violation, got {other}"),
    }
    assert_eq!(vs[0].constraint(), Constraint::Delay);
    // Same embedding, loose budget: clean again.
    assert!(audit(&g, &good(&g), &flow().with_delay_budget(30.0)).is_empty());
}
