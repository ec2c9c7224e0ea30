//! Integration tests for the beyond-the-paper extensions, exercised
//! through the public facade the way a downstream user would.

use dagsfc::core::solvers::{
    improve, ImprovedSolver, LocalSearchConfig, MbbeSolver, MbbeStSolver, RanvSolver, Solver,
};
use dagsfc::core::{cost_lower_bound, protect, validate, ChainBuilder, Flow, VnfCatalog};
use dagsfc::net::routing::{disjoint_path_pair, multicast_tree, NoFilter};
use dagsfc::net::topologies::{build, Topology};
use dagsfc::net::{analyze, to_dot, DotOptions, NodeId, VnfTypeId};
use dagsfc::nfp::{hybrid_preset, TransformOptions, PRESETS};
use dagsfc::sim::lifecycle::{run_lifecycle, LifecycleConfig};
use dagsfc::sim::online::{run_online, OnlineConfig};
use dagsfc::sim::runner::{instance_network, instance_request};
use dagsfc::sim::{Algo, SimConfig};

fn base_cfg() -> SimConfig {
    SimConfig {
        network_size: 50,
        sfc_size: 4,
        ..SimConfig::default()
    }
}

/// The whole extension stack on one instance: build a chain fluently,
/// embed with MBBE-ST, polish with local search, protect with disjoint
/// backups, check against the certified lower bound, and export DOT.
#[test]
fn full_extension_pipeline() {
    let cfg = base_cfg();
    let net = instance_network(&cfg);
    let catalog = VnfCatalog::new(cfg.vnf_kinds as u16);
    let sfc = ChainBuilder::new(catalog)
        .then(VnfTypeId(0))
        .parallel([VnfTypeId(1), VnfTypeId(2)])
        .then(VnfTypeId(3))
        .build()
        .unwrap();
    let flow = Flow::unit(NodeId(0), NodeId(49));

    let out = MbbeStSolver::new().solve(&net, &sfc, &flow).unwrap();
    validate(&net, &sfc, &flow, &out.embedding).unwrap();

    let lb = cost_lower_bound(&net, &sfc, &flow).unwrap();
    assert!(out.cost.total() >= lb.total() - 1e-9);

    let polished = improve(
        &net,
        &sfc,
        &flow,
        &out.embedding,
        LocalSearchConfig::default(),
    );
    assert!(polished.after <= polished.before + 1e-9);
    assert!(polished.after >= lb.total() - 1e-9);

    let protected = protect(&net, &sfc, &flow, &polished.embedding).unwrap();
    validate(&net, &sfc, &flow, &protected.embedding).unwrap();
    for l in net.link_ids() {
        assert!(protected.survives_link_failure(l));
    }

    let dot = to_dot(
        &net,
        &DotOptions {
            highlight_links: protected
                .embedding
                .paths()
                .iter()
                .flat_map(|p| p.links().iter().copied())
                .collect(),
            ..DotOptions::default()
        },
    );
    assert!(dot.contains("color=red"));
}

/// Every chain preset embeds on a Table 2-style cloud after NFP
/// transformation — presets, transform, solver, and validator agree.
#[test]
fn all_presets_embed() {
    let cfg = SimConfig {
        network_size: 60,
        vnf_kinds: 13, // 12 NFs + headroom; merger becomes kind 13
        ..SimConfig::default()
    };
    let catalog = VnfCatalog::new(12);
    let net_cfg = dagsfc::net::NetGenConfig {
        nodes: 60,
        vnf_kinds: catalog.deployable_count(),
        deploy_ratio: 0.6,
        ..dagsfc::net::NetGenConfig::default()
    };
    let net = dagsfc::net::generator::generate(
        &net_cfg,
        &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed),
    )
    .unwrap();
    let flow = Flow::unit(NodeId(0), NodeId(59));
    for preset in PRESETS {
        let hybrid = hybrid_preset(preset.name, TransformOptions { max_width: Some(3) })
            .expect("preset resolves");
        let sfc = dagsfc::core::DagSfc::from_hybrid(&hybrid, catalog).unwrap();
        let out = MbbeSolver::new()
            .solve(&net, &sfc, &flow)
            .unwrap_or_else(|e| panic!("{}: {e}", preset.name));
        validate(&net, &sfc, &flow, &out.embedding)
            .unwrap_or_else(|v| panic!("{}: {v:?}", preset.name));
    }
}

/// Steiner multicast and disjoint pairs hold their invariants on every
/// structured topology.
#[test]
fn routing_extensions_on_structured_topologies() {
    let gen_cfg = dagsfc::net::NetGenConfig {
        vnf_kinds: 4,
        deploy_ratio: 0.5,
        ..dagsfc::net::NetGenConfig::default()
    };
    let batteries = [
        Topology::Grid {
            rows: 5,
            cols: 5,
            wrap: true,
        },
        Topology::FatTree { k: 4 },
        Topology::BarabasiAlbert { n: 30, m: 3 },
    ];
    for topology in batteries {
        let net = build(
            topology,
            &gen_cfg,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5),
        )
        .unwrap();
        let n = net.node_count() as u32;
        let root = NodeId(0);
        let targets = [NodeId(n / 3), NodeId(n / 2), NodeId(n - 1)];
        let mt = multicast_tree(&net, root, &targets, &NoFilter).unwrap();
        let independent: f64 = targets
            .iter()
            .map(|&t| {
                dagsfc::net::routing::min_cost_path(&net, root, t, &NoFilter)
                    .unwrap()
                    .price(&net)
            })
            .sum();
        assert!(
            mt.tree_price <= independent + 1e-9,
            "{topology:?}: tree {} above independent sum {independent}",
            mt.tree_price
        );
        // These multi-connected fabrics have no bridges on the sampled
        // pairs: disjoint pairs must exist and be disjoint.
        if let Some(pair) = disjoint_path_pair(&net, root, targets[2], &NoFilter) {
            for l in pair.primary.links() {
                assert!(!pair.backup.links().contains(l));
            }
        }
        let metrics = analyze(&net);
        assert!(metrics.diameter.is_some(), "{topology:?} disconnected");
    }
}

/// Online and lifecycle agree with each other and with the wrapped
/// local-search solver under capacity pressure.
#[test]
fn admission_stack_consistency() {
    let base = SimConfig {
        network_size: 30,
        sfc_size: 3,
        vnf_capacity: 5.0,
        link_capacity: 5.0,
        ..SimConfig::default()
    };
    let online = run_online(&OnlineConfig {
        base: base.clone(),
        requests: 50,
        algo: Algo::Mbbe,
    });
    let lifecycle = run_lifecycle(&LifecycleConfig {
        base: base.clone(),
        arrivals: 50,
        mean_holding: 1e9, // nothing departs → must equal online
        algo: Algo::Mbbe,
    });
    assert_eq!(online.accepted, lifecycle.accepted);
    assert_eq!(online.rejected, lifecycle.rejected);
    assert!(lifecycle.checks.unwrap().final_leak.abs() < 1e-6);
}

/// The LS-wrapped RANV beats plain RANV on the same instance sequence —
/// the improver composes with the runner's request generator.
#[test]
fn wrapped_solver_beats_inner_on_instances() {
    let cfg = base_cfg();
    let net = instance_network(&cfg);
    let mut plain_total = 0.0;
    let mut wrapped_total = 0.0;
    for run in 0..5 {
        let (sfc, flow) = instance_request(&cfg, &net, run);
        plain_total += RanvSolver::new(run as u64)
            .solve(&net, &sfc, &flow)
            .unwrap()
            .cost
            .total();
        wrapped_total += ImprovedSolver::new(RanvSolver::new(run as u64))
            .solve(&net, &sfc, &flow)
            .unwrap()
            .cost
            .total();
    }
    assert!(
        wrapped_total < plain_total - 1e-9,
        "LS wrapper should improve RANV: {plain_total} → {wrapped_total}"
    );
}
