//! Property-based tests (proptest) over the core invariants:
//! routing optimality, residual-state algebra, transformation
//! correctness, cost-accounting monotonicity, and validator soundness.

use dagsfc::core::solvers::{MbbeSolver, MinvSolver, Solver};
use dagsfc::core::{validate, DagSfc, Flow, Layer, VnfCatalog};
use dagsfc::net::routing::{k_shortest_paths, min_cost_path, NoFilter};
use dagsfc::net::{generator, NetGenConfig, Network, NodeId, VnfTypeId};
use dagsfc::nfp::{catalog::enterprise_catalog, to_hybrid, DependencyMatrix, TransformOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a connected random network of 4..=14 nodes.
fn arb_net() -> impl Strategy<Value = Network> {
    (4usize..=14, 2.0f64..5.0, 0u64..5000).prop_map(|(n, deg, seed)| {
        let cfg = NetGenConfig {
            nodes: n,
            avg_degree: deg,
            vnf_kinds: 4,
            deploy_ratio: 0.6,
            vnf_price_fluctuation: 0.4,
            link_price_fluctuation: 0.4,
            ..NetGenConfig::default()
        };
        generator::generate(&cfg, &mut StdRng::seed_from_u64(seed)).expect("valid config")
    })
}

/// Exhaustively enumerates the cheapest simple-path price via DFS —
/// the brute-force oracle for Dijkstra.
fn brute_force_cheapest(net: &Network, from: NodeId, to: NodeId) -> Option<f64> {
    fn dfs(
        net: &Network,
        cur: NodeId,
        to: NodeId,
        visited: &mut Vec<bool>,
        cost: f64,
        best: &mut Option<f64>,
    ) {
        if cur == to {
            *best = Some(best.map_or(cost, |b: f64| b.min(cost)));
            return;
        }
        for &(next, link) in net.neighbors(cur) {
            if !visited[next.index()] {
                visited[next.index()] = true;
                dfs(net, next, to, visited, cost + net.link(link).price, best);
                visited[next.index()] = false;
            }
        }
    }
    let mut visited = vec![false; net.node_count()];
    visited[from.index()] = true;
    let mut best = None;
    dfs(net, from, to, &mut visited, 0.0, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dijkstra's result equals the brute-force cheapest simple path.
    #[test]
    fn dijkstra_matches_brute_force(net in arb_net(), a in 0u32..14, b in 0u32..14) {
        let n = net.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let dij = min_cost_path(&net, a, b, &NoFilter).map(|p| p.price(&net));
        let brute = brute_force_cheapest(&net, a, b);
        match (dij, brute) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9, "dijkstra {x} vs brute {y}"),
            (None, None) => {}
            (x, y) => prop_assert!(false, "reachability disagreement: {x:?} vs {y:?}"),
        }
    }

    /// Yen's paths are loopless, distinct, sorted by price, and start
    /// with the Dijkstra optimum.
    #[test]
    fn yen_invariants(net in arb_net(), a in 0u32..14, b in 0u32..14, k in 1usize..6) {
        let n = net.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let paths = k_shortest_paths(&net, a, b, k, &NoFilter);
        prop_assert!(paths.len() <= k);
        for (i, p) in paths.iter().enumerate() {
            prop_assert!(!p.has_node_cycle());
            prop_assert_eq!(p.source(), a);
            prop_assert_eq!(p.target(), b);
            for q in &paths[i + 1..] {
                prop_assert_ne!(p, q);
            }
        }
        for w in paths.windows(2) {
            prop_assert!(w[0].price(&net) <= w[1].price(&net) + 1e-9);
        }
        if let Some(first) = paths.first() {
            let opt = min_cost_path(&net, a, b, &NoFilter).expect("reachable");
            prop_assert!((first.price(&net) - opt.price(&net)).abs() < 1e-9);
        }
    }

    /// The NFP transformation preserves the NF multiset, keeps every
    /// layer mutually parallelizable, and respects the width cap.
    #[test]
    fn transform_invariants(
        chain in prop::collection::vec(0usize..12, 1..10),
        cap in 1usize..5,
    ) {
        let cat = enterprise_catalog();
        let deps = DependencyMatrix::analyze(&cat);
        let h = to_hybrid(&chain, &deps, TransformOptions { max_width: Some(cap) });
        // Multiset preserved.
        let mut flat = h.flatten();
        let mut orig = chain.clone();
        flat.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(flat, orig);
        // Width cap and pairwise parallelizability.
        for layer in h.layers() {
            prop_assert!(layer.len() <= cap);
            for (i, &a) in layer.iter().enumerate() {
                for &b in &layer[i + 1..] {
                    prop_assert!(deps.parallelizable(a, b) && deps.parallelizable(b, a));
                }
            }
        }
    }

    /// Solver outputs on random instances always validate, and the
    /// reported cost matches the validator's independent recomputation.
    #[test]
    fn random_instances_validate(seed in 0u64..40) {
        let cfg = NetGenConfig {
            nodes: 25,
            avg_degree: 4.0,
            vnf_kinds: 6, // 5 regular + merger
            deploy_ratio: 0.5,
            ..NetGenConfig::default()
        };
        let net = generator::generate(&cfg, &mut StdRng::seed_from_u64(seed)).expect("valid");
        let catalog = VnfCatalog::new(5);
        let sfc = DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]),
                Layer::new(vec![VnfTypeId(2)]),
            ],
            catalog,
        ).expect("valid chain");
        let flow = Flow::unit(NodeId(seed as u32 % 25), NodeId((seed as u32 + 7) % 25));
        for solver in [Box::new(MbbeSolver::new()) as Box<dyn Solver>, Box::new(MinvSolver::new())] {
            if let Ok(out) = solver.solve(&net, &sfc, &flow) {
                let cost = validate(&net, &sfc, &flow, &out.embedding);
                prop_assert!(cost.is_ok(), "{} invalid: {:?}", solver.name(), cost.err());
                prop_assert!((cost.unwrap().total() - out.cost.total()).abs() < 1e-9);
            }
        }
    }

    /// Multicast-aware accounting never charges more than naive
    /// per-path accounting would.
    #[test]
    fn multicast_accounting_no_more_than_unicast(seed in 0u64..30) {
        let cfg = NetGenConfig {
            nodes: 20,
            avg_degree: 4.0,
            vnf_kinds: 6,
            deploy_ratio: 0.6,
            ..NetGenConfig::default()
        };
        let net = generator::generate(&cfg, &mut StdRng::seed_from_u64(seed)).expect("valid");
        let catalog = VnfCatalog::new(5);
        let sfc = DagSfc::new(
            vec![Layer::new(vec![VnfTypeId(0), VnfTypeId(1), VnfTypeId(2)])],
            catalog,
        ).expect("valid chain");
        let flow = Flow::unit(NodeId(0), NodeId(19));
        if let Ok(out) = MbbeSolver::new().solve(&net, &sfc, &flow) {
            let acct = out.embedding.try_account(&net, &sfc, &flow).unwrap();
            // Naive accounting: every path charged independently.
            let naive: f64 = out
                .embedding
                .paths()
                .iter()
                .map(|p| p.price(&net) * flow.size)
                .sum();
            prop_assert!(acct.cost.link <= naive + 1e-9);
        }
    }
}

/// Non-proptest determinism anchor: fixed seed produces a byte-stable
/// network fingerprint (regression canary for generator changes).
#[test]
fn generator_fingerprint_stable() {
    let cfg = NetGenConfig {
        nodes: 30,
        avg_degree: 4.0,
        vnf_kinds: 5,
        ..NetGenConfig::default()
    };
    let a = generator::generate(&cfg, &mut StdRng::seed_from_u64(77)).unwrap();
    let b = generator::generate(&cfg, &mut StdRng::seed_from_u64(77)).unwrap();
    let fingerprint = |net: &Network| {
        let s = net.stats();
        (
            s.links,
            format!("{:.9}", s.avg_vnf_price),
            format!("{:.9}", s.avg_link_price),
        )
    };
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
