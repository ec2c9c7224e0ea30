//! Substrate microbenches: the primitives every solver is built on —
//! the random network generator, Dijkstra, Yen's k-shortest paths, the
//! BFS search-tree growth, and residual-state reservation/rollback.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dagsfc_core::solvers::bbe::SearchTree;
use dagsfc_net::routing::{k_shortest_paths, min_cost_path, NoFilter};
use dagsfc_net::{generator, NetGenConfig, Network, NetworkState, NodeId, VnfTypeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn make_net(nodes: usize) -> Network {
    let cfg = NetGenConfig {
        nodes,
        avg_degree: 6.0,
        vnf_kinds: 13,
        ..NetGenConfig::default()
    };
    generator::generate(&cfg, &mut StdRng::seed_from_u64(1)).unwrap()
}

fn generator_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("generator");
    for nodes in [100usize, 500] {
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &n| {
            b.iter(|| black_box(make_net(n)))
        });
    }
    group.finish();
}

fn dijkstra_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra");
    for nodes in [100usize, 500] {
        let net = make_net(nodes);
        let to = NodeId(nodes as u32 - 1);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(min_cost_path(&net, NodeId(0), to, &NoFilter).unwrap()))
        });
    }
    group.finish();
}

fn yen_bench(c: &mut Criterion) {
    let net = make_net(100);
    let mut group = c.benchmark_group("yen_k_shortest");
    for k in [2usize, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| black_box(k_shortest_paths(&net, NodeId(0), NodeId(99), k, &NoFilter)))
        });
    }
    group.finish();
}

fn search_tree_bench(c: &mut Criterion) {
    let net = make_net(500);
    // Require a rare kind so the BFS has to expand several rings.
    let required = [VnfTypeId(0), VnfTypeId(5), VnfTypeId(12)];
    c.bench_function("search_tree/grow_500", |b| {
        b.iter(|| black_box(SearchTree::grow(&net, NodeId(7), &required, |_| true, None)))
    });
}

fn state_bench(c: &mut Criterion) {
    let net = make_net(500);
    c.bench_function("state/reserve_release_100", |b| {
        let mut state = NetworkState::new(&net);
        let links = (0..100u32).map(|i| dagsfc_net::LinkId(i % net.link_count() as u32));
        b.iter(|| {
            for l in links.clone() {
                let _ = state.reserve_link(l, 0.5);
            }
            for l in links.clone() {
                let _ = state.release_link(l, 0.5);
            }
        })
    });
}

criterion_group! {
    name = substrate;
    config = Criterion::default();
    targets = generator_bench, dijkstra_bench, yen_bench, search_tree_bench, state_bench
}
criterion_main!(substrate);
