//! Property tests for the oracle's trees, which settle on demand: every
//! answer must equal a complete tree's under the same filter, whatever
//! the query order, thread or later overlay change.
//!
//! The reference is an eager `ShortestPathTree::build_weighted_in` under
//! the filter the oracle documents: links up, between up nodes, with
//! capacity at least the rate's class threshold. Networks draw prices
//! from a small set with repeats and zeros, so ties and zero-length arcs
//! are common.

use dagsfc_net::routing::{ArcWeight, RoutingScratch, ShortestPathTree};
use dagsfc_net::{LinkId, Network, NodeId, PathOracle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Link prices: repeats make ties, zeros make zero-length arcs.
const PRICES: [f64; 5] = [0.0, 0.5, 1.0, 1.0, 2.5];
/// Link capacities: three classes.
const CAPACITIES: [f64; 3] = [1.0, 2.0, 4.0];
/// Link delays (µs), zeros included.
const DELAYS: [f64; 3] = [0.0, 1.0, 5.0];

/// A random network of `n` nodes: a spanning path (so most nodes are
/// reachable until links go down) plus random chords.
fn network(rng: &mut StdRng, n: usize) -> Network {
    let mut g = Network::new();
    g.add_nodes(n);
    let link = |g: &mut Network, rng: &mut StdRng, a: usize, b: usize| {
        let price = PRICES[rng.gen_range(0..PRICES.len())];
        let cap = CAPACITIES[rng.gen_range(0..CAPACITIES.len())];
        let delay = DELAYS[rng.gen_range(0..DELAYS.len())];
        // lint:allow(unwrap) — test fixture: endpoints exist, values valid
        g.add_link_with_delay(NodeId(a as u32), NodeId(b as u32), price, cap, delay)
            .unwrap();
    };
    for v in 1..n {
        link(&mut g, rng, v - 1, v);
    }
    for _ in 0..2 * n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b
            && g.neighbors(NodeId(a as u32))
                .iter()
                .all(|&(m, _)| m.index() != b)
        {
            link(&mut g, rng, a, b);
        }
    }
    g
}

/// What a tree answers about one node: the distance bits, and the
/// path's node and link lists.
type Answer = (Option<u64>, Option<(Vec<NodeId>, Vec<LinkId>)>);

/// A tree's answers, node by node.
type Answers = Vec<Answer>;

fn answer(tree: &ShortestPathTree, v: NodeId) -> Answer {
    (
        tree.dist_to(v).map(f64::to_bits),
        tree.path_to(v)
            .map(|p| (p.nodes().to_vec(), p.links().to_vec())),
    )
}

/// The answers of `tree` over `n` nodes, queried in `order` (results
/// indexed by node; nodes missing from `order` stay unanswered).
fn answers_in(tree: &ShortestPathTree, n: usize, order: &[usize]) -> Answers {
    let mut out = vec![(None, None); n];
    for &v in order {
        out[v] = answer(tree, NodeId(v as u32));
    }
    out
}

/// The overlay and class a tree is built under.
struct Filter {
    threshold: f64,
    down_links: Vec<bool>,
    down_nodes: Vec<bool>,
}

impl Filter {
    fn admits(&self, net: &Network, l: LinkId) -> bool {
        let link = net.link(l);
        !self.down_links[l.index()]
            && !self.down_nodes[link.a.index()]
            && !self.down_nodes[link.b.index()]
            && link.capacity >= self.threshold
    }
}

/// A complete tree under `filter`: the reference answers.
fn reference(net: &Network, source: NodeId, filter: &Filter, weight: ArcWeight) -> Answers {
    let mut scratch = RoutingScratch::new();
    let admits = |l: LinkId| filter.admits(net, l);
    let tree =
        ShortestPathTree::build_weighted_in(net, source, &admits, None, &mut scratch, weight);
    let order: Vec<usize> = (0..net.node_count()).collect();
    answers_in(&tree, order.len(), &order)
}

fn shuffled(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

fn weights(rng: &mut StdRng) -> [ArcWeight; 3] {
    let lambda = [0.0, 0.5, 2.0][rng.gen_range(0..3usize)];
    [
        ArcWeight::Price,
        ArcWeight::Delay,
        ArcWeight::Lagrange(lambda),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random overlay, class and weight; queries in a random order, then
    /// again from two threads sharing one fresh tree.
    #[test]
    fn oracle_trees_answer_like_complete_trees(seed in 0u64..1 << 40, n in 2usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = network(&mut rng, n);
        let oracle = PathOracle::new(&net);
        let mut filter = Filter {
            threshold: 0.0,
            down_links: vec![false; net.link_count()],
            down_nodes: vec![false; n],
        };
        for l in 0..net.link_count() {
            if rng.gen_bool(0.15) {
                filter.down_links[l] = true;
                oracle.set_link_down(LinkId(l as u32), true);
            }
        }
        for v in 0..n {
            if rng.gen_bool(0.1) {
                filter.down_nodes[v] = true;
                oracle.set_node_down(NodeId(v as u32), true);
            }
        }
        let rate = [0.5, 1.0, 1.5, 3.0][rng.gen_range(0..4usize)];
        filter.threshold = oracle.rate_threshold(rate);
        for weight in weights(&mut rng) {
            let source = NodeId(rng.gen_range(0..n) as u32);
            let want = reference(&net, source, &filter, weight);
            oracle.invalidate();
            let tree = oracle.weighted_tree(source, rate, weight);
            prop_assert_eq!(&answers_in(&tree, n, &shuffled(&mut rng, n)), &want, "{:?}", weight);
            // A second pass over the now deeper tree answers the same.
            prop_assert_eq!(&answers_in(&tree, n, &shuffled(&mut rng, n)), &want, "{:?}", weight);

            oracle.invalidate();
            let shared = oracle.weighted_tree(source, rate, weight);
            let orders = [shuffled(&mut rng, n), shuffled(&mut rng, n)];
            let got: Vec<Answers> = std::thread::scope(|s| {
                let handles: Vec<_> = orders
                    .iter()
                    .map(|order| {
                        let tree = &shared;
                        s.spawn(move || answers_in(tree, n, order))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("query thread")).collect()
            });
            for answers in &got {
                prop_assert_eq!(answers, &want, "{:?}, two threads", weight);
            }
        }
    }

    /// A tree held across a `set_link_down` flip answers as the tree
    /// built before the flip; a tree fetched after it sees the flip.
    #[test]
    fn held_trees_answer_as_built(seed in 0u64..1 << 40, n in 3usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = network(&mut rng, n);
        let oracle = PathOracle::new(&net);
        let mut filter = Filter {
            threshold: oracle.rate_threshold(1.0),
            down_links: vec![false; net.link_count()],
            down_nodes: vec![false; n],
        };
        let source = NodeId(rng.gen_range(0..n) as u32);
        for weight in weights(&mut rng) {
            let before = reference(&net, source, &filter, weight);
            let held = oracle.weighted_tree(source, 1.0, weight);
            // Settle part of the tree before the flip, the rest after.
            let order = shuffled(&mut rng, n);
            let (early, late) = order.split_at(rng.gen_range(0..=n));
            let mut got = answers_in(&held, n, early);
            let flip = rng.gen_range(0..net.link_count());
            filter.down_links[flip] = !filter.down_links[flip];
            prop_assert!(oracle.set_link_down(LinkId(flip as u32), filter.down_links[flip]));
            for &v in late {
                got[v] = answer(&held, NodeId(v as u32));
            }
            prop_assert_eq!(&got, &before, "{:?}, held across the flip", weight);
            let after = reference(&net, source, &filter, weight);
            let fresh = oracle.weighted_tree(source, 1.0, weight);
            prop_assert_eq!(&answers_in(&fresh, n, &shuffled(&mut rng, n)), &after, "{:?}", weight);
        }
    }
}
