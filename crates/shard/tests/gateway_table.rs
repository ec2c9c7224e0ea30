//! Pins of the gateway corridor table.
//!
//! - A golden digest of every corridor the table holds on seeded
//!   substrates: 20–500 nodes cut 2–8 ways, the same topologies with
//!   every link priced 1.0 (where every gateway pair ties and only the
//!   tie-break picks the corridor), and a substrate in two components.
//!   The constant was recorded while each pair was still priced on its
//!   own oracle tree, so it pins that pricing a whole shard with one
//!   search kept every corridor bit for bit.
//! - A property against the table's definition on small random
//!   substrates with few distinct prices and zero-price links: the
//!   corridor from `home` to `dst` is the lowest `(ga, gb)` gateway pair
//!   at the least `PathOracle::tree(ga, 0.0)` distance, with that
//!   tree's path.

use dagsfc_net::{LinkId, Network, NodeId, PathOracle};
use dagsfc_shard::{GatewayTable, ShardPlan};
use dagsfc_sim::runner::instance_network;
use dagsfc_sim::SimConfig;
use proptest::prelude::*;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds every ordered shard pair's corridor, or a marker where the
    /// pair has none.
    fn table(&mut self, plan: &ShardPlan, table: &GatewayTable) {
        self.word(plan.shards() as u64);
        for home in 0..plan.shards() {
            for dst in (0..plan.shards()).filter(|&d| d != home) {
                self.word(((home as u64) << 32) | dst as u64);
                let Some(route) = table.corridor(home, dst) else {
                    self.word(u64::MAX);
                    continue;
                };
                self.word(u64::from(route.from.0));
                self.word(u64::from(route.to.0));
                self.word(route.price.to_bits());
                self.word(route.delay_us.to_bits());
                self.word(route.path.links().len() as u64);
                for l in route.path.links() {
                    self.word(u64::from(l.0));
                }
            }
        }
    }
}

fn cfg(nodes: usize, seed: u64) -> SimConfig {
    SimConfig {
        network_size: nodes,
        sfc_size: 4,
        seed,
        ..SimConfig::default()
    }
}

/// `net`'s topology with the links `keep` admits, in link order, each
/// priced `price` when given and at its own price otherwise.
fn relinked(net: &Network, price: Option<f64>, keep: impl Fn(LinkId) -> bool) -> Network {
    let mut out = Network::new();
    out.add_nodes(net.node_count());
    for l in net.link_ids().filter(|&l| keep(l)) {
        let link = net.link(l);
        out.add_link_with_delay(
            link.a,
            link.b,
            price.unwrap_or(link.price),
            link.capacity,
            link.delay_us,
        )
        .expect("a link of a valid network");
    }
    out
}

#[test]
fn corridor_table_digest_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut disconnected_pairs = 0usize;
    for (nodes, seed) in [(20, 0xB1), (50, 0xB2), (80, 0xB3), (200, 0xB4), (500, 0xB5)] {
        let net = instance_network(&cfg(nodes, seed));
        let uniform = relinked(&net, Some(1.0), |_| true);
        for shards in 2..=8usize {
            for g in [&net, &uniform] {
                let plan = ShardPlan::partition(g, shards).expect("partition");
                h.table(&plan, &GatewayTable::build(g, &plan));
            }
        }
    }
    // Two components: nodes below 40 and the rest of an 80-node substrate.
    let net = instance_network(&cfg(80, 0xB6));
    let halves = relinked(&net, None, |l| {
        let link = net.link(l);
        (link.a.0 < 40) == (link.b.0 < 40)
    });
    for shards in 2..=8usize {
        let plan = ShardPlan::partition(&halves, shards).expect("partition");
        let table = GatewayTable::build(&halves, &plan);
        disconnected_pairs += shards * (shards - 1) - table.corridor_count();
        h.table(&plan, &table);
    }
    assert!(disconnected_pairs > 0, "the halves must leave pairs apart");
    assert_eq!(
        h.0, 0x03a0_2202_aa32_eb34,
        "corridor table digest moved: {:#018x}",
        h.0
    );
}

/// The corridor from `home` to `dst` by definition: the lowest `(ga,
/// gb)` at the least distance, each priced on `ga`'s own oracle tree.
fn reference(
    oracle: &PathOracle<'_>,
    plan: &ShardPlan,
    home: usize,
    dst: usize,
) -> Option<(NodeId, NodeId, f64, dagsfc_net::Path)> {
    let mut best: Option<(NodeId, NodeId, f64, dagsfc_net::Path)> = None;
    for &ga in plan.gateways(home) {
        let tree = oracle.tree(ga, 0.0);
        for &gb in plan.gateways(dst) {
            let Some(d) = tree.dist_to(gb) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| d < b.2) {
                let path = tree.path_to(gb).expect("a reached gateway has a path");
                best = Some((ga, gb, d, path));
            }
        }
    }
    best
}

/// Link prices: few distinct values, zero among them, and sums that
/// round (0.1 + 0.2 is not 0.3 in f64), so exact ties and near-ties both
/// occur.
const PRICES: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn corridors_are_the_lowest_gateway_pair_at_the_least_distance(
        nodes in 2usize..41,
        shards in 2usize..7,
        links in prop::collection::vec((0usize..40, 0usize..40, 0usize..5), 0..120),
    ) {
        let mut net = Network::new();
        net.add_nodes(nodes);
        for (a, b, p) in links {
            let (a, b) = (NodeId((a % nodes) as u32), NodeId((b % nodes) as u32));
            // Self-loops and duplicate links are refused; skip them.
            let _ = net.add_link_with_delay(a, b, PRICES[p], 1.0, (a.0 + b.0) as f64);
        }
        let plan = ShardPlan::partition(&net, shards.min(nodes)).expect("partition");
        let table = GatewayTable::build(&net, &plan);
        let oracle = PathOracle::new(&net);
        let mut corridors = 0;
        for home in 0..plan.shards() {
            prop_assert!(table.corridor(home, home).is_none());
            for dst in (0..plan.shards()).filter(|&d| d != home) {
                let want = reference(&oracle, &plan, home, dst);
                let got = table.corridor(home, dst);
                prop_assert_eq!(want.is_some(), got.is_some(), "{} -> {}", home, dst);
                let (Some((ga, gb, price, path)), Some(route)) = (want, got) else {
                    continue;
                };
                corridors += 1;
                prop_assert_eq!((route.from, route.to), (ga, gb), "{} -> {}", home, dst);
                prop_assert_eq!(route.price.to_bits(), price.to_bits());
                prop_assert_eq!(route.path.nodes(), path.nodes());
                prop_assert_eq!(route.path.links(), path.links());
                prop_assert_eq!(route.delay_us.to_bits(), path.delay_us(&net).to_bits());
            }
        }
        prop_assert_eq!(table.corridor_count(), corridors);
    }
}
