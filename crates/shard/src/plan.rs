//! Region partitioning of a substrate network.
//!
//! A [`ShardPlan`] assigns every node to exactly one of `N` region
//! shards (contiguous node-index ranges, so the assignment is a pure
//! function of the node id and the shard count), derives a unique
//! *owner* shard for every link, and designates the **gateway** nodes:
//! the endpoints of links that cross a shard boundary. Gateways are
//! where cross-shard embeddings are stitched together.
//!
//! On top of the plan, a [`GatewayTable`] holds one *corridor* per
//! ordered shard pair: the cheapest gateway-to-gateway route over the
//! base (full-capacity) substrate, which a stitched embedding between
//! those shards is allowed to use. One search per home shard prices
//! all of its corridors at once. The table is the pricing oracle of the
//! stitching step: gateway selection is a table lookup, never a
//! per-request graph search.

use dagsfc_net::routing::{settle_within_in, NoFilter, RoutingScratch};
use dagsfc_net::{LinkId, Network, NodeId, Path};
use std::collections::BTreeMap;

/// Shard-layer failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// The requested shard count cannot partition the network: zero, or
    /// more shards than nodes (an empty shard has no resources and no
    /// gateways).
    InvalidShardCount {
        /// Requested shard count.
        shards: usize,
        /// Nodes available to partition.
        nodes: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::InvalidShardCount { shards, nodes } => write!(
                f,
                "shard count {shards} must be in 1..={nodes} for a {nodes}-node network"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// A static partition of a substrate into `N` region shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: usize,
    /// Node index → shard index.
    node_shard: Vec<u32>,
    /// Link index → owning shard (the smaller of the endpoint shards,
    /// so every resource has exactly one ledger of record).
    link_owner: Vec<u32>,
    /// Per shard: gateway nodes, ascending.
    gateways: Vec<Vec<NodeId>>,
}

impl ShardPlan {
    /// Partitions `net` into `shards` contiguous node-index ranges.
    ///
    /// Shard `k` owns nodes `[k·n/N, (k+1)·n/N)` — deterministic, and
    /// independent of everything except the node count and `N`. Errors
    /// when `shards` is zero or exceeds the node count (an empty shard
    /// would have no resources and no gateways).
    pub fn partition(net: &Network, shards: usize) -> Result<ShardPlan, ShardError> {
        let n = net.node_count();
        if shards == 0 || shards > n {
            return Err(ShardError::InvalidShardCount { shards, nodes: n });
        }
        let node_shard: Vec<u32> = (0..n).map(|v| ((v * shards) / n) as u32).collect();
        let mut link_owner = Vec::with_capacity(net.link_count());
        let mut is_gateway = vec![false; n];
        for li in 0..net.link_count() {
            let link = net.link(LinkId(li as u32));
            let sa = node_shard[link.a.index()];
            let sb = node_shard[link.b.index()];
            link_owner.push(sa.min(sb));
            if sa != sb {
                is_gateway[link.a.index()] = true;
                is_gateway[link.b.index()] = true;
            }
        }
        let mut gateways = vec![Vec::new(); shards];
        for (v, &gw) in is_gateway.iter().enumerate() {
            if gw {
                gateways[node_shard[v] as usize].push(NodeId(v as u32));
            }
        }
        Ok(ShardPlan {
            shards,
            node_shard,
            link_owner,
            gateways,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.node_shard[node.index()] as usize
    }

    /// The shard whose ledger records `link`'s bandwidth (the smaller
    /// endpoint shard for cross-shard links).
    pub fn owner_of(&self, link: LinkId) -> usize {
        self.link_owner[link.index()] as usize
    }

    /// Gateway nodes of `shard`, ascending.
    pub fn gateways(&self, shard: usize) -> &[NodeId] {
        &self.gateways[shard]
    }
}

/// One precomputed gateway-to-gateway transit route.
#[derive(Debug, Clone)]
pub struct TransitRoute {
    /// Entry gateway (in the home shard).
    pub from: NodeId,
    /// Exit gateway (in the destination shard).
    pub to: NodeId,
    /// Summed link price of the route per unit rate.
    pub price: f64,
    /// Summed propagation delay of the route (µs).
    pub delay_us: f64,
    /// The concrete route over the base substrate.
    pub path: Path,
}

/// A corridor: its route, and the route's links in ascending order for
/// the stitched views' scope checks.
#[derive(Debug, Clone)]
struct Corridor {
    route: TransitRoute,
    links: Vec<LinkId>,
}

impl Corridor {
    /// The corridor along `path`, whose summed link price is `price`.
    fn new(net: &Network, path: Path, price: f64) -> Corridor {
        let mut links = path.links().to_vec();
        links.sort_unstable();
        let route = TransitRoute {
            from: path.source(),
            to: path.target(),
            price,
            delay_us: path.delay_us(net),
            path,
        };
        Corridor { route, links }
    }
}

/// Whether the last search in `scratch` settled `v` at exactly `price`.
fn settled_at(scratch: &RoutingScratch, v: NodeId, price: f64) -> bool {
    scratch.settled_dist(v).map(f64::to_bits) == Some(price.to_bits())
}

/// The inter-gateway distance table: the cheapest gateway-to-gateway
/// transit over the base substrate, one corridor per ordered shard pair.
#[derive(Debug, Clone, Default)]
pub struct GatewayTable {
    /// `(home, dst)` shard pair → cheapest gateway-to-gateway route.
    corridors: BTreeMap<(u32, u32), Corridor>,
}

impl GatewayTable {
    /// The cheapest route from a gateway of one shard to a gateway of
    /// another, for every ordered shard pair that any such route joins,
    /// over every link of `net` at its base price. On a price tie the
    /// lowest entry gateway wins, then the lowest exit gateway, so the
    /// table is deterministic. One shard has no corridor to price.
    ///
    /// The routes ignore capacity, so the table never changes during
    /// serving and gateway selection stays a lookup.
    ///
    /// Per home shard, one search seeded at 0.0 from all of its gateways
    /// prices every destination shard: a node's distance is the least
    /// over the gateways of its distance in that gateway's own
    /// shortest-path tree, bit for bit (see [`settle_within_in`]). Then
    /// searches from the home gateways in ascending id, each settling
    /// only as far as the dearest corridor still unplaced, find every
    /// corridor's entry gateway: the first whose search settles a
    /// destination gateway at exactly the corridor's price. Its
    /// predecessors give the path, whose [`Path::price`] has the same
    /// bits: both add the same link prices in the same order.
    pub fn build(net: &Network, plan: &ShardPlan) -> GatewayTable {
        let mut corridors = BTreeMap::new();
        if plan.shards() < 2 {
            return GatewayTable { corridors };
        }
        let mut scratch = RoutingScratch::new();
        for home in 0..plan.shards() {
            let gateways = plan.gateways(home);
            settle_within_in(net, gateways, &NoFilter, f64::INFINITY, &mut scratch);
            // Per destination: the corridor's price, and the exits this
            // search settled at exactly that price. No home gateway alone
            // reaches an exit for less than the nearest one does, so only
            // these exits can end the corridor.
            let mut open = Vec::new();
            for dst in (0..plan.shards()).filter(|&dst| dst != home) {
                let exits = plan.gateways(dst).iter().copied();
                let dists = exits.clone().filter_map(|gb| scratch.settled_dist(gb));
                let Some(price) = dists.reduce(f64::min) else {
                    continue;
                };
                let exits: Vec<NodeId> = exits
                    .filter(|&gb| settled_at(&scratch, gb, price))
                    .collect();
                open.push((dst, price, exits));
            }
            for &ga in gateways {
                let Some(radius) = open.iter().map(|&(_, price, _)| price).reduce(f64::max) else {
                    break;
                };
                settle_within_in(net, &[ga], &NoFilter, radius, &mut scratch);
                open.retain(|&(dst, price, ref exits)| {
                    let exit = exits.iter().find(|&&gb| settled_at(&scratch, gb, price));
                    let Some(path) = exit.and_then(|&gb| scratch.settled_path(gb)) else {
                        return true;
                    };
                    let corridor = Corridor::new(net, path, price);
                    corridors.insert((home as u32, dst as u32), corridor);
                    false
                });
            }
        }
        GatewayTable { corridors }
    }

    /// The cheapest precomputed corridor from `home` to `dst`, if the
    /// pair is connected through any gateway pair.
    pub fn corridor(&self, home: usize, dst: usize) -> Option<&TransitRoute> {
        self.corridors
            .get(&(home as u32, dst as u32))
            .map(|c| &c.route)
    }

    /// The links of the corridor from `home` to `dst`, ascending; empty
    /// when the pair has none.
    pub fn corridor_links(&self, home: usize, dst: usize) -> &[LinkId] {
        self.corridors
            .get(&(home as u32, dst as u32))
            .map_or(&[], |c| &c.links)
    }

    /// Number of distinct shard pairs with a priced corridor.
    pub fn corridor_count(&self) -> usize {
        self.corridors.len()
    }
}
