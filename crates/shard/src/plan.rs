//! Region partitioning of a substrate network.
//!
//! A [`ShardPlan`] assigns every node to exactly one of `N` region
//! shards (contiguous node-index ranges, so the assignment is a pure
//! function of the node id and the shard count), derives a unique
//! *owner* shard for every link, and designates the **gateway** nodes:
//! the endpoints of links that cross a shard boundary. Gateways are
//! where cross-shard embeddings are stitched together.
//!
//! On top of the plan, a [`GatewayTable`] prices the min-cost transit
//! between every ordered pair of gateways over the base (full-capacity)
//! substrate, and distils it into one *corridor* per ordered shard pair
//! — the cheapest gateway-to-gateway route that a stitched embedding
//! between those shards is allowed to use. The table
//! is the pricing oracle of the stitching step: gateway selection is a
//! table lookup, never a per-request graph search.

use dagsfc_net::{LinkId, Network, NodeId, Path, PathOracle};
use serde::Serialize;
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
    /// Links whose endpoints live in different shards, ascending.
    cross_links: Vec<LinkId>,
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
        let mut cross_links = Vec::new();
        let mut is_gateway = vec![false; n];
        for li in 0..net.link_count() {
            let link = net.link(LinkId(li as u32));
            let sa = node_shard[link.a.index()];
            let sb = node_shard[link.b.index()];
            link_owner.push(sa.min(sb));
            if sa != sb {
                cross_links.push(LinkId(li as u32));
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
            cross_links,
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

    /// Whether `link` spans two shards.
    pub fn is_cross(&self, link: LinkId) -> bool {
        self.cross_links.binary_search(&link).is_ok()
    }

    /// Gateway nodes of `shard`, ascending.
    pub fn gateways(&self, shard: usize) -> &[NodeId] {
        &self.gateways[shard]
    }

    /// All boundary-crossing links, ascending.
    pub fn cross_links(&self) -> &[LinkId] {
        &self.cross_links
    }

    /// Node count of `shard`.
    pub fn shard_size(&self, shard: usize) -> usize {
        self.node_shard
            .iter()
            .filter(|&&s| s as usize == shard)
            .count()
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

/// The inter-gateway distance table: min-cost transit between every
/// gateway pair over the base substrate, distilled into the cheapest
/// corridor per ordered shard pair.
#[derive(Debug, Clone, Default)]
pub struct GatewayTable {
    /// `(home, dst)` shard pair → cheapest gateway-to-gateway route.
    corridors: BTreeMap<(u32, u32), TransitRoute>,
    /// Number of gateway pairs priced while building the table.
    pairs_priced: usize,
}

impl GatewayTable {
    /// Prices every cross-shard gateway pair of `plan` over the base
    /// capacities of `net` and keeps the cheapest route per ordered
    /// shard pair (ties broken by ascending gateway ids, so the table
    /// is deterministic).
    ///
    /// Routing goes through a [`PathOracle`] at rate 0 — base topology,
    /// no residual-capacity dependence — so the table never changes
    /// during serving and gateway selection stays a lookup.
    ///
    /// Each pair is priced by its tree distance; only a pair that beats
    /// the corridor so far gets its path built. The distance has the
    /// bits of the path's [`Path::price`]: both add the same link prices
    /// in the same order from the source.
    pub fn build(net: &Network, plan: &ShardPlan) -> GatewayTable {
        let oracle = PathOracle::new(net);
        let mut corridors: BTreeMap<(u32, u32), TransitRoute> = BTreeMap::new();
        let mut pairs_priced = 0usize;
        for home in 0..plan.shards() {
            for dst in 0..plan.shards() {
                if home == dst {
                    continue;
                }
                let key = (home as u32, dst as u32);
                for &ga in plan.gateways(home) {
                    let tree = oracle.tree(ga, 0.0);
                    for &gb in plan.gateways(dst) {
                        let Some(price) = tree.dist_to(gb) else {
                            continue;
                        };
                        pairs_priced += 1;
                        // Strict `<`: the ascending (ga, gb) iteration
                        // order makes the lowest-id pair win ties.
                        if corridors.get(&key).is_some_and(|cur| price >= cur.price) {
                            continue;
                        }
                        let Some(path) = tree.path_to(gb) else {
                            continue;
                        };
                        let delay_us = path.delay_us(net);
                        corridors.insert(
                            key,
                            TransitRoute {
                                from: ga,
                                to: gb,
                                price,
                                delay_us,
                                path,
                            },
                        );
                    }
                }
            }
        }
        GatewayTable {
            corridors,
            pairs_priced,
        }
    }

    /// The cheapest precomputed corridor from `home` to `dst`, if the
    /// pair is connected through any gateway pair.
    pub fn corridor(&self, home: usize, dst: usize) -> Option<&TransitRoute> {
        self.corridors.get(&(home as u32, dst as u32))
    }

    /// Number of distinct shard pairs with a priced corridor.
    pub fn corridor_count(&self) -> usize {
        self.corridors.len()
    }

    /// Number of gateway pairs priced while building the table.
    pub fn pairs_priced(&self) -> usize {
        self.pairs_priced
    }
}

/// JSON-friendly summary of a plan (the `dagsfc shard plan` command).
#[derive(Debug, Serialize)]
pub struct PlanSummary {
    /// Number of shards.
    pub shards: usize,
    /// Nodes per shard.
    pub shard_sizes: Vec<usize>,
    /// Gateway count per shard.
    pub gateway_counts: Vec<usize>,
    /// Total boundary-crossing links.
    pub cross_links: usize,
    /// Shard pairs with a priced corridor.
    pub corridors: usize,
    /// Gateway pairs priced while building the table.
    pub pairs_priced: usize,
}

impl PlanSummary {
    /// Summarizes `plan` + `table`.
    pub fn new(plan: &ShardPlan, table: &GatewayTable) -> PlanSummary {
        PlanSummary {
            shards: plan.shards(),
            shard_sizes: (0..plan.shards()).map(|k| plan.shard_size(k)).collect(),
            gateway_counts: (0..plan.shards()).map(|k| plan.gateways(k).len()).collect(),
            cross_links: plan.cross_links().len(),
            corridors: table.corridor_count(),
            pairs_priced: table.pairs_priced(),
        }
    }
}
