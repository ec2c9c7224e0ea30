//! The priced cloud network model of the DAG-SFC paper (§3.2).
//!
//! The target network is a graph `G = (V, E)` where every bi-directional
//! link carries a *link price* per unit of traffic rate and a *bandwidth
//! capacity*, and every node hosts a set of VNF *instances*, each with a
//! *rental price* per unit of traffic rate and a *traffic processing
//! capability*.
//!
//! Topology and prices are fixed once built (embedding algorithms never
//! change them); the mutable residual-capacity view lives in
//! [`crate::state::NetworkState`]. Capacities alone can be rewritten in
//! place ([`Network::set_link_capacity`], [`Network::set_vnf_capacity`]),
//! which is how a long-lived residual view follows its ledger without
//! cloning the network.

use crate::error::{NetError, NetResult};
use crate::ids::{LinkId, NodeId, VnfTypeId};
use crate::snapshot::{NetworkSnapshot, SnapshotCell};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A deployed VNF instance `f_v(i)` on some node `v`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VnfInstance {
    /// The VNF category `f(i)` this instance belongs to.
    pub vnf: VnfTypeId,
    /// Rental price `c_{v,f(i)}` per unit of traffic delivery rate.
    pub price: f64,
    /// Traffic processing capability `r_{v,f(i)}` (units of rate).
    pub capacity: f64,
}

/// A network node hosting zero or more VNF instances.
///
/// At most one instance per VNF category is hosted per node (matching the
/// paper's `f_v(i)` notation, which is unique per `(v, i)`); instances are
/// kept sorted by [`VnfTypeId`] for binary-search lookup.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Node {
    instances: Vec<VnfInstance>,
}

impl Node {
    /// All VNF instances on this node, sorted by type id (the paper's `F_v`).
    #[inline]
    pub fn instances(&self) -> &[VnfInstance] {
        &self.instances
    }

    /// Looks up the instance of VNF type `vnf` on this node, if deployed.
    pub fn instance(&self, vnf: VnfTypeId) -> Option<&VnfInstance> {
        self.instances
            .binary_search_by_key(&vnf, |i| i.vnf)
            .ok()
            .map(|idx| &self.instances[idx])
    }

    /// Whether VNF type `vnf` is deployed on this node.
    #[inline]
    pub fn hosts(&self, vnf: VnfTypeId) -> bool {
        self.instance(vnf).is_some()
    }
}

/// A bi-directional network link `e = (a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint (always the smaller node id).
    pub a: NodeId,
    /// The other endpoint (always the larger node id).
    pub b: NodeId,
    /// Link price `c_e` per unit of traffic delivery rate.
    pub price: f64,
    /// Bandwidth capacity `r_e` (units of rate, shared by both directions).
    pub capacity: f64,
    /// Propagation/forwarding delay `d_e` in microseconds (both
    /// directions). Zero on links built without an explicit delay.
    pub delay_us: f64,
}

impl Link {
    /// The endpoint opposite to `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of this link.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            debug_assert_eq!(n, self.b, "node is not an endpoint of this link");
            self.a
        }
    }

    /// Whether `n` is an endpoint of this link.
    #[inline]
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.a || n == self.b
    }
}

/// The target network `G = (V, E)` with prices and capacities.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// `adj[v]` lists `(neighbor, link)` pairs, sorted by neighbor id.
    adj: Vec<Vec<(NodeId, LinkId)>>,
    /// `hosts[i]` lists the nodes hosting VNF type `i` (the paper's `V_i`),
    /// sorted by node id. Indexed by `VnfTypeId`.
    hosts: Vec<Vec<NodeId>>,
    /// Lazily built CSR snapshot, dropped on every topology mutation and
    /// patched in place by [`Network::set_link_capacity`]. Serializes as
    /// null (rebuilt on demand) and resets on `Clone`.
    csr: SnapshotCell,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links `|E|`.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Adds a node with no VNF instances, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::default());
        self.adj.push(Vec::new());
        self.csr.invalidate();
        id
    }

    /// Adds `count` empty nodes, returning the id of the first.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = NodeId(self.nodes.len() as u32);
        for _ in 0..count {
            self.add_node();
        }
        first
    }

    /// Deploys a VNF instance on `node`.
    ///
    /// Fails if the node does not exist, a `vnf` instance already exists on
    /// the node, or price/capacity are not finite non-negative numbers.
    pub fn deploy_vnf(
        &mut self,
        node: NodeId,
        vnf: VnfTypeId,
        price: f64,
        capacity: f64,
    ) -> NetResult<()> {
        if node.index() >= self.nodes.len() {
            return Err(NetError::UnknownNode(node));
        }
        if !(price.is_finite() && price >= 0.0) {
            return Err(NetError::InvalidParameter("VNF price"));
        }
        if !(capacity.is_finite() && capacity >= 0.0) {
            return Err(NetError::InvalidParameter("VNF capacity"));
        }
        let instances = &mut self.nodes[node.index()].instances;
        match instances.binary_search_by_key(&vnf, |i| i.vnf) {
            Ok(_) => Err(NetError::InvalidParameter("VNF already deployed on node")),
            Err(pos) => {
                instances.insert(
                    pos,
                    VnfInstance {
                        vnf,
                        price,
                        capacity,
                    },
                );
                let hosts = &mut self.ensure_hosts(vnf)[vnf.index()];
                if let Err(hpos) = hosts.binary_search(&node) {
                    hosts.insert(hpos, node);
                }
                // The CSR snapshot holds no VNF data today, but
                // invalidating here keeps the cache safe if it ever does.
                self.csr.invalidate();
                Ok(())
            }
        }
    }

    fn ensure_hosts(&mut self, vnf: VnfTypeId) -> &mut Vec<Vec<NodeId>> {
        if self.hosts.len() <= vnf.index() {
            self.hosts.resize_with(vnf.index() + 1, Vec::new);
        }
        &mut self.hosts
    }

    /// Adds a bi-directional link between `a` and `b` with zero delay.
    ///
    /// Fails on self-loops, duplicate links, unknown endpoints, or invalid
    /// price/capacity values.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        price: f64,
        capacity: f64,
    ) -> NetResult<LinkId> {
        self.add_link_with_delay(a, b, price, capacity, 0.0)
    }

    /// Adds a bi-directional link between `a` and `b` carrying an
    /// explicit propagation delay (microseconds).
    ///
    /// Fails on self-loops, duplicate links, unknown endpoints, or invalid
    /// price/capacity/delay values.
    pub fn add_link_with_delay(
        &mut self,
        a: NodeId,
        b: NodeId,
        price: f64,
        capacity: f64,
        delay_us: f64,
    ) -> NetResult<LinkId> {
        if a == b {
            return Err(NetError::SelfLoop(a));
        }
        if a.index() >= self.nodes.len() {
            return Err(NetError::UnknownNode(a));
        }
        if b.index() >= self.nodes.len() {
            return Err(NetError::UnknownNode(b));
        }
        if !(price.is_finite() && price >= 0.0) {
            return Err(NetError::InvalidParameter("link price"));
        }
        if !(capacity.is_finite() && capacity >= 0.0) {
            return Err(NetError::InvalidParameter("link capacity"));
        }
        if !(delay_us.is_finite() && delay_us >= 0.0) {
            return Err(NetError::InvalidParameter("link delay"));
        }
        if self.link_between(a, b).is_some() {
            return Err(NetError::DuplicateLink(a, b));
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a: lo,
            b: hi,
            price,
            capacity,
            delay_us,
        });
        let pos_a = self.adj[a.index()].partition_point(|&(n, _)| n < b);
        self.adj[a.index()].insert(pos_a, (b, id));
        let pos_b = self.adj[b.index()].partition_point(|&(n, _)| n < a);
        self.adj[b.index()].insert(pos_b, (a, id));
        self.csr.invalidate();
        Ok(id)
    }

    /// Sets the propagation delay of an existing link (microseconds).
    ///
    /// Fails on unknown links or non-finite/negative delays.
    pub fn set_link_delay(&mut self, link: LinkId, delay_us: f64) -> NetResult<()> {
        if !(delay_us.is_finite() && delay_us >= 0.0) {
            return Err(NetError::InvalidParameter("link delay"));
        }
        let l = self
            .links
            .get_mut(link.index())
            .ok_or(NetError::UnknownLink(link))?;
        l.delay_us = delay_us;
        self.csr.invalidate();
        Ok(())
    }

    /// Sets the bandwidth capacity of an existing link.
    ///
    /// Validates like [`add_link`](Self::add_link): fails on unknown
    /// links or non-finite/negative capacities. A built CSR snapshot
    /// takes the new capacity on the link's two arcs in place; one that
    /// is shared with another owner is dropped instead and rebuilt on
    /// next use.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity: f64) -> NetResult<()> {
        if !(capacity.is_finite() && capacity >= 0.0) {
            return Err(NetError::InvalidParameter("link capacity"));
        }
        let l = self
            .links
            .get_mut(link.index())
            .ok_or(NetError::UnknownLink(link))?;
        l.capacity = capacity;
        let (a, b) = (l.a, l.b);
        self.csr.patch_link_capacity(link, a, b, capacity);
        Ok(())
    }

    /// Sets the processing capability of the `vnf` instance on `node`.
    ///
    /// Validates like [`deploy_vnf`](Self::deploy_vnf): fails on unknown
    /// nodes, undeployed instances or non-finite/negative capacities.
    /// The CSR snapshot holds no VNF data, so it stays as built.
    pub fn set_vnf_capacity(
        &mut self,
        node: NodeId,
        vnf: VnfTypeId,
        capacity: f64,
    ) -> NetResult<()> {
        if !(capacity.is_finite() && capacity >= 0.0) {
            return Err(NetError::InvalidParameter("VNF capacity"));
        }
        let instances = &mut self
            .nodes
            .get_mut(node.index())
            .ok_or(NetError::UnknownNode(node))?
            .instances;
        let idx = instances
            .binary_search_by_key(&vnf, |i| i.vnf)
            .map_err(|_| NetError::VnfNotDeployed { node, vnf })?;
        instances[idx].capacity = capacity;
        Ok(())
    }

    /// Per-link delays in microseconds, indexed by [`LinkId`] — the
    /// lookup table the core delay model consumes.
    pub fn link_delays_us(&self) -> Vec<f64> {
        self.links.iter().map(|l| l.delay_us).collect()
    }

    /// The cached CSR snapshot of this network, built on first use.
    ///
    /// The snapshot is invalidated by every topology mutation
    /// ([`add_node`](Self::add_node), [`add_link`](Self::add_link),
    /// [`deploy_vnf`](Self::deploy_vnf)) and rebuilt lazily, and
    /// [`set_link_capacity`](Self::set_link_capacity) patches it in
    /// place, so hot routing loops always see arc data consistent with
    /// the graph.
    #[inline]
    pub fn snapshot(&self) -> &Arc<NetworkSnapshot> {
        self.csr.get_or_build(self)
    }

    /// The node data for `id`.
    ///
    /// # Panics
    /// Panics if the node does not exist.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link data for `id`.
    ///
    /// # Panics
    /// Panics if the link does not exist.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Checked node access.
    pub fn try_node(&self, id: NodeId) -> NetResult<&Node> {
        self.nodes.get(id.index()).ok_or(NetError::UnknownNode(id))
    }

    /// Checked link access.
    pub fn try_link(&self, id: LinkId) -> NetResult<&Link> {
        self.links.get(id.index()).ok_or(NetError::UnknownLink(id))
    }

    /// `(neighbor, link)` pairs adjacent to `n`, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[n.index()]
    }

    /// Degree of node `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.index()].len()
    }

    /// Average node degree (the paper's *network connectivity*).
    pub fn avg_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        2.0 * self.links.len() as f64 / self.nodes.len() as f64
    }

    /// The link connecting `a` and `b` directly, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let adj = &self.adj[a.index()];
        adj.binary_search_by_key(&b, |&(n, _)| n)
            .ok()
            .map(|i| adj[i].1)
    }

    /// The nodes hosting VNF type `vnf` (the paper's `V_i`), sorted.
    pub fn hosts_of(&self, vnf: VnfTypeId) -> &[NodeId] {
        self.hosts
            .get(vnf.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether `node` hosts VNF type `vnf`.
    #[inline]
    pub fn hosts(&self, node: NodeId, vnf: VnfTypeId) -> bool {
        self.nodes[node.index()].hosts(vnf)
    }

    /// The instance of `vnf` on `node`, if deployed.
    #[inline]
    pub fn instance(&self, node: NodeId, vnf: VnfTypeId) -> Option<&VnfInstance> {
        self.nodes[node.index()].instance(vnf)
    }

    /// Price of renting one rate unit of `vnf` on `node`.
    pub fn vnf_price(&self, node: NodeId, vnf: VnfTypeId) -> NetResult<f64> {
        self.instance(node, vnf)
            .map(|i| i.price)
            .ok_or(NetError::VnfNotDeployed { node, vnf })
    }

    /// Whether the network is connected (empty networks count as connected).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = stack.pop() {
            for &(m, _) in self.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Returns a structurally identical network with every capacity
    /// remapped: `vnf_cap(node, kind, old)` and `link_cap(link, old)`
    /// decide the new values. Prices and topology are preserved.
    ///
    /// This is the bridge from a mutable [`crate::NetworkState`] back to
    /// a `Network` — online/multi-request simulations embed each arrival
    /// against the *residual* network produced this way. A residual view
    /// kept across many commits can instead follow its state with
    /// [`set_link_capacity`](Self::set_link_capacity) and
    /// [`set_vnf_capacity`](Self::set_vnf_capacity), which rewrite
    /// capacities in place and keep the CSR snapshot.
    pub fn map_capacities(
        &self,
        mut vnf_cap: impl FnMut(NodeId, VnfTypeId, f64) -> f64,
        mut link_cap: impl FnMut(LinkId, f64) -> f64,
    ) -> Network {
        let mut out = self.clone();
        for (vi, node) in out.nodes.iter_mut().enumerate() {
            let v = NodeId(vi as u32);
            for inst in &mut node.instances {
                inst.capacity = vnf_cap(v, inst.vnf, inst.capacity).max(0.0);
            }
        }
        for (li, link) in out.links.iter_mut().enumerate() {
            link.capacity = link_cap(LinkId(li as u32), link.capacity).max(0.0);
        }
        out
    }

    /// Rebuilds this network through the validating constructors.
    ///
    /// A deserialized `Network` holds its fields exactly as written, so
    /// none of the checks in [`add_link_with_delay`](Self::add_link_with_delay)
    /// and [`deploy_vnf`](Self::deploy_vnf) have run on it. This replays
    /// every link and VNF instance through them, and fails unless the
    /// stored adjacency and host lists equal the ones they derive. A
    /// network the constructors built comes back unchanged.
    pub fn rebuilt(&self) -> NetResult<Network> {
        let mut net = Network::new();
        net.add_nodes(self.nodes.len());
        for l in &self.links {
            net.add_link_with_delay(l.a, l.b, l.price, l.capacity, l.delay_us)?;
        }
        for (v, node) in self.nodes.iter().enumerate() {
            for i in &node.instances {
                net.deploy_vnf(NodeId(v as u32), i.vnf, i.price, i.capacity)?;
            }
        }
        if net.adj != self.adj {
            return Err(NetError::InvalidParameter(
                "adjacency lists disagree with links",
            ));
        }
        if net.hosts != self.hosts {
            return Err(NetError::InvalidParameter(
                "host lists disagree with VNF instances",
            ));
        }
        Ok(net)
    }

    /// Summary statistics used by reports and sanity tests.
    pub fn stats(&self) -> NetworkStats {
        let mut vnf_instances = 0usize;
        let mut vnf_price_sum = 0.0;
        for n in &self.nodes {
            vnf_instances += n.instances.len();
            vnf_price_sum += n.instances.iter().map(|i| i.price).sum::<f64>();
        }
        let link_price_sum: f64 = self.links.iter().map(|l| l.price).sum();
        let link_delay_sum: f64 = self.links.iter().map(|l| l.delay_us).sum();
        NetworkStats {
            nodes: self.nodes.len(),
            links: self.links.len(),
            avg_degree: self.avg_degree(),
            vnf_instances,
            avg_vnf_price: if vnf_instances == 0 {
                0.0
            } else {
                vnf_price_sum / vnf_instances as f64
            },
            avg_link_price: if self.links.is_empty() {
                0.0
            } else {
                link_price_sum / self.links.len() as f64
            },
            avg_link_delay_us: if self.links.is_empty() {
                0.0
            } else {
                link_delay_sum / self.links.len() as f64
            },
        }
    }
}

/// Aggregate statistics of a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of links.
    pub links: usize,
    /// Average node degree.
    pub avg_degree: f64,
    /// Total number of deployed VNF instances.
    pub vnf_instances: usize,
    /// Mean VNF rental price.
    pub avg_vnf_price: f64,
    /// Mean link price.
    pub avg_link_price: f64,
    /// Mean link propagation delay in microseconds.
    pub avg_link_delay_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        let mut g = Network::new();
        g.add_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 2.0, 10.0).unwrap();
        g
    }

    #[test]
    fn build_and_query() {
        let g = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.link_between(NodeId(0), NodeId(1)), Some(LinkId(0)));
        assert_eq!(g.link_between(NodeId(1), NodeId(0)), Some(LinkId(0)));
        assert_eq!(g.link_between(NodeId(0), NodeId(2)), None);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rebuilt_keeps_valid_networks_and_checks_host_lists() {
        let mut g = tiny();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 3.0, 5.0).unwrap();
        let same = g.rebuilt().unwrap();
        assert_eq!(
            serde_json::to_string(&same).unwrap(),
            serde_json::to_string(&g).unwrap()
        );
        let mut bad = g.clone();
        bad.hosts[1].clear();
        assert_eq!(
            bad.rebuilt().unwrap_err(),
            NetError::InvalidParameter("host lists disagree with VNF instances")
        );
    }

    #[test]
    fn link_endpoints_normalized() {
        let mut g = Network::new();
        g.add_nodes(2);
        let l = g.add_link(NodeId(1), NodeId(0), 1.0, 1.0).unwrap();
        let link = g.link(l);
        assert_eq!(link.a, NodeId(0));
        assert_eq!(link.b, NodeId(1));
        assert_eq!(link.other(NodeId(0)), NodeId(1));
        assert_eq!(link.other(NodeId(1)), NodeId(0));
        assert!(link.touches(NodeId(0)) && link.touches(NodeId(1)));
        assert!(!link.touches(NodeId(7)));
    }

    #[test]
    fn rejects_self_loop_and_duplicates() {
        let mut g = tiny();
        assert_eq!(
            g.add_link(NodeId(0), NodeId(0), 1.0, 1.0),
            Err(NetError::SelfLoop(NodeId(0)))
        );
        assert_eq!(
            g.add_link(NodeId(1), NodeId(0), 1.0, 1.0),
            Err(NetError::DuplicateLink(NodeId(1), NodeId(0)))
        );
        assert!(matches!(
            g.add_link(NodeId(0), NodeId(9), 1.0, 1.0),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn rejects_invalid_prices() {
        let mut g = tiny();
        assert!(g.add_link(NodeId(0), NodeId(2), -1.0, 1.0).is_err());
        assert!(g.add_link(NodeId(0), NodeId(2), f64::NAN, 1.0).is_err());
        assert!(g.deploy_vnf(NodeId(0), VnfTypeId(0), -0.5, 1.0).is_err());
        assert!(g
            .deploy_vnf(NodeId(0), VnfTypeId(0), 1.0, f64::INFINITY)
            .is_err());
    }

    #[test]
    fn vnf_deployment_and_hosts_index() {
        let mut g = tiny();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 3.0, 5.0).unwrap();
        g.deploy_vnf(NodeId(0), VnfTypeId(1), 2.0, 5.0).unwrap();
        g.deploy_vnf(NodeId(0), VnfTypeId(0), 1.0, 5.0).unwrap();
        assert_eq!(g.hosts_of(VnfTypeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(g.hosts_of(VnfTypeId(0)), &[NodeId(0)]);
        assert_eq!(g.hosts_of(VnfTypeId(9)), &[] as &[NodeId]);
        assert!(g.hosts(NodeId(0), VnfTypeId(1)));
        assert!(!g.hosts(NodeId(1), VnfTypeId(1)));
        assert_eq!(g.vnf_price(NodeId(0), VnfTypeId(1)).unwrap(), 2.0);
        assert!(g.vnf_price(NodeId(1), VnfTypeId(1)).is_err());
        // instances sorted by type id
        let types: Vec<_> = g
            .node(NodeId(0))
            .instances()
            .iter()
            .map(|i| i.vnf)
            .collect();
        assert_eq!(types, vec![VnfTypeId(0), VnfTypeId(1)]);
    }

    #[test]
    fn duplicate_deployment_rejected() {
        let mut g = tiny();
        g.deploy_vnf(NodeId(0), VnfTypeId(0), 1.0, 5.0).unwrap();
        assert!(g.deploy_vnf(NodeId(0), VnfTypeId(0), 1.0, 5.0).is_err());
    }

    #[test]
    fn connectivity_check() {
        let g = tiny();
        assert!(g.is_connected());
        let mut g2 = Network::new();
        g2.add_nodes(2);
        assert!(!g2.is_connected());
        assert!(Network::new().is_connected());
    }

    #[test]
    fn stats_aggregation() {
        let mut g = tiny();
        g.deploy_vnf(NodeId(0), VnfTypeId(0), 2.0, 5.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 4.0, 5.0).unwrap();
        let s = g.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.links, 2);
        assert_eq!(s.vnf_instances, 2);
        assert!((s.avg_vnf_price - 3.0).abs() < 1e-12);
        assert!((s.avg_link_price - 1.5).abs() < 1e-12);
    }

    #[test]
    fn link_delays_default_zero_and_are_settable() {
        let mut g = Network::new();
        g.add_nodes(3);
        let l0 = g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        let l1 = g
            .add_link_with_delay(NodeId(1), NodeId(2), 1.0, 10.0, 25.0)
            .unwrap();
        assert_eq!(g.link(l0).delay_us, 0.0);
        assert_eq!(g.link(l1).delay_us, 25.0);
        g.set_link_delay(l0, 7.5).unwrap();
        assert_eq!(g.link(l0).delay_us, 7.5);
        assert_eq!(g.link_delays_us(), vec![7.5, 25.0]);
        let s = g.stats();
        assert!((s.avg_link_delay_us - 16.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_delays() {
        let mut g = Network::new();
        g.add_nodes(2);
        assert!(g
            .add_link_with_delay(NodeId(0), NodeId(1), 1.0, 1.0, -1.0)
            .is_err());
        assert!(g
            .add_link_with_delay(NodeId(0), NodeId(1), 1.0, 1.0, f64::NAN)
            .is_err());
        let l = g
            .add_link_with_delay(NodeId(0), NodeId(1), 1.0, 1.0, 2.0)
            .unwrap();
        assert!(g.set_link_delay(l, f64::INFINITY).is_err());
        assert!(g.set_link_delay(LinkId(9), 1.0).is_err());
        assert_eq!(g.link(l).delay_us, 2.0);
    }

    #[test]
    fn capacity_setters_validate_like_the_constructors() {
        let mut g = tiny();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 1.0, 4.0).unwrap();
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(g.set_link_capacity(LinkId(0), bad).is_err());
            assert!(g.set_vnf_capacity(NodeId(2), VnfTypeId(1), bad).is_err());
        }
        assert!(g.set_link_capacity(LinkId(9), 1.0).is_err());
        assert!(g.set_vnf_capacity(NodeId(9), VnfTypeId(1), 1.0).is_err());
        assert_eq!(
            g.set_vnf_capacity(NodeId(0), VnfTypeId(1), 1.0),
            Err(NetError::VnfNotDeployed {
                node: NodeId(0),
                vnf: VnfTypeId(1)
            })
        );
        g.set_vnf_capacity(NodeId(2), VnfTypeId(1), 0.0).unwrap();
        assert_eq!(g.link(LinkId(0)).capacity, 10.0);
        assert_eq!(g.instance(NodeId(2), VnfTypeId(1)).unwrap().capacity, 0.0);
    }

    #[test]
    fn neighbors_sorted() {
        let mut g = Network::new();
        g.add_nodes(4);
        g.add_link(NodeId(2), NodeId(3), 1.0, 1.0).unwrap();
        g.add_link(NodeId(2), NodeId(0), 1.0, 1.0).unwrap();
        g.add_link(NodeId(2), NodeId(1), 1.0, 1.0).unwrap();
        let ns: Vec<_> = g.neighbors(NodeId(2)).iter().map(|&(n, _)| n).collect();
        assert_eq!(ns, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }
}
