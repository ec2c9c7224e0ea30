//! Immutable CSR (compressed sparse row) view of a [`Network`].
//!
//! Routing kernels are the hottest code in the workspace: every solve
//! runs many Dijkstra/BFS searches, and each search visits every arc of
//! the graph in the worst case. The pointer-chasing
//! `Vec<Vec<(NodeId, LinkId)>>` adjacency plus a `links[link]` lookup
//! per relaxation costs two dependent cache misses per arc. This module
//! flattens the graph into struct-of-arrays form once — `u32` offsets
//! and targets plus parallel price/capacity arrays — so the inner
//! relaxation loop is a contiguous scan.
//!
//! Each undirected link contributes two *arcs* (one per direction). Arc
//! order within a node matches [`Network::neighbors`] (sorted by
//! neighbor id), so CSR-based searches relax arcs in exactly the order
//! the adjacency-list searches did and produce bit-identical trees.
//!
//! Snapshots are built lazily by [`Network::snapshot`] and cached until
//! the next topology mutation; they are cheap to share (`Arc`).

use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use std::sync::{Arc, OnceLock};

/// A single outgoing arc in a [`NetworkSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc32 {
    /// Arc head (the neighbor reached by traversing the arc).
    pub to: NodeId,
    /// The undirected link this arc belongs to.
    pub link: LinkId,
    /// Link price `c_e` per unit rate (same for both directions).
    pub price: f64,
    /// Link bandwidth capacity `r_e` (shared by both directions).
    pub capacity: f64,
    /// Link propagation delay `d_e` in microseconds (both directions).
    pub delay_us: f64,
}

/// Flat struct-of-arrays adjacency of a [`Network`].
///
/// `offsets` has `node_count + 1` entries; the arcs leaving node `v`
/// occupy indices `offsets[v] .. offsets[v + 1]` of the parallel
/// `targets` / `arc_link` / `arc_price` / `arc_capacity` arrays.
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
    node_count: usize,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    arc_link: Vec<u32>,
    arc_price: Vec<f64>,
    arc_capacity: Vec<f64>,
    arc_delay: Vec<f64>,
}

impl NetworkSnapshot {
    /// Builds the CSR form of `net`. Arc order per node matches
    /// [`Network::neighbors`] exactly.
    pub fn build(net: &Network) -> Self {
        let n = net.node_count();
        let arc_total: usize = 2 * net.link_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(arc_total);
        let mut arc_link = Vec::with_capacity(arc_total);
        let mut arc_price = Vec::with_capacity(arc_total);
        let mut arc_capacity = Vec::with_capacity(arc_total);
        let mut arc_delay = Vec::with_capacity(arc_total);
        offsets.push(0);
        for v in net.node_ids() {
            for &(m, l) in net.neighbors(v) {
                let link = net.link(l);
                targets.push(m.0);
                arc_link.push(l.0);
                arc_price.push(link.price);
                arc_capacity.push(link.capacity);
                arc_delay.push(link.delay_us);
            }
            offsets.push(targets.len() as u32);
        }
        NetworkSnapshot {
            node_count: n,
            offsets,
            targets,
            arc_link,
            arc_price,
            arc_capacity,
            arc_delay,
        }
    }

    /// Number of nodes in the snapshotted network.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total number of arcs (twice the undirected link count).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// Index range of the arcs leaving `v` in the parallel arrays.
    #[inline]
    pub fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        lo..hi
    }

    /// Head node of arc `i`.
    #[inline]
    pub fn arc_target(&self, i: usize) -> NodeId {
        NodeId(self.targets[i])
    }

    /// Underlying link of arc `i`.
    #[inline]
    pub fn arc_link(&self, i: usize) -> LinkId {
        LinkId(self.arc_link[i])
    }

    /// Price of arc `i` per unit rate.
    #[inline]
    pub fn arc_price(&self, i: usize) -> f64 {
        self.arc_price[i]
    }

    /// Bandwidth capacity of arc `i`.
    #[inline]
    pub fn arc_capacity(&self, i: usize) -> f64 {
        self.arc_capacity[i]
    }

    /// Propagation delay of arc `i` in microseconds.
    #[inline]
    pub fn arc_delay(&self, i: usize) -> f64 {
        self.arc_delay[i]
    }

    /// Iterator over the arcs leaving `v`, in neighbor-id order.
    #[inline]
    pub fn arcs(&self, v: NodeId) -> impl Iterator<Item = Arc32> + '_ {
        self.arc_range(v).map(move |i| Arc32 {
            to: NodeId(self.targets[i]),
            link: LinkId(self.arc_link[i]),
            price: self.arc_price[i],
            capacity: self.arc_capacity[i],
            delay_us: self.arc_delay[i],
        })
    }
}

/// Lazily initialized, mutation-invalidated cache slot for a network's
/// CSR snapshot.
///
/// `Clone` intentionally produces an *empty* cell: a cloned network is
/// usually about to be mutated (`map_capacities`), and the snapshot is
/// cheap to rebuild on first use.
#[derive(Debug, Default)]
pub(crate) struct SnapshotCell(OnceLock<Arc<NetworkSnapshot>>);

impl Clone for SnapshotCell {
    fn clone(&self) -> Self {
        SnapshotCell::default()
    }
}

// The cell is a derived cache, never persisted: it serializes to null
// and deserializes (from null or from a payload predating the field)
// to an empty cell that rebuilds on first use.
impl serde::Serialize for SnapshotCell {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Null
    }
}

impl serde::Deserialize for SnapshotCell {
    fn from_value(_v: &serde::value::Value) -> Result<Self, serde::DeError> {
        Ok(SnapshotCell::default())
    }
}

impl SnapshotCell {
    /// Returns the cached snapshot, building it from `net` on first use.
    #[inline]
    pub(crate) fn get_or_build(&self, net: &Network) -> &Arc<NetworkSnapshot> {
        self.0.get_or_init(|| Arc::new(NetworkSnapshot::build(net)))
    }

    /// Drops any cached snapshot (called by topology mutators).
    #[inline]
    pub(crate) fn invalidate(&mut self) {
        self.0.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 2.0, 20.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 3.0, 30.0).unwrap();
        g.add_link(NodeId(0), NodeId(3), 4.0, 40.0).unwrap();
        g
    }

    #[test]
    fn csr_matches_adjacency() {
        let g = sample();
        let s = NetworkSnapshot::build(&g);
        assert_eq!(s.node_count(), 4);
        assert_eq!(s.arc_count(), 8);
        for v in g.node_ids() {
            let adj: Vec<_> = g.neighbors(v).to_vec();
            let csr: Vec<_> = s.arcs(v).map(|a| (a.to, a.link)).collect();
            assert_eq!(adj, csr, "arc order must match neighbors({v:?})");
            for a in s.arcs(v) {
                let l = g.link(a.link);
                assert_eq!(a.price, l.price);
                assert_eq!(a.capacity, l.capacity);
                assert_eq!(a.delay_us, l.delay_us);
            }
        }
    }

    #[test]
    fn snapshot_cached_and_invalidated() {
        let mut g = sample();
        let first = std::sync::Arc::as_ptr(g.snapshot());
        let again = std::sync::Arc::as_ptr(g.snapshot());
        assert_eq!(first, again, "second call must hit the cache");
        g.add_link(NodeId(1), NodeId(3), 1.0, 1.0).unwrap();
        let rebuilt = g.snapshot();
        assert_eq!(rebuilt.arc_count(), 10, "rebuild sees the new link");
    }

    #[test]
    fn clone_resets_cache() {
        let g = sample();
        let _ = g.snapshot();
        let h = g.clone();
        // The clone's cell is empty; building from the clone reflects
        // any divergence between the two networks.
        let mut h2 = h.clone();
        h2.add_link(NodeId(1), NodeId(3), 1.0, 1.0).unwrap();
        assert_eq!(h2.snapshot().arc_count(), 10);
        assert_eq!(g.snapshot().arc_count(), 8);
    }

    #[test]
    fn empty_network() {
        let g = Network::new();
        let s = NetworkSnapshot::build(&g);
        assert_eq!(s.node_count(), 0);
        assert_eq!(s.arc_count(), 0);
    }
}
