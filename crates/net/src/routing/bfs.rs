//! Breadth-first hop distances.
//!
//! [`hop_distances_in`] walks the network's CSR snapshot (contiguous arc
//! scans instead of nested-`Vec` pointer chasing) in a caller-provided
//! [`RoutingScratch`], so repeated distance maps reuse one queue and one
//! stamp array. BBE's forward and backward searches grow their own hop
//! rings (`dagsfc_core`'s `SearchTree`).

use super::scratch::{with_thread_scratch, RoutingScratch};
use crate::graph::Network;
use crate::ids::NodeId;
use crate::snapshot::NetworkSnapshot;

/// Hop distance from `start` to every node (`None` if unreachable).
pub fn hop_distances(net: &Network, start: NodeId) -> Vec<Option<u32>> {
    with_thread_scratch(|scratch| hop_distances_in(net, start, scratch))
}

/// Like [`hop_distances`], but runs in a caller-provided scratch: the
/// only steady-state allocation is the returned distance vector.
pub fn hop_distances_in(
    net: &Network,
    start: NodeId,
    scratch: &mut RoutingScratch,
) -> Vec<Option<u32>> {
    let snap: &NetworkSnapshot = net.snapshot();
    scratch.bfs_begin(snap.node_count());
    scratch.bfs_visit(start, 0);
    scratch.queue.push_back(start);
    while let Some(n) = scratch.queue.pop_front() {
        // Queued nodes always have a hop count; unwrap_or keeps the
        // loop panic-free if that invariant ever breaks.
        let d = scratch.bfs_hops(n).unwrap_or(0);
        for i in snap.arc_range(n) {
            let m = snap.arc_target(i);
            if !scratch.bfs_visited(m) {
                scratch.bfs_visit(m, d + 1);
                scratch.queue.push_back(m);
            }
        }
    }
    (0..snap.node_count() as u32)
        .map(|v| scratch.bfs_hops(NodeId(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3 plus a pendant 4 attached to 1.
    fn graph() -> Network {
        let mut g = Network::new();
        g.add_nodes(5);
        g.add_link(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 1.0, 1.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 1.0, 1.0).unwrap();
        g.add_link(NodeId(1), NodeId(4), 1.0, 1.0).unwrap();
        g
    }

    #[test]
    fn hop_distance_map() {
        let g = graph();
        let d = hop_distances(&g, NodeId(3));
        assert_eq!(d[3], Some(0));
        assert_eq!(d[2], Some(1));
        assert_eq!(d[1], Some(2));
        assert_eq!(d[0], Some(3));
        assert_eq!(d[4], Some(3));
    }

    #[test]
    fn hop_distance_unreachable() {
        let mut g = Network::new();
        g.add_nodes(2);
        let d = hop_distances(&g, NodeId(0));
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], None);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let g = graph();
        let mut scratch = RoutingScratch::new();
        for start in g.node_ids() {
            let fresh = hop_distances(&g, start);
            let reused = hop_distances_in(&g, start, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }
}
