//! Step 2 of BBE: the backward search (paper §4.3).
//!
//! For every merger candidate found by the forward search, the backward
//! search expands BFS rings from that merger node, **restricted to the
//! forward search node set**, until it re-covers the layer's VNF kinds.
//! Its two purposes (per the paper): narrowing the node set of the
//! forward search, and instantiating the inner-layer meta-paths
//! (parallel VNF → merger) via the BST's dotted arrows.

use super::tree::SearchTree;
use crate::chain::Layer;
use crate::vnf::VnfCatalog;
use dagsfc_net::{Network, NodeId};

/// Runs the backward search for `layer` from the merger candidate
/// `merger_node`, restricted to nodes of `fst`.
pub fn backward_search(
    net: &Network,
    merger_node: NodeId,
    layer: &Layer,
    catalog: &VnfCatalog,
    fst: &SearchTree,
) -> SearchTree {
    let required = layer.required_kinds(catalog);
    SearchTree::grow(net, merger_node, &required, |n| fst.contains(n), None)
}

#[cfg(test)]
mod tests {
    use super::super::forward::forward_search;
    use super::*;
    use dagsfc_net::VnfTypeId;

    /// Diamond with a tail:
    /// v0 - v1 - v2 , v0 - v3 - v2 , v2 - v4.
    /// f0@v1, f1@v3, merger@v2; v4 hosts f0 too (outside any shortest
    /// region).
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(5);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 1.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(3), 1.0, 10.0).unwrap();
        g.add_link(NodeId(3), NodeId(2), 1.0, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(4), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(2), 1.0, 10.0).unwrap(); // merger
        g.deploy_vnf(NodeId(4), VnfTypeId(0), 1.0, 10.0).unwrap();
        g
    }

    #[test]
    fn backward_restricted_to_fst() {
        let g = net();
        let c = VnfCatalog::new(2);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        assert!(fst.covered());
        // Forward from v0 covers at ring 2 (merger on v2); v4 is at
        // distance 3 and must not be in the FST.
        assert!(!fst.contains(NodeId(4)));

        let bst = backward_search(&g, NodeId(2), &layer, &c, &fst);
        assert!(bst.covered());
        assert_eq!(bst.root(), NodeId(2));
        // BST finds f0@v1 and f1@v3 one ring from the merger, never
        // leaving the forward set (v4 excluded even though it hosts f0).
        assert!(bst.contains(NodeId(1)));
        assert!(bst.contains(NodeId(3)));
        assert!(!bst.contains(NodeId(4)));
    }

    #[test]
    fn backward_can_fail_outside_forward_set() {
        let g = net();
        let c = VnfCatalog::new(2);
        // Forward search for a singleton f0 layer stops at ring 1 (v1),
        // so a backward search for {f0,f1,merger} inside that tiny set
        // cannot cover.
        let single = Layer::new(vec![VnfTypeId(0)]);
        let fst = forward_search(&g, NodeId(0), &single, &c, None);
        let wide = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let bst = backward_search(&g, NodeId(1), &wide, &c, &fst);
        assert!(!bst.covered());
        // Backward searches run unbounded: never capped.
        assert!(!bst.capped());
    }

    #[test]
    fn bst_paths_orient_from_merger() {
        let g = net();
        let c = VnfCatalog::new(2);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        let bst = backward_search(&g, NodeId(2), &layer, &c, &fst);
        let v1 = bst.index_of(NodeId(1)).unwrap();
        let paths = bst.paths_from_root(&g, v1, 16, 4);
        assert_eq!(paths.len(), 1);
        // paths_from_root orients root→node, i.e. merger→VNF; the inner
        // meta-path (VNF→merger) is its reverse.
        assert_eq!(paths[0].source(), NodeId(2));
        assert_eq!(paths[0].target(), NodeId(1));
    }
}
