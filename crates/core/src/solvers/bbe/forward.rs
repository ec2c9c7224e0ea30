//! Step 1 of BBE: the forward search (paper §4.2).
//!
//! For layer `l` the forward search expands BFS rings from the layer's
//! start node `v_{l-1}` over the *whole* network until the discovered
//! node set hosts every VNF kind the layer requires (parallel VNFs plus
//! the merger). The result is the Forward Search Tree, whose dotted
//! arrows later instantiate the inter-layer meta-paths.

use super::tree::SearchTree;
use crate::chain::Layer;
use crate::vnf::VnfCatalog;
use dagsfc_net::{Network, NodeId};

/// Runs the forward search for `layer` starting at `start`.
///
/// `x_max` is MBBE's strategy (1): a bound on the forward node set size.
/// The returned FST reports `covered() == false` when the layer's kinds
/// cannot all be found (within the bound), and `capped() == true` when
/// the bound is what stopped it — the signal the adaptive `X_max` retry
/// keys on.
pub fn forward_search(
    net: &Network,
    start: NodeId,
    layer: &Layer,
    catalog: &VnfCatalog,
    x_max: Option<usize>,
) -> SearchTree {
    let required = layer.required_kinds(catalog);
    SearchTree::grow(net, start, &required, |_| true, x_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsfc_net::VnfTypeId;

    /// Line: v0 - v1 - v2 - v3 with f0@v1, f1@v2, merger@v3.
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        for i in 0..3u32 {
            g.add_link(NodeId(i), NodeId(i + 1), 1.0, 10.0).unwrap();
        }
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(2), 1.0, 10.0).unwrap(); // merger
        g
    }

    #[test]
    fn singleton_layer_needs_only_its_kind() {
        let g = net();
        let c = VnfCatalog::new(2); // merger = f(2)
        let layer = Layer::new(vec![VnfTypeId(0)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        assert!(fst.covered());
        assert!(fst.contains(NodeId(1)));
        assert!(!fst.contains(NodeId(2))); // stopped before ring 2
    }

    #[test]
    fn parallel_layer_requires_merger_too() {
        let g = net();
        let c = VnfCatalog::new(2);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, None);
        assert!(fst.covered());
        // Must have walked all the way to v3 for the merger.
        assert!(fst.contains(NodeId(3)));
    }

    #[test]
    fn x_max_propagates() {
        let g = net();
        let c = VnfCatalog::new(2);
        let layer = Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]);
        let fst = forward_search(&g, NodeId(0), &layer, &c, Some(2));
        assert!(!fst.covered());
        assert!(fst.capped());
        // A bound the search never reaches leaves no trace.
        let fst = forward_search(&g, NodeId(0), &layer, &c, Some(4));
        assert!(fst.covered());
        assert!(!fst.capped());
    }
}
