//! The sub-solution tree (paper §4.4.2).
//!
//! Sub-solutions of layer `l` are stored as children of the layer-`(l-1)`
//! sub-solution their FST was grown from. Each node keeps an up (parent)
//! link, so a complete solution is reconstructed from a leaf without
//! re-walking the tree from the root — exactly the paper's rationale.
//! Generation walks the previous level, not the tree, so no down links
//! are stored.
//!
//! A node does not own its layer sub-solution: it holds a [`SubHandle`]
//! into the memoized layer expansion that produced it, which outlives
//! the tree for the whole search attempt. Only the winning lineage is
//! ever materialized.

use dagsfc_net::NodeId;

/// Where a tree node's layer sub-solution lives: entry `index` of the
/// sub-solutions that layer `layer` expanded from `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubHandle {
    /// The SFC layer the sub-solution embeds.
    pub layer: u32,
    /// The layer's start node (the parent's end node).
    pub start: NodeId,
    /// Position in that expansion's cheapest-first sub-solution list.
    pub index: u32,
}

/// A node of the sub-solution tree.
#[derive(Debug, Clone)]
pub(crate) struct SubNode {
    /// Up link to the previous layer's sub-solution.
    pub parent: Option<usize>,
    /// The embedded layer; `None` only for the root (the 0th layer of the
    /// paper's tree, storing the source node "without any cost").
    pub sub: Option<SubHandle>,
    /// Cost accumulated from the root through this node.
    pub cum_cost: f64,
    /// This sub-solution's end node (the next layer's start).
    pub end_node: NodeId,
}

/// Arena-allocated sub-solution tree.
#[derive(Debug, Clone)]
pub(crate) struct SubTree {
    nodes: Vec<SubNode>,
}

impl SubTree {
    /// Creates the tree with its root at the flow source.
    pub fn new(source: NodeId) -> Self {
        SubTree {
            nodes: vec![SubNode {
                parent: None,
                sub: None,
                cum_cost: 0.0,
                end_node: source,
            }],
        }
    }

    /// Inserts a sub-solution as a child of `parent`, returning its index.
    /// `cum_cost` is the parent's accumulated cost plus the
    /// sub-solution's own (the caller ranks on it before inserting).
    pub fn insert(
        &mut self,
        parent: usize,
        sub: SubHandle,
        cum_cost: f64,
        end_node: NodeId,
    ) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(SubNode {
            parent: Some(parent),
            sub: Some(sub),
            cum_cost,
            end_node,
        });
        idx
    }

    /// The node at `idx`.
    #[inline]
    pub fn node(&self, idx: usize) -> &SubNode {
        &self.nodes[idx]
    }

    /// The layer sub-solution handles from `idx` up the tree, deepest
    /// first (the root holds none).
    pub fn handles(&self, idx: usize) -> impl Iterator<Item = SubHandle> + '_ {
        std::iter::successors(Some(idx), |&i| self.nodes[i].parent)
            .filter_map(|i| self.nodes[i].sub)
    }

    /// Walks the up links from `leaf` to the root, returning the layer
    /// sub-solution handles in layer order (root's child first).
    pub fn lineage(&self, leaf: usize) -> Vec<SubHandle> {
        let mut out: Vec<SubHandle> = self.handles(leaf).collect();
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(layer: u32, index: u32) -> SubHandle {
        SubHandle {
            layer,
            start: NodeId(layer),
            index,
        }
    }

    #[test]
    fn root_is_free_source() {
        let t = SubTree::new(NodeId(7));
        assert_eq!(t.node(0).end_node, NodeId(7));
        assert_eq!(t.node(0).cum_cost, 0.0);
        assert!(t.node(0).sub.is_none());
        assert!(t.lineage(0).is_empty());
    }

    #[test]
    fn inserted_nodes_link_up_to_their_parent() {
        let mut t = SubTree::new(NodeId(0));
        let a = t.insert(0, handle(0, 0), 2.0, NodeId(1));
        let b = t.insert(a, handle(1, 0), 5.0, NodeId(2));
        let c = t.insert(a, handle(1, 1), 3.0, NodeId(3));
        assert_eq!((a, b, c), (1, 2, 3));
        assert_eq!(t.node(b).parent, Some(a));
        assert_eq!(t.node(c).parent, Some(a));
        assert_eq!(t.node(c).cum_cost, 3.0);
        assert_eq!(t.node(c).end_node, NodeId(3));
    }

    #[test]
    fn lineage_orders_root_first() {
        let mut t = SubTree::new(NodeId(0));
        let a = t.insert(0, handle(0, 4), 2.0, NodeId(1));
        let b = t.insert(a, handle(1, 2), 5.0, NodeId(2));
        assert_eq!(t.lineage(b), vec![handle(0, 4), handle(1, 2)]);
    }
}
