//! Forward/Backward Search Trees (paper §4.2.2, §4.3.2, Table 1, Fig. 4).
//!
//! Both FST and BST share one structure: a binary tree (left child = first
//! node of the next BFS iteration, right child = next sibling within the
//! same iteration) whose nodes carry, per Table 1, the father/left/right
//! pointers, the network node id, the *available VNF set* (the required
//! kinds hosted there), and the *previous/next node lists* — the dotted
//! arrows of Fig. 4 recording physical adjacency between consecutive
//! iterations, which is what real-path instantiation walks.

use dagsfc_net::{Network, NodeId, Path, VnfTypeId};

/// Sentinel for "network node not in the tree" in the index vector.
const NOT_IN_TREE: u32 = u32::MAX;

/// One node of a search tree (the seven elements of Table 1).
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Father pointer (binary-tree logic).
    pub father: Option<usize>,
    /// Left child: first tree node of the next iteration.
    pub left_child: Option<usize>,
    /// Right child: next tree node of the same iteration.
    pub right_child: Option<usize>,
    /// The corresponding network node.
    pub node: NodeId,
    /// Required VNF kinds available on this network node.
    pub available_vnfs: Vec<VnfTypeId>,
    /// Tree indices of nodes from the *previous* iteration with a direct
    /// network link to this one (dotted arrows toward the root).
    pub prev: Vec<usize>,
    /// Tree indices of nodes from the *next* iteration with a direct
    /// network link to this one.
    pub next: Vec<usize>,
    /// BFS iteration (ring) this node was discovered in; the root is 0.
    pub ring: usize,
}

/// A grown search tree: the result of one forward or backward search.
///
/// Membership lookups go through a `NodeId`-indexed vector sized off the
/// substrate (sentinel [`NOT_IN_TREE`]) instead of a hash map: the tree
/// is rebuilt for every BBE attempt, so cheap O(1) array probes on the
/// hot `contains`/`index_of` calls matter more than sparse storage.
#[derive(Debug, Clone)]
pub struct SearchTree {
    nodes: Vec<TreeNode>,
    index_of: Vec<u32>,
    covered: bool,
    capped: bool,
}

impl SearchTree {
    /// Grows a search tree from `start` by BFS rings until the union of
    /// `required` kinds hosted on discovered nodes covers all of them.
    ///
    /// * `node_ok` restricts which nodes may be entered (the backward
    ///   search passes membership in the forward node set);
    /// * `x_max` is MBBE's strategy (1): expansion stops once the node
    ///   set has reached `x_max` *before* coverage — the final ring may
    ///   overshoot the bound, but no further ring is opened after it.
    ///
    /// The returned tree reports [`SearchTree::covered`] = `false` when
    /// the search exhausted its reachable set (or hit `x_max`) without
    /// covering every required kind, and [`SearchTree::capped`] = `true`
    /// in the second case only.
    pub fn grow(
        net: &Network,
        start: NodeId,
        required: &[VnfTypeId],
        node_ok: impl Fn(NodeId) -> bool,
        x_max: Option<usize>,
    ) -> SearchTree {
        let mut remaining: Vec<VnfTypeId> = {
            let mut r = required.to_vec();
            r.sort_unstable();
            r.dedup();
            r
        };
        let avail = |n: NodeId| -> Vec<VnfTypeId> {
            required
                .iter()
                .copied()
                .filter(|&k| net.hosts(n, k))
                .collect::<Vec<_>>()
        };

        let substrate_n = net.node_count();
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut index_of: Vec<u32> = vec![NOT_IN_TREE; substrate_n];
        // Ring-stamped dedup for candidate collection: `ring_seen[v] ==
        // ring_no` marks v as already queued for the current ring, so the
        // per-neighbor membership probe is O(1) instead of a linear scan.
        let mut ring_seen: Vec<usize> = vec![0; substrate_n];

        let root_avail = avail(start);
        remaining.retain(|&k| !net.hosts(start, k));
        nodes.push(TreeNode {
            father: None,
            left_child: None,
            right_child: None,
            node: start,
            available_vnfs: root_avail,
            prev: Vec::new(),
            next: Vec::new(),
            ring: 0,
        });
        index_of[start.index()] = 0;

        let mut prev_ring: Vec<usize> = vec![0];
        let mut ring_no = 0usize;
        let mut capped = false;
        while !remaining.is_empty() && !prev_ring.is_empty() {
            if let Some(cap) = x_max {
                if nodes.len() >= cap {
                    capped = true;
                    break;
                }
            }
            ring_no += 1;
            // Collect the next ring in deterministic (node id) order.
            let mut ring_members: Vec<NodeId> = Vec::new();
            for &ti in &prev_ring {
                let n = nodes[ti].node;
                for &(m, _) in net.neighbors(n) {
                    if index_of[m.index()] == NOT_IN_TREE
                        && ring_seen[m.index()] != ring_no
                        && node_ok(m)
                    {
                        ring_seen[m.index()] = ring_no;
                        ring_members.push(m);
                    }
                }
            }
            ring_members.sort_unstable();
            if ring_members.is_empty() {
                break;
            }
            let mut this_ring: Vec<usize> = Vec::with_capacity(ring_members.len());
            for (i, m) in ring_members.iter().copied().enumerate() {
                let idx = nodes.len();
                let available = avail(m);
                remaining.retain(|&k| !net.hosts(m, k));
                // Binary-tree pointers: first ring member is the left
                // child of the previous ring's first member; later members
                // chain as right children of their left sibling.
                let father = if i == 0 {
                    Some(prev_ring[0])
                } else {
                    Some(this_ring[i - 1])
                };
                nodes.push(TreeNode {
                    father,
                    left_child: None,
                    right_child: None,
                    node: m,
                    available_vnfs: available,
                    prev: Vec::new(),
                    next: Vec::new(),
                    ring: ring_no,
                });
                if i == 0 {
                    nodes[prev_ring[0]].left_child = Some(idx);
                } else {
                    nodes[this_ring[i - 1]].right_child = Some(idx);
                }
                index_of[m.index()] = idx as u32;
                this_ring.push(idx);
            }
            // Dotted arrows: adjacency between consecutive iterations.
            for &ti in &this_ring {
                let n = nodes[ti].node;
                for &(m, _) in net.neighbors(n) {
                    let pi = index_of[m.index()];
                    if pi != NOT_IN_TREE {
                        let pi = pi as usize;
                        if nodes[pi].ring + 1 == ring_no {
                            nodes[ti].prev.push(pi);
                            nodes[pi].next.push(ti);
                        }
                    }
                }
            }
            prev_ring = this_ring;
        }

        SearchTree {
            nodes,
            index_of,
            covered: remaining.is_empty(),
            capped,
        }
    }

    /// Whether the search covered every required VNF kind.
    #[inline]
    pub fn covered(&self) -> bool {
        self.covered
    }

    /// Whether the `x_max` bound stopped the search with required kinds
    /// still uncovered — the bound's only effect on the tree. A search
    /// that was not capped grows the identical tree under any larger
    /// bound (or none). Conservative at the edge: a search whose
    /// reachable set runs out exactly as it reaches the bound also
    /// counts as capped. Never set when `x_max` is `None`.
    #[inline]
    pub fn capped(&self) -> bool {
        self.capped
    }

    /// Number of tree nodes (size of the search node set).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The tree node at `idx`.
    #[inline]
    pub fn node(&self, idx: usize) -> &TreeNode {
        &self.nodes[idx]
    }

    /// All tree nodes.
    #[inline]
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// The root's network node (the search start).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.nodes[0].node
    }

    /// Tree index of a network node, if discovered.
    pub fn index_of(&self, n: NodeId) -> Option<usize> {
        match self.index_of.get(n.index()) {
            Some(&i) if i != NOT_IN_TREE => Some(i as usize),
            _ => None,
        }
    }

    /// Whether `n` belongs to the search node set.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        matches!(self.index_of.get(n.index()), Some(&i) if i != NOT_IN_TREE)
    }

    /// Tree indices of discovered nodes hosting `kind`, in discovery
    /// order.
    pub fn hosting(&self, kind: VnfTypeId) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, t)| t.available_vnfs.contains(&kind))
            .map(|(i, _)| i)
            .collect()
    }

    /// Enumerates real-paths from the tree node `idx` back to the root by
    /// walking `prev` chains (each hop is a physical link between
    /// consecutive rings, so every produced path has `ring(idx)` links —
    /// the hop-minimal paths inside the searched subgraph).
    ///
    /// At most `max_raw` chains are explored; the cheapest `max_keep`
    /// paths (by link price) are returned, **oriented root → node**.
    pub fn paths_from_root(
        &self,
        net: &Network,
        idx: usize,
        max_raw: usize,
        max_keep: usize,
    ) -> Vec<Path> {
        if idx == 0 {
            return vec![Path::trivial(self.root())];
        }
        let mut raw: Vec<Vec<NodeId>> = Vec::new();
        let mut stack: Vec<(usize, Vec<NodeId>)> = vec![(idx, vec![self.nodes[idx].node])];
        while let Some((cur, seq)) = stack.pop() {
            if raw.len() >= max_raw {
                break;
            }
            if cur == 0 {
                raw.push(seq);
                continue;
            }
            for &p in &self.nodes[cur].prev {
                let mut s = seq.clone();
                s.push(self.nodes[p].node);
                stack.push((p, s));
            }
        }
        let mut paths: Vec<Path> = raw
            .into_iter()
            .filter_map(|mut seq| {
                seq.reverse(); // root → node
                Path::from_nodes(net, seq).ok()
            })
            .collect();
        paths.sort_by(|a, b| {
            a.price(net)
                .total_cmp(&b.price(net))
                .then_with(|| a.nodes().cmp(b.nodes()))
        });
        paths.truncate(max_keep);
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 3-style test network:
    ///
    /// ```text
    ///   va — vb — vc        va hosts f1; vb f2,f3; vc f4;
    ///    \    |              vh f5; ve merger(f8)
    ///     vh— ve
    /// ```
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(5); // 0=va 1=vb 2=vc 3=vh 4=ve
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 1.0, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(3), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(4), 1.0, 10.0).unwrap();
        g.add_link(NodeId(3), NodeId(4), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(0), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(2), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(3), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(4), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(5), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(4), VnfTypeId(8), 1.0, 10.0).unwrap();
        g
    }

    #[test]
    fn grows_until_covered() {
        let g = net();
        let required = [VnfTypeId(2), VnfTypeId(3), VnfTypeId(8)];
        let t = SearchTree::grow(&g, NodeId(0), &required, |_| true, None);
        assert!(t.covered());
        // va (ring 0) → vb, vh (ring 1) already covers f2,f3; merger on
        // ve needs ring 2? No: ve adjacent to vb and vh → ring 2... but
        // wait, coverage check happens after each full ring: ring1 gives
        // f2,f3; f8 still missing → ring 2 explored.
        assert!(t.contains(NodeId(4)));
        let ve = t.index_of(NodeId(4)).unwrap();
        assert_eq!(t.node(ve).ring, 2);
        assert_eq!(t.node(ve).available_vnfs, vec![VnfTypeId(8)]);
    }

    #[test]
    fn stops_at_coverage_ring() {
        let g = net();
        // f2 alone is covered at ring 1: vc (distance 2) never entered.
        let t = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(2)], |_| true, None);
        assert!(t.covered());
        assert!(t.contains(NodeId(1)));
        assert!(!t.contains(NodeId(2)));
    }

    #[test]
    fn uncovered_when_kind_absent() {
        let g = net();
        let t = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(7)], |_| true, None);
        assert!(!t.covered());
        assert_eq!(t.len(), 5); // exhausted the whole graph
    }

    #[test]
    fn x_max_bounds_expansion() {
        let g = net();
        // x_max = 1: no ring beyond the root may open.
        let t = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(8)], |_| true, Some(1));
        assert!(!t.covered());
        assert!(t.capped());
        assert_eq!(t.len(), 1);
        // Generous x_max covers normally.
        let t2 = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(8)], |_| true, Some(10));
        assert!(t2.covered());
        assert!(!t2.capped());
    }

    #[test]
    fn capped_only_when_the_bound_stops_an_uncovered_search() {
        let g = net();
        let f8 = [VnfTypeId(8)];
        // Rings from va hold 1, 3 and 5 nodes; f8 (on ve) arrives with
        // ring 2. A bound of 3 is reached after ring 1, f8 still missing.
        let cut = SearchTree::grow(&g, NodeId(0), &f8, |_| true, Some(3));
        assert!(cut.capped());
        assert!(!cut.covered());
        assert_eq!(cut.len(), 3);
        // Coverage lands on the ring that reaches the bound (5) or
        // overshoots it (4): covered, not capped, and the tree is the
        // unbounded one.
        let free = SearchTree::grow(&g, NodeId(0), &f8, |_| true, None);
        for cap in [4, 5] {
            let t = SearchTree::grow(&g, NodeId(0), &f8, |_| true, Some(cap));
            assert!(t.covered() && !t.capped(), "cap {cap}");
            assert_eq!(t.len(), free.len());
        }
        // The reachable set runs out below the bound: uncovered, but the
        // bound played no part.
        let absent = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(7)], |_| true, Some(6));
        assert!(!absent.covered() && !absent.capped());
        assert_eq!(absent.len(), 5);
        // Conservative edge: the set runs out exactly at the bound, so
        // the bound's break fires first and reports a cap.
        let edge = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(7)], |_| true, Some(5));
        assert!(edge.capped());
        assert_eq!(edge.len(), absent.len());
        let fenced = SearchTree::grow(&g, NodeId(2), &f8, |n| n != NodeId(1), Some(4));
        assert!(!fenced.covered() && !fenced.capped());
        assert_eq!(fenced.len(), 1);
        // No bound, no cap — uncovered or not.
        let unbounded = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(7)], |_| true, None);
        assert!(!unbounded.covered() && !unbounded.capped());
        assert!(!free.capped());
    }

    #[test]
    fn node_ok_restricts_to_subset() {
        let g = net();
        let allowed = [NodeId(0), NodeId(1), NodeId(2)];
        let t = SearchTree::grow(
            &g,
            NodeId(2),
            &[VnfTypeId(1)],
            move |n| allowed.contains(&n),
            None,
        );
        assert!(t.covered());
        assert!(!t.contains(NodeId(4)));
        assert!(!t.contains(NodeId(3)));
        // vc → vb → va: va in ring 2.
        assert_eq!(t.node(t.index_of(NodeId(0)).unwrap()).ring, 2);
    }

    #[test]
    fn binary_tree_pointers_consistent() {
        let g = net();
        let t = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(8)], |_| true, None);
        // Root has a left child (first node of ring 1) and no father.
        assert!(t.node(0).father.is_none());
        let lc = t.node(0).left_child.expect("ring 1 exists");
        assert_eq!(t.node(lc).ring, 1);
        assert_eq!(t.node(lc).father, Some(0));
        // Right-sibling chain stays within the ring.
        if let Some(rs) = t.node(lc).right_child {
            assert_eq!(t.node(rs).ring, 1);
            assert_eq!(t.node(rs).father, Some(lc));
        }
    }

    #[test]
    fn prev_lists_point_to_previous_ring() {
        let g = net();
        let t = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(8)], |_| true, None);
        for (i, n) in t.nodes().iter().enumerate() {
            if i == 0 {
                assert!(n.prev.is_empty());
            } else {
                assert!(!n.prev.is_empty(), "non-root must reach the root");
                for &p in &n.prev {
                    assert_eq!(t.node(p).ring + 1, n.ring);
                    assert!(g.link_between(t.node(p).node, n.node).is_some());
                }
            }
        }
    }

    #[test]
    fn hosting_lookup() {
        let g = net();
        let required = [VnfTypeId(2), VnfTypeId(3), VnfTypeId(8)];
        let t = SearchTree::grow(&g, NodeId(0), &required, |_| true, None);
        let hosts2 = t.hosting(VnfTypeId(2));
        assert_eq!(hosts2.len(), 1);
        assert_eq!(t.node(hosts2[0]).node, NodeId(1));
        assert!(t.hosting(VnfTypeId(9)).is_empty());
    }

    #[test]
    fn paths_from_root_are_hop_minimal_and_sorted() {
        let g = net();
        let t = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(8)], |_| true, None);
        let ve = t.index_of(NodeId(4)).unwrap();
        let paths = t.paths_from_root(&g, ve, 32, 8);
        // Two 2-hop routes: va-vb-ve and va-vh-ve.
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 2);
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.target(), NodeId(4));
        }
        let prices: Vec<f64> = paths.iter().map(|p| p.price(&g)).collect();
        assert!(prices[0] <= prices[1]);
    }

    #[test]
    fn path_to_root_itself_is_trivial() {
        let g = net();
        let t = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(1)], |_| true, None);
        let ps = t.paths_from_root(&g, 0, 8, 8);
        assert_eq!(ps.len(), 1);
        assert!(ps[0].is_empty());
    }

    #[test]
    fn max_keep_truncates() {
        let g = net();
        let t = SearchTree::grow(&g, NodeId(0), &[VnfTypeId(8)], |_| true, None);
        let ve = t.index_of(NodeId(4)).unwrap();
        assert_eq!(t.paths_from_root(&g, ve, 32, 1).len(), 1);
    }
}
