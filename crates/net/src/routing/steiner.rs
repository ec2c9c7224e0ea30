//! Heuristic Steiner trees for multicast routing
//! (Takahashi–Matsuyama, 1980).
//!
//! The DAG-SFC cost model charges a layer's inter-layer meta-paths as a
//! *multicast*: a link shared by several of them is paid once. Routing
//! each meta-path independently (even by min-cost paths) does not
//! maximize that sharing; the cheapest shared structure is a Steiner
//! tree over {start} ∪ {parallel VNF nodes} — NP-hard, so we use the
//! classic 2-approximation: grow the tree by repeatedly connecting the
//! closest unconnected terminal via its cheapest path to the current
//! tree.
//!
//! Tree membership and parent pointers are `NodeId`-indexed vectors
//! (not hash structures), and every per-terminal Dijkstra of every
//! round shares one [`RoutingScratch`]; tree members are scanned in
//! insertion order, so distance ties resolve deterministically.
//!
//! This powers the `MBBE-ST` extension solver in `dagsfc-core`.

use super::dijkstra::search_in;
use super::scratch::{with_thread_scratch, RoutingScratch};
use super::LinkFilter;
use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use crate::snapshot::NetworkSnapshot;

/// Sentinel for "no parent pointer" in the tree arrays.
const NO_PARENT: u32 = u32::MAX;

/// A multicast routing solution: a tree spanning the root and all
/// terminals, plus the per-terminal root→terminal paths inside it.
#[derive(Debug, Clone)]
pub struct MulticastTree {
    /// Per-terminal path (root → terminal), aligned with the `targets`
    /// argument of [`multicast_tree`].
    pub paths: Vec<Path>,
    /// The distinct links of the tree.
    pub tree_links: Vec<LinkId>,
    /// Total price of the tree links (what the multicast pays).
    pub tree_price: f64,
}

/// Builds a Takahashi–Matsuyama Steiner tree from `root` to every node
/// in `targets`, using only links admitted by `filter`.
///
/// Duplicate targets and targets equal to the root are handled
/// (trivial/shared paths). Returns `None` if any target is unreachable.
pub fn multicast_tree<F: LinkFilter>(
    net: &Network,
    root: NodeId,
    targets: &[NodeId],
    filter: &F,
) -> Option<MulticastTree> {
    with_thread_scratch(|scratch| multicast_tree_in(net, root, targets, filter, scratch))
}

/// Like [`multicast_tree`], but runs every per-terminal search in a
/// caller-provided scratch.
pub fn multicast_tree_in<F: LinkFilter>(
    net: &Network,
    root: NodeId,
    targets: &[NodeId],
    filter: &F,
    scratch: &mut RoutingScratch,
) -> Option<MulticastTree> {
    let snap: &NetworkSnapshot = net.snapshot();
    let n = snap.node_count();
    // Tree state: membership flags, members in insertion order (for
    // deterministic closest-member scans), and parent pointers toward
    // the root so final per-terminal paths are unique tree walks.
    let mut in_tree = vec![false; n];
    in_tree[root.index()] = true;
    let mut tree_nodes: Vec<NodeId> = vec![root];
    let mut parent: Vec<(u32, u32)> = vec![(NO_PARENT, NO_PARENT); n];
    let mut tree_links: Vec<LinkId> = Vec::new();

    let mut remaining: Vec<NodeId> = {
        let mut t: Vec<NodeId> = targets.to_vec();
        t.sort_unstable();
        t.dedup();
        t.retain(|&n| n != root);
        t
    };

    while !remaining.is_empty() {
        // Cheapest connection from any unconnected terminal to the tree:
        // run Dijkstra from each remaining terminal until a tree node is
        // settled. (Terminal count is small — the layer width.)
        let mut best: Option<(f64, usize, Path)> = None;
        for (i, &t) in remaining.iter().enumerate() {
            search_in(snap, t, filter, None, scratch);
            let mut closest: Option<(f64, NodeId)> = None;
            for &m in &tree_nodes {
                let d = scratch.dist(m);
                if d.is_finite() && closest.is_none_or(|(bd, _)| d < bd) {
                    closest = Some((d, m));
                }
            }
            let (d, entry) = closest?; // a terminal can't reach the tree → fail
            if best.as_ref().is_none_or(|(bd, _, _)| d < *bd) {
                // The entry was reached this search, so the path exists.
                let path = scratch.settled_path(entry)?;
                best = Some((d, i, path));
            }
        }
        let (_, idx, path_terminal_to_tree) = best?;
        remaining.swap_remove(idx);
        // Path runs terminal → entry; graft it onto the tree, cutting at
        // the first tree node encountered (entry by construction).
        let nodes = path_terminal_to_tree.nodes();
        let links = path_terminal_to_tree.links();
        // Walk from the entry (last node) back toward the terminal,
        // setting parent pointers for newly added nodes.
        for i in (0..links.len()).rev() {
            let child = nodes[i];
            let par = nodes[i + 1];
            if in_tree[child.index()] {
                // The spur re-touches the tree; everything from here to
                // the terminal is already grafted in later iterations.
                continue;
            }
            in_tree[child.index()] = true;
            tree_nodes.push(child);
            parent[child.index()] = (par.0, links[i].0);
            tree_links.push(links[i]);
        }
    }

    // Per-terminal path: walk parent pointers terminal → root, reverse.
    let mut paths = Vec::with_capacity(targets.len());
    for &t in targets {
        let mut nodes = vec![t];
        let mut links = Vec::new();
        let mut cur = t;
        while cur != root {
            let (p, l) = parent[cur.index()];
            debug_assert_ne!(p, NO_PARENT, "terminal is in the tree");
            nodes.push(NodeId(p));
            links.push(LinkId(l));
            cur = NodeId(p);
        }
        nodes.reverse();
        links.reverse();
        paths.push(if links.is_empty() {
            Path::trivial(root)
        } else {
            // lint:allow(expect) — invariant: tree paths are contiguous
            Path::new(net, nodes, links).expect("tree paths are contiguous")
        });
    }

    let tree_price = tree_links.iter().map(|&l| net.link(l).price).sum();
    Some(MulticastTree {
        paths,
        tree_links,
        tree_price,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::NoFilter;
    use std::collections::HashSet;

    /// A "comb": a cheap chain 0—1—2—3 (1.0, 0.5, 0.5) with pricier
    /// direct shortcuts 0—2 and 0—3 (1.3 each). Each terminal's own
    /// shortest path from the root is disjoint from the others (1 via
    /// the chain head, 2 and 3 via their shortcuts), but a Steiner tree
    /// that rides the chain shares almost everything.
    fn comb() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 0.5, 10.0).unwrap();
        g.add_link(NodeId(2), NodeId(3), 0.5, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(2), 1.3, 10.0).unwrap();
        g.add_link(NodeId(0), NodeId(3), 1.3, 10.0).unwrap();
        g
    }

    #[test]
    fn shares_the_chain() {
        let g = comb();
        let targets = [NodeId(1), NodeId(2), NodeId(3)];
        let mt = multicast_tree(&g, NodeId(0), &targets, &NoFilter).unwrap();
        // TM grows: 0→1 (1.0), then 2 joins at 1 (0.5), then 3 joins at
        // 2 (0.5): tree price 2.0.
        assert!((mt.tree_price - 2.0).abs() < 1e-9, "{}", mt.tree_price);
        assert_eq!(mt.tree_links.len(), 3);
        for (p, (&t, hops)) in mt.paths.iter().zip(targets.iter().zip([1usize, 2, 3])) {
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.target(), t);
            assert_eq!(p.len(), hops, "path to {t} must ride the chain");
        }
    }

    #[test]
    fn beats_independent_shortest_paths_here() {
        let g = comb();
        let targets = [NodeId(1), NodeId(2), NodeId(3)];
        let mt = multicast_tree(&g, NodeId(0), &targets, &NoFilter).unwrap();
        // Independent shortest paths are disjoint (1.0 + 1.3 + 1.3), so
        // even multicast dedup cannot help them: 3.6 vs the tree's 2.0.
        let independent: f64 = targets
            .iter()
            .map(|&t| {
                super::super::min_cost_path(&g, NodeId(0), t, &NoFilter)
                    .unwrap()
                    .price(&g)
            })
            .sum();
        assert!((independent - 3.6).abs() < 1e-9);
        assert!(mt.tree_price < independent);
    }

    #[test]
    fn single_target_is_shortest_path() {
        let g = comb();
        let mt = multicast_tree(&g, NodeId(0), &[NodeId(2)], &NoFilter).unwrap();
        // Direct shortcut (1.3) beats the chain route (1.5).
        assert!((mt.tree_price - 1.3).abs() < 1e-9);
        assert_eq!(mt.paths[0].len(), 1);
    }

    #[test]
    fn root_and_duplicate_targets() {
        let g = comb();
        let targets = [NodeId(0), NodeId(2), NodeId(2)];
        let mt = multicast_tree(&g, NodeId(0), &targets, &NoFilter).unwrap();
        assert_eq!(mt.paths.len(), 3);
        assert!(mt.paths[0].is_empty()); // root → root
        assert_eq!(mt.paths[1], mt.paths[2]); // duplicates share
    }

    #[test]
    fn unreachable_target_fails() {
        let mut g = comb();
        let isolated = g.add_node();
        assert!(multicast_tree(&g, NodeId(0), &[isolated], &NoFilter).is_none());
    }

    #[test]
    fn respects_filter() {
        let g = comb();
        // Ban the chain head 0—1: node 1 must be reached via 0—2—1.
        let head = g.link_between(NodeId(0), NodeId(1)).unwrap();
        let f = move |l: LinkId| l != head;
        let mt = multicast_tree(&g, NodeId(0), &[NodeId(1), NodeId(2), NodeId(3)], &f).unwrap();
        for p in &mt.paths {
            assert!(!p.links().contains(&head));
        }
        // Tree: 0—2 (1.3) + 2—1 (0.5) + 2—3 (0.5) = 2.3.
        assert!((mt.tree_price - 2.3).abs() < 1e-9, "{}", mt.tree_price);
    }

    #[test]
    fn tree_is_acyclic() {
        let g = comb();
        let mt =
            multicast_tree(&g, NodeId(0), &[NodeId(1), NodeId(2), NodeId(3)], &NoFilter).unwrap();
        // |tree nodes| = |tree links| + 1 for a tree; nodes touched:
        let mut nodes: HashSet<NodeId> = HashSet::new();
        for &l in &mt.tree_links {
            nodes.insert(g.link(l).a);
            nodes.insert(g.link(l).b);
        }
        assert_eq!(nodes.len(), mt.tree_links.len() + 1);
    }

    #[test]
    fn explicit_scratch_matches_thread_local() {
        let g = comb();
        let targets = [NodeId(1), NodeId(2), NodeId(3)];
        let mut scratch = RoutingScratch::new();
        let a = multicast_tree(&g, NodeId(0), &targets, &NoFilter).unwrap();
        let b = multicast_tree_in(&g, NodeId(0), &targets, &NoFilter, &mut scratch).unwrap();
        assert_eq!(a.tree_links, b.tree_links);
        assert_eq!(a.paths.len(), b.paths.len());
        for (pa, pb) in a.paths.iter().zip(&b.paths) {
            assert_eq!(pa.nodes(), pb.nodes());
        }
    }
}
