//! Forward/Backward Search Trees (paper §4.2.2, §4.3.2, Table 1, Fig. 4).
//!
//! Both FST and BST share one structure. Of the seven elements Table 1
//! gives a tree node, a node here stores two: its network node id and
//! its ring (the BFS iteration that discovered it). Two more are derived
//! on demand from the network: the *available VNF set* is the required
//! kinds the node hosts ([`SearchTree::hosting`]), and the *previous
//! node list* — the dotted arrows of Fig. 4 that real-path
//! instantiation walks toward the root — is the node's neighbours one
//! ring nearer the root ([`SearchTree::paths_from_root`]). The
//! father/left/right pointers of the binary-tree logic and the next
//! lists are not built, because no step of BBE reads them.

use dagsfc_net::{Network, NodeId, Path, VnfTypeId};

/// Sentinel for "network node not in the tree" in the index vector.
const NOT_IN_TREE: u32 = u32::MAX;

/// One node of a search tree: a network node and its ring.
#[derive(Debug, Clone, Copy)]
pub struct TreeNode {
    /// The corresponding network node.
    pub node: NodeId,
    /// BFS iteration (ring) this node was discovered in; the root is 0.
    pub ring: u32,
}

/// A grown search tree: the result of one forward or backward search.
///
/// Nodes are stored in discovery order, ring by ring and each ring in
/// node id order, so every ring is a contiguous range of the node array.
/// Membership lookups go through a `NodeId`-indexed vector sized off the
/// substrate (sentinel `NOT_IN_TREE`) instead of a hash map: the tree
/// is rebuilt for every BBE attempt, so cheap O(1) array probes on the
/// hot `contains`/`index_of` calls matter more than sparse storage.
#[derive(Debug, Clone)]
pub struct SearchTree {
    nodes: Vec<TreeNode>,
    index_of: Vec<u32>,
    /// The required kinds, sorted and deduplicated.
    kinds: Vec<VnfTypeId>,
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
        let mut kinds = required.to_vec();
        kinds.sort_unstable();
        kinds.dedup();
        let mut remaining = kinds.clone();
        remaining.retain(|&k| !net.hosts(start, k));
        let mut nodes = vec![TreeNode {
            node: start,
            ring: 0,
        }];
        let mut index_of: Vec<u32> = vec![NOT_IN_TREE; net.node_count()];
        index_of[start.index()] = 0;

        // The last ring grown is `nodes[ring_start..]`.
        let mut ring_start = 0;
        let mut ring = 0;
        let mut capped = false;
        while !remaining.is_empty() {
            if x_max.is_some_and(|cap| nodes.len() >= cap) {
                capped = true;
                break;
            }
            ring += 1;
            let next_start = nodes.len();
            // The next ring: every enterable neighbour of the last ring
            // not yet discovered, then put in node id order.
            for i in ring_start..next_start {
                for &(m, _) in net.neighbors(nodes[i].node) {
                    if index_of[m.index()] == NOT_IN_TREE && node_ok(m) {
                        index_of[m.index()] = nodes.len() as u32;
                        nodes.push(TreeNode { node: m, ring });
                    }
                }
            }
            if nodes.len() == next_start {
                break;
            }
            nodes[next_start..].sort_unstable_by_key(|t| t.node);
            for (i, t) in nodes.iter().enumerate().skip(next_start) {
                index_of[t.node.index()] = i as u32;
                remaining.retain(|&k| !net.hosts(t.node, k));
            }
            ring_start = next_start;
        }

        SearchTree {
            nodes,
            index_of,
            kinds,
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
        self.index_of(n).is_some()
    }

    /// Tree indices of discovered nodes hosting `kind`, in discovery
    /// order: the nodes whose available VNF set holds it. `kind` must be
    /// one of the kinds the tree was grown for.
    pub fn hosting<'a>(
        &'a self,
        net: &'a Network,
        kind: VnfTypeId,
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert!(self.kinds.contains(&kind), "{kind:?} was not searched for");
        (0..self.nodes.len()).filter(move |&i| net.hosts(self.nodes[i].node, kind))
    }

    /// The prev list of the tree node `idx`: tree indices of its network
    /// neighbours one ring nearer the root, in neighbour order.
    fn prev<'a>(&'a self, net: &'a Network, idx: usize) -> impl Iterator<Item = usize> + 'a {
        let ring = self.nodes[idx].ring;
        net.neighbors(self.nodes[idx].node)
            .iter()
            .filter_map(move |&(m, _)| self.index_of(m))
            .filter(move |&p| self.nodes[p].ring + 1 == ring)
    }

    /// Enumerates real-paths from the tree node `idx` back to the root by
    /// walking prev lists (each hop is a physical link between
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
            for p in self.prev(net, cur) {
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
        assert_eq!(t.hosting(&g, VnfTypeId(8)).collect::<Vec<_>>(), vec![ve]);
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
    fn hosting_lookup() {
        let g = net();
        let required = [VnfTypeId(2), VnfTypeId(3), VnfTypeId(8)];
        let t = SearchTree::grow(&g, NodeId(0), &required, |_| true, None);
        let hosts2: Vec<usize> = t.hosting(&g, VnfTypeId(2)).collect();
        assert_eq!(hosts2.len(), 1);
        assert_eq!(t.node(hosts2[0]).node, NodeId(1));
        // vb hosts f3 as well; only ve hosts the merger f8.
        assert!(t.hosting(&g, VnfTypeId(3)).eq(hosts2));
        let hosts8: Vec<NodeId> = t
            .hosting(&g, VnfTypeId(8))
            .map(|i| t.node(i).node)
            .collect();
        assert_eq!(hosts8, vec![NodeId(4)]);
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

    /// 64-bit FNV-1a over little-endian words.
    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        /// Folds in everything a tree answers: discovery order and rings,
        /// `covered` and `capped`, the hosts of every required kind, and
        /// the prev-chain paths of every node.
        fn tree(&mut self, g: &Network, t: &SearchTree, kinds: &[VnfTypeId]) {
            self.word(t.len() as u64);
            for i in 0..t.len() {
                self.word(u64::from(t.node(i).node.0));
                self.word(t.node(i).ring as u64);
            }
            self.word(u64::from(t.covered()));
            self.word(u64::from(t.capped()));
            for &k in kinds {
                for i in t.hosting(g, k) {
                    self.word(i as u64);
                }
                self.word(u64::MAX);
            }
            for i in 0..t.len() {
                for p in t.paths_from_root(g, i, 32, 3) {
                    for n in p.nodes() {
                        self.word(u64::from(n.0));
                    }
                    for l in p.links() {
                        self.word(u64::from(l.0));
                    }
                    self.word(u64::MAX);
                }
                self.word(u64::MAX - 1);
            }
        }
    }

    /// About 200 seeded growths on generated 20–200-node substrates:
    /// forward searches from several starts for 1–4 required kinds
    /// (always with the merger) under `x_max` None, 1, 5 and 40, and a
    /// backward search from every merger host of each, fenced to that
    /// forward tree. One digest pins every tree's answers.
    #[test]
    fn seeded_growths_are_pinned() {
        use dagsfc_net::{generator, NetGenConfig};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const MERGER: VnfTypeId = VnfTypeId(5);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let (mut growths, mut capped, mut fenced) = (0, 0, 0);
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let gen = NetGenConfig {
                nodes: rng.gen_range(20..=200usize),
                avg_degree: [3.0, 4.0, 5.0][rng.gen_range(0..3usize)],
                vnf_kinds: 6,
                deploy_ratio: 0.15,
                ..NetGenConfig::default()
            };
            let g = generator::generate(&gen, &mut rng).unwrap();
            for _ in 0..3 {
                let start = NodeId(rng.gen_range(0..gen.nodes) as u32);
                let mut kinds = vec![MERGER];
                for _ in 1..rng.gen_range(1..=4usize) {
                    kinds.push(VnfTypeId(rng.gen_range(0..5u16)));
                }
                for x_max in [None, Some(1), Some(5), Some(40)] {
                    let fst = SearchTree::grow(&g, start, &kinds, |_| true, x_max);
                    h.tree(&g, &fst, &kinds);
                    growths += 1;
                    capped += usize::from(fst.capped());
                    for m in fst.hosting(&g, MERGER) {
                        let root = fst.node(m).node;
                        let bst = SearchTree::grow(&g, root, &kinds, |n| fst.contains(n), None);
                        h.tree(&g, &bst, &kinds);
                        growths += 1;
                        fenced += usize::from(!bst.covered());
                    }
                }
            }
        }
        assert!(
            (150..=250).contains(&growths) && capped > 0 && fenced > 0,
            "{growths} growths, {capped} capped, {fenced} fenced"
        );
        assert_eq!(h.0, 0xbfa3_edda_2a66_6021, "search-tree digest");
    }
}
