//! The embedding of a DAG-SFC into the target network, and the reuse
//! accounting of eqs. (7)–(10).
//!
//! An [`Embedding`] maps every embedding slot (parallel VNFs and mergers)
//! to a network node, and every meta-path (in the canonical order of
//! [`crate::metapath::meta_paths`]) to a real-path. Cost and load follow
//! the paper's reuse semantics:
//!
//! * a VNF instance reused by `k` slots is rented `k` times
//!   (`α_{v,i} = k`, eq. (7));
//! * inter-layer meta-paths of one layer form a multicast: a link shared
//!   by several of them is charged once per layer (the `min{·,1}` of
//!   eq. (9));
//! * inner-layer meta-paths carry distinct traffic versions: every link
//!   occurrence is charged (eq. (10)).

use crate::chain::DagSfc;
use crate::cost::CostBreakdown;
use crate::error::ModelError;
use crate::flow::Flow;
use crate::metapath::{meta_paths, Endpoint, MetaPath, MetaPathKind};
use dagsfc_net::{LinkId, Network, NodeId, Path, VnfTypeId};
use serde::{Deserialize, Serialize};

/// A complete embedding: slot → node assignments plus one real-path per
/// meta-path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding {
    /// `assignments[layer][slot]` — merger slot included for parallel
    /// layers.
    assignments: Vec<Vec<NodeId>>,
    /// Real-paths in the canonical meta-path order.
    paths: Vec<Path>,
}

impl Embedding {
    /// Builds an embedding, validating its shape against `sfc`:
    /// layer/slot counts must match and the number of paths must equal
    /// the meta-path count.
    pub fn new(
        sfc: &DagSfc,
        assignments: Vec<Vec<NodeId>>,
        paths: Vec<Path>,
    ) -> Result<Self, ModelError> {
        if assignments.len() != sfc.depth() {
            return Err(ModelError::ShapeMismatch(format!(
                "expected {} layers of assignments, got {}",
                sfc.depth(),
                assignments.len()
            )));
        }
        for (l, slots) in assignments.iter().enumerate() {
            let want = sfc.layer(l).slot_count();
            if slots.len() != want {
                return Err(ModelError::ShapeMismatch(format!(
                    "layer {l}: expected {want} slots, got {}",
                    slots.len()
                )));
            }
        }
        let want_paths = crate::metapath::meta_path_count(sfc);
        if paths.len() != want_paths {
            return Err(ModelError::ShapeMismatch(format!(
                "expected {want_paths} real-paths, got {}",
                paths.len()
            )));
        }
        Ok(Embedding { assignments, paths })
    }

    /// The slot → node assignments.
    #[inline]
    pub fn assignments(&self) -> &[Vec<NodeId>] {
        &self.assignments
    }

    /// The real-paths in canonical meta-path order.
    #[inline]
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The node a logical endpoint is mapped to.
    pub fn endpoint_node(&self, flow: &Flow, ep: Endpoint) -> NodeId {
        match ep {
            Endpoint::Source => flow.src,
            Endpoint::Destination => flow.dst,
            Endpoint::Slot { layer, slot } => self.assignments[layer][slot],
        }
    }

    /// The node assigned to `(layer, slot)`.
    #[inline]
    pub fn node_of(&self, layer: usize, slot: usize) -> NodeId {
        self.assignments[layer][slot]
    }

    /// Full reuse accounting: objective cost plus per-resource loads.
    ///
    /// Fails with [`ModelError::MissingVnfInstance`] when the embedding
    /// references a VNF instance the network does not deploy, instead of
    /// silently pricing it as `f64::INFINITY` — so a malformed embedding
    /// is an ordinary error, never an abort. (The panicking `account`
    /// shortcut this replaced is gone: long-lived services must not die
    /// on one bad request.)
    pub fn try_account(
        &self,
        net: &Network,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<Accounting, ModelError> {
        let mut missing = None;
        let acct = self.account_lenient(net, sfc, flow, &mut missing);
        match missing {
            None => Ok(acct),
            Some((node, kind)) => Err(ModelError::MissingVnfInstance { node, kind }),
        }
    }

    /// The accounting body. A missing VNF instance is priced
    /// `f64::INFINITY` and reported through `missing` (first miss wins);
    /// the validator uses this path directly because it reports missing
    /// instances itself with per-slot detail.
    ///
    /// Each term sorts what it charges — the slots' instances, the links'
    /// occurrences — and sums the runs in that order, so identical
    /// embeddings produce bit-identical costs across processes.
    pub(crate) fn account_lenient(
        &self,
        net: &Network,
        sfc: &DagSfc,
        flow: &Flow,
        missing: &mut Option<(NodeId, VnfTypeId)>,
    ) -> Accounting {
        // --- VNF term: α_{v,i} counts slot assignments per instance.
        let charged = self.charged_instances(sfc);
        let mut vnf_cost = 0.0;
        let mut vnf_load = Vec::with_capacity(charged.len());
        for run in charged.chunk_by(|a, b| a == b) {
            let (node, kind) = run[0];
            let uses = run.len() as f64;
            let price = match net.instance(node, kind) {
                Some(i) => i.price,
                None => {
                    missing.get_or_insert((node, kind));
                    f64::INFINITY
                }
            };
            vnf_cost += uses * price * flow.size;
            vnf_load.push(((node, kind), uses * flow.rate));
        }

        // --- Link term: every charged link occurrence, with multicast
        // dedup for inter-layer groups. A group's inter-layer meta-paths
        // are contiguous, so the links charged since the group began are
        // exactly the group's.
        let mut crossed: Vec<LinkId> = Vec::with_capacity(self.paths.iter().map(Path::len).sum());
        let mut group = None;
        let mut group_start = 0;
        for (mp, path) in meta_paths(sfc).iter().zip(&self.paths) {
            match mp.kind {
                MetaPathKind::InterLayer => {
                    if group != Some(mp.group) {
                        group = Some(mp.group);
                        group_start = crossed.len();
                    }
                    for &l in path.links() {
                        if !crossed[group_start..].contains(&l) {
                            crossed.push(l);
                        }
                    }
                }
                MetaPathKind::InnerLayer => crossed.extend_from_slice(path.links()),
            }
        }
        crossed.sort_unstable();
        let mut link_cost = 0.0;
        let mut link_load = Vec::with_capacity(crossed.len());
        for run in crossed.chunk_by(|a, b| a == b) {
            let l = run[0];
            let uses = run.len() as f64;
            link_cost += uses * net.link(l).price * flow.size;
            link_load.push((l, uses * flow.rate));
        }

        Accounting {
            cost: CostBreakdown {
                vnf: vnf_cost,
                link: link_cost,
            },
            vnf_load,
            link_load,
        }
    }

    /// The `(node, kind)` instance of every slot, sorted: an instance
    /// reused by `k` slots appears `k` times in a row.
    fn charged_instances(&self, sfc: &DagSfc) -> Vec<(NodeId, VnfTypeId)> {
        let catalog = sfc.catalog();
        let mut charged = Vec::with_capacity(self.assignments.iter().map(Vec::len).sum());
        for (l, slots) in self.assignments.iter().enumerate() {
            let layer = sfc.layer(l);
            for (slot, &node) in slots.iter().enumerate() {
                charged.push((node, layer.slot_kind(slot, catalog)));
            }
        }
        charged.sort_unstable();
        charged
    }

    /// Convenience: just the objective value.
    /// `Err(ModelError::MissingVnfInstance)` when the embedding
    /// references an undeployed instance.
    pub fn try_cost(
        &self,
        net: &Network,
        sfc: &DagSfc,
        flow: &Flow,
    ) -> Result<CostBreakdown, ModelError> {
        self.try_account(net, sfc, flow).map(|a| a.cost)
    }

    /// Pairs every meta-path with its real-path.
    pub fn meta_path_pairs<'s>(&'s self, sfc: &DagSfc) -> Vec<(MetaPath, &'s Path)> {
        meta_paths(sfc).into_iter().zip(self.paths.iter()).collect()
    }

    /// Structural statistics of the embedding — the quantities behind the
    /// paper's intuition ("select VNFs on adjacent nodes, so the link
    /// cost can be reduced"): how clustered the placement is and how
    /// short the real-paths came out.
    pub fn stats(&self, sfc: &DagSfc) -> EmbeddingStats {
        let mut distinct_nodes: Vec<NodeId> = self.assignments.iter().flatten().copied().collect();
        let slots = distinct_nodes.len();
        distinct_nodes.sort_unstable();
        distinct_nodes.dedup();

        let reused_instances = self
            .charged_instances(sfc)
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() > 1)
            .count();

        let hops: Vec<usize> = self.paths.iter().map(Path::len).collect();
        let trivial_paths = hops.iter().filter(|&&h| h == 0).count();
        let total_hops: usize = hops.iter().sum();
        let max_hops = hops.iter().copied().max().unwrap_or(0);
        EmbeddingStats {
            slots,
            distinct_nodes: distinct_nodes.len(),
            reused_instances,
            trivial_paths,
            total_hops,
            max_hops,
            mean_hops: if hops.is_empty() {
                0.0
            } else {
                total_hops as f64 / hops.len() as f64
            },
        }
    }
}

/// Structural statistics of an embedding (see [`Embedding::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingStats {
    /// Total embedding slots (VNFs + mergers).
    pub slots: usize,
    /// Distinct network nodes used.
    pub distinct_nodes: usize,
    /// Instances serving more than one slot (the eq. (7) reuse case).
    pub reused_instances: usize,
    /// Real-paths of zero length (colocated endpoints).
    pub trivial_paths: usize,
    /// Total link hops across all real-paths.
    pub total_hops: usize,
    /// Longest real-path in hops.
    pub max_hops: usize,
    /// Mean real-path length in hops.
    pub mean_hops: f64,
}

/// Result of [`Embedding::try_account`]: objective cost plus the resource
/// loads needed for the capacity constraints (2) and (3).
#[derive(Debug, Clone, PartialEq)]
pub struct Accounting {
    /// Objective value, split into its two terms.
    pub cost: CostBreakdown,
    /// Traffic load (`α_{v,i}·R`) of every VNF instance the embedding
    /// uses, sorted by `(node, kind)`.
    pub vnf_load: Vec<((NodeId, VnfTypeId), f64)>,
    /// Traffic load (`α_{g,h}·R`) of every link the embedding uses,
    /// sorted by link id.
    pub link_load: Vec<(LinkId, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::vnf::VnfCatalog;

    /// Line network 0-1-2-3 with all prices 1.0 on links; kinds deployed
    /// for a 2-parallel chain: f0 on v1; f1,f2 on v2; merger on v3? No —
    /// see individual tests.
    fn catalog() -> VnfCatalog {
        VnfCatalog::new(4)
    }

    /// Builds: nodes v0..v3 in a line (link prices 1,1,1), f(0) on v1,
    /// f(1) & f(2) on v2, merger (f4) on v2 and v3.
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        for i in 0..3u32 {
            g.add_link(NodeId(i), NodeId(i + 1), 1.0, 100.0).unwrap();
        }
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 2.0, 100.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 3.0, 100.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(2), 4.0, 100.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(4), 1.0, 100.0).unwrap(); // merger
        g.deploy_vnf(NodeId(3), VnfTypeId(4), 1.0, 100.0).unwrap(); // merger
        g
    }

    fn path(net: &Network, nodes: &[u32]) -> Path {
        Path::from_nodes(net, nodes.iter().map(|&n| NodeId(n)).collect()).unwrap()
    }

    /// The load an accounting lists for `link` (0 when unused).
    fn link_load(acct: &Accounting, link: LinkId) -> f64 {
        let at = acct.link_load.iter().find(|e| e.0 == link);
        at.map_or(0.0, |e| e.1)
    }

    /// Chain: L0 = {f0}, L1 = {f1, f2} + merger.
    fn sfc() -> DagSfc {
        DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0)]),
                Layer::new(vec![VnfTypeId(1), VnfTypeId(2)]),
            ],
            catalog(),
        )
        .unwrap()
    }

    /// Embedding used by several tests:
    /// src=v0, f0@v1, f1@v2, f2@v2, merger@v2, dst=v3.
    /// Meta-paths (canonical order): src→f0, f0→f1, f0→f2, f1→m, f2→m,
    /// m→dst.
    fn embedding(g: &Network) -> Embedding {
        Embedding::new(
            &sfc(),
            vec![vec![NodeId(1)], vec![NodeId(2), NodeId(2), NodeId(2)]],
            vec![
                path(g, &[0, 1]),         // src → f0
                path(g, &[1, 2]),         // f0 → f1 (inter, group 1)
                path(g, &[1, 2]),         // f0 → f2 (inter, group 1, same link!)
                Path::trivial(NodeId(2)), // f1 → merger (colocated)
                Path::trivial(NodeId(2)), // f2 → merger
                path(g, &[2, 3]),         // merger → dst
            ],
        )
        .unwrap()
    }

    #[test]
    fn multicast_dedup_charges_shared_link_once() {
        let g = net();
        let emb = embedding(&g);
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let acct = emb.try_account(&g, &sfc(), &flow).unwrap();
        // VNF: f0@v1 (2.0) + f1@v2 (3.0) + f2@v2 (4.0) + merger@v2 (1.0) = 10.
        assert!((acct.cost.vnf - 10.0).abs() < 1e-12);
        // Links: e(0-1) once + e(1-2) ONCE (multicast dedup) + e(2-3) once = 3.
        assert!((acct.cost.link - 3.0).abs() < 1e-12);
        assert!((acct.cost.total() - 13.0).abs() < 1e-12);
        // Load on link 1-2 is a single rate unit thanks to multicast.
        let l12 = g.link_between(NodeId(1), NodeId(2)).unwrap();
        assert!((link_load(&acct, l12) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_layer_paths_charged_per_version() {
        // Variant: merger placed on v3, so both inner paths traverse
        // link 2-3 and must be charged twice.
        let g = net();
        let s = sfc();
        let emb = Embedding::new(
            &s,
            vec![vec![NodeId(1)], vec![NodeId(2), NodeId(2), NodeId(3)]],
            vec![
                path(&g, &[0, 1]),
                path(&g, &[1, 2]),
                path(&g, &[1, 2]),
                path(&g, &[2, 3]), // f1 → merger
                path(&g, &[2, 3]), // f2 → merger — same link, still charged
                Path::trivial(NodeId(3)),
            ],
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let acct = emb.try_account(&g, &s, &flow).unwrap();
        // Links: e01 (1) + e12 (1, dedup) + e23 ×2 (inner) = 4.
        assert!((acct.cost.link - 4.0).abs() < 1e-12);
        let l23 = g.link_between(NodeId(2), NodeId(3)).unwrap();
        assert!((link_load(&acct, l23) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn vnf_reuse_multiplies_cost() {
        // Sequential chain f1 → f1: same instance rented twice.
        let g = net();
        let c = catalog();
        let s = DagSfc::sequential(&[VnfTypeId(1), VnfTypeId(1)], c).unwrap();
        let emb = Embedding::new(
            &s,
            vec![vec![NodeId(2)], vec![NodeId(2)]],
            vec![
                path(&g, &[0, 1, 2]),     // src → f1
                Path::trivial(NodeId(2)), // f1 → f1 colocated
                path(&g, &[2, 3]),        // f1 → dst
            ],
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let acct = emb.try_account(&g, &s, &flow).unwrap();
        // α_{v2,f1} = 2 → vnf cost 2·3.0 = 6; load 2·rate.
        assert!((acct.cost.vnf - 6.0).abs() < 1e-12);
        assert_eq!(acct.vnf_load, [((NodeId(2), VnfTypeId(1)), 2.0)]);
        // links: e01+e12 (src→f1) + e23 = 3.
        assert!((acct.cost.link - 3.0).abs() < 1e-12);
    }

    #[test]
    fn flow_size_scales_cost_rate_scales_load() {
        let g = net();
        let emb = embedding(&g);
        let s = sfc();
        let base = emb
            .try_account(&g, &s, &Flow::unit(NodeId(0), NodeId(3)))
            .unwrap();
        let scaled = emb
            .try_account(
                &g,
                &s,
                &Flow {
                    src: NodeId(0),
                    dst: NodeId(3),
                    rate: 2.0,
                    size: 3.0,
                    delay_budget_us: None,
                },
            )
            .unwrap();
        assert!((scaled.cost.total() - 3.0 * base.cost.total()).abs() < 1e-9);
        let l01 = g.link_between(NodeId(0), NodeId(1)).unwrap();
        assert!((link_load(&scaled, l01) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shape_validation() {
        let g = net();
        let s = sfc();
        // Missing a layer.
        assert!(matches!(
            Embedding::new(&s, vec![vec![NodeId(1)]], vec![]),
            Err(ModelError::ShapeMismatch(_))
        ));
        // Wrong slot count (parallel layer needs 3 slots incl merger).
        assert!(matches!(
            Embedding::new(
                &s,
                vec![vec![NodeId(1)], vec![NodeId(2), NodeId(2)]],
                vec![]
            ),
            Err(ModelError::ShapeMismatch(_))
        ));
        // Wrong path count.
        assert!(matches!(
            Embedding::new(
                &s,
                vec![vec![NodeId(1)], vec![NodeId(2), NodeId(2), NodeId(2)]],
                vec![Path::trivial(NodeId(0))]
            ),
            Err(ModelError::ShapeMismatch(_))
        ));
        // Correct shape passes.
        assert!(embedding(&g).meta_path_pairs(&s).len() == 6);
    }

    #[test]
    fn stats_reflect_structure() {
        let g = net();
        let emb = embedding(&g);
        let s = emb.stats(&sfc());
        assert_eq!(s.slots, 4); // f0 + f1 + f2 + merger
        assert_eq!(s.distinct_nodes, 2); // v1 and v2
        assert_eq!(s.reused_instances, 0); // all kinds distinct
        assert_eq!(s.trivial_paths, 2); // the two inner paths
        assert_eq!(s.total_hops, 4); // 1+1+1+0+0+1
        assert_eq!(s.max_hops, 1);
        assert!((s.mean_hops - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn stats_count_reuse() {
        let g = net();
        let c = catalog();
        let s2 = DagSfc::sequential(&[VnfTypeId(1), VnfTypeId(1)], c).unwrap();
        let emb = Embedding::new(
            &s2,
            vec![vec![NodeId(2)], vec![NodeId(2)]],
            vec![
                path(&g, &[0, 1, 2]),
                Path::trivial(NodeId(2)),
                path(&g, &[2, 3]),
            ],
        )
        .unwrap();
        let st = emb.stats(&s2);
        assert_eq!(st.reused_instances, 1);
        assert_eq!(st.distinct_nodes, 1);
    }

    #[test]
    fn try_account_reports_missing_instance() {
        let g = net();
        let s = sfc();
        // f0 assigned to v0, which deploys nothing.
        let emb = Embedding::new(
            &s,
            vec![vec![NodeId(0)], vec![NodeId(2), NodeId(2), NodeId(2)]],
            vec![
                Path::trivial(NodeId(0)),
                path(&g, &[0, 1, 2]),
                path(&g, &[0, 1, 2]),
                Path::trivial(NodeId(2)),
                Path::trivial(NodeId(2)),
                path(&g, &[2, 3]),
            ],
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        assert_eq!(
            emb.try_account(&g, &s, &flow),
            Err(ModelError::MissingVnfInstance {
                node: NodeId(0),
                kind: VnfTypeId(0),
            })
        );
        assert!(emb.try_cost(&g, &s, &flow).is_err());
        // Valid embeddings round-trip through both entry points.
        let ok = embedding(&g);
        let acct = ok.try_account(&g, &s, &flow).unwrap();
        assert_eq!(acct.cost, ok.try_cost(&g, &s, &flow).unwrap());
    }

    #[test]
    fn endpoint_resolution() {
        let g = net();
        let emb = embedding(&g);
        let flow = Flow::unit(NodeId(0), NodeId(3));
        assert_eq!(emb.endpoint_node(&flow, Endpoint::Source), NodeId(0));
        assert_eq!(emb.endpoint_node(&flow, Endpoint::Destination), NodeId(3));
        assert_eq!(
            emb.endpoint_node(&flow, Endpoint::Slot { layer: 1, slot: 2 }),
            NodeId(2)
        );
        assert_eq!(emb.node_of(0, 0), NodeId(1));
    }
}
