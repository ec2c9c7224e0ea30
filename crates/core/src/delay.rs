//! End-to-end delay model for embedded chains.
//!
//! The motivation for hybrid SFCs (paper §1, Fig. 1, via NFP \[17\])
//! is that parallel VNFs cut traffic delay: within a layer, the slowest
//! branch — not the sum of all branches — determines the layer's
//! latency. This module quantifies that on a concrete [`Embedding`]:
//!
//! ```text
//! delay = Σ_layers [ max_slot( inter_path + proc(slot) + inner_path )
//!                    + merge (parallel layers only) ]
//!         + final_path
//! ```
//!
//! Path latency is the sum of real per-link propagation delays (when
//! the model carries the substrate's link-delay table) plus hop count ×
//! a per-hop forwarding overhead. Models without a table fall back to
//! pure hop counting — the legacy behavior, still used by catalogs that
//! predate per-link delays. Processing delays per VNF kind come from
//! the caller (e.g. the `dagsfc-nfp` catalog).
//!
//! This module is the **only** place allowed to turn hop counts into
//! delays (enforced by a `dagsfc-lint` rule): every other crate must go
//! through [`DelayModel::path_us`] or [`Path::delay_us`] so the
//! hop-vs-link-delay distinction cannot silently diverge.

use crate::chain::DagSfc;
use crate::embedding::Embedding;
use crate::flow::Flow;
use crate::metapath::meta_paths;
use dagsfc_net::{LinkId, Network, Path};
use serde::{Deserialize, Serialize};

/// Parameters of the delay model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayModel {
    /// Per-hop link traversal (forwarding) delay in microseconds.
    pub per_hop_us: f64,
    /// Fixed merger processing delay in microseconds.
    pub merge_us: f64,
    /// Per-VNF-kind processing delay in microseconds, indexed by
    /// [`dagsfc_net::VnfTypeId`]. Kinds beyond the vector default to 0.
    pub proc_us: Vec<f64>,
    /// Per-link propagation delay table in microseconds, indexed by
    /// [`LinkId`] (see [`Network::link_delays_us`]). `None` falls back
    /// to pure hop counting — the legacy model. Links beyond the table
    /// contribute 0.
    pub link_delay_us: Option<Vec<f64>>,
}

impl DelayModel {
    /// A model with uniform processing delay for every kind
    /// (hop-count path latency, no link-delay table).
    pub fn uniform(kinds: usize, proc_us: f64, per_hop_us: f64, merge_us: f64) -> Self {
        DelayModel {
            per_hop_us,
            merge_us,
            proc_us: vec![proc_us; kinds],
            link_delay_us: None,
        }
    }

    /// The canonical substrate model for `net`: path latency is exactly
    /// the summed link propagation delays, with zero forwarding,
    /// processing, and merge overheads. This is the model the solver
    /// delay gate, the auditor, and the serve layer share, so one
    /// definition of "end-to-end delay" backs enforcement, audit, and
    /// reporting.
    pub fn for_network(net: &Network) -> Self {
        DelayModel {
            per_hop_us: 0.0,
            merge_us: 0.0,
            proc_us: Vec::new(),
            link_delay_us: Some(net.link_delays_us()),
        }
    }

    /// Attaches a per-link propagation delay table (builder style).
    pub fn with_link_delays(mut self, delays: Vec<f64>) -> Self {
        self.link_delay_us = Some(delays);
        self
    }

    /// Processing delay of a VNF kind (0 for kinds beyond the table).
    pub fn proc(&self, kind: dagsfc_net::VnfTypeId) -> f64 {
        self.proc_us.get(kind.index()).copied().unwrap_or(0.0)
    }

    /// Latency of a real-path: summed link propagation delays (when the
    /// model has a table) plus the per-hop forwarding overhead. Trivial
    /// paths are free in both terms.
    pub fn path_us(&self, p: &Path) -> f64 {
        let forwarding = p.len() as f64 * self.per_hop_us;
        match &self.link_delay_us {
            Some(table) => {
                let propagation: f64 = p
                    .links()
                    .iter()
                    .map(|l: &LinkId| table.get(l.index()).copied().unwrap_or(0.0))
                    .sum();
                forwarding + propagation
            }
            None => forwarding,
        }
    }

    /// End-to-end delay of `emb` in microseconds.
    pub fn embedding_delay(&self, sfc: &DagSfc, emb: &Embedding, _flow: &Flow) -> f64 {
        let catalog = sfc.catalog();
        let mps = meta_paths(sfc);
        let paths = emb.paths();

        let mut total = 0.0;
        let mut idx = 0usize;
        for (l, layer) in sfc.layers().iter().enumerate() {
            let width = layer.width();
            // Inter-layer paths of this layer come first in canonical
            // order, then (for parallel layers) the inner paths.
            let inter = &paths[idx..idx + width];
            idx += width;
            let inner: &[Path] = if layer.needs_merger() {
                let s = &paths[idx..idx + width];
                idx += width;
                s
            } else {
                &[]
            };
            debug_assert!(mps[idx - 1].group == l || width > 0);
            let mut slowest: f64 = 0.0;
            for slot in 0..width {
                let kind = layer.slot_kind(slot, catalog);
                let mut branch = self.path_us(&inter[slot]) + self.proc(kind);
                if layer.needs_merger() {
                    branch += self.path_us(&inner[slot]);
                }
                slowest = slowest.max(branch);
            }
            total += slowest;
            if layer.needs_merger() {
                total += self.merge_us;
            }
        }
        // Final hop to the destination.
        // lint:allow(expect) — invariant: final path exists
        total += self.path_us(paths.last().expect("final path exists"));
        total
    }

    /// Per-layer delay decomposition of [`Self::embedding_delay`]:
    /// `(layer index, slowest-branch delay incl. merge)` plus the final
    /// hop as the last entry with layer index `usize::MAX`. The entries
    /// sum to the total end-to-end delay.
    pub fn delay_breakdown(
        &self,
        sfc: &DagSfc,
        emb: &Embedding,
        _flow: &Flow,
    ) -> Vec<(usize, f64)> {
        let catalog = sfc.catalog();
        let paths = emb.paths();
        let mut out = Vec::with_capacity(sfc.depth() + 1);
        let mut idx = 0usize;
        for (l, layer) in sfc.layers().iter().enumerate() {
            let width = layer.width();
            let inter = &paths[idx..idx + width];
            idx += width;
            let inner: &[Path] = if layer.needs_merger() {
                let s = &paths[idx..idx + width];
                idx += width;
                s
            } else {
                &[]
            };
            let mut slowest: f64 = 0.0;
            for slot in 0..width {
                let kind = layer.slot_kind(slot, catalog);
                let mut branch = self.path_us(&inter[slot]) + self.proc(kind);
                if layer.needs_merger() {
                    branch += self.path_us(&inner[slot]);
                }
                slowest = slowest.max(branch);
            }
            if layer.needs_merger() {
                slowest += self.merge_us;
            }
            out.push((l, slowest));
        }
        // lint:allow(expect) — invariant: final path
        out.push((usize::MAX, self.path_us(paths.last().expect("final path"))));
        out
    }

    /// Sum-of-branches delay of the same embedding — what a fully
    /// sequential execution of the layer members would cost. The gap to
    /// [`Self::embedding_delay`] is the parallelism gain.
    pub fn sequentialized_delay(&self, sfc: &DagSfc, emb: &Embedding, _flow: &Flow) -> f64 {
        let catalog = sfc.catalog();
        let paths = emb.paths();
        let mut total = 0.0;
        let mut idx = 0usize;
        for layer in sfc.layers() {
            let width = layer.width();
            let inter = &paths[idx..idx + width];
            idx += width;
            let inner: &[Path] = if layer.needs_merger() {
                let s = &paths[idx..idx + width];
                idx += width;
                s
            } else {
                &[]
            };
            for slot in 0..width {
                let kind = layer.slot_kind(slot, catalog);
                total += self.path_us(&inter[slot]) + self.proc(kind);
                if layer.needs_merger() {
                    total += self.path_us(&inner[slot]);
                }
            }
            if layer.needs_merger() {
                total += self.merge_us;
            }
        }
        // lint:allow(expect) — invariant: final path exists
        total += self.path_us(paths.last().expect("final path exists"));
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::{Network, NodeId, VnfTypeId};

    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        for i in 0..3u32 {
            g.add_link(NodeId(i), NodeId(i + 1), 1.0, 10.0).unwrap();
        }
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(2), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(4), 1.0, 10.0).unwrap();
        g
    }

    fn path(net: &Network, nodes: &[u32]) -> Path {
        Path::from_nodes(net, nodes.iter().map(|&n| NodeId(n)).collect()).unwrap()
    }

    fn parallel_embedding(g: &Network) -> (DagSfc, Embedding) {
        let sfc = DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0)]),
                Layer::new(vec![VnfTypeId(1), VnfTypeId(2)]),
            ],
            VnfCatalog::new(4),
        )
        .unwrap();
        let emb = Embedding::new(
            &sfc,
            vec![vec![NodeId(1)], vec![NodeId(2), NodeId(2), NodeId(2)]],
            vec![
                path(g, &[0, 1]),
                path(g, &[1, 2]),
                path(g, &[1, 2]),
                Path::trivial(NodeId(2)),
                Path::trivial(NodeId(2)),
                path(g, &[2, 3]),
            ],
        )
        .unwrap();
        (sfc, emb)
    }

    #[test]
    fn parallel_layer_takes_max_branch() {
        let g = net();
        let (sfc, emb) = parallel_embedding(&g);
        // proc: f0=10, f1=20, f2=30; hop=5; merge=2.
        let model = DelayModel {
            per_hop_us: 5.0,
            merge_us: 2.0,
            proc_us: vec![10.0, 20.0, 30.0, 0.0, 0.0],
            link_delay_us: None,
        };
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let d = model.embedding_delay(&sfc, &emb, &flow);
        // L0: hop(5) + f0(10) = 15. L1: max(hop5+20, hop5+30) + merge 2
        // = 37. final hop 5. total 57.
        assert!((d - 57.0).abs() < 1e-9, "{d}");
    }

    #[test]
    fn sequentialized_delay_sums_branches() {
        let g = net();
        let (sfc, emb) = parallel_embedding(&g);
        let model = DelayModel {
            per_hop_us: 5.0,
            merge_us: 2.0,
            proc_us: vec![10.0, 20.0, 30.0, 0.0, 0.0],
            link_delay_us: None,
        };
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let seq = model.sequentialized_delay(&sfc, &emb, &flow);
        // L0: 15. L1: (5+20) + (5+30) + 2 = 62. final 5. total 82.
        assert!((seq - 82.0).abs() < 1e-9, "{seq}");
        let par = model.embedding_delay(&sfc, &emb, &flow);
        assert!(par < seq, "parallelism must cut delay");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let g = net();
        let (sfc, emb) = parallel_embedding(&g);
        let model = DelayModel {
            per_hop_us: 5.0,
            merge_us: 2.0,
            proc_us: vec![10.0, 20.0, 30.0, 0.0, 0.0],
            link_delay_us: None,
        };
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let parts = model.delay_breakdown(&sfc, &emb, &flow);
        assert_eq!(parts.len(), sfc.depth() + 1);
        let total: f64 = parts.iter().map(|(_, d)| d).sum();
        let direct = model.embedding_delay(&sfc, &emb, &flow);
        assert!((total - direct).abs() < 1e-9);
        // Final hop entry is tagged with usize::MAX.
        assert_eq!(parts.last().unwrap().0, usize::MAX);
        // Layer 1 (parallel) entry: max(5+20, 5+30) + 2 = 37.
        assert!((parts[1].1 - 37.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_model_and_unknown_kinds() {
        let m = DelayModel::uniform(2, 7.0, 1.0, 0.5);
        assert_eq!(m.proc(VnfTypeId(0)), 7.0);
        assert_eq!(m.proc(VnfTypeId(9)), 0.0); // out of table → 0
    }

    /// Pins the hop-count semantics: a β-link path is charged exactly β
    /// per-hop delays — trivial (colocated) paths are charged zero, not
    /// one, and there is no node-count off-by-one.
    #[test]
    fn path_us_counts_edges_not_nodes() {
        let g = net();
        let m = DelayModel::uniform(2, 0.0, 5.0, 0.0);
        assert_eq!(m.path_us(&Path::trivial(NodeId(1))), 0.0);
        assert_eq!(m.path_us(&path(&g, &[0, 1])), 5.0);
        assert_eq!(m.path_us(&path(&g, &[0, 1, 2])), 10.0);
    }

    #[test]
    fn link_delay_table_adds_real_propagation() {
        let mut g = net();
        g.set_link_delay(dagsfc_net::LinkId(0), 7.0).unwrap();
        g.set_link_delay(dagsfc_net::LinkId(1), 11.0).unwrap();
        // Canonical model: pure propagation, no per-hop overhead.
        let m = DelayModel::for_network(&g);
        assert_eq!(m.path_us(&path(&g, &[0, 1, 2])), 18.0);
        assert_eq!(m.path_us(&Path::trivial(NodeId(0))), 0.0);
        // Forwarding overhead stacks on top of propagation.
        let m2 = DelayModel::uniform(2, 0.0, 5.0, 0.0).with_link_delays(g.link_delays_us());
        assert_eq!(m2.path_us(&path(&g, &[0, 1, 2])), 28.0);
        // Links beyond a short table contribute zero propagation.
        let m3 = DelayModel::uniform(2, 0.0, 0.0, 0.0).with_link_delays(vec![7.0]);
        assert_eq!(m3.path_us(&path(&g, &[0, 1, 2])), 7.0);
    }

    /// The canonical model and [`Path::delay_us`] must agree — one
    /// definition of propagation delay across all crates.
    #[test]
    fn canonical_model_matches_path_delay() {
        let mut g = net();
        g.set_link_delay(dagsfc_net::LinkId(2), 3.5).unwrap();
        let m = DelayModel::for_network(&g);
        let p = path(&g, &[1, 2, 3]);
        assert!((m.path_us(&p) - p.delay_us(&g)).abs() < 1e-12);
    }

    #[test]
    fn sequential_chain_delays_coincide() {
        // With one VNF per layer, max == sum per layer.
        let g = net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(1)], VnfCatalog::new(4)).unwrap();
        let emb = Embedding::new(
            &sfc,
            vec![vec![NodeId(1)], vec![NodeId(2)]],
            vec![path(&g, &[0, 1]), path(&g, &[1, 2]), path(&g, &[2, 3])],
        )
        .unwrap();
        let model = DelayModel::uniform(4, 10.0, 5.0, 2.0);
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let a = model.embedding_delay(&sfc, &emb, &flow);
        let b = model.sequentialized_delay(&sfc, &emb, &flow);
        assert!((a - b).abs() < 1e-12);
        assert!((a - (5.0 + 10.0 + 5.0 + 10.0 + 5.0)).abs() < 1e-9);
    }
}
