//! Meta-path enumeration (paper §3.3).
//!
//! The logical connections of a DAG-SFC fall into two groups:
//!
//! * **inter-layer** meta-paths `P_1` — from the previous layer's end
//!   point (its merger, its single VNF, or the flow source) to each
//!   parallel VNF of the current layer, plus the final hop from the last
//!   layer's end point to the destination. Inter-layer meta-paths of the
//!   same layer are delivered as a **multicast**: a physical link they
//!   share is charged (and loaded) only once;
//! * **inner-layer** meta-paths `P_2` — from each parallel VNF to its
//!   layer's merger. These carry *different processed versions* of the
//!   traffic and can never share charges.
//!
//! [`meta_paths`] produces the canonical, deterministic ordering that
//! [`crate::embedding::Embedding`] indexes its real-paths by.

use crate::chain::DagSfc;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A logical endpoint of a meta-path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// The flow source (stretched layer `L_0` hosting the dummy VNF).
    Source,
    /// The flow destination (stretched layer `L_{ω+1}`).
    Destination,
    /// Embedding slot `slot` of layer `layer` (merger slot included).
    Slot {
        /// Layer index (0-based).
        layer: usize,
        /// Slot index within the layer; `width` denotes the merger slot.
        slot: usize,
    },
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Source => write!(f, "src"),
            Endpoint::Destination => write!(f, "dst"),
            Endpoint::Slot { layer, slot } => write!(f, "L{layer}[{slot}]"),
        }
    }
}

/// Which group a meta-path belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetaPathKind {
    /// `P_1`: connects adjacent layers; multicast within a group.
    InterLayer,
    /// `P_2`: parallel VNF → merger; always unicast.
    InnerLayer,
}

/// A logical link of the DAG-SFC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MetaPath {
    /// Group kind.
    pub kind: MetaPathKind,
    /// Multicast group id. Inter-layer meta-paths entering layer `l` share
    /// group `l`; the final hop to the destination has group `ω`.
    /// Inner-layer meta-paths carry their own layer index but never share
    /// link charges.
    pub group: usize,
    /// Logical start.
    pub from: Endpoint,
    /// Logical end.
    pub to: Endpoint,
}

/// The end point of layer `l` as an [`Endpoint`].
pub fn layer_endpoint(sfc: &DagSfc, layer: usize) -> Endpoint {
    Endpoint::Slot {
        layer,
        slot: sfc.layer(layer).end_slot(),
    }
}

/// Enumerates all meta-paths of `sfc` in canonical order:
/// for each layer `l` — first its inter-layer paths (one per parallel
/// slot, in slot order), then its inner-layer paths (one per parallel
/// slot, in slot order, parallel layers only) — and finally the
/// inter-layer hop from the last layer's end point to the destination.
pub fn meta_paths(sfc: &DagSfc) -> Vec<MetaPath> {
    let mut out = Vec::with_capacity(meta_path_count(sfc));
    for l in 0..sfc.depth() {
        let from = if l == 0 {
            Endpoint::Source
        } else {
            layer_endpoint(sfc, l - 1)
        };
        let layer = sfc.layer(l);
        for slot in 0..layer.width() {
            out.push(MetaPath {
                kind: MetaPathKind::InterLayer,
                group: l,
                from,
                to: Endpoint::Slot { layer: l, slot },
            });
        }
        if layer.needs_merger() {
            let merger = Endpoint::Slot {
                layer: l,
                slot: layer.end_slot(),
            };
            for slot in 0..layer.width() {
                out.push(MetaPath {
                    kind: MetaPathKind::InnerLayer,
                    group: l,
                    from: Endpoint::Slot { layer: l, slot },
                    to: merger,
                });
            }
        }
    }
    out.push(MetaPath {
        kind: MetaPathKind::InterLayer,
        group: sfc.depth(),
        from: layer_endpoint(sfc, sfc.depth() - 1),
        to: Endpoint::Destination,
    });
    out
}

/// Total number of meta-paths of `sfc` (without enumerating them).
pub fn meta_path_count(sfc: &DagSfc) -> usize {
    let mut count = 1; // final hop to destination
    for layer in sfc.layers() {
        count += layer.width();
        if layer.needs_merger() {
            count += layer.width();
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::VnfTypeId;

    fn fig2_sfc() -> DagSfc {
        DagSfc::new(
            vec![
                Layer::new(vec![VnfTypeId(0)]),
                Layer::new(vec![VnfTypeId(1), VnfTypeId(2), VnfTypeId(3), VnfTypeId(4)]),
                Layer::new(vec![VnfTypeId(5), VnfTypeId(6)]),
            ],
            VnfCatalog::new(8),
        )
        .unwrap()
    }

    #[test]
    fn fig2_enumeration() {
        let sfc = fig2_sfc();
        let mps = meta_paths(&sfc);
        // layer0: 1 inter; layer1: 4 inter + 4 inner; layer2: 2 inter +
        // 2 inner; final hop: 1  → 14 total.
        assert_eq!(mps.len(), 14);
        assert_eq!(mps.len(), meta_path_count(&sfc));

        // First meta-path: source → L0[0].
        assert_eq!(mps[0].from, Endpoint::Source);
        assert_eq!(mps[0].to, Endpoint::Slot { layer: 0, slot: 0 });
        assert_eq!(mps[0].kind, MetaPathKind::InterLayer);

        // Layer 1 inter paths start from L0's single slot.
        for slot in 0..4 {
            let mp = mps[1 + slot];
            assert_eq!(mp.kind, MetaPathKind::InterLayer);
            assert_eq!(mp.group, 1);
            assert_eq!(mp.from, Endpoint::Slot { layer: 0, slot: 0 });
            assert_eq!(mp.to, Endpoint::Slot { layer: 1, slot });
        }
        // Layer 1 inner paths end at the merger slot (index 4).
        for slot in 0..4 {
            let mp = mps[5 + slot];
            assert_eq!(mp.kind, MetaPathKind::InnerLayer);
            assert_eq!(mp.from, Endpoint::Slot { layer: 1, slot });
            assert_eq!(mp.to, Endpoint::Slot { layer: 1, slot: 4 });
        }
        // Layer 2 inter paths start from layer 1's merger.
        for slot in 0..2 {
            let mp = mps[9 + slot];
            assert_eq!(mp.from, Endpoint::Slot { layer: 1, slot: 4 });
            assert_eq!(mp.to, Endpoint::Slot { layer: 2, slot });
            assert_eq!(mp.group, 2);
        }
        // Final hop from layer 2's merger to the destination.
        let last = *mps.last().unwrap();
        assert_eq!(last.from, Endpoint::Slot { layer: 2, slot: 2 });
        assert_eq!(last.to, Endpoint::Destination);
        assert_eq!(last.group, 3);
        assert_eq!(last.kind, MetaPathKind::InterLayer);
    }

    #[test]
    fn sequential_chain_has_no_inner_paths() {
        let sfc = DagSfc::sequential(
            &[VnfTypeId(0), VnfTypeId(1), VnfTypeId(2)],
            VnfCatalog::new(4),
        )
        .unwrap();
        let mps = meta_paths(&sfc);
        assert_eq!(mps.len(), 4); // src→0, 0→1, 1→2, 2→dst
        assert!(mps.iter().all(|m| m.kind == MetaPathKind::InterLayer));
        // groups are strictly increasing: 0,1,2,3 — no multicast sharing
        let groups: Vec<_> = mps.iter().map(|m| m.group).collect();
        assert_eq!(groups, vec![0, 1, 2, 3]);
    }

    #[test]
    fn layer_endpoint_picks_merger() {
        let sfc = fig2_sfc();
        assert_eq!(
            layer_endpoint(&sfc, 0),
            Endpoint::Slot { layer: 0, slot: 0 }
        );
        assert_eq!(
            layer_endpoint(&sfc, 1),
            Endpoint::Slot { layer: 1, slot: 4 }
        );
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(Endpoint::Source.to_string(), "src");
        assert_eq!(Endpoint::Destination.to_string(), "dst");
        assert_eq!(Endpoint::Slot { layer: 2, slot: 1 }.to_string(), "L2[1]");
    }

    #[test]
    fn count_matches_enumeration_on_varied_shapes() {
        let c = VnfCatalog::new(6);
        for layers in [
            vec![Layer::new(vec![VnfTypeId(0)])],
            vec![
                Layer::new(vec![VnfTypeId(0), VnfTypeId(1)]),
                Layer::new(vec![VnfTypeId(2)]),
                Layer::new(vec![VnfTypeId(3), VnfTypeId(4), VnfTypeId(5)]),
            ],
        ] {
            let sfc = DagSfc::new(layers, c).unwrap();
            assert_eq!(meta_paths(&sfc).len(), meta_path_count(&sfc));
        }
    }
}
