//! Independent constraint checker for embeddings.
//!
//! Verifies every constraint of the integer model (§3.3) against an
//! [`Embedding`] produced by *any* solver:
//!
//! * (4) every slot is assigned to exactly one node that actually hosts
//!   the required VNF kind (structural + hosting check);
//! * (5)/(6) every inter-layer and inner-layer meta-path is implemented by
//!   a real-path whose endpoints match the assignment and whose links are
//!   contiguous in the network;
//! * (2)/(3) no VNF instance exceeds its processing capability and no
//!   link exceeds its bandwidth, under the multicast-aware loads of
//!   eqs. (7)–(10).

use crate::chain::DagSfc;
use crate::cost::CostBreakdown;
use crate::embedding::Embedding;
use crate::flow::Flow;
use crate::metapath::meta_paths;
use dagsfc_net::{LinkId, Network, NodeId, VnfTypeId, CAP_EPS};
use std::fmt;

/// A violated constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A slot is assigned to a node that does not host its VNF kind.
    SlotNotHosted {
        /// Layer index.
        layer: usize,
        /// Slot index.
        slot: usize,
        /// Offending node.
        node: NodeId,
        /// Required VNF kind.
        kind: VnfTypeId,
    },
    /// A real-path's endpoints do not match its meta-path's endpoints.
    PathEndpointMismatch {
        /// Canonical meta-path index.
        index: usize,
        /// Expected (from, to) nodes.
        expected: (NodeId, NodeId),
        /// Actual (from, to) nodes of the real-path.
        actual: (NodeId, NodeId),
    },
    /// A real-path uses a link that does not connect its adjacent nodes.
    BrokenPath {
        /// Canonical meta-path index.
        index: usize,
    },
    /// A VNF instance is loaded beyond its processing capability.
    VnfOverload {
        /// Hosting node.
        node: NodeId,
        /// Overloaded kind.
        kind: VnfTypeId,
        /// Imposed load.
        load: f64,
        /// Instance capacity.
        capacity: f64,
    },
    /// A link is loaded beyond its bandwidth.
    LinkOverload {
        /// Overloaded link.
        link: LinkId,
        /// Imposed load.
        load: f64,
        /// Link capacity.
        capacity: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SlotNotHosted {
                layer,
                slot,
                node,
                kind,
            } => write!(f, "L{layer}[{slot}]: {node} does not host {kind}"),
            Violation::PathEndpointMismatch {
                index,
                expected,
                actual,
            } => write!(
                f,
                "meta-path #{index}: expected {} → {}, real-path runs {} → {}",
                expected.0, expected.1, actual.0, actual.1
            ),
            Violation::BrokenPath { index } => {
                write!(f, "meta-path #{index}: real-path links are not contiguous")
            }
            Violation::VnfOverload {
                node,
                kind,
                load,
                capacity,
            } => write!(
                f,
                "{kind}@{node}: load {load} exceeds capability {capacity}"
            ),
            Violation::LinkOverload {
                link,
                load,
                capacity,
            } => write!(f, "{link}: load {load} exceeds bandwidth {capacity}"),
        }
    }
}

/// Whether `load` overloads a link or VNF instance of `capacity`: the
/// test behind constraints (2)/(3). The BBE search judges its lineage
/// loads with it too, so a lineage it drops is one this check rejects.
pub(crate) fn overloaded(load: f64, capacity: f64) -> bool {
    load > capacity + CAP_EPS
}

/// Checks every model constraint; on success returns the embedding's cost.
pub fn validate(
    net: &Network,
    sfc: &DagSfc,
    flow: &Flow,
    emb: &Embedding,
) -> Result<CostBreakdown, Vec<Violation>> {
    let mut violations = Vec::new();
    let catalog = sfc.catalog();

    // Constraint (4): each slot on a hosting node.
    for (l, slots) in emb.assignments().iter().enumerate() {
        let layer = sfc.layer(l);
        for (slot, &node) in slots.iter().enumerate() {
            let kind = layer.slot_kind(slot, catalog);
            if !net.hosts(node, kind) {
                violations.push(Violation::SlotNotHosted {
                    layer: l,
                    slot,
                    node,
                    kind,
                });
            }
        }
    }

    // Constraints (5)/(6): meta-paths implemented by matching, contiguous
    // real-paths.
    for (index, (mp, path)) in meta_paths(sfc).iter().zip(emb.paths()).enumerate() {
        let expected = (
            emb.endpoint_node(flow, mp.from),
            emb.endpoint_node(flow, mp.to),
        );
        let actual = (path.source(), path.target());
        if expected != actual {
            violations.push(Violation::PathEndpointMismatch {
                index,
                expected,
                actual,
            });
        }
        // Contiguity: each link must join its adjacent path nodes.
        let nodes = path.nodes();
        for (i, &l) in path.links().iter().enumerate() {
            let ok = net
                .try_link(l)
                .map(|link| {
                    (link.a == nodes[i] && link.b == nodes[i + 1])
                        || (link.b == nodes[i] && link.a == nodes[i + 1])
                })
                .unwrap_or(false);
            if !ok {
                violations.push(Violation::BrokenPath { index });
                break;
            }
        }
    }

    // Constraints (2)/(3): capacities under the reuse-aware loads. The
    // lenient accounting path is deliberate: a missing instance is
    // already reported per-slot by the hosting check above, and the
    // validator must keep walking the remaining constraints. Only used
    // resources carry load: a capacity is finite and non-negative, so an
    // unused one is never overloaded.
    let acct = emb.account_lenient(net, sfc, flow, &mut None);
    for &((node, kind), load) in &acct.vnf_load {
        let capacity = net.instance(node, kind).map(|i| i.capacity).unwrap_or(0.0); // missing instance already reported above
        if net.hosts(node, kind) && overloaded(load, capacity) {
            violations.push(Violation::VnfOverload {
                node,
                kind,
                load,
                capacity,
            });
        }
    }
    for &(link, load) in &acct.link_load {
        let capacity = net.link(link).capacity;
        if overloaded(load, capacity) {
            violations.push(Violation::LinkOverload {
                link,
                load,
                capacity,
            });
        }
    }

    if violations.is_empty() {
        Ok(acct.cost)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Layer;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::Path;

    fn catalog() -> VnfCatalog {
        VnfCatalog::new(4)
    }

    /// Line v0-v1-v2-v3; f0@v1, f1/f2/merger@v2, merger@v3.
    fn net() -> Network {
        let mut g = Network::new();
        g.add_nodes(4);
        for i in 0..3u32 {
            g.add_link(NodeId(i), NodeId(i + 1), 1.0, 2.0).unwrap();
        }
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 2.0, 1.5).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(1), 3.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(2), 4.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(2), VnfTypeId(4), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(3), VnfTypeId(4), 1.0, 10.0).unwrap();
        g
    }

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

    fn path(net: &Network, nodes: &[u32]) -> Path {
        Path::from_nodes(net, nodes.iter().map(|&n| NodeId(n)).collect()).unwrap()
    }

    fn good_embedding(g: &Network) -> Embedding {
        Embedding::new(
            &sfc(),
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
        .unwrap()
    }

    #[test]
    fn valid_embedding_passes_and_returns_cost() {
        let g = net();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let cost = validate(&g, &sfc(), &flow, &good_embedding(&g)).unwrap();
        assert!((cost.total() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn detects_not_hosted() {
        let g = net();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        // Assign f0 to v0 which hosts nothing.
        let emb = Embedding::new(
            &sfc(),
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
        let errs = validate(&g, &sfc(), &flow, &emb).unwrap_err();
        assert!(errs.iter().any(|v| matches!(
            v,
            Violation::SlotNotHosted { layer: 0, slot: 0, node, .. } if *node == NodeId(0)
        )));
    }

    #[test]
    fn detects_endpoint_mismatch() {
        let g = net();
        let flow = Flow::unit(NodeId(0), NodeId(3));
        let mut paths = good_embedding(&g).paths().to_vec();
        paths[0] = path(&g, &[1, 2]); // should run v0→v1
        let emb = Embedding::new(
            &sfc(),
            vec![vec![NodeId(1)], vec![NodeId(2), NodeId(2), NodeId(2)]],
            paths,
        )
        .unwrap();
        let errs = validate(&g, &sfc(), &flow, &emb).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::PathEndpointMismatch { index: 0, .. })));
    }

    #[test]
    fn detects_vnf_overload() {
        let g = net(); // f0@v1 capacity 1.5
        let flow = Flow {
            src: NodeId(0),
            dst: NodeId(3),
            rate: 2.0, // exceeds 1.5
            size: 1.0,
            delay_budget_us: None,
        };
        let errs = validate(&g, &sfc(), &flow, &good_embedding(&g)).unwrap_err();
        assert!(errs.iter().any(|v| matches!(
            v,
            Violation::VnfOverload { node, kind, .. }
                if *node == NodeId(1) && *kind == VnfTypeId(0)
        )));
    }

    #[test]
    fn detects_link_overload() {
        let g = net(); // link capacity 2.0
        let flow = Flow {
            src: NodeId(0),
            dst: NodeId(3),
            rate: 3.0,
            size: 1.0,
            delay_budget_us: None,
        };
        let errs = validate(&g, &sfc(), &flow, &good_embedding(&g)).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v, Violation::LinkOverload { .. })));
    }

    #[test]
    fn multicast_load_fits_where_unicast_would_not() {
        // Link capacity 2.0, rate 1.5: the two inter-layer paths share
        // link v1-v2. Multicast loads it once (1.5 ≤ 2.0) — valid.
        // Naive per-path accounting would compute 3.0 and reject.
        let g = net();
        let flow = Flow {
            src: NodeId(0),
            dst: NodeId(3),
            rate: 1.5,
            size: 1.0,
            delay_budget_us: None,
        };
        assert!(validate(&g, &sfc(), &flow, &good_embedding(&g)).is_ok());
    }

    #[test]
    fn violation_display() {
        let v = Violation::LinkOverload {
            link: LinkId(2),
            load: 3.0,
            capacity: 2.0,
        };
        assert!(v.to_string().contains("e2"));
        let v2 = Violation::SlotNotHosted {
            layer: 1,
            slot: 0,
            node: NodeId(4),
            kind: VnfTypeId(2),
        };
        assert!(v2.to_string().contains("L1[0]"));
    }
}
