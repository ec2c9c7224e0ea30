//! 1+1 protection of embeddings — a survivability extension.
//!
//! The paper's related work motivates availability-aware chain mapping
//! (its ref. \[3\]); this module adds the standard mechanism on top of
//! any solver's embedding: every non-trivial real-path gets a **link-
//! disjoint backup**, so no single link failure can sever a meta-path.
//! Backups come from Bhandari pairs
//! ([`dagsfc_net::routing::disjoint_path_pair`]), which also survive
//! *trap topologies* where "shortest path, then shortest path avoiding
//! it" finds nothing. When the pair's cheaper member differs from the
//! solver's primary, the primary is re-routed to it (documented —
//! protection may change the working path, exactly like 1+1 in optical
//! networks).

use crate::chain::DagSfc;
use crate::cost::CostBreakdown;
use crate::embedding::Embedding;
use crate::error::ModelError;
use crate::flow::Flow;
use dagsfc_net::routing::disjoint_path_pair;
use dagsfc_net::{LinkId, Network, Path, CAP_EPS};

/// A protected embedding: working paths plus per-meta-path backups.
#[derive(Debug, Clone)]
pub struct ProtectedEmbedding {
    /// The (possibly re-routed) working embedding.
    pub embedding: Embedding,
    /// Backup real-path per meta-path, in canonical meta-path order.
    /// `None` for trivial (colocated) meta-paths, which cannot fail.
    pub backups: Vec<Option<Path>>,
    /// Extra link cost of the backups (simple per-path accounting — the
    /// backup of a multicast branch carries its own traffic copy on
    /// failover, so no multicast discount applies).
    pub backup_cost: CostBreakdown,
}

impl ProtectedEmbedding {
    /// Number of meta-paths that carry a backup.
    pub fn protected_count(&self) -> usize {
        self.backups.iter().filter(|b| b.is_some()).count()
    }

    /// Whether the chain survives the failure of `link`: every meta-path
    /// using it must have a backup that avoids it.
    pub fn survives_link_failure(&self, link: LinkId) -> bool {
        for (path, backup) in self.embedding.paths().iter().zip(&self.backups) {
            if path.links().contains(&link) {
                match backup {
                    Some(b) if !b.links().contains(&link) => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

/// Failure modes of protection.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtectError {
    /// A meta-path's endpoints are separated by a bridge: no disjoint
    /// pair exists.
    Unprotectable {
        /// Canonical meta-path index.
        meta_path: usize,
    },
    /// Model-level failure while rebuilding the embedding.
    Model(ModelError),
}

impl std::fmt::Display for ProtectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtectError::Unprotectable { meta_path } => {
                write!(
                    f,
                    "meta-path #{meta_path} crosses a bridge; no disjoint backup"
                )
            }
            ProtectError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for ProtectError {}

impl From<ModelError> for ProtectError {
    fn from(e: ModelError) -> Self {
        ProtectError::Model(e)
    }
}

/// Protects every non-trivial real-path of `emb` with a link-disjoint
/// backup. Paths may be re-routed onto the Bhandari pair's cheaper
/// member; trivial (same-node) meta-paths need no protection.
pub fn protect(
    net: &Network,
    sfc: &DagSfc,
    flow: &Flow,
    emb: &Embedding,
) -> Result<ProtectedEmbedding, ProtectError> {
    let rate = flow.rate;
    let filter = |l: LinkId| net.link(l).capacity + CAP_EPS >= rate;
    let mut new_paths: Vec<Path> = Vec::with_capacity(emb.paths().len());
    let mut backups: Vec<Option<Path>> = Vec::with_capacity(emb.paths().len());
    let mut backup_link_price = 0.0;

    for (idx, path) in emb.paths().iter().enumerate() {
        if path.is_empty() {
            new_paths.push(path.clone());
            backups.push(None);
            continue;
        }
        let pair = disjoint_path_pair(net, path.source(), path.target(), &filter)
            .ok_or(ProtectError::Unprotectable { meta_path: idx })?;
        backup_link_price += pair.backup.price(net);
        new_paths.push(pair.primary);
        backups.push(Some(pair.backup));
    }

    let embedding = Embedding::new(sfc, emb.assignments().to_vec(), new_paths)?;
    Ok(ProtectedEmbedding {
        embedding,
        backups,
        backup_cost: CostBreakdown {
            vnf: 0.0,
            link: backup_link_price * flow.size,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{MbbeSolver, Solver};
    use crate::validate::validate;
    use crate::vnf::VnfCatalog;
    use dagsfc_net::{generator, NetGenConfig, NodeId, VnfTypeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rich_net() -> Network {
        // Degree-5 random net: plenty of disjoint pairs.
        let cfg = NetGenConfig {
            nodes: 40,
            avg_degree: 5.0,
            vnf_kinds: 5,
            deploy_ratio: 0.5,
            ..NetGenConfig::default()
        };
        generator::generate(&cfg, &mut StdRng::seed_from_u64(21)).unwrap()
    }

    #[test]
    fn protects_a_solver_embedding() {
        let net = rich_net();
        let sfc = DagSfc::new(
            vec![
                crate::chain::Layer::new(vec![VnfTypeId(0)]),
                crate::chain::Layer::new(vec![VnfTypeId(1), VnfTypeId(2)]),
            ],
            VnfCatalog::new(4),
        )
        .unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(39));
        let out = MbbeSolver::new().solve(&net, &sfc, &flow).unwrap();
        let protected = protect(&net, &sfc, &flow, &out.embedding).unwrap();
        // The re-routed working embedding still satisfies every
        // constraint.
        validate(&net, &sfc, &flow, &protected.embedding).unwrap();
        // Every non-trivial path carries a disjoint backup.
        for (p, b) in protected.embedding.paths().iter().zip(&protected.backups) {
            match b {
                Some(backup) => {
                    assert_eq!(backup.source(), p.source());
                    assert_eq!(backup.target(), p.target());
                    for l in p.links() {
                        assert!(!backup.links().contains(l), "backup shares a link");
                    }
                }
                None => assert!(p.is_empty()),
            }
        }
        assert!(protected.backup_cost.link > 0.0);
        assert_eq!(protected.backup_cost.vnf, 0.0);
    }

    #[test]
    fn survives_any_single_link_failure() {
        let net = rich_net();
        let sfc = DagSfc::sequential(&[VnfTypeId(0), VnfTypeId(1)], VnfCatalog::new(4)).unwrap();
        let flow = Flow::unit(NodeId(1), NodeId(38));
        let out = MbbeSolver::new().solve(&net, &sfc, &flow).unwrap();
        let protected = protect(&net, &sfc, &flow, &out.embedding).unwrap();
        for l in net.link_ids() {
            assert!(
                protected.survives_link_failure(l),
                "single failure of {l} severs the chain"
            );
        }
        assert!(protected.protected_count() >= 1);
    }

    #[test]
    fn bridge_is_unprotectable() {
        // A path graph: every link is a bridge.
        let mut g = Network::new();
        g.add_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.add_link(NodeId(1), NodeId(2), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(1), VnfTypeId(0), 1.0, 10.0).unwrap();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(2));
        let out = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        assert!(matches!(
            protect(&g, &sfc, &flow, &out.embedding),
            Err(ProtectError::Unprotectable { .. })
        ));
    }

    #[test]
    fn colocated_chain_needs_no_backups() {
        let mut g = Network::new();
        g.add_nodes(2);
        g.add_link(NodeId(0), NodeId(1), 1.0, 10.0).unwrap();
        g.deploy_vnf(NodeId(0), VnfTypeId(0), 1.0, 10.0).unwrap();
        let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).unwrap();
        let flow = Flow::unit(NodeId(0), NodeId(0));
        let out = MbbeSolver::new().solve(&g, &sfc, &flow).unwrap();
        let protected = protect(&g, &sfc, &flow, &out.embedding).unwrap();
        assert_eq!(protected.protected_count(), 0);
        assert_eq!(protected.backup_cost.link, 0.0);
        for l in g.link_ids() {
            assert!(protected.survives_link_failure(l));
        }
    }

    #[test]
    fn error_display() {
        let e = ProtectError::Unprotectable { meta_path: 3 };
        assert!(e.to_string().contains("#3"));
    }
}
