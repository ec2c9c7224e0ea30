//! Error types for the network substrate.

use crate::ids::{LinkId, NodeId, VnfTypeId};
use std::fmt;

/// Errors produced by network construction, mutation, and routing.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A node id referenced a node that does not exist.
    UnknownNode(NodeId),
    /// A link id referenced a link that does not exist.
    UnknownLink(LinkId),
    /// Attempted to create a self-loop link.
    SelfLoop(NodeId),
    /// Attempted to create a duplicate link between the same node pair.
    DuplicateLink(NodeId, NodeId),
    /// A VNF type is not deployed on the given node.
    VnfNotDeployed {
        /// Node that was expected to host the VNF.
        node: NodeId,
        /// The missing VNF type.
        vnf: VnfTypeId,
    },
    /// Capacity would become negative after the requested reservation.
    InsufficientVnfCapacity {
        /// Node hosting the instance.
        node: NodeId,
        /// Overloaded VNF type.
        vnf: VnfTypeId,
        /// Rate that was requested.
        requested: f64,
        /// Rate still available.
        available: f64,
    },
    /// Link bandwidth would become negative after the requested reservation.
    InsufficientBandwidth {
        /// Overloaded link.
        link: LinkId,
        /// Rate that was requested.
        requested: f64,
        /// Rate still available.
        available: f64,
    },
    /// No path satisfying the constraints exists between the endpoints.
    NoPath {
        /// Path source.
        from: NodeId,
        /// Path target.
        to: NodeId,
    },
    /// A parameter was invalid: a negative or non-finite price,
    /// capacity or delay, a VNF deployed twice on one node, or a stored
    /// index that disagrees with the data it indexes.
    InvalidParameter(&'static str),
    /// A ledger lease id was never issued or has already been released.
    UnknownLease(u64),
    /// The link is out of service after a fault event.
    LinkUnavailable(LinkId),
    /// The node is out of service after a fault event.
    NodeUnavailable(NodeId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::UnknownLink(l) => write!(f, "unknown link {l}"),
            NetError::SelfLoop(n) => write!(f, "self-loop link at {n}"),
            NetError::DuplicateLink(a, b) => write!(f, "duplicate link between {a} and {b}"),
            NetError::VnfNotDeployed { node, vnf } => {
                write!(f, "VNF {vnf} is not deployed on node {node}")
            }
            NetError::InsufficientVnfCapacity {
                node,
                vnf,
                requested,
                available,
            } => write!(
                f,
                "insufficient capacity for {vnf} on {node}: requested {requested}, available {available}"
            ),
            NetError::InsufficientBandwidth {
                link,
                requested,
                available,
            } => write!(
                f,
                "insufficient bandwidth on {link}: requested {requested}, available {available}"
            ),
            NetError::NoPath { from, to } => write!(f, "no feasible path from {from} to {to}"),
            NetError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            NetError::UnknownLease(id) => {
                write!(f, "unknown or already released lease#{id}")
            }
            NetError::LinkUnavailable(l) => write!(f, "link {l} is out of service"),
            NetError::NodeUnavailable(n) => write!(f, "node {n} is out of service"),
        }
    }
}

impl std::error::Error for NetError {}

/// Convenience result alias for this crate.
pub type NetResult<T> = Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetError::InsufficientBandwidth {
            link: LinkId(3),
            requested: 2.0,
            available: 1.0,
        };
        let s = e.to_string();
        assert!(s.contains("e3"));
        assert!(s.contains("requested 2"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(NetError::UnknownNode(NodeId(1)));
        assert!(e.to_string().contains("v1"));
    }
}
