//! Strongly-typed identifiers for network entities.
//!
//! All identifiers are small integer newtypes so that they can be used as
//! arena indices without hashing overhead, while still preventing the
//! classic "passed a link index where a node index was expected" bug.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a network node (a cloud node hosting VNF instances).
///
/// `NodeId(i)` names the `i`-th node of a network (see
/// [`crate::Network::node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a bi-directional network link.
///
/// `LinkId(i)` names the `i`-th link of a network (see
/// [`crate::Network::link`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Identifier of a VNF *type* (category), e.g. "firewall" or "IDS".
///
/// The DAG-SFC convention used throughout this workspace:
/// regular types are `0..n`, the merger pseudo-VNF `f(n+1)` is the value
/// returned by the catalog's `merger()` accessor, and the dummy VNF `f(0)`
/// of the paper (used only for the stretched source/destination layers) is
/// never deployed on any node and therefore never appears in a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VnfTypeId(pub u16);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The link id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl VnfTypeId {
    /// The VNF type id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for VnfTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f({})", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for LinkId {
    fn from(v: u32) -> Self {
        LinkId(v)
    }
}

impl From<u16> for VnfTypeId {
    fn from(v: u16) -> Self {
        VnfTypeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "v3");
        assert_eq!(LinkId(7).to_string(), "e7");
        assert_eq!(VnfTypeId(2).to_string(), "f(2)");
    }

    #[test]
    fn index_roundtrip() {
        assert_eq!(NodeId(42).index(), 42);
        assert_eq!(LinkId(42).index(), 42);
        assert_eq!(VnfTypeId(42).index(), 42);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(LinkId(0) < LinkId(10));
        assert!(VnfTypeId(3) > VnfTypeId(1));
    }

    #[test]
    fn from_impls() {
        assert_eq!(NodeId::from(5u32), NodeId(5));
        assert_eq!(LinkId::from(5u32), LinkId(5));
        assert_eq!(VnfTypeId::from(5u16), VnfTypeId(5));
    }
}
