//! Identifiers shared across the ring.

use std::fmt;

/// A node's position-independent identity in the ring.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u16);

/// A data fragment's ring-wide identity. In the live engine this names a
/// catalog fragment; in the simulator it is the abstract BAT id the
/// workloads draw from.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BatId(pub u32);

/// A query instance (unique per ring run).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct QueryId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for BatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bat{}", self.0)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The id of the `n`th fragment a node allocates, created or loaded: the
/// top byte is `(node % 255) + 1`, so ids of different owners never
/// collide and never overflow `u32`, and a restarted node resumes past
/// every id it recovered. Node 255 shares node 0's namespace — rings
/// that large are beyond this engine's scope (rings in the paper top out
/// at 64).
pub(crate) fn node_frag_id(node: NodeId, n: u32) -> BatId {
    BatId(((node.0 as u32 % 255 + 1) << 24) | (n & 0x00ff_ffff))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(BatId(500).to_string(), "bat500");
        assert_eq!(QueryId(7).to_string(), "q7");
    }

    #[test]
    fn orderable_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(BatId(1));
        s.insert(BatId(1));
        assert_eq!(s.len(), 1);
        assert!(NodeId(1) < NodeId(2));
    }
}
