//! Error types for the protocol crate.

use core::fmt;

use tao_money::Money;

/// Errors from the coordinator, dispute game, and adjudication.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// Referenced claim does not exist.
    UnknownClaim(u64),
    /// Action invalid in the claim's current state.
    BadState(String),
    /// Account balance insufficient for the required deposit; amounts
    /// are exact [`Money`].
    InsufficientFunds {
        /// Account name.
        account: String,
        /// Required amount.
        needed: Money,
        /// Available amount.
        available: Money,
    },
    /// Challenge arrived after the window closed.
    WindowClosed {
        /// Claim id.
        claim: u64,
        /// Current tick.
        now: u64,
        /// Window end tick.
        deadline: u64,
    },
    /// A Merkle record failed verification.
    BadRecord(String),
    /// Underlying graph failure.
    Graph(String),
    /// Underlying bound-engine failure.
    Bound(String),
    /// Committee configuration invalid (e.g. even size or empty).
    BadCommittee(String),
    /// A revealed trace digest failed to open against the trace root
    /// bound into the claim commitment `C0` (missing, mis-indexed, or
    /// non-verifying Merkle opening, or interface hashes that do not
    /// re-derive from the reveals). Unlike [`ProtocolError::BadRecord`],
    /// this is *attributable* fraud evidence against the proposer: only
    /// the party that computed `C0` could have produced the commitment
    /// the reveal disagrees with.
    RevealMismatch {
        /// First node whose reveal failed.
        node: tao_graph::NodeId,
        /// What went wrong with the reveal.
        detail: String,
    },
    /// No committed threshold exists for an operator that requires one.
    ///
    /// Screening and dispute selection compare error profiles against the
    /// committed per-operator thresholds; asking for a node the bundle
    /// never calibrated is a structural bug in the deployment (or a claim
    /// over the wrong graph), not evidence of fraud, so it surfaces as an
    /// error instead of an infinite exceedance.
    MissingThreshold(tao_graph::NodeId),
    /// A dispute anchor's Merkle tree does not have the committed root
    /// (`"graph"` or `"weight"` names the tree). The challenger verifies
    /// records by comparing their proofs with its trees' own paths, so a
    /// tree that does not match its root is refused outright, never
    /// worked around by rehashing.
    AnchorMismatch {
        /// Which tree disagrees with its committed root.
        tree: &'static str,
    },
    /// A dispute's anchors carry no trace root. Every record opens its
    /// interface digests against the trace root bound into the claim
    /// commitment `C0`, so a dispute without one has nothing to verify
    /// the proposer's reveals against and is refused.
    Unanchored,
    /// A dispute's partition width `N` is below 2: no children (`N = 0`)
    /// never localizes anything, and one child (`N = 1`) is its parent
    /// range, so the descent would never end.
    BadWidth {
        /// The configured width.
        n_way: usize,
    },
    /// A dispute plan was asked for over trees that do not match the
    /// graph: the graph tree needs one leaf per node and the weight tree
    /// one per parameter (`"graph"` or `"weight"` names the tree).
    PlanMismatch {
        /// Which tree has the wrong leaf count.
        tree: &'static str,
        /// The tree's leaf count.
        leaves: usize,
        /// The graph's node or parameter count.
        expected: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnknownClaim(id) => write!(f, "unknown claim #{id}"),
            ProtocolError::BadState(m) => write!(f, "invalid state transition: {m}"),
            ProtocolError::InsufficientFunds {
                account,
                needed,
                available,
            } => {
                write!(f, "{account}: needs {needed}, has {available}")
            }
            ProtocolError::WindowClosed {
                claim,
                now,
                deadline,
            } => {
                write!(
                    f,
                    "claim #{claim}: challenge at tick {now} after deadline {deadline}"
                )
            }
            ProtocolError::BadRecord(m) => write!(f, "record verification failed: {m}"),
            ProtocolError::RevealMismatch { node, detail } => {
                write!(f, "reveal for node {node} rejected: {detail}")
            }
            ProtocolError::Graph(m) => write!(f, "graph error: {m}"),
            ProtocolError::Bound(m) => write!(f, "bound error: {m}"),
            ProtocolError::BadCommittee(m) => write!(f, "bad committee: {m}"),
            ProtocolError::MissingThreshold(node) => {
                write!(f, "no committed threshold for operator {node}")
            }
            ProtocolError::AnchorMismatch { tree } => {
                write!(f, "the {tree} tree does not have the committed {tree} root")
            }
            ProtocolError::Unanchored => {
                write!(f, "the dispute anchors carry no committed trace root")
            }
            ProtocolError::BadWidth { n_way } => {
                write!(f, "dispute partition width {n_way} is below 2")
            }
            ProtocolError::PlanMismatch {
                tree,
                leaves,
                expected,
            } => {
                write!(
                    f,
                    "the {tree} tree has {leaves} leaves where the graph needs {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<tao_graph::GraphError> for ProtocolError {
    fn from(e: tao_graph::GraphError) -> Self {
        ProtocolError::Graph(e.to_string())
    }
}

impl From<tao_bounds::BoundError> for ProtocolError {
    fn from(e: tao_bounds::BoundError) -> Self {
        ProtocolError::Bound(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ProtocolError::UnknownClaim(7).to_string().contains("#7"));
        let e = ProtocolError::WindowClosed {
            claim: 1,
            now: 20,
            deadline: 10,
        };
        assert!(e.to_string().contains("deadline 10"));
    }
}
