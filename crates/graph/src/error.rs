//! Error types for graph construction and execution.

use core::fmt;

use crate::graph::NodeId;
use crate::op::Arity;

/// Errors from graph assembly, execution, and subgraph extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Structural invariant violated (non-dense ids, forward edge, …).
    Malformed(String),
    /// Referenced node id does not exist.
    UnknownNode(NodeId),
    /// Referenced parameter name missing from the state dict.
    MissingParameter(String),
    /// Operator received the wrong number of inputs.
    Arity {
        /// Offending node.
        node: NodeId,
        /// The operator's [`Arity`].
        expected: Arity,
        /// Actual input count.
        got: usize,
    },
    /// Execution was given the wrong number of graph inputs.
    InputCount {
        /// Declared input count.
        expected: usize,
        /// Provided input count.
        got: usize,
    },
    /// A tensor kernel rejected its operands.
    Tensor(tao_tensor::TensorError),
    /// Gradient requested for an operator without a defined VJP.
    NoGradient(&'static str),
    /// Subgraph range is empty or out of bounds.
    BadRange {
        /// Inclusive start index.
        start: usize,
        /// Exclusive end index.
        end: usize,
        /// Graph size.
        len: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Malformed(m) => write!(f, "malformed graph: {m}"),
            GraphError::UnknownNode(id) => write!(f, "unknown node {id}"),
            GraphError::MissingParameter(name) => write!(f, "missing parameter {name:?}"),
            GraphError::Arity {
                node,
                expected,
                got,
            } => {
                write!(f, "{node}: expected {expected} inputs, got {got}")
            }
            GraphError::InputCount { expected, got } => {
                write!(f, "graph expects {expected} inputs, got {got}")
            }
            GraphError::Tensor(e) => write!(f, "tensor error: {e}"),
            GraphError::NoGradient(op) => write!(f, "no gradient implemented for {op}"),
            GraphError::BadRange { start, end, len } => {
                write!(
                    f,
                    "subgraph range [{start}, {end}) invalid for graph of {len} nodes"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl From<tao_tensor::TensorError> for GraphError {
    fn from(e: tao_tensor::TensorError) -> Self {
        GraphError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(GraphError::UnknownNode(NodeId(3))
            .to_string()
            .contains("%3"));
        assert!(GraphError::Arity {
            node: NodeId(1),
            expected: Arity::Exact(2),
            got: 1
        }
        .to_string()
        .contains("expected 2 inputs"));
        assert!(GraphError::Arity {
            node: NodeId(1),
            expected: Arity::Range(2, 3),
            got: 4
        }
        .to_string()
        .contains("expected 2 to 3 inputs"));
        let te = tao_tensor::TensorError::InvalidArgument("x".into());
        assert!(GraphError::from(te).to_string().contains("tensor error"));
    }
}
