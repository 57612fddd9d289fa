//! # tao-graph
//!
//! Operator-level dataflow graphs for the TAO verification stack: a
//! tracing-style builder (the `torch.fx` role), a topological executor with
//! per-operator tracing and perturbation hooks, verifiable subgraph
//! extraction with live-in/live-out frontiers, FLOP accounting, and
//! reverse-mode autodiff for the bound-aware attacks.
//!
//! # Examples
//!
//! ```
//! use tao_graph::{execute, GraphBuilder, OpKind};
//! use tao_tensor::{KernelConfig, Tensor};
//!
//! let mut b = GraphBuilder::new(1);
//! let x = b.input(0, "x");
//! let w = b.parameter("w", Tensor::<f32>::eye(2));
//! let y = b.op("y", OpKind::MatMul, &[x, w]);
//! let graph = b.finish(vec![y]).unwrap();
//!
//! let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let exec = execute(&graph, &[input.clone()], &KernelConfig::reference(), None).unwrap();
//! assert_eq!(exec.outputs(&graph)[0].data(), input.data());
//! ```

pub mod autodiff;
pub mod builder;
pub mod error;
pub mod exec;
pub mod graph;
pub mod op;
pub mod pool;
pub mod subgraph;

pub use autodiff::{backward, Gradients};
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use exec::{
    eval_node, execute, execute_observed, execute_with_stats, Execution, Perturbations,
    ValueObserver,
};
pub use graph::{Graph, Node, NodeId};
pub use op::{Arity, OpKind, Relayout};
pub use pool::{forward, forward_observed, forward_with_stats, BufferPool, ExecStats};
pub use subgraph::{execute_subgraph, extract, partition, Subgraph};

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, GraphError>;
