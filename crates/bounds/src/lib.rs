//! # tao-bounds
//!
//! Theoretical IEEE-754 rounding-error bounds for traced neural-network
//! operators (§3.1 and Appendix A of the TAO paper): the deterministic
//! `γ_k` and probabilistic `γ̃_k(λ)` accumulation factors, vendor-style
//! maximum-ULP intrinsic tables, per-operator first-order bound templates
//! (softmax, normalization, matmul/conv, reductions, activations), FP64
//! co-execution over an execution trace, and the element-wise leaf check
//! used in Phase 3 adjudication. [`BoundEngine::node_bound`] picks each
//! operator's template in one exhaustive match over
//! [`tao_graph::OpKind`], so an operator without a bound does not compile.
//!
//! # Examples
//!
//! ```
//! use tao_bounds::BoundEngine;
//! use tao_graph::{execute, GraphBuilder, OpKind};
//! use tao_tensor::{KernelConfig, Tensor};
//!
//! let mut b = GraphBuilder::new(1);
//! let x = b.input(0, "x");
//! let y = b.op("y", OpKind::Softmax, &[x]);
//! let graph = b.finish(vec![y]).unwrap();
//! let input = Tensor::<f32>::rand_uniform(&[2, 8], -1.0, 1.0, 0);
//! let exec = execute(&graph, &[input], &KernelConfig::reference(), None).unwrap();
//! let bounds = BoundEngine::paper_default().co_execute(&graph, &exec).unwrap();
//! assert!(bounds[y.0].data().iter().all(|&t| t > 0.0));
//! ```

pub mod check;
pub mod engine;
pub mod error;
pub mod gamma;

pub use check::{check_within_bound, CheckReport};
pub use engine::BoundEngine;
pub use error::BoundError;
pub use gamma::{gamma_det, gamma_prob, BoundMode, DEFAULT_LAMBDA, U32, U64};

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, BoundError>;
