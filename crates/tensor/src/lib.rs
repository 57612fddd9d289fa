//! # tao-tensor
//!
//! A from-scratch dense tensor library underpinning the TAO verification
//! stack.
//!
//! The library is deliberately small but complete: row-major contiguous
//! tensors over [`f32`]/[`f64`], broadcasting, the full set of operator
//! kernels the TAO paper instruments (elementwise arithmetic, activations,
//! reductions, matrix multiplication, convolution, normalization, pooling,
//! embedding and data movement), and — the part that makes tolerance-aware
//! verification meaningful — *pluggable IEEE-754 accumulation order*.
//!
//! Floating-point addition is not associative, so the order in which a
//! reduction is evaluated changes the rounding of the result. Real GPU
//! stacks reorder reductions per device generation, kernel choice and grid
//! shape; this crate reproduces the identical mechanism on the CPU through
//! [`AccumMode`] (sequential, pairwise tree, blocked) together with fused
//! multiply-add contraction and alternative transcendental-intrinsic
//! implementations selected by [`KernelConfig`].
//!
//! The GEMM hot paths (matmul, linear, im2col conv2d) run on the
//! cache-blocked, register-tiled engine in [`kernel`], which is
//! **bit-identical** to the scalar oracle kernels (`matmul_reference` and
//! friends) for every accumulation mode and FMA setting — the committed
//! numeric contract the TAO protocol depends on. The differential harness
//! in `tests/tests/kernel_equiv.rs` enforces that equivalence. Every
//! operator runs on the calling thread.
//!
//! # Examples
//!
//! ```
//! use tao_tensor::{KernelConfig, Tensor};
//!
//! let a = Tensor::<f32>::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::<f32>::eye(2);
//! let c = a.matmul(&b, &KernelConfig::reference()).unwrap();
//! assert_eq!(c.data(), a.data());
//! ```

pub mod accum;
pub mod element;
pub mod error;
pub mod kernel;
pub mod math;
pub mod ops;
pub mod quant;
pub mod shape;
pub mod tensor;

pub use accum::{AccumMode, KernelConfig};
pub use element::Element;
pub use error::TensorError;
pub use math::{MathElement, MathLib};
pub use ops::conv::Conv2dParams;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, TensorError>;
