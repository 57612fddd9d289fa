//! # tao-device
//!
//! Simulated heterogeneous accelerator profiles.
//!
//! The TAO paper calibrates against four real NVIDIA GPUs (RTX 4090, RTX
//! 6000, A100, H100) whose kernels differ in *IEEE-754-visible* ways:
//! reduction/accumulation order, fused-multiply-add contraction, and
//! transcendental-intrinsic implementations with different documented ULP
//! errors. This crate reproduces that heterogeneity with named device
//! profiles wrapping a [`tao_tensor::KernelConfig`]. Deviations between two
//! profiles are genuine rounding differences from re-ordered IEEE-754
//! arithmetic — the identical mechanism as cross-GPU nondeterminism — not
//! injected noise.
//!
//! # Examples
//!
//! ```
//! use tao_device::Device;
//!
//! let fleet = Device::standard_fleet();
//! assert_eq!(fleet.len(), 4);
//! let a100 = Device::a100_like();
//! assert_eq!(a100.name(), "sim-a100");
//! ```

pub mod device;
pub mod fleet;

pub use device::Device;
pub use fleet::Fleet;
