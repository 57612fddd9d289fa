//! Accumulation order and kernel configuration.
//!
//! This module is the heart of the cross-device nondeterminism model.
//! IEEE-754 addition is not associative, so the same mathematical reduction
//! evaluated in different orders yields different (individually correct)
//! floating-point results. Production GPU kernels legitimately reorder
//! reductions — sequentially within a thread, pairwise across a warp tree,
//! or block-wise across thread blocks — and may contract `a*b + c` into a
//! fused multiply-add with a single rounding. [`AccumMode`] and
//! [`KernelConfig`] expose exactly those degrees of freedom so that the
//! simulated devices in `tao-device` produce *genuine* IEEE-754 deviations,
//! not injected noise.
//!
//! The scalar [`AccumMode::sum`]/[`AccumMode::dot`] definitions below are
//! *normative*: the register-tiled micro-kernels in [`crate::kernel`]
//! mirror each mode's reduction structure lane by lane and must stay
//! bit-identical to them (enforced by `tests/tests/kernel_equiv.rs`).
//! Changing an order here is a change to the committed numeric contract
//! every calibrated threshold and dispute re-execution depends on.

use crate::element::Element;
use crate::math::MathLib;

/// Order in which a reduction over `n` terms is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccumMode {
    /// Strict left-to-right summation (`(((x0 + x1) + x2) + ...)`).
    ///
    /// This is the canonical reference order used for leaf re-execution.
    Sequential,
    /// Balanced binary-tree (pairwise) summation, splitting at the midpoint.
    Pairwise,
    /// Blocked summation: sequential within blocks of the given size, then a
    /// sequential reduction over the per-block partials. Models grid-level
    /// parallel reductions with a fixed tile size.
    Blocked(usize),
}

impl AccumMode {
    /// Sums a slice in this accumulation order.
    pub fn sum<T: Element>(&self, xs: &[T]) -> T {
        match *self {
            AccumMode::Sequential => {
                let mut acc = T::ZERO;
                for &x in xs {
                    acc += x;
                }
                acc
            }
            AccumMode::Pairwise => pairwise_sum(xs),
            AccumMode::Blocked(block) => {
                let block = block.max(1);
                if xs.len() <= block {
                    return AccumMode::Sequential.sum(xs);
                }
                let mut partials = Vec::with_capacity(xs.len().div_ceil(block));
                for chunk in xs.chunks(block) {
                    partials.push(AccumMode::Sequential.sum(chunk));
                }
                AccumMode::Sequential.sum(&partials)
            }
        }
    }

    /// Dot product of two equal-length slices in this order.
    ///
    /// With `fma = true` every product is contracted into the running
    /// partial with a single rounding, as GPU tensor pipelines do; with
    /// `fma = false` each product rounds separately before accumulation.
    /// Lengths are truncated to the shorter operand.
    pub fn dot<T: Element>(&self, a: &[T], b: &[T], fma: bool) -> T {
        let n = a.len().min(b.len());
        match *self {
            AccumMode::Sequential => {
                let mut acc = T::ZERO;
                if fma {
                    for i in 0..n {
                        acc = a[i].mul_add(b[i], acc);
                    }
                } else {
                    for i in 0..n {
                        acc += a[i] * b[i];
                    }
                }
                acc
            }
            AccumMode::Pairwise => pairwise_dot(&a[..n], &b[..n], fma),
            AccumMode::Blocked(block) => {
                let block = block.max(1);
                if n <= block {
                    return AccumMode::Sequential.dot(&a[..n], &b[..n], fma);
                }
                let mut partials = Vec::with_capacity(n.div_ceil(block));
                let mut i = 0;
                while i < n {
                    let end = (i + block).min(n);
                    partials.push(AccumMode::Sequential.dot(&a[i..end], &b[i..end], fma));
                    i = end;
                }
                AccumMode::Sequential.sum(&partials)
            }
        }
    }
}

fn pairwise_sum<T: Element>(xs: &[T]) -> T {
    match xs.len() {
        0 => T::ZERO,
        1 => xs[0],
        2 => xs[0] + xs[1],
        n => {
            let mid = n / 2;
            pairwise_sum(&xs[..mid]) + pairwise_sum(&xs[mid..])
        }
    }
}

fn pairwise_dot<T: Element>(a: &[T], b: &[T], fma: bool) -> T {
    match a.len() {
        0 => T::ZERO,
        1 => a[0] * b[0],
        2 => {
            if fma {
                a[1].mul_add(b[1], a[0] * b[0])
            } else {
                a[0] * b[0] + a[1] * b[1]
            }
        }
        n => {
            let mid = n / 2;
            pairwise_dot(&a[..mid], &b[..mid], fma) + pairwise_dot(&a[mid..], &b[mid..], fma)
        }
    }
}

/// Full kernel configuration binding accumulation order, FMA contraction
/// and the transcendental-intrinsic implementation set.
///
/// A [`KernelConfig`] is the tensor-level description of "how this device's
/// kernels round"; `tao-device` wraps named device profiles around it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelConfig {
    /// Reduction evaluation order.
    pub accum: AccumMode,
    /// Whether multiply-accumulate contracts into a fused operation.
    pub fma: bool,
    /// Transcendental intrinsic implementation family.
    pub math: MathLib,
}

impl KernelConfig {
    /// Canonical reference configuration: sequential order, no FMA, libm
    /// intrinsics. Leaf adjudication re-executes under this configuration.
    pub fn reference() -> Self {
        KernelConfig {
            accum: AccumMode::Sequential,
            fma: false,
            math: MathLib::Reference,
        }
    }

    /// Sums a slice under this configuration's accumulation order.
    pub fn sum<T: Element>(&self, xs: &[T]) -> T {
        self.accum.sum(xs)
    }

    /// Dot product under this configuration.
    pub fn dot<T: Element>(&self, a: &[T], b: &[T]) -> T {
        self.accum.dot(a, b, self.fma)
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ill_conditioned(n: usize) -> Vec<f32> {
        // Pseudo-random mixed-magnitude values (xorshift) maximize order
        // sensitivity without depending on external crates.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                let mag = 10f64.powf(unit * 8.0 - 4.0);
                let sign = if state & 1 == 0 { 1.0 } else { -1.0 };
                (sign * mag) as f32
            })
            .collect()
    }

    #[test]
    fn all_orders_agree_on_exact_sums() {
        let xs: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let expected = 2016.0f32;
        for mode in [
            AccumMode::Sequential,
            AccumMode::Pairwise,
            AccumMode::Blocked(8),
        ] {
            assert_eq!(mode.sum(&xs), expected, "{mode:?}");
        }
    }

    #[test]
    fn orders_differ_on_ill_conditioned_input() {
        let xs = ill_conditioned(1024);
        let seq = AccumMode::Sequential.sum(&xs);
        let pair = AccumMode::Pairwise.sum(&xs);
        let blocked = AccumMode::Blocked(32).sum(&xs);
        // At least one pair of orders must disagree in the last bits; this is
        // the nondeterminism the verification protocol tolerates.
        assert!(
            seq != pair || seq != blocked,
            "expected rounding differences"
        );
    }

    #[test]
    fn blocked_degenerates_to_sequential_for_small_inputs() {
        let xs = ill_conditioned(16);
        assert_eq!(
            AccumMode::Blocked(32).sum(&xs),
            AccumMode::Sequential.sum(&xs)
        );
    }

    #[test]
    fn blocked_zero_block_is_clamped() {
        let xs = [1.0f32, 2.0, 3.0];
        // Must not panic or loop forever.
        let v = AccumMode::Blocked(0).sum(&xs);
        assert_eq!(v, 6.0);
    }

    #[test]
    fn dot_matches_manual_sequential() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        assert_eq!(AccumMode::Sequential.dot(&a, &b, false), 32.0);
        assert_eq!(AccumMode::Pairwise.dot(&a, &b, false), 32.0);
    }

    #[test]
    fn fma_changes_rounding() {
        // acc becomes -1, then fma(1+eps, 1+2eps, -1) keeps the 2eps^2 term
        // that the unfused product discards when rounding near 1.
        let eps = f32::EPSILON;
        let a = [1.0f32, 1.0 + eps];
        let b = [-1.0f32, 1.0 + 2.0 * eps];
        let fused = AccumMode::Sequential.dot(&a, &b, true);
        let unfused = AccumMode::Sequential.dot(&a, &b, false);
        assert_ne!(fused.to_bits(), unfused.to_bits());
    }

    #[test]
    fn dot_truncates_to_shorter() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 1.0];
        assert_eq!(AccumMode::Sequential.dot(&a, &b, false), 3.0);
    }

    #[test]
    fn empty_reductions_are_zero() {
        let xs: [f32; 0] = [];
        for mode in [
            AccumMode::Sequential,
            AccumMode::Pairwise,
            AccumMode::Blocked(4),
        ] {
            assert_eq!(mode.sum(&xs), 0.0);
            assert_eq!(mode.dot(&xs, &xs, true), 0.0);
        }
    }

    #[test]
    fn reference_config_is_default() {
        assert_eq!(KernelConfig::default(), KernelConfig::reference());
    }
}
