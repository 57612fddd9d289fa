//! The floating-point [`Element`] interface implemented by `f32` and
//! `f64`.

use core::fmt::Debug;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Floating-point scalar usable as a tensor element.
///
/// The trait is sealed by construction (only `f32` and `f64` implement it)
/// and exposes exactly the operations the operator kernels and the
/// error-bound templates require: IEEE-754 arithmetic, fused multiply-add,
/// a handful of transcendental functions, and loss-free conversion through
/// `f64` for bound arithmetic.
pub trait Element:
    Copy
    + Debug
    + Send
    + Sync
    + 'static
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + Sum
{
    /// Additive identity (also the zero-padding value of packed panels).
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Unit roundoff `u` (half the machine epsilon) of the format.
    const UNIT_ROUNDOFF: f64;
    /// Short dtype tag used in canonical serialization (`"f32"`/`"f64"`).
    const DTYPE: &'static str;

    /// Converts from `f64`, rounding to nearest even.
    fn from_f64(v: f64) -> Self;
    /// Converts to `f64` exactly (both formats embed losslessly).
    fn to_f64(self) -> f64;
    /// Fused multiply-add `self * a + b` with a single rounding.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root (correctly rounded per IEEE-754).
    fn sqrt(self) -> Self;
    /// Natural exponential (reference libm implementation).
    fn exp(self) -> Self;
    /// Natural logarithm (reference libm implementation).
    fn ln(self) -> Self;
    /// Hyperbolic tangent (reference libm implementation).
    fn tanh(self) -> Self;
    /// Sine (reference libm implementation).
    fn sin(self) -> Self;
    /// Cosine (reference libm implementation).
    fn cos(self) -> Self;
    /// Raises to a scalar power.
    fn powf(self, p: Self) -> Self;
    /// Larger of two values (NaN-propagating like `f32::max` is not; this
    /// follows `max(x, NaN) = x` semantics of the std library).
    fn maximum(self, other: Self) -> Self;
    /// Smaller of two values.
    fn minimum(self, other: Self) -> Self;
    /// True if the value is finite.
    fn is_finite(self) -> bool;
    /// True if the value is NaN.
    fn is_nan(self) -> bool;
    /// Raw little-endian bytes of the value (canonical serialization).
    fn to_le_bytes_vec(self) -> Vec<u8>;
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    // 2^-24 for binary32.
    const UNIT_ROUNDOFF: f64 = 5.960_464_477_539_063e-8;
    const DTYPE: &'static str = "f32";

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        f32::ln(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    #[inline]
    fn sin(self) -> Self {
        f32::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        f32::cos(self)
    }
    #[inline]
    fn powf(self, p: Self) -> Self {
        f32::powf(self, p)
    }
    #[inline]
    fn maximum(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn minimum(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline]
    fn to_le_bytes_vec(self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }
}

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    // 2^-53 for binary64.
    const UNIT_ROUNDOFF: f64 = 1.110_223_024_625_156_5e-16;
    const DTYPE: &'static str = "f64";

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        f64::ln(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline]
    fn sin(self) -> Self {
        f64::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        f64::cos(self)
    }
    #[inline]
    fn powf(self, p: Self) -> Self {
        f64::powf(self, p)
    }
    #[inline]
    fn maximum(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn minimum(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline]
    fn to_le_bytes_vec(self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundoff_matches_epsilon() {
        assert_eq!(<f32 as Element>::UNIT_ROUNDOFF, (f32::EPSILON as f64) / 2.0);
        assert_eq!(<f64 as Element>::UNIT_ROUNDOFF, f64::EPSILON / 2.0);
    }

    #[test]
    fn fma_single_rounding_differs_from_two() {
        // (1+eps)(1-eps) = 1 - eps^2 rounds to exactly 1.0 in f32, so the
        // unfused version yields 0 while the fused version keeps -eps^2.
        let a = 1.0f32 + f32::EPSILON;
        let b = 1.0f32 - f32::EPSILON;
        let c = -1.0f32;
        let fused = Element::mul_add(a, b, c);
        let unfused = a * b + c;
        assert_eq!(unfused, 0.0);
        assert_ne!(fused, unfused);
    }

    #[test]
    fn conversions_roundtrip() {
        let x = 1.234_567_9f32;
        assert_eq!(<f32 as Element>::from_f64(x.to_f64()), x);
        let y = 1.234_567_890_123_4f64;
        assert_eq!(<f64 as Element>::from_f64(y), y);
    }

    #[test]
    fn dtype_tags() {
        assert_eq!(<f32 as Element>::DTYPE, "f32");
        assert_eq!(<f64 as Element>::DTYPE, "f64");
    }

    #[test]
    fn le_bytes_lengths() {
        assert_eq!(1.0f32.to_le_bytes_vec().len(), 4);
        assert_eq!(1.0f64.to_le_bytes_vec().len(), 8);
    }
}
