//! Transcendental intrinsic families.
//!
//! Vendor math libraries implement `exp`, `tanh`, `log` and `rsqrt` with
//! different polynomial approximations and therefore different (documented,
//! bounded) ULP errors; the CUDA programming guide publishes maximum-ULP
//! tables per intrinsic. [`MathLib`] models that: each variant is a real,
//! faithfully implemented approximation whose results differ from the
//! reference by a few ULP — the same magnitude and mechanism as
//! cross-vendor intrinsic drift.

use crate::element::Element;

/// A coherent family of transcendental implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathLib {
    /// Highest-accuracy implementations (libm / double-rounded).
    Reference,
    /// Cephes-style single-precision polynomial kernels using FMA chains.
    VariantA,
    /// Base-2 range-reduction kernels without FMA contraction.
    VariantB,
}

impl MathLib {
    /// Documented maximum ULP error of `exp` under this family.
    pub fn exp_max_ulp(&self) -> f64 {
        match self {
            MathLib::Reference => 1.0,
            MathLib::VariantA => 4.0,
            MathLib::VariantB => 4.0,
        }
    }

    /// Documented maximum ULP error of `tanh` under this family.
    pub fn tanh_max_ulp(&self) -> f64 {
        match self {
            MathLib::Reference => 1.0,
            MathLib::VariantA => 4.0,
            MathLib::VariantB => 8.0,
        }
    }

    /// Documented maximum ULP error of `ln` under this family.
    pub fn ln_max_ulp(&self) -> f64 {
        match self {
            MathLib::Reference => 1.0,
            MathLib::VariantA => 2.0,
            MathLib::VariantB => 4.0,
        }
    }

    /// Documented maximum ULP error of `rsqrt` under this family.
    pub fn rsqrt_max_ulp(&self) -> f64 {
        match self {
            MathLib::Reference => 1.0,
            MathLib::VariantA => 2.0,
            MathLib::VariantB => 4.0,
        }
    }

    /// Worst documented `exp` ULP error across every allowed family — the
    /// budget a sound bound must charge when the executing kernel family
    /// is not pinned.
    pub fn exp_fleet_ulp() -> f64 {
        [MathLib::Reference, MathLib::VariantA, MathLib::VariantB]
            .iter()
            .map(MathLib::exp_max_ulp)
            .fold(0.0, f64::max)
    }

    /// Worst documented `tanh` ULP error across every allowed family.
    pub fn tanh_fleet_ulp() -> f64 {
        [MathLib::Reference, MathLib::VariantA, MathLib::VariantB]
            .iter()
            .map(MathLib::tanh_max_ulp)
            .fold(0.0, f64::max)
    }

    /// Worst documented `ln` ULP error across every allowed family.
    pub fn ln_fleet_ulp() -> f64 {
        [MathLib::Reference, MathLib::VariantA, MathLib::VariantB]
            .iter()
            .map(MathLib::ln_max_ulp)
            .fold(0.0, f64::max)
    }

    /// Worst documented `rsqrt` ULP error across every allowed family.
    pub fn rsqrt_fleet_ulp() -> f64 {
        [MathLib::Reference, MathLib::VariantA, MathLib::VariantB]
            .iter()
            .map(MathLib::rsqrt_max_ulp)
            .fold(0.0, f64::max)
    }
}

/// Element extension dispatching transcendental calls through a [`MathLib`].
///
/// `f64` always uses the reference implementations (bound arithmetic runs in
/// double precision); `f32` dispatches to the selected variant.
pub trait MathElement: Element {
    /// Exponential under the selected intrinsic family.
    fn exp_with(self, lib: MathLib) -> Self;
    /// Natural logarithm under the selected intrinsic family.
    fn ln_with(self, lib: MathLib) -> Self;
    /// Hyperbolic tangent under the selected intrinsic family.
    fn tanh_with(self, lib: MathLib) -> Self;
    /// Reciprocal square root under the selected intrinsic family.
    fn rsqrt_with(self, lib: MathLib) -> Self;
    /// Logistic sigmoid under the selected intrinsic family.
    #[inline(always)]
    fn sigmoid_with(self, lib: MathLib) -> Self {
        let one = Self::ONE;
        one / (one + (-self).exp_with(lib))
    }
}

impl MathElement for f64 {
    #[inline(always)]
    fn exp_with(self, _lib: MathLib) -> Self {
        self.exp()
    }
    #[inline(always)]
    fn ln_with(self, _lib: MathLib) -> Self {
        self.ln()
    }
    #[inline(always)]
    fn tanh_with(self, _lib: MathLib) -> Self {
        self.tanh()
    }
    #[inline(always)]
    fn rsqrt_with(self, _lib: MathLib) -> Self {
        1.0 / self.sqrt()
    }
}

impl MathElement for f32 {
    #[inline(always)]
    fn exp_with(self, lib: MathLib) -> Self {
        match lib {
            MathLib::Reference => self.exp(),
            MathLib::VariantA => exp_cephes(self),
            MathLib::VariantB => exp_base2(self),
        }
    }

    #[inline(always)]
    fn ln_with(self, lib: MathLib) -> Self {
        match lib {
            MathLib::Reference => self.ln(),
            MathLib::VariantA => ((self as f64).ln()) as f32,
            MathLib::VariantB => self.log2() * core::f32::consts::LN_2,
        }
    }

    #[inline(always)]
    fn tanh_with(self, lib: MathLib) -> Self {
        match lib {
            MathLib::Reference => self.tanh(),
            MathLib::VariantA => tanh_cephes(self),
            MathLib::VariantB => tanh_expform(self),
        }
    }

    #[inline(always)]
    fn rsqrt_with(self, lib: MathLib) -> Self {
        match lib {
            MathLib::Reference => (1.0 / (self as f64).sqrt()) as f32,
            MathLib::VariantA => 1.0 / self.sqrt(),
            MathLib::VariantB => rsqrt_newton(self),
        }
    }
}

/// Writes `f(src[i])` to `dst[i]` for every `i < dst.len()`.
///
/// This is the one elementwise loop the unary tensor ops and the
/// softmax lanes run. The crate builds for baseline x86-64, where the
/// `mul_add`, `floor` and `round` calls inside the [`MathLib`] kernels
/// are libm calls; on hosts with AVX2 and FMA (detected at run time) the
/// same loop is compiled with those features enabled, so they become
/// `vfmadd`/`vroundss` instructions. Those compute the identical IEEE-754
/// operations (`fmaf` is correctly rounded, `floorf` exact), and Rust
/// emits no FP contraction, so the output is bit-identical either way.
/// The loop is an explicit index loop on purpose: iterator adapters such
/// as `collect` are compiled outside the feature-enabled function and
/// keep the libm calls.
///
/// # Panics
///
/// Panics if `src` is shorter than `dst`.
#[inline]
pub(crate) fn map_slice<T: Copy, U, F: Fn(T) -> U>(src: &[T], dst: &mut [U], f: F) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::have_fma_simd() {
        // SAFETY: AVX2 and FMA were detected at run time.
        unsafe { map_slice_fma(src, dst, &f) };
        return;
    }
    map_loop(src, dst, &f);
}

#[inline(always)]
fn map_loop<T: Copy, U, F: Fn(T) -> U>(src: &[T], dst: &mut [U], f: &F) {
    let src = &src[..dst.len()];
    for i in 0..dst.len() {
        dst[i] = f(src[i]);
    }
}

/// # Safety
///
/// Requires AVX2 and FMA (checked by `kernel::have_fma_simd`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn map_slice_fma<T: Copy, U, F: Fn(T) -> U>(src: &[T], dst: &mut [U], f: &F) {
    map_loop(src, dst, f);
}

/// Cephes `expf`: base-e range reduction with a degree-5 minimax polynomial
/// and FMA-contracted Horner evaluation.
// The decimal literals are Cephes' exact Cody–Waite split constants; keep
// them verbatim (LOG2EF deliberately *is* log2(e) rounded to f32).
#[allow(clippy::excessive_precision, clippy::approx_constant)]
#[inline(always)]
fn exp_cephes(x: f32) -> f32 {
    const LOG2EF: f32 = 1.442_695_04;
    const C1: f32 = 0.693_359_375;
    const C2: f32 = -2.121_944_4e-4;
    if x > 88.0 {
        return f32::INFINITY;
    }
    if x < -88.0 {
        return 0.0;
    }
    let z = (LOG2EF * x + 0.5).floor();
    let n = z as i32;
    let mut x = x;
    x = z.mul_add(-C1, x);
    x = z.mul_add(-C2, x);
    let zz = x * x;
    let mut p = 1.987_569_2e-4f32;
    p = p.mul_add(x, 1.398_199_9e-3);
    p = p.mul_add(x, 8.333_452e-3);
    p = p.mul_add(x, 4.166_579_6e-2);
    p = p.mul_add(x, 1.666_666_5e-1);
    p = p.mul_add(x, 5.000_000_3e-1);
    let y = p.mul_add(zz, x + 1.0);
    ldexp_f32(y, n)
}

/// Base-2 `expf`: `exp(x) = 2^n * 2^f` with a degree-6 Taylor kernel for
/// `2^f` evaluated without FMA contraction.
// LN2_HI below is the exact high part of the Cody–Waite ln2 split.
#[allow(clippy::excessive_precision)]
#[inline(always)]
fn exp_base2(x: f32) -> f32 {
    const LOG2E: f32 = core::f32::consts::LOG2_E;
    if x > 88.0 {
        return f32::INFINITY;
    }
    if x < -88.0 {
        return 0.0;
    }
    let n = (x * LOG2E).round();
    // Cody–Waite two-part reduction: r = x - n*ln2 stays accurate even for
    // large |x| because LN2_HI carries only high mantissa bits.
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // Taylor kernel e^r for r in [-ln2/2, ln2/2], evaluated without FMA.
    let c2 = 0.5f32;
    let c3 = 1.0 / 6.0;
    let c4 = 1.0 / 24.0;
    let c5 = 1.0 / 120.0;
    let c6 = 1.0 / 720.0;
    let c7 = 1.0 / 5040.0;
    let p = 1.0 + r * (1.0 + r * (c2 + r * (c3 + r * (c4 + r * (c5 + r * (c6 + r * c7))))));
    ldexp_f32(p, n as i32)
}

/// Cephes `tanhf`: odd polynomial below 0.625, exponential form above.
#[inline(always)]
fn tanh_cephes(x: f32) -> f32 {
    let z = x.abs();
    let r = if z >= 8.0 {
        1.0
    } else if z > 0.625 {
        let e = exp_cephes(2.0 * z);
        1.0 - 2.0 / (e + 1.0)
    } else {
        let s = x * x;
        let mut p = -5.703_03e-3f32;
        p = p.mul_add(s, 2.065_930_1e-2);
        p = p.mul_add(s, -5.379_183e-2);
        p = p.mul_add(s, 1.333_267_2e-1);
        p = p.mul_add(s, -3.333_316e-1);
        return p.mul_add(s * x, x);
    };
    if x < 0.0 {
        -r
    } else {
        r
    }
}

/// Exponential-form `tanhf` built on the base-2 exponential, with an odd
/// Taylor kernel below 0.25 where the exponential form cancels badly.
#[inline(always)]
fn tanh_expform(x: f32) -> f32 {
    let z = x.abs();
    if z >= 9.0 {
        return if x < 0.0 { -1.0 } else { 1.0 };
    }
    if z < 0.25 {
        // tanh(x) = x - x^3/3 + 2 x^5/15 - 17 x^7/315 + O(x^9).
        let s = x * x;
        let p = s * (-1.0 / 3.0 + s * (2.0 / 15.0 + s * (-17.0 / 315.0)));
        return x + x * p;
    }
    let e = exp_base2(2.0 * z);
    let r = 1.0 - 2.0 / (e + 1.0);
    if x < 0.0 {
        -r
    } else {
        r
    }
}

/// Bit-hack seeded Newton reciprocal square root (three refinements).
#[inline(always)]
fn rsqrt_newton(x: f32) -> f32 {
    if x <= 0.0 {
        return if x == 0.0 { f32::INFINITY } else { f32::NAN };
    }
    let half = 0.5 * x;
    let mut y = f32::from_bits(0x5f37_5a86u32.wrapping_sub(x.to_bits() >> 1));
    for _ in 0..3 {
        y *= 1.5 - half * y * y;
    }
    y
}

/// Exact scaling by a power of two (`y * 2^n`), with graceful saturation.
#[inline(always)]
fn ldexp_f32(y: f32, n: i32) -> f32 {
    // Split the scale to avoid intermediate overflow for extreme n.
    if !(-252..=252).contains(&n) {
        return if n > 0 { y * f32::INFINITY } else { y * 0.0 };
    }
    let half = n / 2;
    let rest = n - half;
    y * pow2i(half) * pow2i(rest)
}

#[inline(always)]
fn pow2i(n: i32) -> f32 {
    f32::from_bits((((n + 127) as u32) & 0xff) << 23)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ULP distance between two finite f32 values.
    fn ulp_dist(a: f32, b: f32) -> u32 {
        let to_ordered = |x: f32| {
            let bits = x.to_bits() as i32;
            if bits < 0 {
                i32::MIN.wrapping_sub(bits)
            } else {
                bits
            }
        };
        (to_ordered(a) as i64 - to_ordered(b) as i64).unsigned_abs() as u32
    }

    fn sweep() -> Vec<f32> {
        let mut xs = Vec::new();
        let mut x = -20.0f32;
        while x <= 20.0 {
            xs.push(x);
            x += 0.0137;
        }
        xs
    }

    #[test]
    fn exp_variants_are_accurate() {
        for &x in &sweep() {
            let truth = ((x as f64).exp()) as f32;
            for lib in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
                let got = x.exp_with(lib);
                assert!(
                    ulp_dist(got, truth) <= 8,
                    "exp({x}) {lib:?}: got {got}, truth {truth}"
                );
            }
        }
    }

    #[test]
    fn exp_variants_differ_somewhere() {
        let mut saw_diff = false;
        for &x in &sweep() {
            if x.exp_with(MathLib::VariantA).to_bits() != x.exp_with(MathLib::VariantB).to_bits() {
                saw_diff = true;
                break;
            }
        }
        assert!(saw_diff, "intrinsic variants must not be bit-identical");
    }

    #[test]
    fn exp_extremes_saturate() {
        for lib in [MathLib::VariantA, MathLib::VariantB] {
            assert_eq!(100.0f32.exp_with(lib), f32::INFINITY);
            assert_eq!((-100.0f32).exp_with(lib), 0.0);
        }
    }

    #[test]
    fn tanh_variants_are_accurate() {
        for &x in &sweep() {
            let truth = ((x as f64).tanh()) as f32;
            for lib in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
                let got = x.tanh_with(lib);
                assert!(
                    ulp_dist(got, truth) <= 16,
                    "tanh({x}) {lib:?}: got {got}, truth {truth}"
                );
            }
        }
    }

    #[test]
    fn tanh_saturates_to_unit() {
        for lib in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
            assert_eq!(50.0f32.tanh_with(lib), 1.0);
            assert_eq!((-50.0f32).tanh_with(lib), -1.0);
        }
    }

    #[test]
    fn ln_variants_are_accurate() {
        let mut x = 0.01f32;
        while x < 1000.0 {
            let truth = ((x as f64).ln()) as f32;
            for lib in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
                assert!(ulp_dist(x.ln_with(lib), truth) <= 8, "ln({x}) {lib:?}");
            }
            x *= 1.37;
        }
    }

    #[test]
    fn rsqrt_variants_are_accurate() {
        let mut x = 1e-6f32;
        while x < 1e6 {
            let truth = (1.0 / (x as f64).sqrt()) as f32;
            for lib in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
                assert!(
                    ulp_dist(x.rsqrt_with(lib), truth) <= 8,
                    "rsqrt({x}) {lib:?}"
                );
            }
            x *= 2.31;
        }
    }

    #[test]
    fn rsqrt_edge_cases() {
        assert_eq!(0.0f32.rsqrt_with(MathLib::VariantB), f32::INFINITY);
        assert!((-1.0f32).rsqrt_with(MathLib::VariantB).is_nan());
    }

    #[test]
    fn sigmoid_is_bounded() {
        for &x in &sweep() {
            for lib in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
                let s = x.sigmoid_with(lib);
                assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s}");
            }
        }
    }

    #[test]
    fn f64_always_reference() {
        let x = 1.234_567f64;
        assert_eq!(x.exp_with(MathLib::VariantA), x.exp());
        assert_eq!(x.tanh_with(MathLib::VariantB), x.tanh());
    }

    #[test]
    fn ldexp_matches_scalbn() {
        for n in -120..120 {
            let y = ldexp_f32(1.5, n);
            let truth = 1.5f64 * (2.0f64).powi(n);
            assert_eq!(y as f64, truth, "n={n}");
        }
    }

    #[test]
    fn max_ulp_tables_are_positive() {
        for lib in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
            assert!(lib.exp_max_ulp() >= 1.0);
            assert!(lib.tanh_max_ulp() >= 1.0);
            assert!(lib.ln_max_ulp() >= 1.0);
            assert!(lib.rsqrt_max_ulp() >= 1.0);
        }
    }
}
