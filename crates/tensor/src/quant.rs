//! Int8 quantized GEMM kernel family: per-channel symmetric scales, `i8`
//! packed rhs panels (via [`PackedRhs::pack_with`] — the same packer the
//! `f32` kernels use), and widening `i32`-accumulator micro-kernels with
//! an AVX2 `pmaddwd` fast path.
//!
//! The family lives under the same differential-oracle discipline as the
//! `f32` kernels (see `kernel.rs`): the scalar [`quant_gemm_reference`]
//! stays in-tree permanently and the vector path must be **bit-identical**
//! to it. Unlike floating point, integer multiply-accumulate is exact and
//! wrapping `i32` addition is associative and commutative, so *any*
//! evaluation order — SIMD pair-sums, four-row register blocks —
//! reproduces the scalar result bit-for-bit. That makes the
//! quantized contract trivially satisfiable by every device config: a
//! quantized operator is **cross-device exact**, its calibration envelope
//! is all-zero, and a single flipped output bit is an unbounded threshold
//! offense the dispute game localizes for free.
//!
//! **Rounding policy** (explicit, part of the committed numeric contract):
//!
//! * A symmetric scale is `max|x| / 127`, computed in `f64` (`1.0` for an
//!   all-zero tensor). Per-channel scales apply this per weight row.
//! * Quantization is `round(x / scale)` in `f64` — `f64::round` ties away
//!   from zero — clamped to `[-127, 127]` (the symmetric range; `-128` is
//!   never produced).
//! * Dequantization multiplies the exact `i32` accumulator by the `f64`
//!   product of the operand scales, then rounds once to `f32`. Every step
//!   is an IEEE-754-exact elementary operation, so the whole pipeline is
//!   deterministic on every host.
//!
//! The AVX2 path (`_mm256_madd_epi16`) sign-extends two packed panel rows
//! to `i16` pairs and multiply-accumulates them into 8 `i32` lanes per
//! instruction. A deliberate non-choice: `_mm256_maddubs_epi16` would
//! *saturate* its intermediate `i16` sums (`255·127·2 > 32767`), silently
//! breaking bit-identity with the oracle, so the `u8 x i8` form is banned
//! here despite being one instruction shorter.

use crate::kernel::{PackedRhs, PANEL};

/// Row-block height of the int8 micro-kernel; the `f32` tile's eight rows
/// ([`MR`](crate::kernel::MR)) measured slower here.
const MR: usize = 4;

/// Largest quantized magnitude: the symmetric `i8` range is `[-127, 127]`.
pub const QMAX: i32 = 127;

/// Symmetric quantization scale for a tensor (or channel) whose largest
/// absolute value is `max_abs`: `max_abs / 127` in `f64`, or `1.0` when
/// the data is all zero (every value then quantizes to `0`).
pub fn symmetric_scale(max_abs: f32) -> f64 {
    if max_abs == 0.0 || !max_abs.is_finite() {
        1.0
    } else {
        f64::from(max_abs) / f64::from(QMAX)
    }
}

/// Quantizes one value under the explicit rounding policy:
/// `round(x / scale)` in `f64` (ties away from zero), clamped to
/// `[-127, 127]`.
pub fn quantize_value(x: f32, scale: f64) -> i8 {
    let q = (f64::from(x) / scale).round();
    q.clamp(-f64::from(QMAX), f64::from(QMAX)) as i8
}

/// Dequantizes one widened accumulator value: exact `i32 -> f64`
/// conversion, one `f64` multiply by `scale`, one rounding to `f32`.
pub fn dequantize_value(q: i32, scale: f64) -> f32 {
    (f64::from(q) * scale) as f32
}

/// Largest absolute value of `data` (0 for an empty slice; NaN ignored).
pub fn max_abs(data: &[f32]) -> f32 {
    data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Per-tensor symmetric quantization: one scale for the whole slice.
pub fn quantize_symmetric(data: &[f32]) -> (Vec<i8>, f64) {
    let scale = symmetric_scale(max_abs(data));
    let q = data.iter().map(|&x| quantize_value(x, scale)).collect();
    (q, scale)
}

/// Per-channel symmetric quantization of a row-major `[rows, cols]`
/// matrix: one scale per row (a `nn.Linear` weight's rows are its output
/// channels).
pub fn quantize_rows_symmetric(data: &[f32], rows: usize, cols: usize) -> (Vec<i8>, Vec<f64>) {
    assert_eq!(data.len(), rows * cols, "matrix length mismatch");
    let mut q = Vec::with_capacity(rows * cols);
    let mut scales = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        let scale = symmetric_scale(max_abs(row));
        q.extend(row.iter().map(|&x| quantize_value(x, scale)));
        scales.push(scale);
    }
    (q, scales)
}

/// The in-tree scalar int8 oracle: `out[i*n + j] = Σ_kk a[i*k + kk] *
/// b[kk*n + j]` with widening `i8 -> i32` products and wrapping `i32`
/// accumulation in ascending `kk` order. Every fast path must be
/// bit-identical to this, permanently.
pub fn quant_gemm_reference(a: &[i8], m: usize, k: usize, b: &[i8], n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let av = i32::from(av);
            let b_row = &b[kk * n..(kk + 1) * n];
            for (slot, &bv) in out_row.iter_mut().zip(b_row) {
                *slot = slot.wrapping_add(av.wrapping_mul(i32::from(bv)));
            }
        }
    }
    out
}

/// One [`MR`]x[`PANEL`] int8 register block over an unpacked lhs: `rows`
/// row slices against one packed panel, widening products into wrapping
/// `i32` accumulators (exact, so order-free — but the scalar loop still
/// walks `kk` ascending for cache behavior).
fn quant_mr_tile_scalar(a_rows: &[&[i8]], panel: &[i8], k: usize, acc: &mut [[i32; PANEL]; MR]) {
    for kk in 0..k {
        let b_row = &panel[kk * PANEL..(kk + 1) * PANEL];
        for (r, a_row) in a_rows.iter().enumerate() {
            let av = i32::from(a_row[kk]);
            for (lane, &bv) in acc[r].iter_mut().zip(b_row) {
                *lane = lane.wrapping_add(av.wrapping_mul(i32::from(bv)));
            }
        }
    }
}

/// AVX2 int8 micro-kernel: sign-extend + interleave two panel rows into
/// `(row0_j, row1_j)` `i16` pairs, then one `pmaddwd` per output row folds
/// both `k` steps into the 8 `i32` accumulator lanes.
#[cfg(target_arch = "x86_64")]
mod x86q {
    use super::{MR, PANEL};
    use core::arch::x86_64::{
        _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_permute4x64_epi64, _mm256_set1_epi32, _mm256_setzero_si256, _mm256_shuffle_epi8,
        _mm256_storeu_si256, _mm_loadu_si128,
    };
    use std::sync::OnceLock;

    /// Runtime AVX2 detection, cached after the first call.
    pub(super) fn have_avx2() -> bool {
        static HAVE: OnceLock<bool> = OnceLock::new();
        *HAVE.get_or_init(|| is_x86_feature_detected!("avx2"))
    }

    /// Byte shuffle interleaving the two sign-extended panel rows
    /// (after `permute4x64` has paired 64-bit quads) into
    /// `(row0_j, row1_j)` `i16` pairs per 32-bit lane, both 128-bit lanes.
    const INTERLEAVE: [i8; 32] = [
        0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15, //
        0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15,
    ];

    /// Packs one lhs row into broadcast-ready `i16` pairs: lane `kp` holds
    /// `(a[2kp+1] << 16) | a[2kp]` as an `i32`. Built once per row block and
    /// reused across every rhs panel — the scalar pair assembly used to run
    /// inside the panel loop and dominated the kernel's uop budget.
    pub(super) fn pack_pairs(a_row: &[i8], pairs: &mut [i32]) {
        for (kp, slot) in pairs.iter_mut().enumerate() {
            let a0 = a_row[2 * kp] as i16 as u16 as u32;
            let a1 = a_row[2 * kp + 1] as i16 as u16 as u32;
            *slot = ((a1 << 16) | a0) as i32;
        }
    }

    /// [`MR`]x[`PANEL`] int8 register block: `pmaddwd` pair-sums two `k`
    /// steps per instruction; wrapping `i32` addition makes any order
    /// bit-identical to the scalar oracle. The `i16` pair products are
    /// bounded by `2 · 127² = 32258`, so the `pmaddwd` intermediate can
    /// never wrap, let alone saturate.
    ///
    /// `pairs` is the row-major `rows x (k / 2)` output of [`pack_pairs`];
    /// `_mm256_set1_epi32` of a slice element compiles to a single
    /// `vpbroadcastd` from memory, so the inner loop is one broadcast, one
    /// `pmaddwd` and one add per row per pair of `k` steps.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by [`have_avx2`]), `panel.len() >= k * PANEL`,
    /// `pairs.len() >= rows * (k / 2)` and every row slice at least `k`
    /// long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quant_mr_tile(
        a_rows: &[&[i8]],
        pairs: &[i32],
        panel: &[i8],
        k: usize,
        acc_out: &mut [[i32; PANEL]; MR],
    ) {
        debug_assert!(a_rows.len() <= MR);
        debug_assert!(panel.len() >= k * PANEL);
        let kpairs = k / 2;
        debug_assert!(pairs.len() >= a_rows.len() * kpairs);
        let mask = _mm256_loadu_si256(INTERLEAVE.as_ptr().cast());
        let mut acc = [_mm256_setzero_si256(); MR];
        let p = panel.as_ptr();
        for kp in 0..kpairs {
            let kk = 2 * kp;
            // 16 bytes = panel rows kk and kk+1 -> 16 i16 lanes
            // [r0_0..7 | r1_0..7].
            let v16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(p.add(kk * PANEL).cast()));
            // Quads [r0_0..3, r1_0..3 | r0_4..7, r1_4..7], then interleave
            // words within each 128-bit lane: i32 lane j = (r0_j, r1_j).
            let vp = _mm256_permute4x64_epi64(v16, 0b1101_1000);
            let vi = _mm256_shuffle_epi8(vp, mask);
            for (r, _) in a_rows.iter().enumerate() {
                let pair = *pairs.get_unchecked(r * kpairs + kp);
                acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(vi, _mm256_set1_epi32(pair)));
            }
        }
        for (r, a_row) in a_rows.iter().enumerate() {
            _mm256_storeu_si256(acc_out[r].as_mut_ptr().cast(), acc[r]);
            if k % 2 == 1 {
                // Odd-k tail: one scalar widening step per lane.
                let kk = k - 1;
                let av = i32::from(a_row[kk]);
                for (j, lane) in acc_out[r].iter_mut().enumerate() {
                    *lane = lane.wrapping_add(av.wrapping_mul(i32::from(panel[kk * PANEL + j])));
                }
            }
        }
    }
}

/// Widening int8 GEMM into a preallocated `i32` buffer, bit-identical to
/// [`quant_gemm_reference`] (integer accumulation is exact, so this is a
/// theorem, not a convention — and it is proptested
/// anyway in `tests/tests/quant_equiv.rs`).
///
/// # Panics
///
/// Panics if `a` is not `m * rhs.k()` long or `out` is not
/// `m * rhs.n()` long.
pub fn quant_gemm_into(a: &[i8], m: usize, rhs: &PackedRhs<i8>, out: &mut [i32]) {
    let (k, n) = (rhs.k(), rhs.n());
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    if n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0);
        return;
    }
    let panel_len = k * PANEL;
    #[cfg(target_arch = "x86_64")]
    let fast = x86q::have_avx2();
    #[cfg(not(target_arch = "x86_64"))]
    let fast = false;
    // Broadcast-ready lhs pairs, rebuilt per MR-row block and shared
    // across every rhs panel (row-major `rows x (k / 2)`).
    #[cfg(target_arch = "x86_64")]
    let mut pairs: Vec<i32> = vec![0; if fast { MR * (k / 2) } else { 0 }];
    for (bi, chunk) in out.chunks_mut(MR * n).enumerate() {
        let row0 = bi * MR;
        let rows = chunk.len() / n;
        let a_rows: Vec<&[i8]> = (0..rows)
            .map(|r| &a[(row0 + r) * k..(row0 + r + 1) * k])
            .collect();
        #[cfg(target_arch = "x86_64")]
        if fast {
            for (r, a_row) in a_rows.iter().enumerate() {
                x86q::pack_pairs(a_row, &mut pairs[r * (k / 2)..(r + 1) * (k / 2)]);
            }
        }
        for (p, panel) in rhs.panels().chunks(panel_len).enumerate() {
            let mut acc = [[0i32; PANEL]; MR];
            if fast {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: AVX2 runtime-detected; panel is k * PANEL
                // long, every row slice is exactly k long, and pairs
                // holds MR * (k / 2) packed lhs pairs.
                unsafe {
                    x86q::quant_mr_tile(&a_rows, &pairs, panel, k, &mut acc);
                }
            } else {
                quant_mr_tile_scalar(&a_rows, panel, k, &mut acc);
            }
            let col0 = p * PANEL;
            let width = PANEL.min(n - col0);
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                chunk[r * n + col0..r * n + col0 + width].copy_from_slice(&acc_row[..width]);
            }
        }
    }
}

/// Allocating convenience wrapper around [`quant_gemm_into`].
pub fn quant_gemm(a: &[i8], m: usize, rhs: &PackedRhs<i8>) -> Vec<i32> {
    let mut out = vec![0i32; m * rhs.n()];
    quant_gemm_into(a, m, rhs, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_i8(n: usize, seed: u64) -> Vec<i8> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state % 255) as i64 - 127) as i8
            })
            .collect()
    }

    #[test]
    fn fast_gemm_matches_oracle_over_ragged_shapes() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 7, 5),
            (4, 8, 8),
            (5, 9, 17),
            (13, 33, 19),
            (16, 64, 24),
        ] {
            let a = pseudo_i8(m * k, 11);
            let b = pseudo_i8(k * n, 23);
            let rhs = PackedRhs::from_row_major(&b, k, n);
            assert_eq!(
                quant_gemm(&a, m, &rhs),
                quant_gemm_reference(&a, m, k, &b, n),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn degenerate_shapes() {
        let rhs = PackedRhs::from_row_major(&[], 0, 4);
        assert_eq!(quant_gemm(&[], 3, &rhs), vec![0; 12]);
        let rhs = PackedRhs::from_row_major(&[], 5, 0);
        assert!(quant_gemm(&[1i8; 10], 2, &rhs).is_empty());
    }

    #[test]
    fn rounding_policy_is_ties_away_and_clamped() {
        // scale 1.0: x = 2.5 rounds to 3, x = -2.5 to -3 (away from zero).
        assert_eq!(quantize_value(2.5, 1.0), 3);
        assert_eq!(quantize_value(-2.5, 1.0), -3);
        // Clamped symmetric range: -128 is never produced.
        assert_eq!(quantize_value(-1e9, 1.0), -127);
        assert_eq!(quantize_value(1e9, 1.0), 127);
        // All-zero data gets the 1.0 fallback scale.
        let (q, scale) = quantize_symmetric(&[0.0, 0.0]);
        assert_eq!((q, scale), (vec![0, 0], 1.0));
    }

    #[test]
    fn per_channel_scales_cover_each_row() {
        let data = [1.0f32, -2.0, 0.5, 127.0, -254.0, 63.5];
        let (q, scales) = quantize_rows_symmetric(&data, 2, 3);
        assert_eq!(scales.len(), 2);
        // Row maxima 2.0 and 254.0 -> scales 2/127 and 2.
        assert_eq!(scales[0], 2.0 / 127.0);
        assert_eq!(scales[1], 2.0);
        assert_eq!(q, vec![64, -127, 32, 64, -127, 32]);
    }

    #[test]
    fn roundtrip_error_is_within_half_a_step() {
        let data: Vec<f32> = (0..1000)
            .map(|i| ((i * 37) % 613) as f32 / 7.0 - 40.0)
            .collect();
        let (q, scale) = quantize_symmetric(&data);
        for (&x, &qi) in data.iter().zip(&q) {
            let back = dequantize_value(i32::from(qi), scale);
            assert!(
                f64::from((back - x).abs()) <= scale / 2.0 + 1e-6,
                "x={x} back={back} scale={scale}"
            );
        }
    }
}
