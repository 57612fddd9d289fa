//! Int8 quantized GEMM: per-channel symmetric scales and one widening
//! `i32`-accumulator loop, [`quant_gemm`].
//!
//! Unlike floating point, integer multiply-accumulate is exact and wrapping
//! `i32` addition is associative and commutative, so *any* evaluation
//! order reproduces the same bits. That makes the quantized contract
//! trivially satisfiable by every device config: a quantized operator is
//! **cross-device exact**, its calibration envelope is all-zero, and a
//! single flipped output bit is an unbounded threshold offense the dispute
//! game localizes for free. The exactness comes from the arithmetic, not
//! from a kernel, so there is no vector path to keep equivalent.
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

/// The int8 GEMM: `out[i*n + j] = Σ_kk a[i*k + kk] * b[kk*n + j]` with
/// widening `i8 -> i32` products and wrapping `i32` accumulation in
/// ascending `kk` order. Integer accumulation is exact, so this one loop is
/// bit-identical to every other evaluation order.
///
/// # Panics
///
/// Panics if `a` is not `m * k` long or `b` is not `k * n` long.
pub fn quant_gemm(a: &[i8], m: usize, k: usize, b: &[i8], n: usize) -> Vec<i32> {
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
        // Oracle: every widened product summed in `i64`, indexed
        // column-first so it shares no loop order with `quant_gemm`.
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
            let mut oracle = vec![0i64; m * n];
            for j in 0..n {
                for i in 0..m {
                    oracle[i * n + j] = (0..k)
                        .map(|kk| i64::from(a[i * k + kk]) * i64::from(b[kk * n + j]))
                        .sum();
                }
            }
            let got: Vec<i64> = quant_gemm(&a, m, k, &b, n)
                .into_iter()
                .map(i64::from)
                .collect();
            assert_eq!(got, oracle, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn degenerate_shapes() {
        assert_eq!(quant_gemm(&[], 3, 0, &[], 4), vec![0; 12]);
        assert!(quant_gemm(&[1i8; 10], 2, 5, &[], 0).is_empty());
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
