//! Quantized tensor operators: fake-quant `quantize`/`dequantize` with a
//! static committed scale, and int8 matmul/linear built on the widening
//! GEMM of [`crate::quant`].
//!
//! Every operator here is **`KernelConfig`-independent**: the inner
//! accumulation is exact wrapping `i32` arithmetic, so every accumulation
//! order and FMA setting produces the same bits. A quantized operator is
//! therefore cross-device exact by construction — its calibration
//! envelope is all-zero and any nonzero deviation is an unbounded
//! threshold offense (see `tao-calib`).

use crate::error::TensorError;
use crate::quant::{
    dequantize_value, quant_gemm, quantize_rows_symmetric, quantize_symmetric, quantize_value,
};
use crate::tensor::Tensor;
use crate::Result;

/// Rejects non-finite or non-positive static scales up front so a bad
/// scale is a graph-construction error, not a silent NaN factory.
fn check_scale(scale: f64, op: &'static str) -> Result<()> {
    if !scale.is_finite() || scale <= 0.0 {
        return Err(TensorError::InvalidArgument(format!(
            "{op}: scale must be finite and positive, got {scale}"
        )));
    }
    Ok(())
}

/// Validated geometry of a rank-2 quantized matmul.
fn quant_matmul_check(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<(usize, usize, usize)> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            got: if a.rank() != 2 { a.rank() } else { b.rank() },
            op: "quant_matmul",
        });
    }
    let (m, ka) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "quant_matmul",
        });
    }
    Ok((m, ka, n))
}

impl Tensor<f32> {
    /// Fake-quantizes to the symmetric int8 grid with a static scale:
    /// every value becomes `round(x / scale)` clamped to `[-127, 127]`,
    /// stored as an exactly-representable small-integer `f32`.
    ///
    /// The scale is a static operator attribute (committed in the graph
    /// signature), not derived from the data — calibration-time range
    /// estimation happens before graph construction.
    ///
    /// # Errors
    ///
    /// Returns an error if `scale` is not finite and positive.
    pub fn quantize_static(&self, scale: f64) -> Result<Tensor<f32>> {
        self.quantize_static_with_buf(scale, Vec::new())
    }

    /// [`quantize_static`](Self::quantize_static) into a recycled buffer.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`quantize_static`](Self::quantize_static).
    pub fn quantize_static_with_buf(&self, scale: f64, buf: Vec<f32>) -> Result<Tensor<f32>> {
        check_scale(scale, "quantize")?;
        let mut out = buf;
        out.clear();
        out.extend(
            self.data()
                .iter()
                .map(|&x| f32::from(quantize_value(x, scale))),
        );
        Tensor::from_vec(out, self.dims())
    }

    /// Multiplies quantized-grid integers back by their static scale:
    /// `x * scale` in `f64`, rounded once to `f32`.
    ///
    /// # Errors
    ///
    /// Returns an error if `scale` is not finite and positive.
    pub fn dequantize_static(&self, scale: f64) -> Result<Tensor<f32>> {
        self.dequantize_static_with_buf(scale, Vec::new())
    }

    /// [`dequantize_static`](Self::dequantize_static) into a recycled
    /// buffer.
    ///
    /// # Errors
    ///
    /// Same error conditions as
    /// [`dequantize_static`](Self::dequantize_static).
    pub fn dequantize_static_with_buf(&self, scale: f64, buf: Vec<f32>) -> Result<Tensor<f32>> {
        check_scale(scale, "dequantize")?;
        let mut out = buf;
        out.clear();
        out.extend(self.data().iter().map(|&x| (f64::from(x) * scale) as f32));
        Tensor::from_vec(out, self.dims())
    }

    /// Int8-quantized rank-2 matrix product with per-tensor symmetric
    /// scales on both operands: quantize, widening `i32` GEMM, then one
    /// dequantizing rounding per output element.
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-2 operands or mismatched inner
    /// dimensions.
    pub fn quant_matmul(&self, other: &Tensor<f32>) -> Result<Tensor<f32>> {
        self.quant_matmul_with_buf(other, Vec::new())
    }

    /// [`quant_matmul`](Self::quant_matmul) into a recycled output buffer
    /// (the `i8`/`i32` intermediates are transient scratch).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`quant_matmul`](Self::quant_matmul).
    pub fn quant_matmul_with_buf(&self, other: &Tensor<f32>, buf: Vec<f32>) -> Result<Tensor<f32>> {
        let (m, k, n) = quant_matmul_check(self, other)?;
        let (qa, sa) = quantize_symmetric(self.data());
        let (qb, sb) = quantize_symmetric(other.data());
        let acc = quant_gemm(&qa, m, k, &qb, n);
        let scale = sa * sb;
        let mut out = buf;
        out.clear();
        out.extend(acc.iter().map(|&q| dequantize_value(q, scale)));
        Tensor::from_vec(out, &[m, n])
    }

    /// Int8-quantized affine layer `x @ w^T + b` with a per-tensor scale
    /// on the activations and **per-output-channel** symmetric scales on
    /// the weight rows (PyTorch `nn.Linear` layout: `w: [out, in]`).
    ///
    /// Each output element is dequantized with one `f64` multiply by
    /// `scale_x * scale_w[channel]` and one rounding to `f32`; the bias is
    /// then added in `f32` with one more rounding, mirroring the float
    /// [`linear`](Self::linear) bias placement.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched feature dimensions.
    pub fn quant_linear(
        &self,
        weight: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
    ) -> Result<Tensor<f32>> {
        self.quant_linear_with_buf(weight, bias, Vec::new())
    }

    /// [`quant_linear`](Self::quant_linear) into a recycled output buffer.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`quant_linear`](Self::quant_linear).
    pub fn quant_linear_with_buf(
        &self,
        weight: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        buf: Vec<f32>,
    ) -> Result<Tensor<f32>> {
        let (rows, in_f, out_f, sx, sw, qx, qw) = self.quant_linear_prepare(weight, bias)?;
        // The GEMM wants a row-major [in_f, out_f] rhs: the weight
        // transposed.
        let mut qwt = vec![0i8; in_f * out_f];
        for o in 0..out_f {
            for i in 0..in_f {
                qwt[i * out_f + o] = qw[o * in_f + i];
            }
        }
        let acc = quant_gemm(&qx, rows, in_f, &qwt, out_f);
        let mut out = buf;
        out.clear();
        out.extend(acc.chunks(out_f.max(1)).flat_map(|row| {
            row.iter()
                .enumerate()
                .map(|(c, &q)| dequantize_value(q, sx * sw[c]))
        }));
        if let Some(b) = bias {
            for row in out.chunks_mut(out_f) {
                for (v, &bv) in row.iter_mut().zip(b.data()) {
                    *v += bv;
                }
            }
        }
        let mut out_dims = self.dims().to_vec();
        *out_dims.last_mut().expect("checked rank >= 1") = out_f;
        Tensor::from_vec(out, &out_dims)
    }

    /// Validation + quantization front half of
    /// [`quant_linear`](Self::quant_linear): returns
    /// `(rows, in_f, out_f, scale_x, scales_w, qx, qw)`.
    #[allow(clippy::type_complexity)]
    fn quant_linear_prepare(
        &self,
        weight: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
    ) -> Result<(usize, usize, usize, f64, Vec<f64>, Vec<i8>, Vec<i8>)> {
        if weight.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: weight.rank(),
                op: "quant_linear weight",
            });
        }
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                got: 0,
                op: "quant_linear input",
            });
        }
        let in_f = self.dims()[self.rank() - 1];
        let (out_f, w_in) = (weight.dims()[0], weight.dims()[1]);
        if w_in != in_f {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: weight.dims().to_vec(),
                op: "quant_linear",
            });
        }
        if let Some(b) = bias {
            if b.dims() != [out_f] {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![out_f],
                    rhs: b.dims().to_vec(),
                    op: "quant_linear bias",
                });
            }
        }
        let rows = self.len() / in_f.max(1);
        let (qx, sx) = quantize_symmetric(self.data());
        // Per-channel: one symmetric scale per weight row (output channel).
        let (qw, sw) = quantize_rows_symmetric(weight.data(), out_f, in_f);
        Ok((rows, in_f, out_f, sx, sw, qx, qw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_eq(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
        a.dims() == b.dims()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Exact `i64` dot product of two quantized vectors, narrowed to the
    /// `i32` accumulator (every product is at most `127²`, so the short
    /// test shapes never leave its range).
    fn i64_dot(a: impl Iterator<Item = i8>, b: impl Iterator<Item = i8>) -> i32 {
        let sum: i64 = a.zip(b).map(|(x, y)| i64::from(x) * i64::from(y)).sum();
        i32::try_from(sum).expect("test shapes fit i32")
    }

    #[test]
    fn quant_matmul_matches_oracle_bitwise() {
        let (m, k, n) = (9, 37, 13);
        let a = Tensor::<f32>::rand_uniform(&[m, k], -4.0, 4.0, 5);
        let b = Tensor::<f32>::rand_uniform(&[k, n], -0.7, 0.7, 6);
        let (qa, sa) = quantize_symmetric(a.data());
        let (qb, sb) = quantize_symmetric(b.data());
        let mut oracle = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let col = (0..k).map(|kk| qb[kk * n + j]);
                let q = i64_dot(qa[i * k..(i + 1) * k].iter().copied(), col);
                oracle.push(dequantize_value(q, sa * sb));
            }
        }
        let oracle = Tensor::from_vec(oracle, &[m, n]).unwrap();
        assert!(bits_eq(&a.quant_matmul(&b).unwrap(), &oracle));
    }

    #[test]
    fn quant_linear_matches_oracle_bitwise() {
        let (in_f, out_f) = (33, 21);
        let x = Tensor::<f32>::rand_uniform(&[2, 5, in_f], -3.0, 3.0, 7);
        let w = Tensor::<f32>::rand_uniform(&[out_f, in_f], -1.0, 1.0, 8);
        let b = Tensor::<f32>::rand_uniform(&[out_f], -1.0, 1.0, 9);
        // Each output is the dot of an input row with a weight row: the
        // oracle reads the weight in its own layout, never transposed.
        let (qx, sx) = quantize_symmetric(x.data());
        let (qw, sw) = quantize_rows_symmetric(w.data(), out_f, in_f);
        for bias in [None, Some(&b)] {
            let mut oracle = Vec::with_capacity(10 * out_f);
            for x_row in qx.chunks_exact(in_f) {
                for (o, w_row) in qw.chunks_exact(in_f).enumerate() {
                    let q = i64_dot(x_row.iter().copied(), w_row.iter().copied());
                    let v = dequantize_value(q, sx * sw[o]);
                    oracle.push(bias.map_or(v, |b| v + b.data()[o]));
                }
            }
            let oracle = Tensor::from_vec(oracle, &[2, 5, out_f]).unwrap();
            assert!(bits_eq(&x.quant_linear(&w, bias).unwrap(), &oracle));
        }
    }

    #[test]
    fn quant_matmul_approximates_float_matmul() {
        let a = Tensor::<f32>::rand_uniform(&[8, 32], -1.0, 1.0, 11);
        let b = Tensor::<f32>::rand_uniform(&[32, 8], -1.0, 1.0, 12);
        let exact = a
            .matmul(&b, &crate::accum::KernelConfig::reference())
            .unwrap();
        let quant = a.quant_matmul(&b).unwrap();
        for (e, q) in exact.data().iter().zip(quant.data()) {
            // 32-term dot of ~1% granular int8 values.
            assert!((e - q).abs() < 0.2, "exact {e} quant {q}");
        }
    }

    #[test]
    fn fake_quant_roundtrip() {
        let x = Tensor::<f32>::from_vec(vec![0.4, -1.3, 2.0, 0.0], &[4]).unwrap();
        let q = x.quantize_static(0.5).unwrap();
        assert_eq!(q.data(), &[1.0, -3.0, 4.0, 0.0]);
        let d = q.dequantize_static(0.5).unwrap();
        assert_eq!(d.data(), &[0.5, -1.5, 2.0, 0.0]);
        // Round trip error bounded by half a quantization step.
        for (orig, back) in x.data().iter().zip(d.data()) {
            assert!((orig - back).abs() <= 0.25 + 1e-6);
        }
    }

    #[test]
    fn static_scale_validated() {
        let x = Tensor::<f32>::ones(&[2]);
        assert!(x.quantize_static(0.0).is_err());
        assert!(x.quantize_static(f64::NAN).is_err());
        assert!(x.dequantize_static(-1.0).is_err());
        assert!(x.quantize_static(0.5).is_ok());
    }

    #[test]
    fn quant_matmul_rejects_bad_shapes() {
        let a = Tensor::<f32>::zeros(&[2, 3]);
        let b = Tensor::<f32>::zeros(&[2, 2]);
        assert!(a.quant_matmul(&b).is_err());
        let batched = Tensor::<f32>::zeros(&[2, 2, 3]);
        assert!(batched.quant_matmul(&a).is_err());
        let w_bad = Tensor::<f32>::zeros(&[2, 2]);
        assert!(a.quant_linear(&w_bad, None).is_err());
    }
}
