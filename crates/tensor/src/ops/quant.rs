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
use crate::kernel::PackedRhs;
use crate::quant::{
    dequantize_value, max_abs, quant_gemm_into, quant_gemm_reference, quantize_symmetric,
    quantize_value, symmetric_scale,
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
        let rhs = PackedRhs::from_row_major(&qb, k, n);
        let mut acc = vec![0i32; m * n];
        quant_gemm_into(&qa, m, &rhs, &mut acc);
        let scale = sa * sb;
        let mut out = buf;
        out.clear();
        out.extend(acc.iter().map(|&q| dequantize_value(q, scale)));
        Tensor::from_vec(out, &[m, n])
    }

    /// Scalar-oracle quantized matmul: identical quantization policy, but
    /// the widening GEMM is the in-tree [`quant_gemm_reference`]. The fast
    /// path must match this bit-for-bit (proptested in
    /// `tests/tests/quant_equiv.rs`).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`quant_matmul`](Self::quant_matmul).
    pub fn quant_matmul_reference(&self, other: &Tensor<f32>) -> Result<Tensor<f32>> {
        let (m, k, n) = quant_matmul_check(self, other)?;
        let (qa, sa) = quantize_symmetric(self.data());
        let (qb, sb) = quantize_symmetric(other.data());
        let acc = quant_gemm_reference(&qa, m, k, &qb, n);
        let scale = sa * sb;
        let out = acc.iter().map(|&q| dequantize_value(q, scale)).collect();
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
        // Weight rows are already the dot-product columns, so the packed
        // panels read the quantized weight transposed — the same layout
        // trick the float linear uses.
        let rhs = PackedRhs::from_transposed(&qw, out_f, in_f);
        let mut acc = vec![0i32; rows * out_f];
        quant_gemm_into(&qx, rows, &rhs, &mut acc);
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

    /// Scalar-oracle quantized linear (see
    /// [`quant_matmul_reference`](Self::quant_matmul_reference)).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`quant_linear`](Self::quant_linear).
    pub fn quant_linear_reference(
        &self,
        weight: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
    ) -> Result<Tensor<f32>> {
        let (rows, in_f, out_f, sx, sw, qx, qw) = self.quant_linear_prepare(weight, bias)?;
        // The oracle GEMM wants a row-major [in_f, out_f] rhs.
        let mut qwt = vec![0i8; in_f * out_f];
        for o in 0..out_f {
            for i in 0..in_f {
                qwt[i * out_f + o] = qw[o * in_f + i];
            }
        }
        let acc = quant_gemm_reference(&qx, rows, in_f, &qwt, out_f);
        let mut out: Vec<f32> = acc
            .chunks(out_f.max(1))
            .flat_map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(c, &q)| dequantize_value(q, sx * sw[c]))
            })
            .collect();
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

    /// Shared validation + quantization front half of both quant-linear
    /// kernels: returns `(rows, in_f, out_f, scale_x, scales_w, qx, qw)`.
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
        let mut qw = Vec::with_capacity(out_f * in_f);
        let mut sw = Vec::with_capacity(out_f);
        for o in 0..out_f {
            let w_row = &weight.data()[o * in_f..(o + 1) * in_f];
            let s = symmetric_scale(max_abs(w_row));
            qw.extend(w_row.iter().map(|&x| quantize_value(x, s)));
            sw.push(s);
        }
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

    #[test]
    fn quant_matmul_matches_oracle_bitwise() {
        let a = Tensor::<f32>::rand_uniform(&[9, 37], -4.0, 4.0, 5);
        let b = Tensor::<f32>::rand_uniform(&[37, 13], -0.7, 0.7, 6);
        let fast = a.quant_matmul(&b).unwrap();
        let slow = a.quant_matmul_reference(&b).unwrap();
        assert!(bits_eq(&fast, &slow));
    }

    #[test]
    fn quant_linear_matches_oracle_bitwise() {
        let x = Tensor::<f32>::rand_uniform(&[2, 5, 33], -3.0, 3.0, 7);
        let w = Tensor::<f32>::rand_uniform(&[21, 33], -1.0, 1.0, 8);
        let b = Tensor::<f32>::rand_uniform(&[21], -1.0, 1.0, 9);
        for bias in [None, Some(&b)] {
            let fast = x.quant_linear(&w, bias).unwrap();
            let slow = x.quant_linear_reference(&w, bias).unwrap();
            assert!(bits_eq(&fast, &slow));
            assert_eq!(fast.dims(), &[2, 5, 21]);
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
