//! Matrix multiplication, batched matmul and affine (linear) layers.
//!
//! Every product packs both operands and runs the one GEMM driver of
//! [`crate::kernel`] ([`gemm_packed_into`]) under any `KernelConfig` and
//! row count; the scalar `*_reference` kernels are the permanent
//! bit-exactness oracles (see `tests/tests/kernel_equiv.rs`).

use crate::accum::KernelConfig;
use crate::element::Element;
use crate::error::TensorError;
use crate::kernel::{gemm_packed_into, PackedLhs, PackedRhs};
use crate::tensor::Tensor;
use crate::Result;

/// Validated geometry of a (possibly batched, possibly broadcast) matmul.
struct MatmulPlan {
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    a_broadcast: bool,
    b_broadcast: bool,
    out_dims: Vec<usize>,
}

fn matmul_plan<T: Element>(a: &Tensor<T>, b: &Tensor<T>) -> Result<MatmulPlan> {
    if a.rank() < 2 || b.rank() < 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            got: a.rank().min(b.rank()),
            op: "matmul",
        });
    }
    let (m, ka) = (a.dims()[a.rank() - 2], a.dims()[a.rank() - 1]);
    let (kb, n) = (b.dims()[b.rank() - 2], b.dims()[b.rank() - 1]);
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let a_batch: usize = a.dims()[..a.rank() - 2].iter().product();
    let b_batch: usize = b.dims()[..b.rank() - 2].iter().product();
    let (batch, batch_dims) = if a.rank() == 2 && b.rank() > 2 {
        (b_batch, b.dims()[..b.rank() - 2].to_vec())
    } else if b.rank() == 2 && a.rank() > 2 {
        (a_batch, a.dims()[..a.rank() - 2].to_vec())
    } else {
        if a.dims()[..a.rank() - 2] != b.dims()[..b.rank() - 2] {
            return Err(TensorError::ShapeMismatch {
                lhs: a.dims().to_vec(),
                rhs: b.dims().to_vec(),
                op: "matmul batch",
            });
        }
        (a_batch, a.dims()[..a.rank() - 2].to_vec())
    };
    let mut out_dims = batch_dims;
    out_dims.push(m);
    out_dims.push(n);
    Ok(MatmulPlan {
        m,
        k: ka,
        n,
        batch,
        a_broadcast: a_batch == 1,
        b_broadcast: b_batch == 1,
        out_dims,
    })
}

impl<T: Element> Tensor<T> {
    /// Matrix product.
    ///
    /// Supports `[m,k] @ [k,n]`, and batched `[..,m,k] @ [..,k,n]` where the
    /// batch dimensions must match exactly or be absent on one side (the
    /// unbatched operand is reused across the batch). Every output element
    /// is a length-`k` dot product evaluated under the accumulation order
    /// and FMA setting of `cfg` — the locus of cross-device rounding drift.
    ///
    /// The implementation is the cache-blocked, register-tiled GEMM of
    /// [`crate::kernel`]; it is bit-identical to
    /// [`Tensor::matmul_reference`] for every `cfg` (tested exhaustively in
    /// `tests/tests/kernel_equiv.rs`).
    ///
    /// # Errors
    ///
    /// Returns an error for rank < 2 operands or mismatched inner/batch
    /// dimensions.
    pub fn matmul(&self, other: &Tensor<T>, cfg: &KernelConfig) -> Result<Tensor<T>> {
        self.matmul_with_buf(other, cfg, Vec::new())
    }

    /// [`matmul`](Self::matmul) into a recycled output buffer: the same
    /// blocked GEMM and bit-identical results, but the output tensor
    /// reuses `buf`'s allocation when its capacity suffices.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`matmul`](Self::matmul).
    pub fn matmul_with_buf(
        &self,
        other: &Tensor<T>,
        cfg: &KernelConfig,
        buf: Vec<T>,
    ) -> Result<Tensor<T>> {
        let plan = matmul_plan(self, other)?;
        let MatmulPlan { m, k, n, batch, .. } = plan;
        let mut out = buf;
        out.clear();
        out.resize(batch * m * n, T::ZERO);
        if out.is_empty() {
            return Tensor::from_vec(out, &plan.out_dims);
        }
        // Shared (broadcast) operands pack once; otherwise each batch entry
        // packs its own. A single product is the one-entry batch.
        let shared_rhs = plan
            .b_broadcast
            .then(|| PackedRhs::from_row_major(&other.data()[..k * n], k, n));
        let shared_lhs = plan
            .a_broadcast
            .then(|| PackedLhs::from_row_major(&self.data()[..m * k], m, k));
        for (bi, out_mat) in out.chunks_mut(m * n).enumerate() {
            let packed_b;
            let rhs = match &shared_rhs {
                Some(shared) => shared,
                None => {
                    let b_off = bi * k * n;
                    packed_b = PackedRhs::from_row_major(&other.data()[b_off..b_off + k * n], k, n);
                    &packed_b
                }
            };
            let packed_a;
            let lhs = match &shared_lhs {
                Some(shared) => shared,
                None => {
                    let a_off = bi * m * k;
                    packed_a = PackedLhs::from_row_major(&self.data()[a_off..a_off + m * k], m, k);
                    &packed_a
                }
            };
            gemm_packed_into(cfg, lhs, rhs, out_mat);
        }
        Tensor::from_vec(out, &plan.out_dims)
    }

    /// Scalar-oracle matrix product: the original triple-loop kernel, kept
    /// in-tree as the bit-exactness reference the blocked [`Tensor::matmul`]
    /// is differentially tested against.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Tensor::matmul`].
    pub fn matmul_reference(&self, other: &Tensor<T>, cfg: &KernelConfig) -> Result<Tensor<T>> {
        let plan = matmul_plan(self, other)?;
        let MatmulPlan { m, k, n, batch, .. } = plan;
        let mut out = Vec::with_capacity(batch * m * n);
        // Transpose each rhs batch matrix once so dot products read
        // contiguous memory in the canonical k order.
        let mut bt = vec![T::ZERO; k * n];
        for bi in 0..batch {
            let a_off = if plan.a_broadcast { 0 } else { bi * m * k };
            let b_off = if plan.b_broadcast { 0 } else { bi * k * n };
            let b_mat = &other.data()[b_off..b_off + k * n];
            for kk in 0..k {
                for nn in 0..n {
                    bt[nn * k + kk] = b_mat[kk * n + nn];
                }
            }
            for mm in 0..m {
                let row = &self.data()[a_off + mm * k..a_off + (mm + 1) * k];
                for nn in 0..n {
                    out.push(cfg.dot(row, &bt[nn * k..(nn + 1) * k]));
                }
            }
        }
        Tensor::from_vec(out, &plan.out_dims)
    }

    /// Affine layer `x @ w^T + b` with `x: [.., in]`, `w: [out, in]`,
    /// `b: [out]` (PyTorch `nn.Linear` layout).
    ///
    /// The weight rows are already the columns the dot products consume, so
    /// the blocked GEMM packs them directly without a transpose pass. Bias
    /// is added after the dot with one rounding, exactly as the scalar
    /// oracle does.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched feature dimensions.
    pub fn linear(
        &self,
        weight: &Tensor<T>,
        bias: Option<&Tensor<T>>,
        cfg: &KernelConfig,
    ) -> Result<Tensor<T>> {
        self.linear_with_buf(weight, bias, cfg, Vec::new())
    }

    /// [`linear`](Self::linear) into a recycled output buffer (identical
    /// results; see [`matmul_with_buf`](Self::matmul_with_buf)): packs the
    /// weight, then runs [`linear_packed_with_buf`](Self::linear_packed_with_buf).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`linear`](Self::linear).
    pub fn linear_with_buf(
        &self,
        weight: &Tensor<T>,
        bias: Option<&Tensor<T>>,
        cfg: &KernelConfig,
        buf: Vec<T>,
    ) -> Result<Tensor<T>> {
        let (_, in_f, out_f) = self.linear_check(weight, bias)?;
        let rhs = PackedRhs::from_transposed(weight.data(), out_f, in_f);
        self.linear_packed_with_buf(&rhs, bias, cfg, buf)
    }

    /// [`linear_with_buf`](Self::linear_with_buf) against a weight already
    /// packed by [`PackedRhs::from_transposed`] (a `[out, in]` weight is
    /// `weight.n() = out` columns of `weight.k() = in` terms), so a weight
    /// used by many calls is packed once. Bit-identical to packing per call.
    ///
    /// # Errors
    ///
    /// Returns an error when the input's last dimension is not
    /// `weight.k()` or the bias is not `[weight.n()]`.
    pub fn linear_packed_with_buf(
        &self,
        weight: &PackedRhs<T>,
        bias: Option<&Tensor<T>>,
        cfg: &KernelConfig,
        buf: Vec<T>,
    ) -> Result<Tensor<T>> {
        let (in_f, out_f) = (weight.k(), weight.n());
        let rows = self.linear_rows(in_f, out_f, bias)?;
        let mut out = buf;
        out.clear();
        out.resize(rows * out_f, T::ZERO);
        let lhs = PackedLhs::from_row_major(self.data(), rows, in_f);
        gemm_packed_into(cfg, &lhs, weight, &mut out);
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

    /// Scalar-oracle affine layer (see [`Tensor::matmul_reference`]).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Tensor::linear`].
    pub fn linear_reference(
        &self,
        weight: &Tensor<T>,
        bias: Option<&Tensor<T>>,
        cfg: &KernelConfig,
    ) -> Result<Tensor<T>> {
        let (rows, in_f, out_f) = self.linear_check(weight, bias)?;
        let mut out = Vec::with_capacity(rows * out_f);
        for r in 0..rows {
            let x = &self.data()[r * in_f..(r + 1) * in_f];
            for o in 0..out_f {
                let w = &weight.data()[o * in_f..(o + 1) * in_f];
                let mut v = cfg.dot(x, w);
                if let Some(b) = bias {
                    v += b.data()[o];
                }
                out.push(v);
            }
        }
        let mut out_dims = self.dims().to_vec();
        *out_dims.last_mut().expect("checked rank >= 1") = out_f;
        Tensor::from_vec(out, &out_dims)
    }

    /// Shape validation shared by both linear kernels; returns
    /// `(rows, in_features, out_features)`.
    fn linear_check(
        &self,
        weight: &Tensor<T>,
        bias: Option<&Tensor<T>>,
    ) -> Result<(usize, usize, usize)> {
        if weight.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: weight.rank(),
                op: "linear weight",
            });
        }
        let (out_f, in_f) = (weight.dims()[0], weight.dims()[1]);
        let rows = self.linear_rows(in_f, out_f, bias)?;
        Ok((rows, in_f, out_f))
    }

    /// Checks the input and bias against an `[out_f, in_f]` weight and
    /// returns the input's row count.
    fn linear_rows(&self, in_f: usize, out_f: usize, bias: Option<&Tensor<T>>) -> Result<usize> {
        let x_in = self.dims()[self
            .rank()
            .checked_sub(1)
            .ok_or(TensorError::RankMismatch {
                expected: 1,
                got: 0,
                op: "linear input",
            })?];
        if x_in != in_f {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: vec![out_f, in_f],
                op: "linear",
            });
        }
        if let Some(b) = bias {
            if b.dims() != [out_f] {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![out_f],
                    rhs: b.dims().to_vec(),
                    op: "linear bias",
                });
            }
        }
        Ok(self.dims()[..self.rank() - 1].iter().product())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::AccumMode;

    fn cfg() -> KernelConfig {
        KernelConfig::reference()
    }

    #[test]
    fn matmul_2x2_identity() {
        let a = Tensor::<f32>::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let i = Tensor::<f32>::eye(2);
        assert_eq!(a.matmul(&i, &cfg()).unwrap().data(), a.data());
        assert_eq!(i.matmul(&a, &cfg()).unwrap().data(), a.data());
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::<f32>::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::<f32>::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b, &cfg()).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_batched() {
        let a = Tensor::<f32>::arange(12).reshape(&[2, 2, 3]).unwrap();
        let b = Tensor::<f32>::arange(12).reshape(&[2, 3, 2]).unwrap();
        let c = a.matmul(&b, &cfg()).unwrap();
        assert_eq!(c.dims(), &[2, 2, 2]);
        // First batch: [[0,1,2],[3,4,5]] @ [[0,1],[2,3],[4,5]].
        assert_eq!(c.at(&[0, 0, 0]).unwrap(), 10.0);
        assert_eq!(c.at(&[0, 1, 1]).unwrap(), 40.0);
    }

    #[test]
    fn matmul_broadcast_unbatched_rhs() {
        let a = Tensor::<f32>::arange(12).reshape(&[2, 2, 3]).unwrap();
        let w = Tensor::<f32>::eye(3);
        let c = a.matmul(&w, &cfg()).unwrap();
        assert_eq!(c.dims(), &[2, 2, 3]);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_broadcast_unbatched_lhs() {
        let a = Tensor::<f32>::eye(3);
        let b = Tensor::<f32>::arange(18).reshape(&[2, 3, 3]).unwrap();
        let c = a.matmul(&b, &cfg()).unwrap();
        assert_eq!(c.dims(), &[2, 3, 3]);
        assert_eq!(c.data(), b.data());
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::<f32>::zeros(&[2, 3]);
        let b = Tensor::<f32>::zeros(&[2, 2]);
        assert!(a.matmul(&b, &cfg()).is_err());
        let v = Tensor::<f32>::zeros(&[3]);
        assert!(v.matmul(&a, &cfg()).is_err());
    }

    #[test]
    fn blocked_matmul_bits_match_reference_oracle() {
        for accum in [
            AccumMode::Sequential,
            AccumMode::Pairwise,
            AccumMode::Blocked(32),
        ] {
            for fma in [false, true] {
                let c = KernelConfig {
                    accum,
                    fma,
                    ..cfg()
                };
                let a = Tensor::<f32>::rand_uniform(&[9, 77], -50.0, 50.0, 3);
                let b = Tensor::<f32>::rand_uniform(&[77, 13], -50.0, 50.0, 4);
                let fast = a.matmul(&b, &c).unwrap();
                let slow = a.matmul_reference(&b, &c).unwrap();
                let same = fast
                    .data()
                    .iter()
                    .zip(slow.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{c:?}");
            }
        }
    }

    #[test]
    fn linear_matches_manual() {
        let x = Tensor::<f32>::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let w = Tensor::<f32>::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let b = Tensor::<f32>::from_vec(vec![0.5, -0.5, 0.0], &[3]).unwrap();
        let y = x.linear(&w, Some(&b), &cfg()).unwrap();
        assert_eq!(y.dims(), &[1, 3]);
        assert_eq!(y.data(), &[1.5, 1.5, 3.0]);
    }

    #[test]
    fn linear_no_bias() {
        let x = Tensor::<f32>::ones(&[2, 2]);
        let w = Tensor::<f32>::eye(2);
        let y = x.linear(&w, None, &cfg()).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn linear_batched_input() {
        let x = Tensor::<f32>::arange(12).reshape(&[2, 3, 2]).unwrap();
        let w = Tensor::<f32>::eye(2);
        let y = x.linear(&w, None, &cfg()).unwrap();
        assert_eq!(y.dims(), &[2, 3, 2]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn linear_rejects_mismatch() {
        let x = Tensor::<f32>::zeros(&[1, 3]);
        let w = Tensor::<f32>::zeros(&[2, 2]);
        assert!(x.linear(&w, None, &cfg()).is_err());
        let w_ok = Tensor::<f32>::zeros(&[2, 3]);
        let bad_bias = Tensor::<f32>::zeros(&[3]);
        assert!(x.linear(&w_ok, Some(&bad_bias), &cfg()).is_err());
    }

    #[test]
    fn packed_linear_checks_input_and_bias() {
        let w = Tensor::<f32>::rand_uniform(&[3, 4], -1.0, 1.0, 5);
        let packed = PackedRhs::from_transposed(w.data(), 3, 4);
        let x = Tensor::<f32>::rand_uniform(&[2, 4], -1.0, 1.0, 6);
        let fast = x
            .linear_packed_with_buf(&packed, None, &cfg(), Vec::new())
            .unwrap();
        assert_eq!(fast, x.linear(&w, None, &cfg()).unwrap());
        let narrow = Tensor::<f32>::zeros(&[2, 3]);
        assert!(narrow
            .linear_packed_with_buf(&packed, None, &cfg(), Vec::new())
            .is_err());
        let bad_bias = Tensor::<f32>::zeros(&[4]);
        assert!(x
            .linear_packed_with_buf(&packed, Some(&bad_bias), &cfg(), Vec::new())
            .is_err());
    }

    #[test]
    fn linear_bits_match_reference_oracle() {
        let x = Tensor::<f32>::rand_uniform(&[5, 33], -10.0, 10.0, 7);
        let w = Tensor::<f32>::rand_uniform(&[21, 33], -1.0, 1.0, 8);
        let b = Tensor::<f32>::rand_uniform(&[21], -1.0, 1.0, 9);
        for accum in [AccumMode::Sequential, AccumMode::Blocked(8)] {
            let c = KernelConfig {
                accum,
                fma: true,
                ..cfg()
            };
            let fast = x.linear(&w, Some(&b), &c).unwrap();
            let slow = x.linear_reference(&w, Some(&b), &c).unwrap();
            let same = fast
                .data()
                .iter()
                .zip(slow.data())
                .all(|(p, q)| p.to_bits() == q.to_bits());
            assert!(same, "{c:?}");
        }
    }

    #[test]
    fn accumulation_order_visible_in_matmul() {
        let a = Tensor::<f32>::rand_uniform(&[8, 512], -100.0, 100.0, 1);
        let b = Tensor::<f32>::rand_uniform(&[512, 8], -100.0, 100.0, 2);
        let seq = a
            .matmul(
                &b,
                &KernelConfig {
                    accum: AccumMode::Sequential,
                    ..cfg()
                },
            )
            .unwrap();
        let blk = a
            .matmul(
                &b,
                &KernelConfig {
                    accum: AccumMode::Blocked(32),
                    ..cfg()
                },
            )
            .unwrap();
        assert_ne!(seq.data(), blk.data());
        // Differences stay tiny relative to magnitudes.
        for (s, p) in seq.data().iter().zip(blk.data()) {
            assert!(((s - p) / s.abs().max(1.0)).abs() < 1e-4);
        }
    }
}
