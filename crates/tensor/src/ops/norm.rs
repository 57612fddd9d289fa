//! Softmax and normalization layers.
//!
//! Each kernel follows the exact sub-step decomposition the bound templates
//! in `tao-bounds` model — e.g. softmax is computed as
//! `m = max(x); z = x - m; e = exp(z); S = Σe; y = e / S`, matching §3.1 of
//! the paper.

use crate::accum::KernelConfig;
use crate::error::TensorError;
use crate::math::{map_slice, MathElement};
use crate::tensor::Tensor;
use crate::Result;

impl<T: MathElement> Tensor<T> {
    /// Softmax along the last axis.
    ///
    /// Each lane runs the pipeline
    /// `m = max(x); e = exp(x - m); S = Σe; y = e / S` through the
    /// vectorized elementwise maps, bit-identical to
    /// [`Tensor::softmax_last_reference`].
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors.
    pub fn softmax_last(&self, cfg: &KernelConfig) -> Result<Tensor<T>> {
        self.softmax_last_with_buf(cfg, Vec::new())
    }

    /// [`softmax_last`](Self::softmax_last) into a recycled output buffer:
    /// bit-identical results, but the output tensor reuses `buf`'s
    /// allocation when its capacity suffices.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`softmax_last`](Self::softmax_last).
    pub fn softmax_last_with_buf(&self, cfg: &KernelConfig, buf: Vec<T>) -> Result<Tensor<T>> {
        let d = self.last_axis_check("softmax")?;
        let mut out = buf;
        out.clear();
        out.resize(self.len(), T::ZERO);
        let mut e = vec![T::ZERO; d];
        for (lane, out_lane) in self.data().chunks(d).zip(out.chunks_mut(d)) {
            let m = lane.iter().copied().fold(lane[0], |a, b| a.maximum(b));
            map_slice(lane, &mut e, |x| (x - m).exp_with(cfg.math));
            let s = cfg.sum(&e);
            map_slice(&e, out_lane, |ei| ei / s);
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Scalar-oracle softmax (single-threaded seed loop), kept in-tree as
    /// the bit-exactness reference for [`Tensor::softmax_last`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Tensor::softmax_last`].
    pub fn softmax_last_reference(&self, cfg: &KernelConfig) -> Result<Tensor<T>> {
        let d = self.last_axis_check("softmax")?;
        let mut out = Vec::with_capacity(self.len());
        let mut e = vec![T::ZERO; d];
        for lane in self.data().chunks(d) {
            let m = lane.iter().copied().fold(lane[0], |a, b| a.maximum(b));
            for (i, &x) in lane.iter().enumerate() {
                e[i] = (x - m).exp_with(cfg.math);
            }
            let s = cfg.sum(&e);
            for &ei in &e {
                out.push(ei / s);
            }
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Validates a non-empty last axis for lane-wise kernels.
    fn last_axis_check(&self, op: &'static str) -> Result<usize> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                got: 0,
                op,
            });
        }
        let d = self.dims()[self.rank() - 1];
        if d == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "{op} over empty axis"
            )));
        }
        Ok(d)
    }

    /// Layer normalization over the last axis with affine parameters.
    ///
    /// `y = (x - mean) / sqrt(var + eps) * gamma + beta` where mean/var are
    /// per-lane reductions under `cfg`'s accumulation order.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 input or parameter shape mismatches.
    pub fn layer_norm(
        &self,
        gamma: &Tensor<T>,
        beta: &Tensor<T>,
        eps: f64,
        cfg: &KernelConfig,
    ) -> Result<Tensor<T>> {
        self.layer_norm_with_buf(gamma, beta, eps, cfg, Vec::new())
    }

    /// [`layer_norm`](Self::layer_norm) into a recycled output buffer
    /// (identical results; see [`softmax_last_with_buf`](Self::softmax_last_with_buf)).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`layer_norm`](Self::layer_norm).
    pub fn layer_norm_with_buf(
        &self,
        gamma: &Tensor<T>,
        beta: &Tensor<T>,
        eps: f64,
        cfg: &KernelConfig,
        buf: Vec<T>,
    ) -> Result<Tensor<T>> {
        let d = self.layer_norm_check(gamma, beta)?;
        let nd = T::from_f64(d as f64);
        let epsd = T::from_f64(eps);
        let mut out = buf;
        out.clear();
        out.resize(self.len(), T::ZERO);
        let mut centered = vec![T::ZERO; d];
        let mut sq = vec![T::ZERO; d];
        for (lane, out_lane) in self.data().chunks(d).zip(out.chunks_mut(d)) {
            let mean = cfg.sum(lane) / nd;
            map_slice(lane, &mut centered, |x| x - mean);
            map_slice(&centered, &mut sq, |c| c * c);
            let var = cfg.sum(&sq) / nd;
            let inv = (var + epsd).rsqrt_with(cfg.math);
            for (((slot, &c), &g), &b) in out_lane
                .iter_mut()
                .zip(&centered)
                .zip(gamma.data())
                .zip(beta.data())
            {
                *slot = c * inv * g + b;
            }
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Scalar-oracle layer normalization (single-threaded seed loop); the
    /// bit-exactness reference for [`Tensor::layer_norm`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Tensor::layer_norm`].
    pub fn layer_norm_reference(
        &self,
        gamma: &Tensor<T>,
        beta: &Tensor<T>,
        eps: f64,
        cfg: &KernelConfig,
    ) -> Result<Tensor<T>> {
        let d = self.layer_norm_check(gamma, beta)?;
        let nd = T::from_f64(d as f64);
        let epsd = T::from_f64(eps);
        let mut out = Vec::with_capacity(self.len());
        let mut centered = vec![T::ZERO; d];
        let mut sq = vec![T::ZERO; d];
        for lane in self.data().chunks(d) {
            let mean = cfg.sum(lane) / nd;
            for (i, &x) in lane.iter().enumerate() {
                centered[i] = x - mean;
                sq[i] = centered[i] * centered[i];
            }
            let var = cfg.sum(&sq) / nd;
            let inv = (var + epsd).rsqrt_with(cfg.math);
            for ((&c, &g), &b) in centered.iter().zip(gamma.data()).zip(beta.data()) {
                out.push(c * inv * g + b);
            }
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Validates layer-norm parameter shapes; returns the lane width.
    fn layer_norm_check(&self, gamma: &Tensor<T>, beta: &Tensor<T>) -> Result<usize> {
        let d = self.last_axis_check("layer_norm")?;
        if gamma.dims() != [d] || beta.dims() != [d] {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![d],
                rhs: gamma.dims().to_vec(),
                op: "layer_norm params",
            });
        }
        Ok(d)
    }

    /// RMS normalization over the last axis (no mean subtraction), as used
    /// by Qwen/LLaMA-family models.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 input or a parameter shape mismatch.
    pub fn rms_norm(&self, gamma: &Tensor<T>, eps: f64, cfg: &KernelConfig) -> Result<Tensor<T>> {
        self.rms_norm_with_buf(gamma, eps, cfg, Vec::new())
    }

    /// [`rms_norm`](Self::rms_norm) into a recycled output buffer
    /// (identical results; see [`softmax_last_with_buf`](Self::softmax_last_with_buf)).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`rms_norm`](Self::rms_norm).
    pub fn rms_norm_with_buf(
        &self,
        gamma: &Tensor<T>,
        eps: f64,
        cfg: &KernelConfig,
        buf: Vec<T>,
    ) -> Result<Tensor<T>> {
        let d = self.rms_norm_check(gamma)?;
        let nd = T::from_f64(d as f64);
        let epsd = T::from_f64(eps);
        let mut out = buf;
        out.clear();
        out.resize(self.len(), T::ZERO);
        let mut sq = vec![T::ZERO; d];
        for (lane, out_lane) in self.data().chunks(d).zip(out.chunks_mut(d)) {
            map_slice(lane, &mut sq, |x| x * x);
            let ms = cfg.sum(&sq) / nd;
            let inv = (ms + epsd).rsqrt_with(cfg.math);
            for ((slot, &x), &g) in out_lane.iter_mut().zip(lane).zip(gamma.data()) {
                *slot = x * inv * g;
            }
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Scalar-oracle RMS normalization (single-threaded seed loop); the
    /// bit-exactness reference for [`Tensor::rms_norm`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Tensor::rms_norm`].
    pub fn rms_norm_reference(
        &self,
        gamma: &Tensor<T>,
        eps: f64,
        cfg: &KernelConfig,
    ) -> Result<Tensor<T>> {
        let d = self.rms_norm_check(gamma)?;
        let nd = T::from_f64(d as f64);
        let epsd = T::from_f64(eps);
        let mut out = Vec::with_capacity(self.len());
        let mut sq = vec![T::ZERO; d];
        for lane in self.data().chunks(d) {
            for (i, &x) in lane.iter().enumerate() {
                sq[i] = x * x;
            }
            let ms = cfg.sum(&sq) / nd;
            let inv = (ms + epsd).rsqrt_with(cfg.math);
            for (i, &x) in lane.iter().enumerate() {
                out.push(x * inv * gamma.data()[i]);
            }
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Validates rms-norm parameter shapes; returns the lane width.
    fn rms_norm_check(&self, gamma: &Tensor<T>) -> Result<usize> {
        let d = self.last_axis_check("rms_norm")?;
        if gamma.dims() != [d] {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![d],
                rhs: gamma.dims().to_vec(),
                op: "rms_norm params",
            });
        }
        Ok(d)
    }

    /// Inference-mode batch normalization over NCHW input using running
    /// statistics: `y = (x - mean_c) / sqrt(var_c + eps) * gamma_c + beta_c`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-4D input or per-channel parameter
    /// mismatches.
    pub fn batch_norm2d(
        &self,
        gamma: &Tensor<T>,
        beta: &Tensor<T>,
        running_mean: &Tensor<T>,
        running_var: &Tensor<T>,
        eps: f64,
        cfg: &KernelConfig,
    ) -> Result<Tensor<T>> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                got: self.rank(),
                op: "batch_norm2d",
            });
        }
        let c = self.dims()[1];
        for (p, name) in [
            (gamma, "gamma"),
            (beta, "beta"),
            (running_mean, "running_mean"),
            (running_var, "running_var"),
        ] {
            if p.dims() != [c] {
                return Err(TensorError::InvalidArgument(format!(
                    "batch_norm2d: {name} must have shape [{c}], got {:?}",
                    p.dims()
                )));
            }
        }
        let (n, h, w) = (self.dims()[0], self.dims()[2], self.dims()[3]);
        let hw = h * w;
        let epsd = T::from_f64(eps);
        let mut out = Vec::with_capacity(self.len());
        for ni in 0..n {
            for ci in 0..c {
                let inv = (running_var.data()[ci] + epsd).rsqrt_with(cfg.math);
                let g = gamma.data()[ci];
                let b = beta.data()[ci];
                let m = running_mean.data()[ci];
                let base = (ni * c + ci) * hw;
                for &x in &self.data()[base..base + hw] {
                    out.push((x - m) * inv * g + b);
                }
            }
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Group normalization over NCHW input with `groups` channel groups.
    ///
    /// # Errors
    ///
    /// Returns an error if `groups` does not divide the channel count or
    /// parameter shapes mismatch.
    pub fn group_norm(
        &self,
        groups: usize,
        gamma: &Tensor<T>,
        beta: &Tensor<T>,
        eps: f64,
        cfg: &KernelConfig,
    ) -> Result<Tensor<T>> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                got: self.rank(),
                op: "group_norm",
            });
        }
        let (n, c, h, w) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        if groups == 0 || c % groups != 0 {
            return Err(TensorError::InvalidArgument(format!(
                "group_norm: {groups} groups do not divide {c} channels"
            )));
        }
        if gamma.dims() != [c] || beta.dims() != [c] {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![c],
                rhs: gamma.dims().to_vec(),
                op: "group_norm params",
            });
        }
        let cg = c / groups;
        let group_len = cg * h * w;
        let nd = T::from_f64(group_len as f64);
        let epsd = T::from_f64(eps);
        let mut out = vec![T::ZERO; self.len()];
        let mut sq = vec![T::ZERO; group_len];
        for ni in 0..n {
            for g in 0..groups {
                let base = (ni * c + g * cg) * h * w;
                let lane = &self.data()[base..base + group_len];
                let mean = cfg.sum(lane) / nd;
                for (i, &x) in lane.iter().enumerate() {
                    let cen = x - mean;
                    sq[i] = cen * cen;
                }
                let var = cfg.sum(&sq) / nd;
                let inv = (var + epsd).rsqrt_with(cfg.math);
                for i in 0..group_len {
                    let ch = g * cg + i / (h * w);
                    out[base + i] = (lane[i] - mean) * inv * gamma.data()[ch] + beta.data()[ch];
                }
            }
        }
        Tensor::from_vec(out, self.dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> KernelConfig {
        KernelConfig::reference()
    }

    #[test]
    fn softmax_sums_to_one() {
        let t = Tensor::<f32>::rand_uniform(&[4, 7], -5.0, 5.0, 1);
        let s = t.softmax_last(&cfg()).unwrap();
        for lane in s.data().chunks(7) {
            let total: f32 = lane.iter().sum();
            assert!((total - 1.0).abs() < 1e-5);
            assert!(lane.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let t = Tensor::<f32>::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let shifted = t.add_scalar(100.0);
        let a = t.softmax_last(&cfg()).unwrap();
        let b = shifted.softmax_last(&cfg()).unwrap();
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let t = Tensor::<f32>::from_vec(vec![1000.0, 1001.0], &[2]).unwrap();
        let s = t.softmax_last(&cfg()).unwrap();
        assert!(s.all_finite());
        assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let t = Tensor::<f32>::rand_uniform(&[3, 64], -2.0, 5.0, 2);
        let gamma = Tensor::<f32>::ones(&[64]);
        let beta = Tensor::<f32>::zeros(&[64]);
        let y = t.layer_norm(&gamma, &beta, 1e-5, &cfg()).unwrap();
        for lane in y.data().chunks(64) {
            let mean: f32 = lane.iter().sum::<f32>() / 64.0;
            let var: f32 = lane.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn layer_norm_affine_applies() {
        let t = Tensor::<f32>::rand_uniform(&[2, 8], -1.0, 1.0, 3);
        let gamma = Tensor::<f32>::full(&[8], 2.0);
        let beta = Tensor::<f32>::full(&[8], 1.0);
        let base = t
            .layer_norm(&Tensor::ones(&[8]), &Tensor::zeros(&[8]), 1e-5, &cfg())
            .unwrap();
        let y = t.layer_norm(&gamma, &beta, 1e-5, &cfg()).unwrap();
        for (b, v) in base.data().iter().zip(y.data()) {
            assert!((v - (2.0 * b + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn rms_norm_unit_rms() {
        let t = Tensor::<f32>::rand_uniform(&[2, 32], 0.5, 2.0, 4);
        let gamma = Tensor::<f32>::ones(&[32]);
        let y = t.rms_norm(&gamma, 1e-6, &cfg()).unwrap();
        for lane in y.data().chunks(32) {
            let ms: f32 = lane.iter().map(|&x| x * x).sum::<f32>() / 32.0;
            assert!((ms - 1.0).abs() < 1e-3, "ms {ms}");
        }
    }

    #[test]
    fn batch_norm_normalizes_with_running_stats() {
        let x = Tensor::<f32>::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[1, 1, 2, 2]).unwrap();
        let y = x
            .batch_norm2d(
                &Tensor::ones(&[1]),
                &Tensor::zeros(&[1]),
                &Tensor::from_vec(vec![5.0], &[1]).unwrap(),
                &Tensor::from_vec(vec![4.0], &[1]).unwrap(),
                0.0,
                &cfg(),
            )
            .unwrap();
        assert_eq!(y.data(), &[-1.5, -0.5, 0.5, 1.5]);
    }

    #[test]
    fn group_norm_per_group_stats() {
        let x = Tensor::<f32>::rand_uniform(&[1, 4, 3, 3], -3.0, 3.0, 5);
        let y = x
            .group_norm(2, &Tensor::ones(&[4]), &Tensor::zeros(&[4]), 1e-5, &cfg())
            .unwrap();
        // Each group of 2 channels should have near-zero mean.
        let group_len = 2 * 9;
        for g in 0..2 {
            let lane = &y.data()[g * group_len..(g + 1) * group_len];
            let mean: f32 = lane.iter().sum::<f32>() / group_len as f32;
            assert!(mean.abs() < 1e-4);
        }
        assert!(x
            .group_norm(3, &Tensor::ones(&[4]), &Tensor::zeros(&[4]), 1e-5, &cfg())
            .is_err());
    }

    #[test]
    fn parallel_lanes_bits_match_reference_oracle() {
        use crate::math::MathLib;
        // Many lanes, each wider than one vector of the elementwise maps.
        let t = Tensor::<f32>::rand_uniform(&[512, 128], -4.0, 4.0, 17);
        let gamma = Tensor::<f32>::rand_uniform(&[128], 0.5, 1.5, 18);
        let beta = Tensor::<f32>::rand_uniform(&[128], -0.5, 0.5, 19);
        let c = KernelConfig {
            math: MathLib::VariantA,
            ..cfg()
        };
        let bits = |t: &Tensor<f32>| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&t.softmax_last(&c).unwrap()),
            bits(&t.softmax_last_reference(&c).unwrap())
        );
        assert_eq!(
            bits(&t.layer_norm(&gamma, &beta, 1e-5, &c).unwrap()),
            bits(&t.layer_norm_reference(&gamma, &beta, 1e-5, &c).unwrap())
        );
        assert_eq!(
            bits(&t.rms_norm(&gamma, 1e-6, &c).unwrap()),
            bits(&t.rms_norm_reference(&gamma, 1e-6, &c).unwrap())
        );
    }

    #[test]
    fn shape_errors() {
        let t = Tensor::<f32>::zeros(&[2, 4]);
        assert!(t
            .layer_norm(&Tensor::ones(&[3]), &Tensor::zeros(&[4]), 1e-5, &cfg())
            .is_err());
        assert!(t.rms_norm(&Tensor::ones(&[5]), 1e-6, &cfg()).is_err());
        let s = Tensor::<f32>::scalar(1.0);
        assert!(s.softmax_last(&cfg()).is_err());
    }
}
