//! 2-D convolution over NCHW tensors.
//!
//! The hot path gathers each image's im2col matrix straight into the
//! rhs panel layout of [`crate::kernel`] and runs its one GEMM driver
//! ([`gemm_packed_into`]) under every `KernelConfig`, with the weight as
//! the packed lhs; [`Tensor::conv2d_reference`] keeps the original
//! gather-per-output scalar loop as the bit-exactness oracle.

use crate::accum::KernelConfig;
use crate::element::Element;
use crate::error::TensorError;
use crate::kernel::{gemm_packed_into, PackedLhs, PackedRhs};
use crate::tensor::Tensor;
use crate::Result;

/// Convolution hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Stride along height and width.
    pub stride: usize,
    /// Zero padding along height and width.
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dParams {
    /// Output spatial extent for an input extent and kernel extent, or
    /// `None` when the kernel exceeds the padded input or the stride is 0.
    pub fn out_extent(&self, input: usize, kernel: usize) -> Option<usize> {
        (input + 2 * self.padding)
            .checked_sub(kernel)?
            .checked_div(self.stride)
            .map(|v| v + 1)
    }
}

impl<T: Element> Tensor<T> {
    /// 2-D convolution: `self: [n, c_in, h, w]`, `weight: [c_out, c_in, kh, kw]`,
    /// optional `bias: [c_out]`.
    ///
    /// Each output element is a length-`c_in*kh*kw` dot product gathered in
    /// canonical (channel, row, column) order and evaluated under `cfg`'s
    /// accumulation order — the same reduction-order degree of freedom GPU
    /// convolution kernels exercise.
    ///
    /// # Errors
    ///
    /// Returns an error for non-4D operands, channel mismatches, a zero
    /// stride, or kernels larger than the padded input.
    pub fn conv2d(
        &self,
        weight: &Tensor<T>,
        bias: Option<&Tensor<T>>,
        params: Conv2dParams,
        cfg: &KernelConfig,
    ) -> Result<Tensor<T>> {
        self.conv2d_with_buf(weight, bias, params, cfg, Vec::new())
    }

    /// [`conv2d`](Self::conv2d) into a recycled output buffer: the same
    /// im2col-backed GEMM and bit-identical results, but the output tensor
    /// reuses `buf`'s allocation when its capacity suffices. Packs the
    /// weight, then runs [`conv2d_packed_with_buf`](Self::conv2d_packed_with_buf).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`conv2d`](Self::conv2d).
    pub fn conv2d_with_buf(
        &self,
        weight: &Tensor<T>,
        bias: Option<&Tensor<T>>,
        params: Conv2dParams,
        cfg: &KernelConfig,
        buf: Vec<T>,
    ) -> Result<Tensor<T>> {
        let geo = self.conv2d_check(weight, bias, params)?;
        let packed = PackedLhs::from_row_major(weight.data(), geo.c_out, geo.patch);
        self.conv2d_packed_with_buf(weight, &packed, bias, params, cfg, buf)
    }

    /// [`conv2d_with_buf`](Self::conv2d_with_buf) with `weight` already
    /// packed as `packed` (`PackedLhs::from_row_major` of its
    /// `[c_out, c_in*kh*kw]` rows), so a weight used by many calls is packed
    /// once; `weight` itself only supplies the shape. Bit-identical to
    /// packing per call.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`conv2d`](Self::conv2d), plus an error
    /// when `packed` does not have `weight`'s shape.
    pub fn conv2d_packed_with_buf(
        &self,
        weight: &Tensor<T>,
        packed: &PackedLhs<T>,
        bias: Option<&Tensor<T>>,
        params: Conv2dParams,
        cfg: &KernelConfig,
        buf: Vec<T>,
    ) -> Result<Tensor<T>> {
        let geo = self.conv2d_check(weight, bias, params)?;
        let ConvGeometry {
            n,
            c_in,
            h,
            w,
            c_out,
            oh,
            ow,
            patch,
            ..
        } = geo;
        if (packed.m(), packed.k()) != (c_out, patch) {
            return Err(TensorError::InvalidArgument(format!(
                "conv2d: packed weight is {}x{}, weight is {c_out}x{patch}",
                packed.m(),
                packed.k()
            )));
        }
        let ohow = oh * ow;
        let mut out = buf;
        out.clear();
        out.resize(n * c_out * ohow, T::ZERO);
        if out.is_empty() {
            return Tensor::from_vec(out, &[n, c_out, oh, ow]);
        }
        // One panel set and one im2col-row scratch for the call: every
        // image overwrites every real lane, and padded lanes stay zero.
        let mut rhs = PackedRhs::zeroed(patch, ohow);
        let mut row = vec![T::ZERO; ohow];
        for (ni, image) in out.chunks_mut(c_out * ohow).enumerate() {
            let img = &self.data()[ni * c_in * h * w..(ni + 1) * c_in * h * w];
            im2col_packed(img, &geo, params, &mut rhs, &mut row);
            gemm_packed_into(cfg, packed, &rhs, image);
            if let Some(b) = bias {
                for (oc, row) in image.chunks_mut(ohow).enumerate() {
                    let bv = b.data()[oc];
                    for v in row {
                        *v += bv;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c_out, oh, ow])
    }

    /// Scalar-oracle 2-D convolution: the original gather-per-output
    /// triple loop, kept in-tree as the bit-exactness reference the
    /// im2col-backed [`Tensor::conv2d`] is differentially tested against.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Tensor::conv2d`].
    pub fn conv2d_reference(
        &self,
        weight: &Tensor<T>,
        bias: Option<&Tensor<T>>,
        params: Conv2dParams,
        cfg: &KernelConfig,
    ) -> Result<Tensor<T>> {
        let geo = self.conv2d_check(weight, bias, params)?;
        let ConvGeometry {
            n,
            c_in,
            h,
            w,
            c_out,
            kh,
            kw,
            oh,
            ow,
            patch,
        } = geo;
        let mut col = vec![T::ZERO; patch];
        let mut out = Vec::with_capacity(n * c_out * oh * ow);
        let pad = params.padding as isize;
        for ni in 0..n {
            for oc in 0..c_out {
                let wrow = &weight.data()[oc * patch..(oc + 1) * patch];
                for oy in 0..oh {
                    for ox in 0..ow {
                        // Gather the receptive field in canonical order,
                        // substituting zeros for padding.
                        let mut p = 0;
                        for ic in 0..c_in {
                            for ky in 0..kh {
                                let iy = (oy * params.stride + ky) as isize - pad;
                                for kx in 0..kw {
                                    let ix = (ox * params.stride + kx) as isize - pad;
                                    col[p] =
                                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize
                                        {
                                            T::ZERO
                                        } else {
                                            self.data()[((ni * c_in + ic) * h + iy as usize) * w
                                                + ix as usize]
                                        };
                                    p += 1;
                                }
                            }
                        }
                        let mut v = cfg.dot(&col, wrow);
                        if let Some(b) = bias {
                            v += b.data()[oc];
                        }
                        out.push(v);
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c_out, oh, ow])
    }

    /// Shape validation shared by both convolution kernels.
    fn conv2d_check(
        &self,
        weight: &Tensor<T>,
        bias: Option<&Tensor<T>>,
        params: Conv2dParams,
    ) -> Result<ConvGeometry> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                got: self.rank(),
                op: "conv2d",
            });
        }
        if weight.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                got: weight.rank(),
                op: "conv2d weight",
            });
        }
        let (n, c_in, h, w) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        let (c_out, wc_in, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        if wc_in != c_in {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: weight.dims().to_vec(),
                op: "conv2d channels",
            });
        }
        if let Some(b) = bias {
            if b.dims() != [c_out] {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![c_out],
                    rhs: b.dims().to_vec(),
                    op: "conv2d bias",
                });
            }
        }
        if params.stride == 0 {
            return Err(TensorError::InvalidArgument(
                "conv2d: stride must be at least 1, got 0".into(),
            ));
        }
        let oh = params.out_extent(h, kh).ok_or_else(|| {
            TensorError::InvalidArgument("conv2d: kernel taller than input".into())
        })?;
        let ow = params.out_extent(w, kw).ok_or_else(|| {
            TensorError::InvalidArgument("conv2d: kernel wider than input".into())
        })?;
        Ok(ConvGeometry {
            n,
            c_in,
            h,
            w,
            c_out,
            kh,
            kw,
            oh,
            ow,
            patch: c_in * kh * kw,
        })
    }
}

/// Gathers one `[c_in, h, w]` image's `[patch, oh*ow]` im2col matrix
/// into `rhs`'s panels, one row at a time through the `oh*ow`-long `row`
/// scratch: row `(ic*kh + ky)*kw + kx`, column `oy*ow + ox` holds input
/// `(ic, oy*stride + ky - pad, ox*stride + kx - pad)`, or zero in the
/// padding. Column `col` therefore lists the receptive field in the same
/// canonical (channel, row, column) order the oracle gathers.
///
/// The loops run over `ic/ky/kx/oy/ox` directly: the in-image `ox` range
/// of each row is computed once, so no per-element index division or
/// bounds test remains, and unit strides copy whole input rows.
fn im2col_packed<T: Element>(
    img: &[T],
    geo: &ConvGeometry,
    params: Conv2dParams,
    rhs: &mut PackedRhs<T>,
    row: &mut [T],
) {
    let (s, pad) = (params.stride, params.padding);
    let (h, w, ow) = (geo.h, geo.w, geo.ow);
    if h * w == 0 {
        // An empty image under padding: every receptive field is padding,
        // and the panels are already zero.
        return;
    }
    let mut kk = 0;
    for plane in img.chunks_exact(h * w) {
        for ky in 0..geo.kh {
            for kx in 0..geo.kw {
                // ix = ox*s + kx - pad lies in 0..w exactly for ox in lo..hi.
                let lo = pad.saturating_sub(kx).div_ceil(s).min(ow);
                let hi = (w + pad).saturating_sub(kx).div_ceil(s).clamp(lo, ow);
                if s == 1 && ow == w && lo < hi {
                    // Unit stride with output rows as wide as input rows:
                    // the in-image runs of rows oy0..oy1 are one shifted
                    // copy of the plane; re-zero the border columns after.
                    let oy0 = pad.saturating_sub(ky).min(geo.oh);
                    let oy1 = (h + pad).saturating_sub(ky).clamp(oy0, geo.oh);
                    row[..oy0 * ow].fill(T::ZERO);
                    row[oy1 * ow..].fill(T::ZERO);
                    if oy0 < oy1 {
                        let (start, end) = (oy0 * ow + lo, (oy1 - 1) * ow + hi);
                        let src = (oy0 + ky - pad) * w + lo + kx - pad;
                        row[start..end].copy_from_slice(&plane[src..src + (end - start)]);
                        for out in row[oy0 * ow..oy1 * ow].chunks_exact_mut(ow) {
                            out[..lo].fill(T::ZERO);
                            out[hi..].fill(T::ZERO);
                        }
                    }
                    rhs.put_row(kk, row);
                    kk += 1;
                    continue;
                }
                for (oy, out) in row.chunks_exact_mut(ow).enumerate() {
                    let iy = (oy * s + ky).wrapping_sub(pad);
                    if iy >= h {
                        out.fill(T::ZERO);
                        continue;
                    }
                    let src = &plane[iy * w..(iy + 1) * w];
                    out[..lo].fill(T::ZERO);
                    out[hi..].fill(T::ZERO);
                    if lo == hi {
                        continue;
                    }
                    let ix0 = lo * s + kx - pad;
                    if s == 1 {
                        out[lo..hi].copy_from_slice(&src[ix0..ix0 + (hi - lo)]);
                    } else {
                        for (j, slot) in out[lo..hi].iter_mut().enumerate() {
                            *slot = src[ix0 + j * s];
                        }
                    }
                }
                rhs.put_row(kk, row);
                kk += 1;
            }
        }
    }
}

/// Validated shape data shared by the blocked and oracle convolutions.
struct ConvGeometry {
    n: usize,
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    patch: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> KernelConfig {
        KernelConfig::reference()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let x = Tensor::<f32>::arange(16).reshape(&[1, 1, 4, 4]).unwrap();
        let w = Tensor::<f32>::ones(&[1, 1, 1, 1]);
        let y = x.conv2d(&w, None, Conv2dParams::default(), &cfg()).unwrap();
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn box_filter_3x3() {
        let x = Tensor::<f32>::ones(&[1, 1, 3, 3]);
        let w = Tensor::<f32>::ones(&[1, 1, 3, 3]);
        let y = x.conv2d(&w, None, Conv2dParams::default(), &cfg()).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[9.0]);
    }

    #[test]
    fn padding_same_spatial_size() {
        let x = Tensor::<f32>::ones(&[1, 1, 4, 4]);
        let w = Tensor::<f32>::ones(&[1, 1, 3, 3]);
        let y = x
            .conv2d(
                &w,
                None,
                Conv2dParams {
                    stride: 1,
                    padding: 1,
                },
                &cfg(),
            )
            .unwrap();
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        // Corner sees a 2x2 window of ones.
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 4.0);
        // Center sees a full 3x3 window.
        assert_eq!(y.at(&[0, 0, 1, 1]).unwrap(), 9.0);
    }

    #[test]
    fn stride_downsamples() {
        let x = Tensor::<f32>::arange(16).reshape(&[1, 1, 4, 4]).unwrap();
        let w = Tensor::<f32>::ones(&[1, 1, 2, 2]);
        let y = x
            .conv2d(
                &w,
                None,
                Conv2dParams {
                    stride: 2,
                    padding: 0,
                },
                &cfg(),
            )
            .unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[10.0, 18.0, 42.0, 50.0]);
    }

    #[test]
    fn multi_channel_sums_channels() {
        let x = Tensor::<f32>::ones(&[1, 3, 2, 2]);
        let w = Tensor::<f32>::ones(&[2, 3, 2, 2]);
        let b = Tensor::<f32>::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let y = x
            .conv2d(&w, Some(&b), Conv2dParams::default(), &cfg())
            .unwrap();
        assert_eq!(y.dims(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[12.5, 11.5]);
    }

    #[test]
    fn batch_dimension_independent() {
        let x0 = Tensor::<f32>::ones(&[1, 1, 2, 2]);
        let x1 = Tensor::<f32>::full(&[1, 1, 2, 2], 2.0);
        let x = Tensor::cat(&[&x0, &x1], 0).unwrap();
        let w = Tensor::<f32>::ones(&[1, 1, 2, 2]);
        let y = x.conv2d(&w, None, Conv2dParams::default(), &cfg()).unwrap();
        assert_eq!(y.dims(), &[2, 1, 1, 1]);
        assert_eq!(y.data(), &[4.0, 8.0]);
    }

    #[test]
    fn im2col_bits_match_reference_oracle() {
        use crate::accum::AccumMode;
        let x = Tensor::<f32>::rand_uniform(&[2, 3, 7, 6], -2.0, 2.0, 21);
        let w = Tensor::<f32>::rand_uniform(&[4, 3, 3, 3], -0.5, 0.5, 22);
        let b = Tensor::<f32>::rand_uniform(&[4], -0.1, 0.1, 23);
        let params = Conv2dParams {
            stride: 2,
            padding: 1,
        };
        for accum in [
            AccumMode::Sequential,
            AccumMode::Pairwise,
            AccumMode::Blocked(8),
        ] {
            for fma in [false, true] {
                let c = KernelConfig {
                    accum,
                    fma,
                    ..cfg()
                };
                let fast = x.conv2d(&w, Some(&b), params, &c).unwrap();
                let slow = x.conv2d_reference(&w, Some(&b), params, &c).unwrap();
                assert_eq!(fast.dims(), slow.dims());
                let same = fast
                    .data()
                    .iter()
                    .zip(slow.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits());
                assert!(same, "{c:?}");
            }
        }
    }

    #[test]
    fn packed_weight_must_match_the_weight() {
        let x = Tensor::<f32>::ones(&[1, 2, 4, 4]);
        let w = Tensor::<f32>::ones(&[3, 2, 3, 3]);
        let params = Conv2dParams::default();
        let good = PackedLhs::from_row_major(w.data(), 3, 18);
        let packed = x.conv2d_packed_with_buf(&w, &good, None, params, &cfg(), Vec::new());
        assert_eq!(packed.unwrap(), x.conv2d(&w, None, params, &cfg()).unwrap());
        let bad = PackedLhs::from_row_major(&w.data()[..12], 2, 6);
        assert!(x
            .conv2d_packed_with_buf(&w, &bad, None, params, &cfg(), Vec::new())
            .is_err());
    }

    #[test]
    fn zero_stride_is_an_error_not_a_panic() {
        let x = Tensor::<f32>::ones(&[1, 1, 4, 4]);
        let w = Tensor::<f32>::ones(&[1, 1, 2, 2]);
        let params = Conv2dParams {
            stride: 0,
            padding: 0,
        };
        assert_eq!(params.out_extent(4, 2), None);
        for result in [
            x.conv2d(&w, None, params, &cfg()),
            x.conv2d_reference(&w, None, params, &cfg()),
        ] {
            match result {
                Err(TensorError::InvalidArgument(msg)) => assert!(msg.contains("stride"), "{msg}"),
                other => panic!("stride 0 gave {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let x = Tensor::<f32>::zeros(&[1, 2, 4, 4]);
        let w = Tensor::<f32>::zeros(&[1, 3, 3, 3]);
        assert!(x.conv2d(&w, None, Conv2dParams::default(), &cfg()).is_err());
        let v = Tensor::<f32>::zeros(&[4, 4]);
        assert!(v.conv2d(&w, None, Conv2dParams::default(), &cfg()).is_err());
        let w_big = Tensor::<f32>::zeros(&[1, 2, 5, 5]);
        assert!(x
            .conv2d(&w_big, None, Conv2dParams::default(), &cfg())
            .is_err());
    }
}
