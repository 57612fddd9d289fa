//! Reductions along axes with pluggable accumulation order.
//!
//! [`Tensor::sum_axis`] and friends materialize each lane along the
//! reduced axis contiguously and reduce it under the tensor's
//! accumulation order; whole-tensor reductions ([`Tensor::sum_all`]) are a
//! single ordered chain.

use crate::accum::KernelConfig;
use crate::element::Element;
use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

impl<T: Element> Tensor<T> {
    /// Sums all elements under the given accumulation order.
    pub fn sum_all(&self, cfg: &KernelConfig) -> T {
        cfg.sum(self.data())
    }

    /// Mean of all elements under the given accumulation order.
    pub fn mean_all(&self, cfg: &KernelConfig) -> T {
        if self.is_empty() {
            return T::ZERO;
        }
        cfg.sum(self.data()) / T::from_f64(self.len() as f64)
    }

    /// Sums along `axis`, removing it.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range axis.
    pub fn sum_axis(&self, axis: usize, cfg: &KernelConfig) -> Result<Tensor<T>> {
        self.reduce_axis(axis, |lane| cfg.sum(lane))
    }

    /// Means along `axis`, removing it.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range axis.
    pub fn mean_axis(&self, axis: usize, cfg: &KernelConfig) -> Result<Tensor<T>> {
        let n = T::from_f64(self.shape().dim(axis)? as f64);
        self.reduce_axis(axis, |lane| cfg.sum(lane) / n)
    }

    /// Maximum along `axis`, removing it.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range axis.
    pub fn max_axis(&self, axis: usize) -> Result<Tensor<T>> {
        self.reduce_axis(axis, |lane| {
            lane.iter().copied().fold(lane[0], |m, x| m.maximum(x))
        })
    }

    /// Applies `f` to every lane along `axis`, producing a tensor with the
    /// axis removed. The lane is materialized contiguously so `f` sees the
    /// elements in canonical axis order (this fixes the reduction order that
    /// the accumulation mode then permutes *internally*).
    fn reduce_axis(&self, axis: usize, f: impl Fn(&[T]) -> T) -> Result<Tensor<T>> {
        let extent = self.shape().dim(axis)?;
        if extent == 0 {
            return Err(TensorError::InvalidArgument(
                "reduce over empty axis".into(),
            ));
        }
        let mut out_dims = self.dims().to_vec();
        out_dims.remove(axis);
        let out_shape = Shape::new(&out_dims);
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut out = vec![T::ZERO; out_shape.volume()];
        let mut lane = vec![T::ZERO; extent];
        for (pos, slot) in out.iter_mut().enumerate() {
            // Output position -> (outer, inner) coordinates.
            let (o, i) = (pos / inner.max(1), pos % inner.max(1));
            for (k, l) in lane.iter_mut().enumerate() {
                *l = self.data()[o * extent * inner + k * inner + i];
            }
            *slot = f(&lane);
        }
        Tensor::from_vec(out, &out_dims)
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
    fn sum_all_matches_iter() {
        let t = Tensor::<f32>::arange(10);
        assert_eq!(t.sum_all(&cfg()), 45.0);
        assert_eq!(t.mean_all(&cfg()), 4.5);
    }

    #[test]
    fn sum_axis_rows_and_cols() {
        let t = Tensor::<f32>::arange(6).reshape(&[2, 3]).unwrap();
        let rows = t.sum_axis(1, &cfg()).unwrap();
        assert_eq!(rows.dims(), &[2]);
        assert_eq!(rows.data(), &[3.0, 12.0]);
        let cols = t.sum_axis(0, &cfg()).unwrap();
        assert_eq!(cols.data(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn mean_axis_values() {
        let t = Tensor::<f32>::arange(6).reshape(&[2, 3]).unwrap();
        let m = t.mean_axis(1, &cfg()).unwrap();
        assert_eq!(m.data(), &[1.0, 4.0]);
    }

    #[test]
    fn max_axis_values() {
        let t = Tensor::<f32>::from_vec(vec![3.0, 1.0, 2.0, -1.0, 5.0, 0.0], &[2, 3]).unwrap();
        assert_eq!(t.max_axis(1).unwrap().data(), &[3.0, 5.0]);
        assert_eq!(t.max_axis(0).unwrap().data(), &[3.0, 5.0, 2.0]);
    }

    #[test]
    fn axis_out_of_range_errors() {
        let t = Tensor::<f32>::zeros(&[2, 2]);
        assert!(t.sum_axis(2, &cfg()).is_err());
    }

    #[test]
    fn middle_axis_reduction() {
        let t = Tensor::<f32>::arange(24).reshape(&[2, 3, 4]).unwrap();
        let s = t.sum_axis(1, &cfg()).unwrap();
        assert_eq!(s.dims(), &[2, 4]);
        // Element [0,0] = t[0,0,0] + t[0,1,0] + t[0,2,0] = 0 + 4 + 8.
        assert_eq!(s.at(&[0, 0]).unwrap(), 12.0);
        assert_eq!(s.at(&[1, 3]).unwrap(), (15 + 19 + 23) as f32);
    }

    #[test]
    fn accumulation_order_changes_sum_bits() {
        // Ill-conditioned data: different orders round differently.
        let t = Tensor::<f32>::rand_uniform(&[4096], -1e4, 1e4, 11);
        let seq = t.sum_all(&KernelConfig {
            accum: AccumMode::Sequential,
            ..cfg()
        });
        let pair = t.sum_all(&KernelConfig {
            accum: AccumMode::Pairwise,
            ..cfg()
        });
        assert_ne!(seq.to_bits(), pair.to_bits());
    }
}
