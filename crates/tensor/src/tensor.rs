//! The dense, row-major [`Tensor`] type and structural operations.

use std::sync::Arc;

use crate::element::Element;
use crate::error::TensorError;
use crate::math::map_slice;
use crate::shape::{strided_gather, Shape};
use crate::Result;

use rand::Rng;
use rand::SeedableRng;

/// A dense row-major tensor over an [`Element`] scalar type.
///
/// Storage is always contiguous; structural transforms (transpose, permute,
/// slice, concatenate) materialize their results. This keeps every kernel's
/// memory-access order — and therefore its IEEE-754 rounding order — fully
/// explicit, which is a prerequisite for the bound templates in
/// `tao-bounds`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T: Element> {
    // Shared, copy-on-write storage: cloning a tensor is a refcount bump,
    // and structural reshapes share the buffer outright. Mutation goes
    // through `data_mut`, which unshares lazily (`Arc::make_mut`).
    data: Arc<Vec<T>>,
    shape: Shape,
}

impl<T: Element> Tensor<T> {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal the shape volume.
    pub fn from_vec(data: Vec<T>, shape: &[usize]) -> Result<Self> {
        let shape = Shape::new(shape);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                got: data.len(),
            });
        }
        Ok(Tensor {
            data: Arc::new(data),
            shape,
        })
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(v: T) -> Self {
        Tensor {
            data: Arc::new(vec![v]),
            shape: Shape::new(&[]),
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        Tensor {
            data: Arc::new(vec![T::ZERO; shape.volume()]),
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, T::ONE)
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: &[usize], v: T) -> Self {
        let shape = Shape::new(shape);
        Tensor {
            data: Arc::new(vec![v; shape.volume()]),
            shape,
        }
    }

    /// Creates the `n×n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![T::ZERO; n * n];
        for i in 0..n {
            data[i * n + i] = T::ONE;
        }
        Tensor {
            data: Arc::new(data),
            shape: Shape::new(&[n, n]),
        }
    }

    /// Creates `[0, 1, ..., n-1]` as a 1-D tensor.
    pub fn arange(n: usize) -> Self {
        let data = (0..n).map(|i| T::from_f64(i as f64)).collect();
        Tensor {
            data: Arc::new(data),
            shape: Shape::new(&[n]),
        }
    }

    /// Creates a tensor of standard-normal samples from a fixed seed.
    ///
    /// Uses a Box–Muller transform over a ChaCha8 stream so the draw is
    /// reproducible across platforms (no dependence on platform libm for the
    /// stream itself).
    pub fn randn(shape: &[usize], seed: u64) -> Self {
        let shape = Shape::new(shape);
        let n = shape.volume();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * core::f64::consts::PI * u2;
            data.push(T::from_f64(r * theta.cos()));
            if data.len() < n {
                data.push(T::from_f64(r * theta.sin()));
            }
        }
        Tensor {
            data: Arc::new(data),
            shape,
        }
    }

    /// Creates a tensor of uniform samples in `[lo, hi)` from a fixed seed.
    pub fn rand_uniform(shape: &[usize], lo: f64, hi: f64, seed: u64) -> Self {
        let shape = Shape::new(shape);
        let n = shape.volume();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let data = (0..n).map(|_| T::from_f64(rng.gen_range(lo..hi))).collect();
        Tensor {
            data: Arc::new(data),
            shape,
        }
    }

    /// Returns the underlying data slice.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Returns the underlying data slice mutably, unsharing the buffer
    /// first when it is referenced by other tensors (copy-on-write).
    pub fn data_mut(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its data vector only when no other
    /// tensor shares the buffer — the executor's pool-reclaim hook.
    pub fn into_unique_data(self) -> Option<Vec<T>> {
        Arc::try_unwrap(self.data).ok()
    }

    /// True when both tensors share one underlying buffer (an `Arc`-shared
    /// parameter or a structural reshape, never a deep copy).
    pub fn shares_buffer(&self, other: &Tensor<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Opaque identity of the underlying buffer, stable while the buffer
    /// lives (used by the executor's resident-set accounting).
    pub fn buffer_id(&self) -> usize {
        Arc::as_ptr(&self.data) as usize
    }

    /// Returns the shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index is out of range.
    pub fn at(&self, index: &[usize]) -> Result<T> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index is out of range.
    pub fn set(&mut self, index: &[usize], v: T) -> Result<()> {
        let off = self.shape.offset(index)?;
        Arc::make_mut(&mut self.data)[off] = v;
        Ok(())
    }

    /// Converts every element through `f64` into another element type.
    pub fn cast<U: Element>(&self) -> Tensor<U> {
        Tensor {
            data: Arc::new(self.data.iter().map(|&x| U::from_f64(x.to_f64())).collect()),
            shape: self.shape.clone(),
        }
    }

    /// Applies a unary function to every element, yielding a new tensor.
    ///
    /// The loop runs through the crate's ISA-dispatched `map_slice`, so on
    /// hosts with AVX2 and FMA the transcendental kernels inside `f` use
    /// the hardware instructions in place of libm calls, with
    /// bit-identical results.
    pub fn map(&self, f: impl Fn(T) -> T) -> Tensor<T> {
        self.map_with_buf(Vec::new(), f)
    }

    /// [`map`](Self::map) into a recycled buffer: identical output, but the
    /// result reuses `buf`'s allocation when its capacity suffices.
    pub fn map_with_buf(&self, mut buf: Vec<T>, f: impl Fn(T) -> T) -> Tensor<T> {
        buf.clear();
        buf.resize(self.len(), T::ZERO);
        map_slice(&self.data, &mut buf, f);
        Tensor {
            data: Arc::new(buf),
            shape: self.shape.clone(),
        }
    }

    /// Reshapes to a new shape of the same volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor<T>> {
        let new_shape = Shape::new(shape);
        if new_shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: new_shape.volume(),
                got: self.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: new_shape,
        })
    }

    /// Flattens to 1-D.
    pub fn flatten(&self) -> Tensor<T> {
        Tensor {
            data: self.data.clone(),
            shape: Shape::new(&[self.len()]),
        }
    }

    /// Swaps two axes, materializing the result.
    ///
    /// # Errors
    ///
    /// Returns an error if either axis is out of range.
    pub fn transpose(&self, a: usize, b: usize) -> Result<Tensor<T>> {
        let rank = self.rank();
        if a >= rank || b >= rank {
            return Err(TensorError::AxisOutOfRange {
                axis: a.max(b),
                rank,
            });
        }
        let mut perm: Vec<usize> = (0..rank).collect();
        perm.swap(a, b);
        self.permute(&perm)
    }

    /// Permutes axes according to `perm`, materializing the result.
    ///
    /// # Errors
    ///
    /// Returns an error if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor<T>> {
        let rank = self.rank();
        if perm.len() != rank {
            return Err(TensorError::RankMismatch {
                expected: rank,
                got: perm.len(),
                op: "permute",
            });
        }
        let mut seen = vec![false; rank];
        for &p in perm {
            if p >= rank || seen[p] {
                return Err(TensorError::InvalidArgument(format!(
                    "permute: {perm:?} is not a permutation of 0..{rank}"
                )));
            }
            seen[p] = true;
        }
        let out_dims: Vec<usize> = perm.iter().map(|&p| self.shape.0[p]).collect();
        let in_strides = self.shape.strides();
        let strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let mut out = Vec::new();
        strided_gather(&self.data, 0, &out_dims, &strides, &mut out);
        Ok(Tensor {
            data: Arc::new(out),
            shape: Shape(out_dims),
        })
    }

    /// Slices `[start, end)` along an axis, materializing the result.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range axis or slice bounds.
    pub fn slice(&self, axis: usize, start: usize, end: usize) -> Result<Tensor<T>> {
        let extent = self.shape.dim(axis)?;
        if start > end || end > extent {
            return Err(TensorError::InvalidArgument(format!(
                "slice: bounds [{start}, {end}) invalid for extent {extent}"
            )));
        }
        let mut out_dims = self.shape.0.clone();
        out_dims[axis] = end - start;
        let in_strides = self.shape.strides();
        let mut out = Vec::new();
        strided_gather(
            &self.data,
            start * in_strides[axis],
            &out_dims,
            &in_strides,
            &mut out,
        );
        Ok(Tensor {
            data: Arc::new(out),
            shape: Shape(out_dims),
        })
    }

    /// Narrow view returning the `i`-th length-1 slice along `axis`, with
    /// the axis removed (like `select` in PyTorch).
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range axis or index.
    pub fn select(&self, axis: usize, i: usize) -> Result<Tensor<T>> {
        let sliced = self.slice(axis, i, i + 1)?;
        let mut dims = sliced.shape.0.clone();
        dims.remove(axis);
        sliced.reshape(&dims)
    }

    /// Concatenates tensors along an axis, materializing the result.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty or shapes disagree off-axis.
    pub fn cat(tensors: &[&Tensor<T>], axis: usize) -> Result<Tensor<T>> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("cat: empty tensor list".into()))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut total = 0;
        for t in tensors {
            if t.rank() != rank {
                return Err(TensorError::RankMismatch {
                    expected: rank,
                    got: t.rank(),
                    op: "cat",
                });
            }
            for a in 0..rank {
                if a != axis && t.shape.0[a] != first.shape.0[a] {
                    return Err(TensorError::ShapeMismatch {
                        lhs: first.shape.0.clone(),
                        rhs: t.shape.0.clone(),
                        op: "cat",
                    });
                }
            }
            total += t.shape.0[axis];
        }
        let mut out_dims = first.shape.0.clone();
        out_dims[axis] = total;
        let out_shape = Shape::new(&out_dims);
        let outer: usize = first.shape.0[..axis].iter().product();
        let inner: usize = first.shape.0[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(out_shape.volume());
        for o in 0..outer {
            for t in tensors {
                let ax = t.shape.0[axis];
                let base = o * ax * inner;
                out.extend_from_slice(&t.data[base..base + ax * inner]);
            }
        }
        Ok(Tensor {
            data: Arc::new(out),
            shape: out_shape,
        })
    }

    /// Stacks tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty or shapes disagree.
    pub fn stack(tensors: &[&Tensor<T>]) -> Result<Tensor<T>> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("stack: empty tensor list".into()))?;
        let mut out = Vec::with_capacity(first.len() * tensors.len());
        for t in tensors {
            if t.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.0.clone(),
                    rhs: t.shape.0.clone(),
                    op: "stack",
                });
            }
            out.extend_from_slice(&t.data);
        }
        let mut dims = vec![tensors.len()];
        dims.extend_from_slice(&first.shape.0);
        Ok(Tensor {
            data: Arc::new(out),
            shape: Shape::new(&dims),
        })
    }

    /// Gathers rows of `self` (treated as `[n, ...]`) by index along axis 0.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors or out-of-range indices.
    pub fn index_select0(&self, indices: &[usize]) -> Result<Tensor<T>> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                got: 0,
                op: "index_select0",
            });
        }
        let n = self.shape.0[0];
        let row: usize = self.shape.0[1..].iter().product();
        let mut out = Vec::with_capacity(indices.len() * row);
        for &i in indices {
            if i >= n {
                return Err(TensorError::IndexOutOfRange {
                    index: i,
                    extent: n,
                });
            }
            out.extend_from_slice(&self.data[i * row..(i + 1) * row]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.shape.0[1..]);
        Ok(Tensor {
            data: Arc::new(out),
            shape: Shape::new(&dims),
        })
    }

    /// Broadcasts this tensor to a target shape, materializing the result.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if not broadcastable.
    pub fn broadcast_to(&self, target: &Shape) -> Result<Tensor<T>> {
        if !self.shape.broadcastable_to(target) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.0.clone(),
                rhs: target.0.clone(),
                op: "broadcast_to",
            });
        }
        if &self.shape == target {
            return Ok(self.clone());
        }
        // Padded leading axes and size-1 axes broadcast with stride 0.
        let pad = target.rank() - self.rank();
        let mut strides = vec![0usize; target.rank()];
        for ((slot, stride), &d) in strides[pad..]
            .iter_mut()
            .zip(self.shape.strides())
            .zip(&self.shape.0)
        {
            *slot = if d == 1 { 0 } else { stride };
        }
        let mut out = Vec::new();
        strided_gather(&self.data, 0, &target.0, &strides, &mut out);
        Ok(Tensor {
            data: Arc::new(out),
            shape: target.clone(),
        })
    }

    /// Maximum element and its flat index; `None` for empty tensors.
    pub fn argmax(&self) -> Option<(usize, T)> {
        let mut best: Option<(usize, T)> = None;
        for (i, &v) in self.data.iter().enumerate() {
            match best {
                None => best = Some((i, v)),
                Some((_, bv)) if v > bv => best = Some((i, v)),
                _ => {}
            }
        }
        best
    }

    /// Largest absolute element (`0` for empty tensors).
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .fold(0.0f64, |m, &x| m.max(x.to_f64().abs()))
    }

    /// Returns true if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::<f32>::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::<f32>::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::<f32>::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::<f32>::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::<f32>::full(&[2], 7.0).data(), &[7.0, 7.0]);
        assert_eq!(Tensor::<f32>::eye(2).data(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(Tensor::<f32>::arange(3).data(), &[0.0, 1.0, 2.0]);
        assert_eq!(Tensor::<f32>::scalar(5.0).rank(), 0);
    }

    #[test]
    fn randn_is_seeded_and_plausible() {
        let a = Tensor::<f32>::randn(&[1000], 42);
        let b = Tensor::<f32>::randn(&[1000], 42);
        let c = Tensor::<f32>::randn(&[1000], 43);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
        let mean: f64 = a.data().iter().map(|&x| x as f64).sum::<f64>() / 1000.0;
        assert!(mean.abs() < 0.2, "mean {mean}");
        let var: f64 = a
            .data()
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / 1000.0;
        assert!((var - 1.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn rand_uniform_in_range() {
        let t = Tensor::<f32>::rand_uniform(&[100], -2.0, 3.0, 7);
        assert!(t.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn at_and_set() {
        let mut t = Tensor::<f32>::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 9.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_and_flatten() {
        let t = Tensor::<f32>::arange(6).reshape(&[2, 3]).unwrap();
        assert_eq!(t.dims(), &[2, 3]);
        assert!(t.reshape(&[4]).is_err());
        assert_eq!(t.flatten().dims(), &[6]);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::<f32>::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose(0, 1).unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::<f32>::arange(24).reshape(&[2, 3, 4]).unwrap();
        let p = t.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]).unwrap(), t.at(&[0, 2, 1]).unwrap());
        assert!(t.permute(&[0, 0, 1]).is_err());
        assert!(t.permute(&[0, 1]).is_err());
    }

    #[test]
    fn slice_and_select() {
        let t = Tensor::<f32>::arange(12).reshape(&[3, 4]).unwrap();
        let s = t.slice(0, 1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 4]);
        assert_eq!(s.at(&[0, 0]).unwrap(), 4.0);
        let r = t.select(0, 2).unwrap();
        assert_eq!(r.dims(), &[4]);
        assert_eq!(r.data(), &[8.0, 9.0, 10.0, 11.0]);
        assert!(t.slice(0, 2, 5).is_err());
        assert!(t.slice(0, 3, 2).is_err());
    }

    #[test]
    fn cat_along_axes() {
        let a = Tensor::<f32>::ones(&[2, 2]);
        let b = Tensor::<f32>::zeros(&[2, 2]);
        let c0 = Tensor::cat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.dims(), &[4, 2]);
        let c1 = Tensor::cat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.dims(), &[2, 4]);
        assert_eq!(c1.data(), &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        let bad = Tensor::<f32>::zeros(&[3, 3]);
        assert!(Tensor::cat(&[&a, &bad], 0).is_err());
        assert!(Tensor::<f32>::cat(&[], 0).is_err());
    }

    #[test]
    fn stack_adds_axis() {
        let a = Tensor::<f32>::ones(&[2]);
        let b = Tensor::<f32>::zeros(&[2]);
        let s = Tensor::stack(&[&a, &b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn index_select0_gathers_rows() {
        let t = Tensor::<f32>::arange(6).reshape(&[3, 2]).unwrap();
        let g = t.index_select0(&[2, 0]).unwrap();
        assert_eq!(g.dims(), &[2, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert!(t.index_select0(&[3]).is_err());
    }

    #[test]
    fn broadcast_to_materializes() {
        let t = Tensor::<f32>::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let b = t.broadcast_to(&Shape::new(&[2, 3])).unwrap();
        assert_eq!(b.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        let v = Tensor::<f32>::from_vec(vec![5.0], &[1]).unwrap();
        let bv = v.broadcast_to(&Shape::new(&[2, 2])).unwrap();
        assert_eq!(bv.data(), &[5.0; 4]);
        assert!(Tensor::<f32>::zeros(&[3])
            .broadcast_to(&Shape::new(&[2]))
            .is_err());
    }

    #[test]
    fn argmax_and_max_abs() {
        let t = Tensor::<f32>::from_vec(vec![1.0, -5.0, 3.0], &[3]).unwrap();
        assert_eq!(t.argmax().unwrap().0, 2);
        assert_eq!(t.max_abs(), 5.0);
        assert!(Tensor::<f32>::zeros(&[0]).argmax().is_none());
    }

    #[test]
    fn cast_roundtrip() {
        let t = Tensor::<f32>::from_vec(vec![1.5, -2.25], &[2]).unwrap();
        let d: Tensor<f64> = t.cast();
        assert_eq!(d.data(), &[1.5, -2.25]);
        let back: Tensor<f32> = d.cast();
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::<f32>::ones(&[3]);
        assert!(t.all_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.all_finite());
    }
}
