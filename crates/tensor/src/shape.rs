//! Shape arithmetic: volumes, row-major strides, broadcasting, index math.

use crate::error::TensorError;
use crate::Result;

/// A tensor shape (dimension extents, row-major).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.0
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or any coordinate is out of range.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                expected: self.rank(),
                got: index.len(),
                op: "offset",
            });
        }
        let strides = self.strides();
        let mut off = 0;
        for (axis, (&i, &d)) in index.iter().zip(self.0.iter()).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfRange {
                    index: i,
                    extent: d,
                });
            }
            off += i * strides[axis];
        }
        Ok(off)
    }

    /// Multi-index of a flat row-major offset.
    pub fn unravel(&self, mut flat: usize) -> Vec<usize> {
        let mut idx = vec![0usize; self.rank()];
        for axis in (0..self.rank()).rev() {
            let d = self.0[axis].max(1);
            idx[axis] = flat % d;
            flat /= d;
        }
        idx
    }

    /// Broadcasts two shapes following NumPy/PyTorch semantics.
    ///
    /// Trailing dimensions are aligned; each pair must be equal or one of
    /// them must be `1`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes are not
    /// broadcast-compatible.
    pub fn broadcast(&self, other: &Shape) -> Result<Shape> {
        let rank = self.rank().max(other.rank());
        let mut out = vec![0usize; rank];
        for (i, slot) in out.iter_mut().enumerate() {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.0[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.0[i - (rank - other.rank())]
            };
            *slot = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return Err(TensorError::ShapeMismatch {
                    lhs: self.0.clone(),
                    rhs: other.0.clone(),
                    op: "broadcast",
                });
            };
        }
        Ok(Shape(out))
    }

    /// Returns true if `self` can broadcast *to* `target` (not merely with).
    pub fn broadcastable_to(&self, target: &Shape) -> bool {
        if self.rank() > target.rank() {
            return false;
        }
        let pad = target.rank() - self.rank();
        self.0
            .iter()
            .enumerate()
            .all(|(i, &d)| d == target.0[i + pad] || d == 1)
    }

    /// Dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

/// Appends to `out` the strided view of `src` whose element at multi-index
/// `idx` of `dims` is `src[base + Σ idx[a] * strides[a]]`, in row-major
/// order of `dims`.
///
/// This is the one gather behind the layout ops: `permute` passes permuted
/// strides, `slice` an offset `base`, and `broadcast_to` zero strides on
/// broadcast axes. Unit axes are dropped and axes that are contiguous in
/// `src` are merged first, so the innermost run is as long as possible; a
/// single odometer over the outer axes then copies each run with
/// `extend_from_slice` (unit stride), a fill (zero stride) or a strided
/// loop. It only moves elements, so the output is the same as indexing
/// `src` element by element.
///
/// # Panics
///
/// Panics if `dims` and `strides` differ in length or if any addressed
/// element lies outside `src`.
pub(crate) fn strided_gather<T: Copy>(
    src: &[T],
    base: usize,
    dims: &[usize],
    strides: &[usize],
    out: &mut Vec<T>,
) {
    assert_eq!(dims.len(), strides.len(), "strided_gather: rank mismatch");
    let total: usize = dims.iter().product();
    if total == 0 {
        return;
    }
    out.reserve(total);
    // (extent, stride) per axis after dropping unit axes and merging each
    // axis into its outer neighbour when the pair is contiguous in `src`.
    let mut axes: Vec<(usize, usize)> = Vec::with_capacity(dims.len());
    for (&d, &s) in dims.iter().zip(strides) {
        if d == 1 {
            continue;
        }
        match axes.last_mut() {
            Some(outer) if outer.1 == s * d => *outer = (outer.0 * d, s),
            _ => axes.push((d, s)),
        }
    }
    let (run, step) = axes.pop().unwrap_or((1, 1));
    let mut idx = vec![0usize; axes.len()];
    let mut off = base;
    loop {
        match step {
            1 => out.extend_from_slice(&src[off..off + run]),
            0 => out.resize(out.len() + run, src[off]),
            _ => out.extend(
                src[off..=off + (run - 1) * step]
                    .iter()
                    .step_by(step)
                    .copied(),
            ),
        }
        // Odometer over the outer axes, tracking the source offset.
        let mut a = axes.len();
        loop {
            if a == 0 {
                return;
            }
            a -= 1;
            let (extent, stride) = axes[a];
            idx[a] += 1;
            off += stride;
            if idx[a] < extent {
                break;
            }
            idx[a] = 0;
            off -= stride * extent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        for flat in 0..s.volume() {
            let idx = s.unravel(flat);
            assert_eq!(s.offset(&idx).unwrap(), flat);
        }
    }

    #[test]
    fn offset_rejects_out_of_range() {
        let s = Shape::new(&[2, 2]);
        assert!(matches!(
            s.offset(&[0, 2]),
            Err(TensorError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            s.offset(&[0]),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new(&[3, 1]);
        let b = Shape::new(&[1, 4]);
        assert_eq!(a.broadcast(&b).unwrap(), Shape::new(&[3, 4]));
        let c = Shape::new(&[2, 3, 4]);
        let d = Shape::new(&[4]);
        assert_eq!(c.broadcast(&d).unwrap(), Shape::new(&[2, 3, 4]));
        let e = Shape::new(&[2]);
        assert!(c.broadcast(&e).is_err());
    }

    #[test]
    fn broadcastable_to_checks_direction() {
        assert!(Shape::new(&[1, 4]).broadcastable_to(&Shape::new(&[3, 4])));
        assert!(!Shape::new(&[3, 4]).broadcastable_to(&Shape::new(&[1, 4])));
        assert!(Shape::new(&[4]).broadcastable_to(&Shape::new(&[2, 3, 4])));
    }

    #[test]
    fn strided_gather_rank0_copies_the_base_element() {
        let mut out = vec![9.0f32];
        strided_gather(&[1.0f32, 2.0, 3.0], 2, &[], &[], &mut out);
        assert_eq!(out, vec![9.0, 3.0]);
    }

    #[test]
    fn strided_gather_empty_shape_appends_nothing() {
        for dims in [[0usize, 3], [3, 0]] {
            let mut out = vec![7.0f32];
            strided_gather(&[1.0f32; 6], 0, &dims, &[1, 2], &mut out);
            assert_eq!(out, vec![7.0]);
        }
    }

    #[test]
    fn strided_gather_matches_per_element_indexing() {
        let src: Vec<u32> = (0..60).collect();
        // Transposed, broadcast (zero stride), unit-axis and offset views.
        let cases: [(usize, &[usize], &[usize]); 4] = [
            (0, &[5, 3, 4], &[1, 20, 5]),
            (0, &[2, 3, 4], &[0, 4, 1]),
            (7, &[1, 3, 1, 4], &[60, 12, 60, 2]),
            (12, &[2, 2, 6], &[24, 6, 1]),
        ];
        for (base, dims, strides) in cases {
            let mut out = Vec::new();
            strided_gather(&src, base, dims, strides, &mut out);
            let shape = Shape::new(dims);
            let naive: Vec<u32> = (0..shape.volume())
                .map(|flat| {
                    let idx = shape.unravel(flat);
                    src[base + idx.iter().zip(strides).map(|(i, s)| i * s).sum::<usize>()]
                })
                .collect();
            assert_eq!(out, naive, "dims {dims:?} strides {strides:?}");
        }
    }
}
