//! Percentile computation and the committed percentile grid.

/// The paper's percentile grid `P = {0, 1, 5, 10, 15, …, 90, 95, 99, 100}`.
pub const PERCENTILE_GRID: [f64; 23] = [
    0.0, 1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0,
    75.0, 80.0, 85.0, 90.0, 95.0, 99.0, 100.0,
];

/// Index of a percentile value in [`PERCENTILE_GRID`], if present.
pub fn grid_index(p: f64) -> Option<usize> {
    PERCENTILE_GRID.iter().position(|&g| (g - p).abs() < 1e-9)
}

/// Linear-interpolation percentile of a sample (the NumPy default).
///
/// `p` is in `[0, 100]`. Returns `0` for an empty sample. Not-a-number
/// inputs are excluded, matching the paper's "exclude non-finite values"
/// convention.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    percentile_sorted(&v, p)
}

/// Percentile of an already-sorted, finite sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    interpolate(sorted.len(), p, |i| sorted[i])
}

/// The linear-interpolation arithmetic of [`percentile_sorted`] over `n`
/// sorted values read through `at`, so the float and the integer-key
/// sorts share one formula.
fn interpolate(n: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n == 1 {
        return at(0);
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = rank - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// Percentile-value vector over the committed grid.
///
/// Bit-identical to [`grid_profile_reference`]: the finite values are
/// sorted as `u64` keys ([`grid_profile_keys`]).
pub fn grid_profile(values: &[f64]) -> Vec<f64> {
    let mut keys = Vec::with_capacity(values.len());
    keys.extend(values.iter().filter(|x| x.is_finite()).map(|x| x.to_bits()));
    grid_profile_keys(&mut keys)
}

/// [`grid_profile`] over the `to_bits()` keys of the *finite* values of a
/// sample, in sample order; sorts `keys` in place.
///
/// Finite doubles with the sign bit clear order exactly like their bit
/// patterns, and equal values have equal bits, so an unstable `u64` sort
/// yields the bit-for-bit sequence the stable float sort does. Every
/// profiled error (`|x−y|`, `|x−y|/(|x|+eps)` with `eps ≥ 0`) is such a
/// value. A key with the sign bit set (a negative value or `-0.0`, which
/// the stable float sort keeps in input order next to `+0.0`) sends the
/// whole sample through [`grid_profile_reference`] instead.
pub fn grid_profile_keys(keys: &mut [u64]) -> Vec<f64> {
    if keys.iter().fold(0, |acc, &k| acc | k) >> 63 != 0 {
        let values: Vec<f64> = keys.iter().map(|&k| f64::from_bits(k)).collect();
        return grid_profile_reference(&values);
    }
    keys.sort_unstable();
    let keys = &*keys;
    PERCENTILE_GRID
        .iter()
        .map(|&p| interpolate(keys.len(), p, |i| f64::from_bits(keys[i])))
        .collect()
}

/// The seed body of [`grid_profile`]: a stable `partial_cmp` sort of the
/// finite values. The oracle the key sort is tested against, and the path
/// for samples holding a negative value or `-0.0`.
pub fn grid_profile_reference(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    PERCENTILE_GRID
        .iter()
        .map(|&p| percentile_sorted(&v, p))
        .collect()
}

/// Median of a sample (50th percentile; midpoint of central order
/// statistics for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_23_points_and_endpoints() {
        assert_eq!(PERCENTILE_GRID.len(), 23);
        assert_eq!(PERCENTILE_GRID[0], 0.0);
        assert_eq!(PERCENTILE_GRID[22], 100.0);
        assert_eq!(grid_index(50.0), Some(11));
        assert_eq!(grid_index(33.0), None);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 3.0);
        assert_eq!(percentile(&v, 50.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 25.0), 2.5);
        assert_eq!(percentile(&v, 75.0), 7.5);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
    }

    #[test]
    fn nan_excluded() {
        let v = [1.0, f64::NAN, 3.0];
        assert_eq!(percentile(&v, 100.0), 3.0);
        assert_eq!(median(&v), 2.0);
    }

    #[test]
    fn grid_profile_monotone() {
        let v: Vec<f64> = (0..100).map(|i| (i * 7 % 100) as f64).collect();
        let prof = grid_profile(&v);
        for w in prof.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(prof.len(), PERCENTILE_GRID.len());
    }

    #[test]
    fn median_even_is_midpoint() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
