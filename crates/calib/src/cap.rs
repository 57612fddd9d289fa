//! The nondecreasing cap curve `C_i : [0,1] → R≥0` (Eq. 8) used by the
//! empirical feasible set and its order-statistics projection.

use std::cmp::Ordering;

use crate::percentile::PERCENTILE_GRID;
use crate::profile::PercentilePair;

/// Piecewise-linear nondecreasing cap curve through `(0, 0)`, the committed
/// `(p_k, τ_abs(p_k))` pairs, and `(1, τ_abs(1))`.
#[derive(Debug, Clone, PartialEq)]
pub struct CapCurve {
    // Knots (rank in [0,1], cap), strictly increasing in rank and
    // nondecreasing in cap.
    knots: Vec<(f64, f64)>,
}

impl CapCurve {
    /// Builds the curve from committed absolute thresholds on the grid.
    pub fn from_thresholds(thresholds: &PercentilePair) -> Self {
        let mut knots = vec![(0.0f64, 0.0f64)];
        let mut prev_cap = 0.0f64;
        for (&p, &tau) in PERCENTILE_GRID.iter().zip(&thresholds.abs) {
            let rank = p / 100.0;
            // Enforce monotonicity: caps never decrease with rank.
            prev_cap = prev_cap.max(tau);
            if rank > 0.0 {
                knots.push((rank, prev_cap));
            }
        }
        if knots.last().map(|&(r, _)| r < 1.0).unwrap_or(true) {
            knots.push((1.0, prev_cap));
        }
        CapCurve { knots }
    }

    /// Cap value at rank `r ∈ [0, 1]` (clamped).
    pub fn at(&self, r: f64) -> f64 {
        let r = r.clamp(0.0, 1.0);
        let mut prev = self.knots[0];
        for &(kr, kc) in &self.knots[1..] {
            if r <= kr {
                let span = kr - prev.0;
                if span <= 0.0 {
                    return kc;
                }
                let frac = (r - prev.0) / span;
                return prev.1 + frac * (kc - prev.1);
            }
            prev = (kr, kc);
        }
        prev.1
    }

    /// True when the sorted magnitudes `|Δ|` lie under the curve at every
    /// order-statistic rank `r_k = (k − ½)/n` — membership in the
    /// empirical feasible set `F^emp` (Eq. 8). A NaN magnitude lies under
    /// no curve, so it is never admitted.
    pub fn admits(&self, magnitudes: &[f64]) -> bool {
        let n = magnitudes.len();
        if n == 0 {
            return true;
        }
        if magnitudes.iter().any(|m| m.is_nan()) {
            return false;
        }
        let mut sorted: Vec<f64> = magnitudes.iter().map(|m| m.abs()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        sorted.iter().enumerate().all(|(k, &m)| {
            let r = (k as f64 + 0.5) / n as f64;
            m <= self.at(r) + f64::EPSILON
        })
    }

    /// Projects a perturbation onto the feasible set by clipping order
    /// statistics against the caps and restoring sign and position
    /// (Eq. 12). Returns the projected values; a NaN entry projects to
    /// `0.0`.
    pub fn project(&self, values: &[f32]) -> Vec<f32> {
        let n = values.len();
        if n == 0 {
            return Vec::new();
        }
        // Sort indices by |value| ascending. `abs()` clears the sign bit,
        // so no `-0.0` tie can reorder: on these keys `total_cmp` agrees
        // with `partial_cmp` for every non-NaN pair, and NaNs sort last.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| values[i].abs().total_cmp(&values[j].abs()));
        let mut out = vec![0.0f32; n];
        let mut prev_cap = 0.0f64;
        for (k, &idx) in order.iter().enumerate() {
            // A NaN stays 0.0: `f64::min` would pick the cap for it and
            // `signum` would turn that back into NaN.
            if values[idx].is_nan() {
                continue;
            }
            let r = (k as f64 + 0.5) / n as f64;
            // Monotone caps.
            prev_cap = prev_cap.max(self.at(r));
            let mag = (values[idx].abs() as f64).min(prev_cap);
            let mut m32 = mag as f32;
            // Casting can round up past the cap; step down one ULP if so.
            if (m32 as f64) > prev_cap {
                m32 = f32::from_bits(m32.to_bits().saturating_sub(1));
            }
            out[idx] = m32 * values[idx].signum();
        }
        out
    }

    /// Largest cap (the `p = 100` threshold).
    pub fn max_cap(&self) -> f64 {
        self.knots.last().map(|&(_, c)| c).unwrap_or(0.0)
    }

    /// Returns a scaled copy (diagnostic `α` scaling).
    pub fn scaled(&self, alpha: f64) -> CapCurve {
        CapCurve {
            knots: self.knots.iter().map(|&(r, c)| (r, c * alpha)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_thresholds() -> PercentilePair {
        // τ_abs rises linearly with the percentile.
        let abs: Vec<f64> = PERCENTILE_GRID.iter().map(|&p| p * 1e-8).collect();
        PercentilePair {
            abs,
            rel: vec![0.0; PERCENTILE_GRID.len()],
        }
    }

    #[test]
    fn curve_interpolates_and_clamps() {
        let c = CapCurve::from_thresholds(&linear_thresholds());
        assert_eq!(c.at(0.0), 0.0);
        assert!((c.at(1.0) - 1e-6).abs() < 1e-12);
        assert!((c.at(0.5) - 0.5e-6).abs() < 1e-9);
        assert_eq!(c.at(-1.0), 0.0);
        assert_eq!(c.at(2.0), c.at(1.0));
    }

    #[test]
    fn admits_rejects_nan_magnitudes() {
        let c = CapCurve::from_thresholds(&linear_thresholds());
        let small = [1e-9, 2e-9, 0.0];
        assert!(c.admits(&small));
        for nan in [f64::NAN, -f64::NAN] {
            let mut with_nan = small.to_vec();
            with_nan.insert(1, nan);
            assert!(!c.admits(&with_nan));
        }
        assert!(!c.admits(&[f64::NAN]));
    }

    #[test]
    fn monotone_even_if_thresholds_dip() {
        let mut t = linear_thresholds();
        t.abs[10] = 0.0; // Artificial dip.
        let c = CapCurve::from_thresholds(&t);
        let mut prev = 0.0;
        for i in 0..=100 {
            let v = c.at(i as f64 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn admits_small_rejects_large() {
        let c = CapCurve::from_thresholds(&linear_thresholds());
        let small = vec![1e-9; 16];
        assert!(c.admits(&small));
        let large = vec![1e-5; 16];
        assert!(!c.admits(&large));
        assert!(c.admits(&[]));
    }

    #[test]
    fn projection_lands_in_feasible_set() {
        let c = CapCurve::from_thresholds(&linear_thresholds());
        let raw: Vec<f32> = (0..64)
            .map(|i| (if i % 2 == 0 { 1.0 } else { -1.0 }) * 1e-5 * (1.0 + i as f32))
            .collect();
        let proj = c.project(&raw);
        let mags: Vec<f64> = proj.iter().map(|&v| v.abs() as f64).collect();
        assert!(c.admits(&mags));
        // Signs are preserved.
        for (r, p) in raw.iter().zip(&proj) {
            assert!(r.signum() == p.signum() || *p == 0.0);
        }
    }

    #[test]
    fn projection_is_identity_inside() {
        let c = CapCurve::from_thresholds(&linear_thresholds());
        let small: Vec<f32> = vec![1e-10, -1e-10, 5e-11, 0.0];
        let proj = c.project(&small);
        for (a, b) in small.iter().zip(&proj) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The projection as it sorted before NaN support, for the
    /// bit-identity check on NaN-free inputs.
    fn project_seed(c: &CapCurve, values: &[f32]) -> Vec<f32> {
        let n = values.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| values[i].abs().partial_cmp(&values[j].abs()).unwrap());
        let mut out = vec![0.0f32; n];
        let mut prev_cap = 0.0f64;
        for (k, &idx) in order.iter().enumerate() {
            prev_cap = prev_cap.max(c.at((k as f64 + 0.5) / n as f64));
            let mut m32 = (values[idx].abs() as f64).min(prev_cap) as f32;
            if (m32 as f64) > prev_cap {
                m32 = f32::from_bits(m32.to_bits().saturating_sub(1));
            }
            out[idx] = m32 * values[idx].signum();
        }
        out
    }

    #[test]
    fn projection_zeroes_nan_and_keeps_finite_bits() {
        let c = CapCurve::from_thresholds(&linear_thresholds());
        let proj = c.project(&[1.0, f32::NAN, 0.5]);
        assert!(proj.iter().all(|v| !v.is_nan()), "{proj:?}");
        assert_eq!(proj[1].to_bits(), 0.0f32.to_bits());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cases: Vec<Vec<f32>> = vec![
            vec![1.0, 0.5],
            vec![0.0, -0.0, 0.0, -0.0, 1e-7],
            vec![
                -3e-6,
                3e-6,
                -3e-6,
                1e-9,
                0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ],
            (0..97)
                .map(|i| ((i * 37 % 23) as f32 - 11.0) * 1e-7)
                .collect(),
            tao_tensor::Tensor::<f32>::randn(&[256], 5)
                .mul_scalar(1e-6)
                .data()
                .to_vec(),
        ];
        for v in &cases {
            assert_eq!(bits(&c.project(v)), bits(&project_seed(&c, v)), "{v:?}");
        }
    }

    #[test]
    fn scaled_curve() {
        let c = CapCurve::from_thresholds(&linear_thresholds());
        let c3 = c.scaled(3.0);
        assert!((c3.at(1.0) - 3.0 * c.at(1.0)).abs() < 1e-15);
        assert!((c3.max_cap() - 3.0 * c.max_cap()).abs() < 1e-15);
    }
}
