//! Leaf-level theoretical-bound verification.

use tao_tensor::Tensor;

/// Outcome of an element-wise bound check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// True when every element respects its bound.
    pub passed: bool,
    /// Number of violating elements.
    pub violations: usize,
    /// Largest ratio `|claimed - reference| / τ` observed (0 for empty).
    pub worst_ratio: f64,
}

/// Verifies `|claimed - reference| ≤ scale·τ` element-wise — the Phase 3
/// theoretical-bound check with an optional diagnostic scale `α`.
///
/// Tensors must have identical lengths; mismatched shapes fail the check
/// outright (a shape change is a graph violation, not a rounding one). An
/// element pair whose bits differ while at least one of the two is NaN or
/// `±inf` (two NaNs agree) is a violation with ratio `+inf`, since no
/// finite bound covers it; `tao_calib::error_profile` applies the same
/// rule.
pub fn check_within_bound(
    claimed: &Tensor<f32>,
    reference: &Tensor<f32>,
    tau: &Tensor<f64>,
    scale: f64,
) -> CheckReport {
    if claimed.len() != reference.len() || claimed.len() != tau.len() {
        return CheckReport {
            passed: false,
            violations: claimed.len().max(1),
            worst_ratio: f64::INFINITY,
        };
    }
    let mut violations = 0;
    let mut worst: f64 = 0.0;
    for i in 0..claimed.len() {
        let (c, r) = (claimed.data()[i], reference.data()[i]);
        if !(c.is_finite() && r.is_finite())
            && c.to_bits() != r.to_bits()
            && !(c.is_nan() && r.is_nan())
        {
            violations += 1;
            worst = f64::INFINITY;
            continue;
        }
        let dev = (c as f64 - r as f64).abs();
        let limit = scale * tau.data()[i];
        let ratio = if limit > 0.0 {
            dev / limit
        } else if dev > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        worst = worst.max(ratio);
        if dev > limit {
            violations += 1;
        }
    }
    CheckReport {
        passed: violations == 0,
        violations,
        worst_ratio: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_passes() {
        let a = Tensor::<f32>::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let tau = Tensor::<f64>::from_vec(vec![1e-7, 1e-7], &[2]).unwrap();
        let r = check_within_bound(&a, &a, &tau, 1.0);
        assert!(r.passed);
        assert_eq!(r.violations, 0);
        assert_eq!(r.worst_ratio, 0.0);
    }

    #[test]
    fn violation_detected() {
        let a = Tensor::<f32>::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::<f32>::from_vec(vec![1.0, 2.5], &[2]).unwrap();
        let tau = Tensor::<f64>::from_vec(vec![1e-7, 1e-7], &[2]).unwrap();
        let r = check_within_bound(&b, &a, &tau, 1.0);
        assert!(!r.passed);
        assert_eq!(r.violations, 1);
        assert!(r.worst_ratio > 1.0);
    }

    #[test]
    fn scale_loosens() {
        let a = Tensor::<f32>::from_vec(vec![1.0], &[1]).unwrap();
        let b = Tensor::<f32>::from_vec(vec![1.0 + 1.5e-7], &[1]).unwrap();
        let tau = Tensor::<f64>::from_vec(vec![1e-7], &[1]).unwrap();
        assert!(!check_within_bound(&b, &a, &tau, 1.0).passed);
        assert!(check_within_bound(&b, &a, &tau, 2.0).passed);
    }

    #[test]
    fn zero_bound_requires_exact() {
        let a = Tensor::<f32>::from_vec(vec![1.0], &[1]).unwrap();
        let b = Tensor::<f32>::from_vec(vec![1.0 + 1e-7], &[1]).unwrap();
        let tau = Tensor::<f64>::zeros(&[1]);
        let pass = check_within_bound(&a, &a, &tau, 1.0);
        assert!(pass.passed);
        let fail = check_within_bound(&b, &a, &tau, 1.0);
        assert!(!fail.passed);
        assert!(fail.worst_ratio.is_infinite());
    }

    #[test]
    fn non_finite_disagreement_violates() {
        let a = Tensor::<f32>::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let tau = Tensor::<f64>::from_vec(vec![1e-7, 1e-7], &[2]).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let b = Tensor::<f32>::from_vec(vec![1.0, bad], &[2]).unwrap();
            for (x, y) in [(&b, &a), (&a, &b)] {
                let r = check_within_bound(x, y, &tau, 1e30);
                assert!(!r.passed, "{bad}");
                assert_eq!((r.violations, r.worst_ratio), (1, f64::INFINITY), "{bad}");
            }
        }
        // Agreeing non-finite elements are no deviation.
        let x = Tensor::<f32>::from_vec(vec![f32::NAN, f32::INFINITY], &[2]).unwrap();
        let y = Tensor::<f32>::from_vec(vec![-f32::NAN, f32::INFINITY], &[2]).unwrap();
        assert!(check_within_bound(&x, &y, &tau, 1.0).passed);
    }

    #[test]
    fn shape_mismatch_fails() {
        let a = Tensor::<f32>::zeros(&[2]);
        let b = Tensor::<f32>::zeros(&[3]);
        let tau = Tensor::<f64>::zeros(&[2]);
        assert!(!check_within_bound(&b, &a, &tau, 1.0).passed);
    }
}
