//! Per-operator empirical error profiles and committed threshold bundles.

use tao_graph::NodeId;
use tao_tensor::Tensor;

use crate::percentile::{grid_profile_keys, PERCENTILE_GRID};

/// Default division-by-zero guard for relative errors.
pub const DEFAULT_EPS: f64 = 1e-12;

/// Default threshold safety factor `α` (Eq. 7).
pub const DEFAULT_ALPHA: f64 = 3.0;

/// Absolute and relative percentile-value vectors over the committed grid.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentilePair {
    /// Absolute-error percentiles `P_abs(p)`.
    pub abs: Vec<f64>,
    /// Relative-error percentiles `P_rel(p)`.
    pub rel: Vec<f64>,
}

impl PercentilePair {
    /// All-zero profile (used for structural operators).
    pub fn zero() -> Self {
        PercentilePair {
            abs: vec![0.0; PERCENTILE_GRID.len()],
            rel: vec![0.0; PERCENTILE_GRID.len()],
        }
    }

    /// Elementwise max-envelope with another pair (Eq. 5–6).
    pub fn envelope(&mut self, other: &PercentilePair) {
        for (a, b) in self.abs.iter_mut().zip(&other.abs) {
            *a = a.max(*b);
        }
        for (a, b) in self.rel.iter_mut().zip(&other.rel) {
            *a = a.max(*b);
        }
    }

    /// Multiplies every percentile value by `alpha` (Eq. 7).
    pub fn inflate(&self, alpha: f64) -> PercentilePair {
        PercentilePair {
            abs: self.abs.iter().map(|v| v * alpha).collect(),
            rel: self.rel.iter().map(|v| v * alpha).collect(),
        }
    }
}

/// Element-wise absolute and relative errors between two executions of the
/// same operator (Eq. 1–2), flattened to 1-D.
pub fn elementwise_errors(a: &Tensor<f32>, b: &Tensor<f32>, eps: f64) -> (Vec<f64>, Vec<f64>) {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| {
            let (x, y) = (x as f64, y as f64);
            let d = (x - y).abs();
            (d, d / (x.abs() + eps))
        })
        .unzip()
}

/// The error kernel behind every profile: writes the `to_bits()` keys of
/// the finite absolute and relative errors of `a` against `b` (Eq. 1–2)
/// into `abs`/`rel` in element order, as [`grid_profile_keys`] takes them.
/// Both buffers are overwritten and keep their capacity, so a calibration
/// worker reuses one pair across every device pair and node.
///
/// Returns the sum of all `n` absolute errors, non-finite ones included,
/// added in element order (the numerator of the committed mean error), or
/// `None` when the shapes differ.
pub fn error_keys_into(
    a: &Tensor<f32>,
    b: &Tensor<f32>,
    eps: f64,
    abs: &mut Vec<u64>,
    rel: &mut Vec<u64>,
) -> Option<f64> {
    if a.dims() != b.dims() {
        return None;
    }
    // Branch-free: every key is written to the next free slot, which a
    // finite key then keeps by advancing past it.
    abs.resize(a.len(), 0);
    rel.resize(a.len(), 0);
    let (mut n_abs, mut n_rel, mut sum) = (0, 0, 0.0);
    for (&x, &y) in a.data().iter().zip(b.data()) {
        let (x, y) = (x as f64, y as f64);
        let d = (x - y).abs();
        let r = d / (x.abs() + eps);
        sum += d;
        abs[n_abs] = d.to_bits();
        n_abs += d.is_finite() as usize;
        rel[n_rel] = r.to_bits();
        n_rel += r.is_finite() as usize;
    }
    abs.truncate(n_abs);
    rel.truncate(n_rel);
    Some(sum)
}

/// The sum [`error_keys_into`] returns, without the keys: every absolute
/// error of `a` against `b` added in element order, or `None` when the
/// shapes differ.
pub(crate) fn abs_error_sum(a: &Tensor<f32>, b: &Tensor<f32>) -> Option<f64> {
    if a.dims() != b.dims() {
        return None;
    }
    Some(
        a.data()
            .iter()
            .zip(b.data())
            .fold(0.0, |sum, (&x, &y)| sum + (x as f64 - y as f64).abs()),
    )
}

/// Percentile profiles of the element-wise errors between two outputs
/// (Eq. 3–4).
///
/// Outputs of different shapes get an all-`+inf` profile: the claimed
/// value is not the operator's output at all, so it exceeds every
/// threshold ([`ThresholdBundle::exceedance`] returns `+inf`) rather than
/// being compared over some overlap of the two buffers. So do outputs
/// with a non-finite disagreement: an element pair whose bits differ
/// while at least one of the two is NaN or `±inf` (two NaNs agree). Such
/// an error has no magnitude a percentile could bound, and dropping it,
/// as calibration does, would let an all-NaN claim profile to zeros.
pub fn error_profile(a: &Tensor<f32>, b: &Tensor<f32>, eps: f64) -> PercentilePair {
    error_profile_into(a, b, eps, &mut Vec::new(), &mut Vec::new())
}

/// [`error_profile`] through caller-owned key buffers, which
/// [`error_keys_into`] overwrites: a caller profiling many nodes reuses
/// one pair for all of them.
pub fn error_profile_into(
    a: &Tensor<f32>,
    b: &Tensor<f32>,
    eps: f64,
    abs: &mut Vec<u64>,
    rel: &mut Vec<u64>,
) -> PercentilePair {
    // An absolute error is dropped exactly when an element of its pair is
    // not finite, so only then can a pair disagree non-finitely.
    let disagree = |abs: &Vec<u64>| {
        abs.len() < a.len()
            && a.data()
                .iter()
                .zip(b.data())
                .any(|(&x, &y)| nonfinite_disagreement(x, y))
    };
    match error_keys_into(a, b, eps, abs, rel) {
        Some(_) if !disagree(abs) => PercentilePair {
            abs: grid_profile_keys(abs),
            rel: grid_profile_keys(rel),
        },
        _ => PercentilePair {
            abs: vec![f64::INFINITY; PERCENTILE_GRID.len()],
            rel: vec![f64::INFINITY; PERCENTILE_GRID.len()],
        },
    }
}

/// True when `x` and `y` differ in their bits and at least one is NaN or
/// `±inf`; two NaNs agree whatever their payloads.
fn nonfinite_disagreement(x: f32, y: f32) -> bool {
    !(x.is_finite() && y.is_finite()) && x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan())
}

/// Calibrated thresholds for one operator: the α-inflated max-envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorThreshold {
    /// Operator node id in the canonical order.
    pub node: NodeId,
    /// Operator mnemonic (for reports; not load-bearing).
    pub mnemonic: String,
    /// Thresholds `τ_abs(p)`, `τ_rel(p)` over the grid.
    pub thresholds: PercentilePair,
    /// Mean absolute cross-device error observed in calibration (for the
    /// error-vs-depth and heatmap figures).
    pub mean_abs_error: f64,
}

/// The committed threshold bundle: grid, safety factor, and per-operator
/// thresholds in canonical node order. Serialized into the `r_e` Merkle
/// commitment and fixed for the lifetime of a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdBundle {
    /// The percentile grid `P`.
    pub grid: Vec<f64>,
    /// Safety factor `α` applied to the raw envelopes.
    pub alpha: f64,
    /// Per-operator thresholds (compute operators only).
    pub operators: Vec<OperatorThreshold>,
}

impl ThresholdBundle {
    /// Looks up the threshold entry for a node.
    pub fn for_node(&self, node: NodeId) -> Option<&OperatorThreshold> {
        self.operators.iter().find(|o| o.node == node)
    }

    /// Serializes each operator entry to a Merkle leaf (canonical JSON; see
    /// [`crate::json`]).
    pub fn to_leaves(&self) -> Vec<Vec<u8>> {
        self.operators
            .iter()
            .map(crate::json::threshold_to_json)
            .collect()
    }

    /// The maximum observed-vs-threshold ratio `p^max_i` of Eq. 15 for an
    /// observed error pair against this bundle's entry for `node`
    /// ([`OperatorThreshold::exceedance`]).
    pub fn exceedance(&self, node: NodeId, observed: &PercentilePair) -> Option<f64> {
        Some(self.for_node(node)?.exceedance(observed))
    }
}

impl OperatorThreshold {
    /// The maximum observed-vs-threshold ratio `p^max_i` of Eq. 15 for an
    /// observed error pair against this operator's thresholds.
    ///
    /// An operator whose whole profile is zero is *exact* (structural or
    /// bit-reproducible): any nonzero observation is infinitely offending.
    /// For a tolerance-calibrated operator, individual zero grid points
    /// (typically the low-percentile end, where calibration happened to see
    /// exact agreement) are vacuous constraints and are skipped — a nonzero
    /// minimum error on a fresh honest input is not evidence of fraud, and
    /// the nonzero upper grid points still bind.
    pub fn exceedance(&self, observed: &PercentilePair) -> f64 {
        let exact = self
            .thresholds
            .abs
            .iter()
            .chain(&self.thresholds.rel)
            .all(|&t| t == 0.0);
        let mut worst: f64 = 0.0;
        for (obs, thr) in observed
            .abs
            .iter()
            .zip(&self.thresholds.abs)
            .chain(observed.rel.iter().zip(&self.thresholds.rel))
        {
            let r = if *thr > 0.0 {
                obs / thr
            } else if exact && *obs > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            worst = worst.max(r);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_errors_basic() {
        let a = Tensor::<f32>::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::<f32>::from_vec(vec![1.5, 2.0], &[2]).unwrap();
        let (abs, rel) = elementwise_errors(&a, &b, 0.0);
        assert_eq!(abs, vec![0.5, 0.0]);
        assert_eq!(rel, vec![0.5, 0.0]);
    }

    #[test]
    fn identical_outputs_zero_profile() {
        let a = Tensor::<f32>::rand_uniform(&[64], -1.0, 1.0, 1);
        let p = error_profile(&a, &a, DEFAULT_EPS);
        assert!(p.abs.iter().all(|&v| v == 0.0));
        assert!(p.rel.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn non_finite_disagreement_profiles_to_infinity() {
        let a = Tensor::<f32>::rand_uniform(&[8], -1.0, 1.0, 1);
        let inf = vec![f64::INFINITY; PERCENTILE_GRID.len()];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut b = a.clone();
            b.data_mut()[3] = bad;
            for (x, y) in [(&a, &b), (&b, &a)] {
                let p = error_profile(x, y, DEFAULT_EPS);
                assert_eq!((&p.abs, &p.rel), (&inf, &inf), "{bad}");
            }
        }
        // Agreeing non-finite elements (two NaNs of any payload, equal
        // infinities) carry no error and are skipped, as in calibration.
        let mut x = a.clone();
        let mut y = a.clone();
        x.data_mut()[..3].copy_from_slice(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        y.data_mut()[..3].copy_from_slice(&[-f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        assert_eq!(error_profile(&x, &y, DEFAULT_EPS), PercentilePair::zero());
    }

    /// One pair of key buffers, reused across pairs of every size,
    /// shape and finiteness in any order, profiles each pair exactly as
    /// fresh buffers do.
    #[test]
    fn reused_key_buffers_profile_like_fresh_ones() {
        let big = Tensor::<f32>::rand_uniform(&[300], -1.0, 1.0, 1);
        let near = big.map(|x| x * 1.001 + 1e-6);
        let small = Tensor::<f32>::rand_uniform(&[7], -1.0, 1.0, 3);
        let mut nan = small.clone();
        nan.data_mut()[2] = f32::NAN;
        let pairs = [
            (&big, &near),
            (&small, &nan),
            (&small, &big),
            (&nan, &nan),
            (&near, &big),
            (&small, &small),
        ];
        let (mut abs, mut rel) = (Vec::new(), Vec::new());
        for (a, b) in pairs.iter().chain(pairs.iter().rev()) {
            let reused = error_profile_into(a, b, DEFAULT_EPS, &mut abs, &mut rel);
            assert_eq!(reused, error_profile(a, b, DEFAULT_EPS));
        }
    }

    #[test]
    fn envelope_takes_max() {
        let mut a = PercentilePair {
            abs: vec![1.0, 5.0],
            rel: vec![0.1, 0.2],
        };
        let b = PercentilePair {
            abs: vec![2.0, 3.0],
            rel: vec![0.05, 0.4],
        };
        a.envelope(&b);
        assert_eq!(a.abs, vec![2.0, 5.0]);
        assert_eq!(a.rel, vec![0.1, 0.4]);
    }

    #[test]
    fn inflate_scales() {
        let p = PercentilePair {
            abs: vec![1.0],
            rel: vec![2.0],
        };
        let q = p.inflate(3.0);
        assert_eq!(q.abs, vec![3.0]);
        assert_eq!(q.rel, vec![6.0]);
    }

    #[test]
    fn exceedance_detects_violation() {
        let bundle = ThresholdBundle {
            grid: PERCENTILE_GRID.to_vec(),
            alpha: 3.0,
            operators: vec![OperatorThreshold {
                node: NodeId(5),
                mnemonic: "matmul".into(),
                thresholds: PercentilePair {
                    abs: vec![1e-6; PERCENTILE_GRID.len()],
                    rel: vec![1e-5; PERCENTILE_GRID.len()],
                },
                mean_abs_error: 1e-7,
            }],
        };
        let ok = PercentilePair {
            abs: vec![5e-7; PERCENTILE_GRID.len()],
            rel: vec![5e-6; PERCENTILE_GRID.len()],
        };
        assert!(bundle.exceedance(NodeId(5), &ok).unwrap() <= 1.0);
        let bad = PercentilePair {
            abs: vec![5e-6; PERCENTILE_GRID.len()],
            rel: vec![5e-6; PERCENTILE_GRID.len()],
        };
        assert!(bundle.exceedance(NodeId(5), &bad).unwrap() > 1.0);
        assert!(bundle.exceedance(NodeId(7), &ok).is_none());
    }

    #[test]
    fn exceedance_zero_threshold_is_strict() {
        let bundle = ThresholdBundle {
            grid: PERCENTILE_GRID.to_vec(),
            alpha: 3.0,
            operators: vec![OperatorThreshold {
                node: NodeId(0),
                mnemonic: "relu".into(),
                thresholds: PercentilePair::zero(),
                mean_abs_error: 0.0,
            }],
        };
        let exact = PercentilePair::zero();
        assert_eq!(bundle.exceedance(NodeId(0), &exact).unwrap(), 0.0);
        let mut off = PercentilePair::zero();
        off.abs[3] = 1e-9;
        assert!(bundle.exceedance(NodeId(0), &off).unwrap().is_infinite());
    }

    #[test]
    fn leaves_roundtrip_json() {
        let bundle = ThresholdBundle {
            grid: PERCENTILE_GRID.to_vec(),
            alpha: 3.0,
            operators: vec![OperatorThreshold {
                node: NodeId(1),
                mnemonic: "softmax".into(),
                thresholds: PercentilePair::zero(),
                mean_abs_error: 0.0,
            }],
        };
        let leaves = bundle.to_leaves();
        assert_eq!(leaves.len(), 1);
        let back: OperatorThreshold = crate::json::threshold_from_json(&leaves[0]).unwrap();
        assert_eq!(back, bundle.operators[0]);
    }
}
