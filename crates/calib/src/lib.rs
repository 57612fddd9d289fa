//! # tao-calib
//!
//! Cross-device empirical error calibration (§3.2 and Appendix B of the
//! TAO paper): element-wise absolute/relative error profiles over the
//! committed percentile grid (Eq. 1–4), max-envelopes across device pairs
//! and samples (Eq. 5–6), α-inflated committed thresholds (Eq. 7), the
//! Appendix B stability diagnostics (SupNorm / Jackknife / TailAdj /
//! RollSD), and the nondecreasing cap curve (Eq. 8) with its
//! order-statistics projection (Eq. 12).

pub mod calibrate;
pub mod cap;
pub mod error;
pub mod estimator;
pub mod json;
pub mod percentile;
pub mod profile;
pub mod stability;

pub use calibrate::{calibrate, calibrate_reference, CalibrationRecord};
pub use cap::CapCurve;
pub use error::CalibError;
pub use estimator::{smoothed_envelope, TailEstimator};
pub use json::{bundle_to_json_pretty, threshold_from_json, threshold_to_json};
pub use percentile::{
    grid_index, grid_profile, grid_profile_reference, median, percentile, PERCENTILE_GRID,
};
pub use profile::{
    elementwise_errors, error_profile, error_profile_into, OperatorThreshold, PercentilePair,
    ThresholdBundle, DEFAULT_ALPHA, DEFAULT_EPS,
};
pub use stability::{
    diagnostics, running_medians, stability_table, sym_rel_change, StabilityMetrics, StabilityRow,
    DEFAULT_WINDOW,
};

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, CalibError>;
