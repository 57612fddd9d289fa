//! Attack-evaluation metrics: margin bucketing, ASR, and progress stats.

use std::cmp::Ordering;

use rand::Rng;
use rand::SeedableRng;

use crate::pgd::AttackResult;

/// The five target-margin buckets of §4.5.
pub const BUCKETS: [(f64, f64); 5] = [(0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0)];

/// Buckets candidate target classes by the percentile of their logit
/// margin `m₀(c) = z_{c1} − z_c` and samples one class per bucket.
///
/// Returns `(bucket index, class)` pairs; buckets too narrow to contain a
/// class are skipped. NaN logits and NaN margins are skipped too: a lane
/// with no non-NaN logit has no targets.
pub fn bucket_targets(logits: &[f32], seed: u64) -> Vec<(usize, usize)> {
    let Some(c1) = logits
        .iter()
        .enumerate()
        .filter(|(_, z)| !z.is_nan())
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(Ordering::Equal))
        .map(|(i, _)| i)
    else {
        return Vec::new();
    };
    // Candidates sorted by margin ascending (small margin = easy flip).
    let mut candidates: Vec<(usize, f64)> = logits
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != c1)
        .map(|(i, &z)| (i, (logits[c1] - z) as f64))
        .filter(|(_, margin)| !margin.is_nan())
        .collect();
    candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
    let n = candidates.len();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let k = BUCKETS.len();
    (0..k)
        .filter_map(|bi| {
            // Non-overlapping index ranges so each candidate belongs to
            // exactly one bucket even for tiny class counts.
            let lo_idx = bi * n / k;
            let hi_idx = (bi + 1) * n / k;
            if lo_idx >= hi_idx {
                return None;
            }
            let pick = rng.gen_range(lo_idx..hi_idx);
            Some((bi, candidates[pick].0))
        })
        .collect()
}

/// Aggregated outcomes for one bucket (one cell of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BucketStats {
    /// Attacks attempted.
    pub attempts: usize,
    /// Successful flips.
    pub successes: usize,
    /// Sum of `Δm` over failed attacks.
    sum_delta_m_fail: f64,
    /// Sum of `δ` over failed attacks.
    sum_delta_rel_fail: f64,
    /// Failed attacks.
    failures: usize,
}

impl BucketStats {
    /// Records one attack result.
    pub fn record(&mut self, r: &AttackResult) {
        self.attempts += 1;
        if r.success {
            self.successes += 1;
        } else {
            self.failures += 1;
            self.sum_delta_m_fail += r.delta_m;
            self.sum_delta_rel_fail += r.delta_rel;
        }
    }

    /// Attack success rate in percent.
    pub fn asr(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            100.0 * self.successes as f64 / self.attempts as f64
        }
    }

    /// Mean `Δm` over failed attacks.
    pub fn mean_delta_m_fail(&self) -> f64 {
        if self.failures == 0 {
            0.0
        } else {
            self.sum_delta_m_fail / self.failures as f64
        }
    }

    /// Mean `δ = Δm/m₀` over failed attacks.
    pub fn mean_delta_rel_fail(&self) -> f64 {
        if self.failures == 0 {
            0.0
        } else {
            self.sum_delta_rel_fail / self.failures as f64
        }
    }
}

/// A full Table 2 row: per-bucket stats for one `(bound, α)` setting.
#[derive(Debug, Clone, Default)]
pub struct AttackTableRow {
    /// Per-bucket aggregates.
    pub buckets: [BucketStats; 5],
    /// Honest-run disputes raised (false-positive numerator).
    pub false_positives: usize,
    /// Honest runs checked (false-positive denominator).
    pub honest_runs: usize,
}

impl AttackTableRow {
    /// Records one result into its bucket.
    pub fn record(&mut self, bucket: usize, r: &AttackResult) {
        if bucket < self.buckets.len() {
            self.buckets[bucket].record(r);
        }
    }

    /// Overall ASR across buckets, in percent.
    pub fn overall_asr(&self) -> f64 {
        let attempts: usize = self.buckets.iter().map(|b| b.attempts).sum();
        let successes: usize = self.buckets.iter().map(|b| b.successes).sum();
        if attempts == 0 {
            0.0
        } else {
            100.0 * successes as f64 / attempts as f64
        }
    }

    /// False-positive rate in percent.
    pub fn fp_rate(&self) -> f64 {
        if self.honest_runs == 0 {
            0.0
        } else {
            100.0 * self.false_positives as f64 / self.honest_runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(success: bool, m0: f64, m_final: f64) -> AttackResult {
        AttackResult {
            success,
            iters: 10,
            m0,
            m_final,
            delta_m: m0 - m_final,
            delta_rel: (m0 - m_final) / m0,
        }
    }

    #[test]
    fn bucket_targets_cover_buckets() {
        let logits: Vec<f32> = (0..20).map(|i| i as f32 * 0.1).collect();
        let picks = bucket_targets(&logits, 1);
        assert!(!picks.is_empty());
        assert!(picks.len() <= 5);
        // Picks are distinct buckets in ascending order.
        for w in picks.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // Deterministic under the same seed.
        assert_eq!(picks, bucket_targets(&logits, 1));
    }

    /// NaN logits are never the argmax nor a target, and the rest of the
    /// lane buckets as it does without them.
    #[test]
    fn bucket_targets_skip_nan_logits() {
        let clean = vec![0.0f32, 5.0, 1.0, 2.0, 3.0, 4.0];
        let mut with_nan = clean.clone();
        with_nan.insert(2, f32::NAN);
        with_nan.push(-f32::NAN);
        // Class indices past the inserted NaN shift by one.
        let shift = |c: usize| if c >= 2 { c + 1 } else { c };
        let expected: Vec<(usize, usize)> = bucket_targets(&clean, 7)
            .into_iter()
            .map(|(b, c)| (b, shift(c)))
            .collect();
        assert_eq!(bucket_targets(&with_nan, 7), expected);
        assert!(bucket_targets(&[f32::NAN, f32::NAN], 7).is_empty());
    }

    #[test]
    fn bucket_targets_exclude_argmax() {
        let logits = vec![0.0f32, 5.0, 1.0, 2.0];
        for (_, class) in bucket_targets(&logits, 3) {
            assert_ne!(class, 1);
        }
    }

    #[test]
    fn stats_aggregate() {
        let mut b = BucketStats::default();
        b.record(&result(false, 1.0, 0.9));
        b.record(&result(false, 1.0, 0.8));
        b.record(&result(true, 1.0, -0.1));
        assert_eq!(b.attempts, 3);
        assert!((b.asr() - 33.333).abs() < 0.01);
        assert!((b.mean_delta_m_fail() - 0.15).abs() < 1e-9);
        assert!((b.mean_delta_rel_fail() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let b = BucketStats::default();
        assert_eq!(b.asr(), 0.0);
        assert_eq!(b.mean_delta_m_fail(), 0.0);
    }

    #[test]
    fn table_row_overall_and_fp() {
        let mut row = AttackTableRow::default();
        row.record(0, &result(true, 1.0, -0.5));
        row.record(4, &result(false, 2.0, 1.9));
        row.honest_runs = 100;
        row.false_positives = 0;
        assert!((row.overall_asr() - 50.0).abs() < 1e-9);
        assert_eq!(row.fp_rate(), 0.0);
    }

    #[test]
    fn two_class_logits_single_candidate() {
        let picks = bucket_targets(&[1.0, 2.0], 1);
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].1, 0);
    }
}
