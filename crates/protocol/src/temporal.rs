//! Multi-step workloads (§7): time-first bisection to the earliest
//! offending step, with prefix finality.
//!
//! Decoding, diffusion sampling and training all produce a sequence of
//! step states (per-token logits, latents, checkpoints). TAO layers time
//! over the operator dispute game: bisect *across time* to the earliest
//! offending step, then dispute *within* that step's operator DAG as
//! usual. Steps before the earliest offense finalize even while later
//! steps remain contested.

use tao_tensor::Tensor;

/// Verdict of the time-first search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalVerdict {
    /// Every step agreed within tolerance: the whole trajectory finalizes.
    AllAgree,
    /// Steps `0..step` finalize (prefix finality); `step` goes to the
    /// operator-level dispute game.
    OffenseAt {
        /// Earliest offending step index.
        step: usize,
        /// Probe comparisons performed by the bisection.
        probes: usize,
    },
}

/// Finds the earliest step whose states disagree beyond `within`, via
/// binary search over the *agreement prefix* — `O(log n)` probes instead
/// of a linear scan, matching the dispute game's round complexity.
///
/// `agree(i)` must be monotone (once a step disagrees, the challenger
/// would keep disputing from there): it returns true when the proposer and
/// challenger states for step `i` agree within tolerance. The search
/// relies on the standard optimistic-rollup invariant that disagreement,
/// once it appears, persists (the challenger recomputes later steps from
/// the earliest disputed state).
pub fn earliest_offense(n_steps: usize, mut agree: impl FnMut(usize) -> bool) -> TemporalVerdict {
    if n_steps == 0 {
        return TemporalVerdict::AllAgree;
    }
    let mut probes = 0;
    // Invariant: all steps < lo agree; some step in [lo, hi) may offend.
    let (mut lo, mut hi) = (0usize, n_steps);
    // First confirm there is any offense at all.
    probes += 1;
    if agree(n_steps - 1) {
        return TemporalVerdict::AllAgree;
    }
    while lo < hi - 1 {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if agree(mid - 1) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // `lo` is the earliest step whose state disagrees; probe the edge as
    // the evidence the challenger would post. Under the monotone-agreement
    // contract the edge must agree, so the probe cannot change the answer.
    probes += 1;
    if lo > 0 {
        debug_assert!(agree(lo - 1), "agreement predicate is not monotone");
    }
    TemporalVerdict::OffenseAt { step: lo, probes }
}

/// Convenience: element-wise max-abs agreement predicate for tensor
/// trajectories.
pub fn states_agree(a: &Tensor<f32>, b: &Tensor<f32>, tol: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.data()
        .iter()
        .zip(b.data())
        .all(|(&x, &y)| ((x as f64) - (y as f64)).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trajectory(n: usize) -> Vec<Tensor<f32>> {
        (0..n)
            .map(|i| Tensor::<f32>::randn(&[4, 4], i as u64).mul_scalar(0.1))
            .collect()
    }

    #[test]
    fn bisection_finds_earliest_offense() {
        // Disagreement starts at step 6 of 20 and persists.
        for offense in [0usize, 1, 6, 19] {
            let verdict = earliest_offense(20, |i| i < offense);
            assert_eq!(
                verdict,
                match verdict {
                    TemporalVerdict::OffenseAt { probes, .. } => TemporalVerdict::OffenseAt {
                        step: offense,
                        probes
                    },
                    v => v,
                },
                "offense at {offense}"
            );
            if let TemporalVerdict::OffenseAt { probes, .. } = verdict {
                assert!(probes <= 7, "expected O(log 20) probes, got {probes}");
            } else {
                panic!("expected offense at {offense}");
            }
        }
    }

    #[test]
    fn all_agree_short_circuits() {
        let verdict = earliest_offense(100, |_| true);
        assert_eq!(verdict, TemporalVerdict::AllAgree);
        assert_eq!(earliest_offense(0, |_| false), TemporalVerdict::AllAgree);
    }

    #[test]
    fn prefix_finality_semantics() {
        let proposer = trajectory(8);
        let mut challenger = proposer.clone();
        // Challenger disagrees from step 5 on.
        for s in challenger.iter_mut().skip(5) {
            *s = s.add_scalar(0.01);
        }
        let verdict = earliest_offense(8, |i| states_agree(&proposer[i], &challenger[i], 1e-6));
        let TemporalVerdict::OffenseAt { step, .. } = verdict else {
            panic!("expected offense");
        };
        assert_eq!(step, 5);
        // Steps before 5 are final: identical states.
        for i in 0..5 {
            assert!(states_agree(&proposer[i], &challenger[i], 0.0));
        }
    }

    #[test]
    fn states_agree_checks_shape_and_tol() {
        let a = Tensor::<f32>::ones(&[2]);
        let b = Tensor::<f32>::ones(&[3]);
        assert!(!states_agree(&a, &b, 1.0));
        let c = Tensor::<f32>::from_vec(vec![1.0, 1.0 + 1e-4], &[2]).unwrap();
        assert!(states_agree(&a, &c, 1e-3));
        assert!(!states_agree(&a, &c, 1e-6));
    }
}
