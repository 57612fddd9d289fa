//! Campaign configuration.

use tao::TaoError;
use tao_calib::TailEstimator;

use crate::population::Population;

/// Full configuration of one campaign run.
///
/// Everything downstream — input draws, device assignment, attack
/// trajectories, committee sortition — derives deterministically from
/// `seed`, so two runs with identical configs produce identical claim
/// statuses, dispute winners and (up to f64 summation order in parallel
/// settlement) final balances at any worker count.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every other random draw is derived from it.
    pub seed: u64,
    /// Number of campaign epochs (each claimant posts one claim per epoch).
    pub epochs: usize,
    /// Scheduler worker threads (the PR 4 knob; floors must hold up to 32).
    pub workers: usize,
    /// Adversary mix fielded each epoch.
    pub population: Population,
    /// Tail estimator for the *committed* threshold bundle. The other
    /// estimator becomes the A/B shadow bundle whose exceedances ride
    /// along in the epoch CSV.
    pub estimator: TailEstimator,
    /// Calibration samples for Phase 0 (the safe operating point is 48).
    pub calib_samples: usize,
    /// Safety factor α (the safe operating point is 5.0).
    pub alpha: f64,
    /// PGD iterations each evasion operator spends per epoch.
    pub attack_iters: usize,
    /// Factor evasion operators scale their (failed) admissible deltas by
    /// before submitting; must push exceedance well past 1.
    pub escalation: f64,
}

impl CampaignConfig {
    /// A full-size campaign at the safe operating point.
    pub fn new(seed: u64) -> Self {
        CampaignConfig {
            seed,
            epochs: 4,
            workers: 8,
            population: Population::standard(),
            estimator: TailEstimator::RawMax,
            calib_samples: 48,
            alpha: 5.0,
            attack_iters: 40,
            escalation: 24.0,
        }
    }

    /// The CI smoke configuration: small population, few epochs, still at
    /// the safe calibration operating point so the zero-false-flag floor
    /// stays assertable.
    pub fn smoke(seed: u64) -> Self {
        CampaignConfig {
            epochs: 2,
            population: Population::smoke(),
            attack_iters: 24,
            ..CampaignConfig::new(seed)
        }
    }

    /// The estimator the campaign A/Bs the committed bundle against:
    /// smoothed-tail when raw max is committed, and vice versa.
    pub fn shadow_estimator(&self) -> TailEstimator {
        match self.estimator {
            TailEstimator::RawMax => TailEstimator::smoothed_default(),
            TailEstimator::SmoothedTail { .. } => TailEstimator::RawMax,
        }
    }

    /// Validates the knobs a runner cannot tolerate being degenerate.
    ///
    /// # Errors
    ///
    /// Returns [`TaoError::Config`] on zero epochs/workers/claimants, a
    /// sub-unity escalation factor, or too few calibration samples.
    pub fn validate(&self) -> Result<(), TaoError> {
        if self.epochs == 0 {
            return Err(TaoError::Config("campaign needs at least one epoch".into()));
        }
        if self.workers == 0 {
            return Err(TaoError::Config(
                "campaign needs at least one worker".into(),
            ));
        }
        if self.population.claimants() == 0 {
            return Err(TaoError::Config(
                "campaign population posts no claims".into(),
            ));
        }
        if self.escalation <= 1.0 {
            return Err(TaoError::Config(format!(
                "escalation {} must exceed 1 so planted evasion cheats are inadmissible",
                self.escalation
            )));
        }
        if self.calib_samples < 2 {
            return Err(TaoError::Config(
                "calibration needs at least two samples".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_shadow_flips() {
        let cfg = CampaignConfig::new(1);
        cfg.validate().unwrap();
        assert!(matches!(
            cfg.shadow_estimator(),
            TailEstimator::SmoothedTail { .. }
        ));
        let flipped = CampaignConfig {
            estimator: TailEstimator::smoothed_default(),
            ..cfg
        };
        assert!(matches!(flipped.shadow_estimator(), TailEstimator::RawMax));
        CampaignConfig::smoke(9).validate().unwrap();
    }

    #[test]
    fn degenerate_configs_rejected() {
        let ok = CampaignConfig::smoke(1);
        for bad in [
            CampaignConfig {
                epochs: 0,
                ..ok.clone()
            },
            CampaignConfig {
                workers: 0,
                ..ok.clone()
            },
            CampaignConfig {
                population: Population {
                    honest: 0,
                    evasion: 0,
                    spam: 0,
                    collusion: 0,
                    griefers: 3,
                },
                ..ok.clone()
            },
            CampaignConfig {
                escalation: 1.0,
                ..ok.clone()
            },
            CampaignConfig {
                calib_samples: 1,
                ..ok
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }
}
