//! Adversarial-campaign integration: the paper's security and economic
//! floors re-validated under concurrent load, plus ledger conservation
//! over random adversary mixes and seed-replay determinism — the
//! acceptance harness for the `tao-campaign` crate.

// This binary uses only the watchdog and worker-count helpers of the
// shared harness; the claim/economics constructors stay dormant here.
#[allow(dead_code)]
mod common;

use common::{with_deadlock_watchdog, worker_counts};
use proptest::prelude::*;
use tao_calib::TailEstimator;
use tao_campaign::{Campaign, CampaignConfig, Population};

/// The full-size campaign floors at every forced worker count (the CI
/// matrix runs 2, 8 and 32): all planted cheats caught, zero false
/// flags, no admissible PGD flip, every honest operator in the black and
/// every adversary role in the red.
#[test]
fn campaign_floors_hold_at_every_worker_count() {
    for workers in worker_counts() {
        let report = with_deadlock_watchdog(move || {
            Campaign::new(CampaignConfig {
                workers,
                ..CampaignConfig::new(7)
            })
            .run()
            .unwrap()
        });
        report.assert_floors();
        assert!(report.planted() > 0, "campaign planted nothing");
        assert_eq!(
            report.caught(),
            report.planted(),
            "cheat escaped at {workers} workers"
        );
        assert_eq!(report.false_flags(), 0, "false flag at {workers} workers");
        assert_eq!(report.admissible_flips, 0);
        assert!(
            report.min_honest_operator_net >= 0.0,
            "honest operator in the red at {workers} workers"
        );
        // Watchtowers are honest challengers: catching the planted cheats
        // must pay for their screening work.
        assert!(
            report.final_nets.watchtower > 0.0,
            "watchtowers net {} at {workers} workers",
            report.final_nets.watchtower
        );
    }
}

/// The floors are estimator-independent: committing the smoothed-tail
/// bundle (raw max as shadow) changes coverage slack, not outcomes.
#[test]
fn campaign_floors_hold_with_smoothed_estimator_committed() {
    let report = with_deadlock_watchdog(|| {
        Campaign::new(CampaignConfig {
            estimator: TailEstimator::smoothed_default(),
            ..CampaignConfig::smoke(11)
        })
        .run()
        .unwrap()
    });
    report.assert_floors();
    assert_eq!(report.committed, "smoothed-tail-k4");
    assert_eq!(report.shadow, "raw-max");
    assert_eq!(report.caught(), report.planted());
}

/// Same seed, any worker count: claim ids, statuses, winners, screening
/// exceedances and challenge decisions replay bit-identically, and the
/// fixed-point ledger makes every balance bit-exact too — no tolerance.
#[test]
fn campaign_replays_identically_from_the_same_seed() {
    let runs: Vec<_> = worker_counts()
        .into_iter()
        .map(|workers| {
            with_deadlock_watchdog(move || {
                Campaign::new(CampaignConfig {
                    workers,
                    ..CampaignConfig::smoke(23)
                })
                .run()
                .unwrap()
            })
        })
        .collect();
    let base = &runs[0];
    for r in &runs[1..] {
        assert_eq!(base.outcomes.len(), r.outcomes.len());
        for (a, b) in base.outcomes.iter().zip(&r.outcomes) {
            assert_eq!(a.claim_id, b.claim_id, "claim-id assignment diverged");
            assert_eq!(a.operator, b.operator);
            assert_eq!(
                a.final_status, b.final_status,
                "claim {} status",
                a.claim_id
            );
            assert_eq!(a.challenged, b.challenged, "claim {} challenge", a.claim_id);
            assert_eq!(
                a.exceedance.to_bits(),
                b.exceedance.to_bits(),
                "claim {} screening exceedance must replay exactly",
                a.claim_id
            );
        }
        assert_eq!(
            base.wealth.keys().collect::<Vec<_>>(),
            r.wealth.keys().collect::<Vec<_>>()
        );
        for (account, w) in &base.wealth {
            assert_eq!(
                *w, r.wealth[account],
                "{account}: wealth must replay bit-exactly"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random adversary mixes at every forced worker count: the ledger
    /// conserves value at every campaign epoch boundary
    /// (Σ balances + Σ escrow == injected) and every floor holds — spam
    /// is pinned ≥ 1 so the population always posts a claim.
    #[test]
    fn random_mixes_conserve_value_and_hold_floors(
        honest in 0usize..4,
        evasion in 0usize..3,
        spam in 1usize..3,
        collusion in 0usize..3,
        griefers in 0usize..3,
        seed in 0u64..1 << 32,
    ) {
        let population = Population { honest, evasion, spam, collusion, griefers };
        for workers in worker_counts() {
            let report = with_deadlock_watchdog(move || {
                Campaign::new(CampaignConfig {
                    workers,
                    population,
                    epochs: 2,
                    ..CampaignConfig::smoke(seed)
                })
                .run()
                .unwrap()
            });
            prop_assert_eq!(report.epochs.len(), 2);
            for e in &report.epochs {
                prop_assert_eq!(
                    e.conservation_err_units, 0,
                    "conservation broke at epoch {} ({} workers): {} units",
                    e.epoch, workers, e.conservation_err_units
                );
            }
            report.assert_floors();
        }
    }
}
