//! Campaign results: per-claim outcomes, per-epoch aggregates, floor
//! assertions and the CSV epoch log.

use std::collections::BTreeMap;

use tao_protocol::{ClaimStatus, DisputeOutcome, Money, Party};

use crate::population::{Population, Role};

/// What happened to one claim of the campaign.
#[derive(Debug, Clone)]
pub struct ClaimOutcome {
    /// Epoch the claim was posted in.
    pub epoch: usize,
    /// Role of the posting operator.
    pub role: Role,
    /// Proposer account name.
    pub operator: String,
    /// Coordinator claim id.
    pub claim_id: u64,
    /// Screening exceedance against the *committed* bundle.
    pub exceedance: f64,
    /// Screening exceedance against the A/B shadow bundle (absent only
    /// when the session never screened).
    pub shadow_exceedance: Option<f64>,
    /// Whether a dispute was opened.
    pub challenged: bool,
    /// Final coordinator status.
    pub final_status: ClaimStatus,
    /// Dispute telemetry when one ran.
    pub dispute: Option<DisputeOutcome>,
}

impl ClaimOutcome {
    /// True when the claim settled for the challenger (a caught cheat).
    pub fn caught(&self) -> bool {
        matches!(
            self.final_status,
            ClaimStatus::Settled {
                winner: Party::Challenger
            }
        )
    }

    /// True when the claim survived for the proposer (finalized
    /// unchallenged, or settled in the proposer's favor).
    pub fn proposer_survived(&self) -> bool {
        matches!(
            self.final_status,
            ClaimStatus::Finalized
                | ClaimStatus::Settled {
                    winner: Party::Proposer
                }
        )
    }
}

/// Cumulative net profit per role at an epoch boundary: on-ledger wealth
/// (balance + escrow) minus funding minus modeled compute costs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoleNets {
    /// Honest claimants, summed.
    pub honest: f64,
    /// Evasion operators, summed.
    pub evasion: f64,
    /// Spam claimants, summed.
    pub spam: f64,
    /// Collusion pairs (proposer + partner), summed.
    pub collusion: f64,
    /// Griefers, summed.
    pub griefer: f64,
    /// Watchtower challengers, summed.
    pub watchtower: f64,
}

/// Per-epoch aggregates (each row of the CSV log).
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Claims posted this epoch.
    pub claims: usize,
    /// Planted cheats this epoch.
    pub planted: usize,
    /// Planted cheats settled for the challenger this epoch.
    pub caught: usize,
    /// Honest claims flagged by screening this epoch (floor: zero).
    pub false_flags: usize,
    /// Honest claims a griefer disputed this epoch.
    pub griefed: usize,
    /// Griefed claims that settled for the honest proposer.
    pub griefers_repelled: usize,
    /// Fraction of honest claims within tolerance under the raw max
    /// envelope.
    pub cov_raw: f64,
    /// Fraction of honest claims within tolerance under the smoothed-tail
    /// envelope (floor: never below `cov_raw`).
    pub cov_smoothed: f64,
    /// Cumulative per-role nets at this epoch boundary.
    pub nets: RoleNets,
    /// Absolute ledger-conservation error `|total_value - injected|` at
    /// the boundary, in micro-credits. The ledger is exact fixed-point,
    /// so the floor is **exactly zero** — no tolerance.
    pub conservation_err_units: i128,
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Master seed the run derived from.
    pub seed: u64,
    /// Scheduler worker threads used.
    pub workers: usize,
    /// Population fielded per epoch.
    pub population: Population,
    /// Label of the committed tail estimator.
    pub committed: String,
    /// Label of the A/B shadow estimator.
    pub shadow: String,
    /// Slash amount `s` the coordinator was configured with.
    pub slash: f64,
    /// PGD runs that found an admissible prediction flip (floor: zero).
    pub admissible_flips: usize,
    /// Per-epoch aggregates in epoch order.
    pub epochs: Vec<EpochStats>,
    /// Per-claim outcomes in submission order.
    pub outcomes: Vec<ClaimOutcome>,
    /// Final cumulative per-role nets.
    pub final_nets: RoleNets,
    /// Worst final net over individual honest operator accounts
    /// (0 when no honest operators were fielded).
    pub min_honest_operator_net: f64,
    /// Final wealth (balance + escrow) per account, exact.
    pub wealth: BTreeMap<String, Money>,
}

impl CampaignReport {
    /// Total planted cheats across the campaign.
    pub fn planted(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.role.is_planted_cheat())
            .count()
    }

    /// Planted cheats settled for the challenger.
    pub fn caught(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.role.is_planted_cheat() && o.caught())
            .count()
    }

    /// Overall detection rate (1.0 when nothing was planted).
    pub fn detection_rate(&self) -> f64 {
        let planted = self.planted();
        if planted == 0 {
            1.0
        } else {
            self.caught() as f64 / planted as f64
        }
    }

    /// Honest claims flagged by screening across the campaign.
    pub fn false_flags(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.role == Role::Honest && o.exceedance > 1.0)
            .count()
    }

    /// Asserts the paper's security and economic floors, panicking with a
    /// claim-level diagnosis on the first violation:
    ///
    /// 1. every planted cheat settled for the challenger;
    /// 2. no honest claim was flagged by screening (zero false positives);
    /// 3. no honest proposer was ever slashed (griefed claims settle for
    ///    the proposer);
    /// 4. no PGD run found an admissible prediction flip;
    /// 5. every fielded honest operator ended with non-negative net;
    /// 6. every fielded adversary role ended strictly in the red;
    /// 7. smoothed-tail coverage never fell below raw-max coverage;
    /// 8. the ledger conserved value **exactly** at every epoch boundary
    ///    (zero micro-credits of drift — the fixed-point ledger admits no
    ///    tolerance).
    ///
    /// # Panics
    ///
    /// Panics when any floor is violated.
    pub fn assert_floors(&self) {
        for o in &self.outcomes {
            if o.role.is_planted_cheat() {
                assert!(
                    o.caught(),
                    "floor: planted {} cheat escaped — claim {} (epoch {}, {}) ended {:?}",
                    o.role,
                    o.claim_id,
                    o.epoch,
                    o.operator,
                    o.final_status
                );
            }
            if o.role == Role::Honest {
                assert!(
                    o.exceedance <= 1.0,
                    "floor: false flag — honest claim {} (epoch {}, {}) screened at exceedance {}",
                    o.claim_id,
                    o.epoch,
                    o.operator,
                    o.exceedance
                );
                assert!(
                    o.proposer_survived(),
                    "floor: honest proposer slashed — claim {} (epoch {}, {}) ended {:?}",
                    o.claim_id,
                    o.epoch,
                    o.operator,
                    o.final_status
                );
            }
        }
        assert_eq!(
            self.admissible_flips, 0,
            "floor: {} PGD runs found an admissible flip at the operating point",
            self.admissible_flips
        );
        let p = self.population;
        if p.honest > 0 {
            assert!(
                self.min_honest_operator_net >= -1e-9,
                "floor: an honest operator ended in the red (worst net {})",
                self.min_honest_operator_net
            );
        }
        let nets = self.final_nets;
        if p.evasion > 0 {
            assert!(
                nets.evasion < 0.0,
                "floor: evasion profitable ({})",
                nets.evasion
            );
        }
        if p.spam > 0 {
            assert!(nets.spam < 0.0, "floor: spam profitable ({})", nets.spam);
        }
        if p.collusion > 0 {
            assert!(
                nets.collusion < 0.0,
                "floor: collusion pairs profitable ({})",
                nets.collusion
            );
        }
        if p.griefers > 0 && p.honest > 0 {
            assert!(
                nets.griefer < 0.0,
                "floor: griefing profitable ({})",
                nets.griefer
            );
        }
        for e in &self.epochs {
            assert!(
                e.cov_smoothed >= e.cov_raw - 1e-12,
                "floor: smoothed-tail coverage regressed at epoch {} ({} < {})",
                e.epoch,
                e.cov_smoothed,
                e.cov_raw
            );
            assert_eq!(
                e.conservation_err_units, 0,
                "floor: ledger conservation violated at epoch {} ({} micro-credits of drift)",
                e.epoch, e.conservation_err_units
            );
        }
    }

    /// The epoch log as CSV, one row per epoch, with the raw/smoothed
    /// coverage A/B columns.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "epoch,claims,planted,caught,detection_rate,false_flags,griefed,\
             griefers_repelled,cov_raw,cov_smoothed,honest_net,evasion_net,\
             spam_net,collusion_net,griefer_net,watchtower_net,conservation_err\n",
        );
        for e in &self.epochs {
            let rate = if e.planted == 0 {
                1.0
            } else {
                e.caught as f64 / e.planted as f64
            };
            out.push_str(&format!(
                "{},{},{},{},{:.6},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{}\n",
                e.epoch,
                e.claims,
                e.planted,
                e.caught,
                rate,
                e.false_flags,
                e.griefed,
                e.griefers_repelled,
                e.cov_raw,
                e.cov_smoothed,
                e.nets.honest,
                e.nets.evasion,
                e.nets.spam,
                e.nets.collusion,
                e.nets.griefer,
                e.nets.watchtower,
                e.conservation_err_units,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(role: Role, status: ClaimStatus, exceedance: f64) -> ClaimOutcome {
        ClaimOutcome {
            epoch: 0,
            role,
            operator: format!("{role}-0"),
            claim_id: 0,
            exceedance,
            shadow_exceedance: Some(exceedance),
            challenged: role != Role::Honest,
            final_status: status,
            dispute: None,
        }
    }

    fn passing_report() -> CampaignReport {
        let caught = ClaimStatus::Settled {
            winner: Party::Challenger,
        };
        CampaignReport {
            seed: 1,
            workers: 2,
            population: Population {
                honest: 1,
                evasion: 1,
                spam: 0,
                collusion: 0,
                griefers: 0,
            },
            committed: "raw-max".into(),
            shadow: "smoothed-tail-k4".into(),
            slash: 100.0,
            admissible_flips: 0,
            epochs: vec![EpochStats {
                epoch: 0,
                claims: 2,
                planted: 1,
                caught: 1,
                false_flags: 0,
                griefed: 0,
                griefers_repelled: 0,
                cov_raw: 1.0,
                cov_smoothed: 1.0,
                nets: RoleNets {
                    honest: 5.0,
                    evasion: -110.0,
                    ..RoleNets::default()
                },
                conservation_err_units: 0,
            }],
            outcomes: vec![
                outcome(Role::Honest, ClaimStatus::Finalized, 0.4),
                outcome(Role::Evasion, caught, 24.0),
            ],
            final_nets: RoleNets {
                honest: 5.0,
                evasion: -110.0,
                ..RoleNets::default()
            },
            min_honest_operator_net: 5.0,
            wealth: BTreeMap::new(),
        }
    }

    #[test]
    fn passing_report_clears_floors_and_serializes() {
        let r = passing_report();
        r.assert_floors();
        assert_eq!(r.planted(), 1);
        assert_eq!(r.caught(), 1);
        assert_eq!(r.detection_rate(), 1.0);
        assert_eq!(r.false_flags(), 0);
        let csv = r.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("epoch,"));
        assert!(header.contains("cov_raw,cov_smoothed"));
        assert!(header.contains("conservation_err"));
        assert_eq!(lines.count(), r.epochs.len());
    }

    #[test]
    #[should_panic(expected = "planted evasion cheat escaped")]
    fn escaped_cheat_trips_the_floor() {
        let mut r = passing_report();
        r.outcomes[1].final_status = ClaimStatus::Finalized;
        r.assert_floors();
    }

    #[test]
    #[should_panic(expected = "false flag")]
    fn false_flag_trips_the_floor() {
        let mut r = passing_report();
        r.outcomes[0].exceedance = 1.5;
        r.assert_floors();
    }

    #[test]
    #[should_panic(expected = "coverage regressed")]
    fn coverage_regression_trips_the_floor() {
        let mut r = passing_report();
        r.epochs[0].cov_smoothed = 0.5;
        r.assert_floors();
    }
}
