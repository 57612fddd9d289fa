//! The campaign runner: composes mixed adversary populations and drives
//! them through the concurrent scheduler against one shared deployment.
//!
//! Each epoch every claimant posts one claim. Honest operators run the
//! committed model faithfully; evasion operators spend a PGD budget
//! searching for an admissible prediction flip and submit the escalated
//! (inadmissible) perturbation when the search fails; spam claimants post
//! garbage logits; collusion pairs plant an interior perturbation, have
//! the partner self-challenge and abandon, and count on the dispute dying
//! with the deserter; griefers open disputes against flagless honest
//! claims. Two watchtowers screen everything else round-robin and adopt
//! abandoned disputes.
//!
//! All randomness — calibration inputs, per-epoch claim inputs, operator
//! hardware, sortition seeds — derives from [`CampaignConfig::seed`]
//! through a SplitMix64 finalizer and a per-epoch ChaCha8 stream drawn in
//! fixed operator order, so a campaign replays identically at any worker
//! count (the ledger is exact fixed-point [`tao_protocol::Money`], so
//! balances, statuses and winners all match bit-exactly).

use std::collections::{BTreeMap, HashMap};

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tao::{
    deploy_with, Deployment, ProposerBehavior, Result, Scheduler, SessionBuilder, SessionConfig,
    SharedCoordinator, TaoError,
};
use tao_attack::{run_attack_with_deltas, AttackConfig, AttackProblem, ProjectionKind};
use tao_calib::TailEstimator;
use tao_device::{Device, Fleet};
use tao_graph::{GraphBuilder, NodeId, OpKind, Perturbations};
use tao_models::Model;
use tao_protocol::{Coordinator, EconParams, Money};
use tao_tensor::Tensor;

use crate::config::CampaignConfig;
use crate::population::Role;
use crate::report::{CampaignReport, ClaimOutcome, EpochStats, RoleNets};

/// Honest challengers every campaign fields regardless of population.
pub const NUM_WATCHTOWERS: usize = 2;

/// Campaign model input width.
const IN_DIM: usize = 64;
/// Campaign model hidden width.
const HID_DIM: usize = 32;
/// Campaign model class count.
const CLASSES: usize = 8;

/// SplitMix64 finalizer over a salted seed: one full-avalanche step so
/// derived streams (inputs, devices, sortition) never correlate.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The small classifier campaigns verify: `x[1,64] → matmul → gelu →
/// matmul → softmax[1,8]`. Small enough that a 32-worker epoch with PGD
/// adversaries stays fast, deep enough that disputes genuinely localize.
/// The softmax head matters for the zero-false-flag floor: screening's
/// relative-error grid is heavy-tailed at raw logit zero-crossings,
/// whereas bounded class probabilities calibrate tightly (the same choice
/// the coverage operating-point suite validates).
///
/// # Errors
///
/// Returns an error when graph construction fails (it does not for these
/// fixed shapes).
pub fn campaign_model(seed: u64) -> Result<Model> {
    let mut b = GraphBuilder::new(1);
    let x = b.input(0, "x");
    let w1 = b.parameter(
        "w1",
        Tensor::<f32>::rand_uniform(&[IN_DIM, HID_DIM], -0.4, 0.4, mix(seed, 0xB001)),
    );
    let h = b.op("h", OpKind::MatMul, &[x, w1]);
    let a = b.op("a", OpKind::Gelu, &[h]);
    let w2 = b.parameter(
        "w2",
        Tensor::<f32>::rand_uniform(&[HID_DIM, CLASSES], -0.4, 0.4, mix(seed, 0xB002)),
    );
    let logits = b.op("logits", OpKind::MatMul, &[a, w2]);
    let probs = b.op("probs", OpKind::Softmax, &[logits]);
    let graph = b.finish(vec![probs])?;
    Ok(Model {
        name: "campaign-mlp".to_string(),
        graph,
        logits: probs,
        input_shapes: vec![vec![1, IN_DIM]],
    })
}

/// Account-level aggregation bucket (roles plus the watchtowers, which
/// are not a [`Role`] because they never post claims).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Honest,
    Evasion,
    Spam,
    Collusion,
    Griefer,
    Watchtower,
}

/// One claim-posting operator of the roster.
struct Claimant {
    role: Role,
    account: String,
    device: Device,
}

/// The non-default move a session plays during the scheduler's resolve
/// phase.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Default: screen, dispute only when flagged.
    Screen,
    /// Griefer: screen (clean), then force a dispute anyway.
    Grief,
    /// Collusion: partner challenges and abandons; the indexed watchtower
    /// adopts.
    Collude { watchtower: usize },
}

/// A seed-deterministic adversarial campaign over one deployment.
#[derive(Debug, Clone)]
pub struct Campaign {
    cfg: CampaignConfig,
}

impl Campaign {
    /// Wraps a validated-on-run configuration.
    pub fn new(cfg: CampaignConfig) -> Self {
        Campaign { cfg }
    }

    /// The configuration this campaign runs.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Runs the full campaign and returns the report (floors are *not*
    /// asserted here — call [`CampaignReport::assert_floors`]).
    ///
    /// # Errors
    ///
    /// Returns an error on an invalid config or when any protocol phase
    /// fails; adversarial moves played through the public session API are
    /// expected to *lose*, not to error.
    pub fn run(&self) -> Result<CampaignReport> {
        let cfg = &self.cfg;
        cfg.validate()?;
        let pop = cfg.population;

        // Phase 0: deploy under the committed estimator; derive the A/B
        // shadow bundle from the same calibration record.
        let fleet = Fleet::standard();
        let calib_inputs: Vec<Vec<Tensor<f32>>> = (0..cfg.calib_samples)
            .map(|i| {
                vec![Tensor::<f32>::rand_uniform(
                    &[1, IN_DIM],
                    -1.0,
                    1.0,
                    mix(cfg.seed, 0xCA11_B000 + i as u64),
                )]
            })
            .collect();
        let deployment = deploy_with(
            campaign_model(cfg.seed)?,
            fleet.clone(),
            &calib_inputs,
            cfg.alpha,
            cfg.estimator,
        )?;
        let logits_node = deployment.model.logits;
        let interior_node = deployment.model.graph.compute_nodes()[1];
        let shadow_bundle = deployment
            .calibration
            .clone()
            .into_thresholds_with(cfg.alpha, cfg.shadow_estimator());

        // Coordinator with default market economics and a mid-region slash.
        let econ = EconParams::default_market();
        let (lo, hi) = econ
            .feasible_slash_region()
            .ok_or_else(|| TaoError::Config("campaign economics infeasible".into()))?;
        let slash = (lo + hi) / 2.0;
        let coord = SharedCoordinator::new(Coordinator::new(econ, slash)?);

        // Roster: claimants in fixed order, then the challenger-side cast.
        let mut claimants = Vec::new();
        let mut dev_seed = 0u64;
        let mut next_device = || {
            dev_seed += 1;
            fleet
                .sample_device(mix(cfg.seed, 0xD0_0000 + dev_seed))
                .clone()
        };
        for i in 0..pop.honest {
            claimants.push(Claimant {
                role: Role::Honest,
                account: format!("honest-{i}"),
                device: next_device(),
            });
        }
        for i in 0..pop.evasion {
            claimants.push(Claimant {
                role: Role::Evasion,
                account: format!("evader-{i}"),
                device: next_device(),
            });
        }
        for i in 0..pop.spam {
            claimants.push(Claimant {
                role: Role::Spam,
                account: format!("spammer-{i}"),
                device: next_device(),
            });
        }
        for i in 0..pop.collusion {
            claimants.push(Claimant {
                role: Role::Collusion,
                account: format!("collusion-p-{i}"),
                device: next_device(),
            });
        }
        let partners: Vec<(String, Device)> = (0..pop.collusion)
            .map(|i| (format!("collusion-ch-{i}"), next_device()))
            .collect();
        let griefers: Vec<(String, Device)> = (0..pop.griefers)
            .map(|i| (format!("griefer-{i}"), next_device()))
            .collect();
        let watchtowers: Vec<(String, Device)> = (0..NUM_WATCHTOWERS)
            .map(|i| (format!("watchtower-{i}"), next_device()))
            .collect();

        // Fund everyone generously (profits are measured as deltas against
        // the recorded funding, so headroom does not distort the floors).
        // Funding math is exact Money derived from the coordinator's own
        // admission amounts.
        let amounts = coord.coordinator().amounts();
        let slash_m = coord.coordinator().slash_amount();
        let mut funded: HashMap<String, Money> = HashMap::new();
        let mut accounts: Vec<(String, Group)> = Vec::new();
        let claimant_fund = amounts.d_p * 2 + slash_m * cfg.epochs as u64 + Money::from(100);
        for c in &claimants {
            let group = match c.role {
                Role::Honest => Group::Honest,
                Role::Evasion => Group::Evasion,
                Role::Spam => Group::Spam,
                Role::Collusion => Group::Collusion,
                Role::Griefer => unreachable!("griefers never post claims"),
            };
            coord.coordinator().fund(&c.account, claimant_fund);
            funded.insert(c.account.clone(), claimant_fund);
            accounts.push((c.account.clone(), group));
        }
        let challenger_fund = amounts.d_ch * (cfg.epochs + 1) as u64 + Money::from(100);
        for (name, group) in partners
            .iter()
            .map(|(a, _)| (a, Group::Collusion))
            .chain(griefers.iter().map(|(a, _)| (a, Group::Griefer)))
        {
            coord.coordinator().fund(name, challenger_fund);
            funded.insert(name.clone(), challenger_fund);
            accounts.push((name.clone(), group));
        }
        let watchtower_fund =
            amounts.d_ch * ((pop.claimants() + 1) * cfg.epochs) as u64 + Money::from(100);
        for (name, _) in &watchtowers {
            coord.coordinator().fund(name, watchtower_fund);
            funded.insert(name.clone(), watchtower_fund);
            accounts.push((name.clone(), Group::Watchtower));
        }

        // Modeled off-ledger compute costs, accrued as moves are planned.
        let mut costs: HashMap<String, f64> = HashMap::new();
        let scheduler = Scheduler::with_threads(cfg.workers);
        let mut admissible_flips = 0usize;
        let mut outcomes: Vec<ClaimOutcome> = Vec::new();
        let mut epoch_stats: Vec<EpochStats> = Vec::new();

        for epoch in 0..cfg.epochs {
            let epoch_seed = mix(cfg.seed, 0xE70C_0000 + epoch as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(epoch_seed);

            // Griefer targeting: rotate over honest operators, at most one
            // griefer per claim (a claim holds one challenge); surplus
            // griefers sit the epoch out.
            let mut griefed_by: Vec<Option<usize>> = vec![None; pop.honest];
            if pop.honest > 0 {
                for g in 0..pop.griefers {
                    let t = (g + epoch) % pop.honest;
                    if griefed_by[t].is_none() {
                        griefed_by[t] = Some(g);
                    }
                }
            }

            let mut builders = Vec::with_capacity(claimants.len());
            let mut moves: Vec<Move> = Vec::with_capacity(claimants.len());
            let mut wt_rr = 0usize;
            let mut honest_idx = 0usize;
            let mut collusion_idx = 0usize;
            for (ci, cl) in claimants.iter().enumerate() {
                // Inputs are drawn in fixed operator order from the epoch
                // stream, so the draw is independent of worker count.
                let inputs = vec![Tensor::<f32>::rand_uniform(
                    &[1, IN_DIM],
                    -1.0,
                    1.0,
                    rng.next_u64(),
                )];
                let behavior = match cl.role {
                    Role::Honest => {
                        *costs.entry(cl.account.clone()).or_default() += econ.c_p;
                        ProposerBehavior::Honest
                    }
                    Role::Evasion => {
                        *costs.entry(cl.account.clone()).or_default() += econ.c_p_targeted;
                        let (behavior, flipped) =
                            evasion_behavior(&deployment, &inputs, logits_node, cfg, epoch_seed)?;
                        admissible_flips += usize::from(flipped);
                        behavior
                    }
                    Role::Spam => {
                        *costs.entry(cl.account.clone()).or_default() += econ.c_p_cheap;
                        let mut p = Perturbations::new();
                        p.insert(
                            logits_node,
                            Tensor::<f32>::randn(&[1, CLASSES], rng.next_u64()).mul_scalar(0.5),
                        );
                        ProposerBehavior::Malicious(p)
                    }
                    Role::Collusion => {
                        *costs.entry(cl.account.clone()).or_default() += econ.c_p_cheap;
                        let mut p = Perturbations::new();
                        p.insert(
                            interior_node,
                            Tensor::<f32>::randn(&[1, HID_DIM], rng.next_u64()).mul_scalar(0.1),
                        );
                        ProposerBehavior::Malicious(p)
                    }
                    Role::Griefer => unreachable!("griefers never post claims"),
                };
                let (ch_account, ch_device, mv) = match cl.role {
                    Role::Honest => {
                        let h = honest_idx;
                        honest_idx += 1;
                        if let Some(g) = griefed_by[h] {
                            *costs.entry(griefers[g].0.clone()).or_default() += econ.c_ch;
                            (griefers[g].0.clone(), griefers[g].1.clone(), Move::Grief)
                        } else {
                            let w = wt_rr % NUM_WATCHTOWERS;
                            wt_rr += 1;
                            *costs.entry(watchtowers[w].0.clone()).or_default() += econ.c_ch;
                            (
                                watchtowers[w].0.clone(),
                                watchtowers[w].1.clone(),
                                Move::Screen,
                            )
                        }
                    }
                    Role::Evasion | Role::Spam => {
                        let w = wt_rr % NUM_WATCHTOWERS;
                        wt_rr += 1;
                        *costs.entry(watchtowers[w].0.clone()).or_default() += econ.c_ch;
                        (
                            watchtowers[w].0.clone(),
                            watchtowers[w].1.clone(),
                            Move::Screen,
                        )
                    }
                    Role::Collusion => {
                        let pi = collusion_idx;
                        collusion_idx += 1;
                        let w = wt_rr % NUM_WATCHTOWERS;
                        wt_rr += 1;
                        // The adopting watchtower re-screens the claim.
                        *costs.entry(watchtowers[w].0.clone()).or_default() += econ.c_ch;
                        (
                            partners[pi].0.clone(),
                            partners[pi].1.clone(),
                            Move::Collude { watchtower: w },
                        )
                    }
                    Role::Griefer => unreachable!("griefers never post claims"),
                };
                let session_cfg = SessionConfig {
                    proposer: cl.device.clone(),
                    challenger: ch_device,
                    proposer_account: cl.account.clone(),
                    challenger_account: ch_account,
                    seed: mix(epoch_seed, 0x5EED_0000 + ci as u64),
                    ..SessionConfig::default()
                };
                builders.push(
                    SessionBuilder::new(&deployment, inputs)
                        .config(session_cfg)
                        .behavior(behavior),
                );
                moves.push(mv);
            }

            // Drive the epoch through the real scheduler; the resolve hook
            // plays each session's move and computes the shadow-bundle
            // exceedance off the already-screened trace.
            let results = scheduler.run_with(&coord, builders, |idx, session, c| {
                match moves[idx] {
                    Move::Screen => {
                        if session.screen()? {
                            session.dispute(c)?;
                        }
                    }
                    Move::Grief => {
                        session.screen()?;
                        session.force_dispute(c)?;
                    }
                    Move::Collude { watchtower } => {
                        session.challenge_and_abandon(c)?;
                        let (account, device) = &watchtowers[watchtower];
                        session.adopt_dispute(c, account, device)?;
                    }
                }
                match session.screening() {
                    Some(s) => Ok(Some(s.exceedance_under(
                        &shadow_bundle,
                        logits_node,
                        session.output(),
                    )?)),
                    None => Ok(None),
                }
            })?;

            // Per-epoch aggregation.
            let mut planted = 0usize;
            let mut caught = 0usize;
            let mut false_flags = 0usize;
            let mut griefed = 0usize;
            let mut repelled = 0usize;
            let mut honest_claims = 0usize;
            let mut covered_committed = 0usize;
            let mut covered_shadow = 0usize;
            for ((report, shadow_exc), cl) in results.into_iter().zip(&claimants) {
                let outcome = ClaimOutcome {
                    epoch,
                    role: cl.role,
                    operator: cl.account.clone(),
                    claim_id: report.claim_id,
                    exceedance: report.exceedance,
                    shadow_exceedance: shadow_exc,
                    challenged: report.challenged,
                    final_status: report.final_status.clone(),
                    dispute: report.dispute,
                };
                if cl.role.is_planted_cheat() {
                    planted += 1;
                    caught += usize::from(outcome.caught());
                }
                if cl.role == Role::Honest {
                    honest_claims += 1;
                    false_flags += usize::from(outcome.exceedance > 1.0);
                    covered_committed += usize::from(outcome.exceedance <= 1.0);
                    covered_shadow +=
                        usize::from(outcome.shadow_exceedance.unwrap_or(f64::INFINITY) <= 1.0);
                    if outcome.challenged {
                        griefed += 1;
                        repelled += usize::from(outcome.proposer_survived());
                    }
                }
                outcomes.push(outcome);
            }
            let frac = |n: usize| {
                if honest_claims == 0 {
                    1.0
                } else {
                    n as f64 / honest_claims as f64
                }
            };
            let (cov_committed, cov_shadow) = (frac(covered_committed), frac(covered_shadow));
            let (cov_raw, cov_smoothed) = match cfg.estimator {
                TailEstimator::RawMax => (cov_committed, cov_shadow),
                TailEstimator::SmoothedTail { .. } => (cov_shadow, cov_committed),
            };
            let (nets, _) = nets_snapshot(&coord, &accounts, &funded, &costs);
            let ledger = coord.coordinator().ledger();
            let conservation_err_units = (ledger.total_value() - ledger.injected()).units().abs();
            epoch_stats.push(EpochStats {
                epoch,
                claims: claimants.len(),
                planted,
                caught,
                false_flags,
                griefed,
                griefers_repelled: repelled,
                cov_raw,
                cov_smoothed,
                nets,
                conservation_err_units,
            });
        }

        let (final_nets, min_honest) = nets_snapshot(&coord, &accounts, &funded, &costs);
        let wealth: BTreeMap<String, Money> = coord
            .coordinator()
            .ledger()
            .accounts()
            .into_iter()
            .map(|a| {
                let w = coord.balance(&a) + coord.coordinator().escrowed(&a);
                (a, w)
            })
            .collect();
        Ok(CampaignReport {
            seed: cfg.seed,
            workers: cfg.workers,
            population: pop,
            committed: cfg.estimator.label(),
            shadow: cfg.shadow_estimator().label(),
            slash,
            admissible_flips,
            epochs: epoch_stats,
            outcomes,
            final_nets,
            min_honest_operator_net: min_honest,
            wealth,
        })
    }
}

/// The evasion operator's move: PGD inside the committed tolerance; when
/// (as the paper predicts) no admissible flip exists, submit the deltas
/// escalated far past tolerance — a greedy operator cheats detectably
/// rather than not at all. Returns the behavior and whether the search
/// found an admissible flip.
fn evasion_behavior(
    deployment: &Deployment,
    inputs: &[Tensor<f32>],
    logits_node: NodeId,
    cfg: &CampaignConfig,
    epoch_seed: u64,
) -> Result<(ProposerBehavior, bool)> {
    let problem = AttackProblem {
        graph: &deployment.model.graph,
        inputs,
        logits_node,
        thresholds: &deployment.thresholds,
    };
    let logits = problem.honest_logits()?;
    let c1 = logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    let target = (c1 + 1) % logits.len();
    let attack_cfg = AttackConfig {
        max_iters: cfg.attack_iters,
        ..AttackConfig::paper_default(ProjectionKind::Empirical, 1.0)
    };
    let outcome = run_attack_with_deltas(&problem, target, &attack_cfg)?;
    let mut deltas: Perturbations = outcome
        .deltas
        .iter()
        .map(|(node, t)| (*node, t.mul_scalar(cfg.escalation as f32)))
        .collect();
    // Degenerate searches can park at (near-)zero deltas; those escalate
    // to nothing, so fall back to an unmistakably inadmissible logit shift.
    if deltas.values().all(|t| t.max_abs() < 1e-9) {
        deltas.insert(
            logits_node,
            Tensor::<f32>::randn(&[1, CLASSES], mix(epoch_seed, 0xFA11_BACC)).mul_scalar(0.5),
        );
    }
    Ok((ProposerBehavior::Malicious(deltas), outcome.result.success))
}

/// Cumulative per-group nets (wealth minus funding minus modeled costs)
/// and the worst individual honest-operator net. The on-ledger part
/// (wealth − funding) is computed exactly in Money before the modeled
/// f64 compute costs — an analysis quantity, not ledger state — are
/// subtracted.
fn nets_snapshot(
    coord: &SharedCoordinator,
    accounts: &[(String, Group)],
    funded: &HashMap<String, Money>,
    costs: &HashMap<String, f64>,
) -> (RoleNets, f64) {
    let mut nets = RoleNets::default();
    let mut min_honest = f64::INFINITY;
    for (account, group) in accounts {
        let wealth = coord.balance(account) + coord.coordinator().escrowed(account);
        let on_ledger = wealth - funded.get(account).copied().unwrap_or(Money::ZERO);
        let net = on_ledger.to_f64() - costs.get(account).copied().unwrap_or(0.0);
        match group {
            Group::Honest => {
                nets.honest += net;
                min_honest = min_honest.min(net);
            }
            Group::Evasion => nets.evasion += net,
            Group::Spam => nets.spam += net,
            Group::Collusion => nets.collusion += net,
            Group::Griefer => nets.griefer += net,
            Group::Watchtower => nets.watchtower += net,
        }
    }
    if min_honest.is_infinite() {
        min_honest = 0.0;
    }
    (nets, min_honest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use tao_protocol::ClaimStatus;

    #[test]
    fn campaign_model_shapes() {
        let m = campaign_model(1).unwrap();
        assert_eq!(m.graph.compute_nodes().len(), 4);
        assert_eq!(m.input_shapes, vec![vec![1, 64]]);
        // Same seed, same weights; different seed, different weights.
        let m2 = campaign_model(1).unwrap();
        assert_eq!(
            m.graph.param("w1").unwrap().data(),
            m2.graph.param("w1").unwrap().data()
        );
        let m3 = campaign_model(2).unwrap();
        assert_ne!(
            m.graph.param("w1").unwrap().data(),
            m3.graph.param("w1").unwrap().data()
        );
    }

    #[test]
    fn mix_avalanches() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 9), mix(7, 9));
    }

    #[test]
    fn smoke_campaign_clears_every_floor() {
        let campaign = Campaign::new(CampaignConfig::smoke(42));
        let report = campaign.run().unwrap();
        report.assert_floors();
        let pop = report.population;
        assert_eq!(report.outcomes.len(), pop.claimants() * 2);
        assert_eq!(report.planted(), pop.planted() * 2);
        assert_eq!(report.detection_rate(), 1.0);
        assert_eq!(report.false_flags(), 0);
        // Every epoch actually griefed someone and repelled them.
        for e in &report.epochs {
            assert_eq!(e.griefed, 1);
            assert_eq!(e.griefers_repelled, 1);
        }
        // Honest claims finalize or beat the griefer; cheats all settle
        // for the challenger.
        for o in &report.outcomes {
            if o.role.is_planted_cheat() {
                assert!(matches!(o.final_status, ClaimStatus::Settled { .. }));
                let d = o.dispute.as_ref().expect("cheats are disputed");
                assert!(d.reveal_checks > 0);
            }
        }
        // The CSV epoch log has one row per epoch plus a header.
        assert_eq!(report.to_csv().lines().count(), report.epochs.len() + 1);
    }
}
