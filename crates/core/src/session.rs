//! Phases 1–3: the end-to-end optimistic verification session, as a
//! phase-by-phase driveable handle.
//!
//! A session moves through three owned states:
//!
//! 1. [`SessionBuilder`] — configuration only. [`SessionBuilder::prepare`]
//!    runs the proposer's forward pass (pure compute, no coordinator);
//!    [`SessionBuilder::submit`] additionally posts the claim.
//! 2. [`PendingSession`] — executed but not yet posted; the split exists
//!    so a scheduler can run the expensive proposer passes concurrently
//!    and still submit claims in a deterministic order.
//! 3. [`Session`] — a posted claim. Drive it with [`Session::screen`]
//!    (challenger trigger; caches the screening trace),
//!    [`Session::dispute`] (localization + leaf adjudication, reusing the
//!    screening trace) and [`Session::settle`] (bond settlement, yielding
//!    the final [`SessionReport`]).
//!
//! [`SessionBuilder::run`] is the one-shot convenience that drives all
//! phases in order, preserving the behavior of the old free-function API.
//!
//! The coordinator is shared through [`SharedCoordinator`]. Every
//! coordinator method takes `&self` and runs under the coordinator's one
//! lock, held only for the bookkeeping of one protocol step; the forward
//! passes and disputes of concurrent sessions run outside it.

use tao_bounds::BoundEngine;
use tao_device::Device;
use tao_graph::{execute, Execution, Perturbations};
use tao_merkle::{claim_commitment, inputs_hash, tensor_hash, ClaimMeta, Digest, TraceCommitment};
use tao_protocol::{
    adjudicate, leaf_case, run_dispute, sample_committee, screen_claim, AdjudicationPath,
    ChallengerView, ClaimCheck, ClaimStatus, Coordinator, DisputeConfig, DisputeOutcome,
    DisputeResult, LeafVerdict, Money, Party, ProposerView, Screening,
};
use tao_tensor::Tensor;

use crate::deploy::Deployment;
use crate::error::TaoError;
use crate::Result;

/// How the proposer behaves during Phase 1.
#[derive(Debug, Clone)]
pub enum ProposerBehavior {
    /// Runs the committed model faithfully on its device.
    Honest,
    /// Injects the given additive perturbations at operator outputs.
    Malicious(Perturbations),
}

/// Configuration of one verification session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Proposer device.
    pub proposer: Device,
    /// Challenger device.
    pub challenger: Device,
    /// Proposer's coordinator account.
    pub proposer_account: String,
    /// Challenger's coordinator account.
    pub challenger_account: String,
    /// Challenge window in coordinator ticks.
    pub window: u64,
    /// Dispute partition width `N`.
    pub n_way: usize,
    /// Committee size for Phase 3 (odd).
    pub committee: usize,
    /// Sortition seed.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            proposer: Device::rtx4090_like(),
            challenger: Device::h100_like(),
            proposer_account: "proposer".to_string(),
            challenger_account: "challenger".to_string(),
            window: 10,
            n_way: 2,
            committee: 3,
            seed: 1,
        }
    }
}

/// A [`Coordinator`] shared across concurrent sessions.
///
/// The coordinator already serializes its own operations behind one lock
/// (see `tao-protocol`'s coordinator docs), so this handle adds no mutex
/// and no behaviour of its own: it only forwards to the coordinator.
#[derive(Debug)]
pub struct SharedCoordinator {
    inner: Coordinator,
}

impl SharedCoordinator {
    /// Wraps a coordinator for shared use.
    pub fn new(coordinator: Coordinator) -> Self {
        SharedCoordinator { inner: coordinator }
    }

    /// The shared coordinator.
    pub fn coordinator(&self) -> &Coordinator {
        &self.inner
    }

    /// Free (non-escrowed) balance of an account, exact.
    pub fn balance(&self, account: &str) -> Money {
        self.inner.balance(account)
    }

    /// Unwraps the coordinator once all sessions are done.
    pub fn into_inner(self) -> Coordinator {
        self.inner
    }
}

/// Everything that happened in one session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Coordinator claim id.
    pub claim_id: u64,
    /// The proposer's posted output.
    pub output: Tensor<f32>,
    /// Whether the challenger's screen flagged the claim.
    pub challenged: bool,
    /// The screening exceedance (Eq. 15) of the posted output.
    pub exceedance: f64,
    /// Dispute-game outcome when challenged.
    pub dispute: Option<DisputeOutcome>,
    /// Leaf adjudication result when the game reached a leaf.
    pub verdict: Option<(AdjudicationPath, LeafVerdict)>,
    /// Final coordinator status of the claim.
    pub final_status: ClaimStatus,
}

impl SessionReport {
    /// True when the claim finalized in the proposer's favour.
    pub fn proposer_prevailed(&self) -> bool {
        matches!(
            self.final_status,
            ClaimStatus::Finalized
                | ClaimStatus::Settled {
                    winner: Party::Proposer
                }
        )
    }
}

/// Configures one verification session over a shared deployment.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    deployment: Deployment,
    cfg: SessionConfig,
    inputs: Vec<Tensor<f32>>,
    behavior: ProposerBehavior,
}

impl SessionBuilder {
    /// Starts a session over `deployment` serving `inputs`, with the
    /// default configuration and an honest proposer.
    pub fn new(deployment: &Deployment, inputs: Vec<Tensor<f32>>) -> Self {
        SessionBuilder {
            deployment: deployment.clone(),
            cfg: SessionConfig::default(),
            inputs,
            behavior: ProposerBehavior::Honest,
        }
    }

    /// Replaces the session configuration.
    #[must_use]
    pub fn config(mut self, cfg: SessionConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the proposer behavior.
    #[must_use]
    pub fn behavior(mut self, behavior: ProposerBehavior) -> Self {
        self.behavior = behavior;
        self
    }

    /// The proposer account that will post (and fund) the claim.
    pub fn proposer_account(&self) -> &str {
        &self.cfg.proposer_account
    }

    /// The exact deposit this claim will escrow on submission:
    /// `max(D_p, deposit_bound)` from the deployment's static report.
    pub fn deposit_quote(&self, coordinator: &Coordinator) -> Money {
        coordinator
            .amounts()
            .d_p
            .max(self.deployment.static_report.deposit_bound)
    }

    /// Phase 1 compute: the proposer executes the committed model on its
    /// device and builds the claim commitment `C0`. No coordinator
    /// interaction happens here, so any number of `prepare` calls can run
    /// concurrently.
    ///
    /// # Errors
    ///
    /// Returns an error when the proposer execution fails.
    pub fn prepare(self) -> Result<PendingSession> {
        let SessionBuilder {
            deployment,
            cfg,
            inputs,
            behavior,
        } = self;
        let perturb = match &behavior {
            ProposerBehavior::Honest => None,
            ProposerBehavior::Malicious(p) => Some(p),
        };
        // The kept trace is committed in one batch, parameter digests
        // from the deployment's table. Built exactly once, here — the
        // dispute reuses it, never rebuilds.
        let trace = execute(
            &deployment.model.graph,
            &inputs,
            cfg.proposer.config(),
            perturb,
        )?;
        let trace_commitment =
            TraceCommitment::build_with_params(&trace.values, &deployment.param_digests);
        let output = trace.value(deployment.model.logits)?.clone();
        let meta = ClaimMeta {
            device: cfg.proposer.name().to_string(),
            kernel: format!("{:?}", cfg.proposer.config().accum),
            dtype: "f32".to_string(),
            challenge_window: cfg.window,
        };
        // Bind the full ordered input list (domain-separated), not just
        // the first tensor: multi-input claims are otherwise malleable.
        // The trace root is bound too, so the bisection reveals of any
        // later dispute are verifiable against what was claimed *now*.
        let commitment = claim_commitment(
            &deployment.commitment,
            &inputs_hash(&inputs),
            &tensor_hash(&output),
            &trace_commitment.root(),
            &meta,
        );
        Ok(PendingSession {
            deployment,
            cfg,
            inputs,
            trace,
            trace_commitment,
            output,
            meta,
            commitment,
        })
    }

    /// Phase 1 end-to-end: [`prepare`](Self::prepare) plus claim
    /// submission.
    ///
    /// # Errors
    ///
    /// Returns an error when execution fails or the proposer cannot post
    /// its deposit.
    pub fn submit(self, coordinator: &SharedCoordinator) -> Result<Session> {
        self.prepare()?.submit(coordinator)
    }

    /// One-shot convenience: submits, screens, disputes when flagged, and
    /// settles — the full Phases 1–3 pipeline against `coordinator`.
    ///
    /// # Errors
    ///
    /// Returns an error if any protocol step fails structurally (kernel
    /// errors, missing funds, bad records, missing thresholds). Verdicts —
    /// including "challenger loses" — are reported in the
    /// [`SessionReport`], not as errors.
    pub fn run(self, coordinator: &SharedCoordinator) -> Result<SessionReport> {
        let mut session = self.submit(coordinator)?;
        if session.screen()? {
            session.dispute(coordinator)?;
        }
        session.settle(coordinator)
    }
}

/// A session whose proposer has executed but whose claim is not yet
/// posted. Produced by [`SessionBuilder::prepare`]; consumed by
/// [`PendingSession::submit`].
#[derive(Debug, Clone)]
pub struct PendingSession {
    deployment: Deployment,
    cfg: SessionConfig,
    inputs: Vec<Tensor<f32>>,
    trace: Execution,
    trace_commitment: TraceCommitment,
    output: Tensor<f32>,
    meta: ClaimMeta,
    commitment: Digest,
}

impl PendingSession {
    /// The claim commitment `C0` that will be posted.
    pub fn commitment(&self) -> &Digest {
        &self.commitment
    }

    /// Root of the per-node trace commitment bound into `C0` (the
    /// proposer's kept trace, committed in one batch at prepare time).
    pub fn trace_root(&self) -> Digest {
        self.trace_commitment.root()
    }

    /// Posts the claim, charging the gas quote and escrowing the deposit
    /// from the deployment's static report (`max(D_p, deposit_bound)`).
    /// Claim ids are assigned by the coordinator in submission order, so
    /// submitting in session order (as [`crate::Scheduler`]'s turnstile
    /// does) keeps them deterministic.
    ///
    /// # Errors
    ///
    /// Returns an error when the proposer cannot post its deposit.
    pub fn submit(self, coordinator: &SharedCoordinator) -> Result<Session> {
        let claim_id = coordinator.coordinator().submit_claim_quoted(
            &self.cfg.proposer_account,
            self.commitment,
            &self.meta,
            &self.deployment.static_report,
        )?;
        Ok(Session {
            deployment: self.deployment,
            cfg: self.cfg,
            inputs: self.inputs,
            trace: self.trace,
            trace_root: self.trace_commitment.root(),
            trace_commitment: self.trace_commitment,
            output: self.output,
            claim_id,
            screening: None,
            dispute: None,
            verdict: None,
            winner: None,
            abandoned: false,
        })
    }
}

/// A live session handle over a posted claim.
#[derive(Debug)]
pub struct Session {
    deployment: Deployment,
    cfg: SessionConfig,
    inputs: Vec<Tensor<f32>>,
    trace: Execution,
    /// The trace root bound into the posted `C0`.
    trace_root: Digest,
    trace_commitment: TraceCommitment,
    output: Tensor<f32>,
    claim_id: u64,
    screening: Option<Screening>,
    dispute: Option<DisputeOutcome>,
    verdict: Option<(AdjudicationPath, LeafVerdict)>,
    winner: Option<Party>,
    abandoned: bool,
}

impl Session {
    /// Coordinator claim id of this session's claim.
    pub fn claim_id(&self) -> u64 {
        self.claim_id
    }

    /// The proposer's posted output.
    pub fn output(&self) -> &Tensor<f32> {
        &self.output
    }

    /// The screening outcome, when [`screen`](Self::screen) has run.
    pub fn screening(&self) -> Option<&Screening> {
        self.screening.as_ref()
    }

    /// Phase 2 trigger: the challenger re-executes the claim on its device
    /// and compares final-output error percentiles against the committed
    /// thresholds. The resulting trace is cached on the session and reused
    /// by [`dispute`](Self::dispute), so the challenger pays exactly one
    /// forward pass. Idempotent; returns whether the claim is flagged.
    ///
    /// # Errors
    ///
    /// Returns an error when re-execution fails or the output operator has
    /// no committed threshold (a deployment bug, not fraud).
    pub fn screen(&mut self) -> Result<bool> {
        if self.screening.is_none() {
            let screening = screen_claim(
                &self.deployment.model.graph,
                self.deployment.model.logits,
                &self.deployment.thresholds,
                ClaimCheck {
                    inputs: &self.inputs,
                    claimed_output: &self.output,
                },
                &self.cfg.challenger,
            )?;
            self.screening = Some(screening);
        }
        Ok(self.screening.as_ref().expect("just cached").flagged)
    }

    /// Phases 2–3 for a flagged claim: opens the challenge, plays the
    /// dispute localization game reusing the screening trace (the
    /// challenger's forward pass is *not* recomputed), and adjudicates the
    /// leaf when one is reached. No-op returning `None` for unflagged
    /// claims; idempotent once resolved.
    ///
    /// # Errors
    ///
    /// Errors when called before [`screen`](Self::screen), or when a
    /// protocol step fails structurally.
    pub fn dispute(&mut self, coordinator: &SharedCoordinator) -> Result<Option<&DisputeOutcome>> {
        let Some(screening) = &self.screening else {
            return Err(TaoError::Config(
                "dispute() requires screen() to have run".into(),
            ));
        };
        if !screening.flagged {
            return Ok(None);
        }
        self.challenge_and_resolve(coordinator)
    }

    /// Opens a challenge and plays the dispute game **regardless of the
    /// screening verdict** — the stake-bleed griefing move: a challenger
    /// disputing a claim its own screening did not flag. The dispute is
    /// objective, so against an honest proposer the descent finds no
    /// offending child and the griefer forfeits its deposit at settlement.
    /// Idempotent once a dispute is resolved.
    ///
    /// # Errors
    ///
    /// Errors when called before [`screen`](Self::screen) (the griefer
    /// still needs a trace to play the game with), or when a protocol step
    /// fails structurally (e.g. the griefer cannot post its deposit).
    pub fn force_dispute(
        &mut self,
        coordinator: &SharedCoordinator,
    ) -> Result<Option<&DisputeOutcome>> {
        if self.screening.is_none() {
            return Err(TaoError::Config(
                "force_dispute() requires screen() to have run".into(),
            ));
        }
        self.challenge_and_resolve(coordinator)
    }

    /// The shared body of [`dispute`](Self::dispute) and
    /// [`force_dispute`](Self::force_dispute) once a screening exists:
    /// returns a resolved dispute as is, otherwise opens the challenge and
    /// plays the game.
    fn challenge_and_resolve(
        &mut self,
        coordinator: &SharedCoordinator,
    ) -> Result<Option<&DisputeOutcome>> {
        if self.dispute.is_none() {
            coordinator
                .coordinator()
                .open_challenge(self.claim_id, &self.cfg.challenger_account)?;
            self.resolve_dispute()?;
        }
        Ok(self.dispute.as_ref())
    }

    /// The collusion exit move: the session's challenger opens a challenge
    /// (escrowing `D_ch`) and then walks away without playing the dispute
    /// game, leaving the claim frozen in `Disputed`. A colluding
    /// proposer/challenger pair uses this to front-run honest watchtowers —
    /// the claim can no longer be challenged by anyone else. The session
    /// cannot settle from this state; a watchtower must take the dispute
    /// over via [`adopt_dispute`](Self::adopt_dispute).
    ///
    /// # Errors
    ///
    /// Errors when the challenge cannot be opened (claim not pending,
    /// window closed, or insufficient challenger funds).
    pub fn challenge_and_abandon(&mut self, coordinator: &SharedCoordinator) -> Result<()> {
        coordinator
            .coordinator()
            .open_challenge(self.claim_id, &self.cfg.challenger_account)?;
        self.abandoned = true;
        Ok(())
    }

    /// Watchtower takeover of an abandoned dispute: `account` becomes
    /// challenger of record (posting a fresh `D_ch`; the deserter's deposit
    /// is burned by the coordinator), screens the claim on `device` — one
    /// forward pass, exactly what a voluntary challenger would have paid —
    /// and plays the dispute game to resolution. The session's challenger
    /// identity is rebound to the adopter, so [`settle`](Self::settle)
    /// then routes bonds to the watchtower.
    ///
    /// # Errors
    ///
    /// Errors when the session was not abandoned, when the adopter cannot
    /// post its deposit, or when a protocol step fails structurally.
    pub fn adopt_dispute(
        &mut self,
        coordinator: &SharedCoordinator,
        account: &str,
        device: &Device,
    ) -> Result<Option<&DisputeOutcome>> {
        if !self.abandoned {
            return Err(TaoError::Config(
                "adopt_dispute() requires an abandoned dispute".into(),
            ));
        }
        coordinator
            .coordinator()
            .adopt_challenge(self.claim_id, account)?;
        self.cfg.challenger = device.clone();
        self.cfg.challenger_account = account.to_string();
        // The adopter screens for itself: its own trace replaces the
        // deserter's, and the dispute below reuses it — the adopter pays one
        // forward pass, never more.
        self.screening = None;
        self.screen()?;
        self.abandoned = false;
        self.resolve_dispute()?;
        Ok(self.dispute.as_ref())
    }

    /// True when the session's challenge was opened and then abandoned
    /// (see [`challenge_and_abandon`](Self::challenge_and_abandon)) and no
    /// watchtower has adopted it yet.
    pub fn abandoned(&self) -> bool {
        self.abandoned
    }

    /// Plays the dispute localization game for the already-opened
    /// challenge (reusing the cached screening trace) and adjudicates the
    /// leaf when one is reached, recording outcome, verdict and winner.
    fn resolve_dispute(&mut self) -> Result<()> {
        let screening = self
            .screening
            .as_ref()
            .expect("resolve_dispute() runs after a screening is cached");
        let graph = &self.deployment.model.graph;
        // The proposer committed to its trace when the claim was prepared
        // (its kept trace, root bound into `C0`); the
        // dispute reads every record's digests from that commitment — it
        // is never rebuilt, and no activation tensor is rehashed — and
        // anchors every revealed digest to the root bound into `C0`, so a
        // tampered, stale or withheld commitment is detected and attributed
        // instead of silently steering the descent.
        let outcome = run_dispute(
            graph,
            self.deployment
                .dispute_anchors()
                .with_trace_root(&self.trace_root),
            ProposerView::new(&self.trace).with_commitment(&self.trace_commitment),
            &self.inputs,
            ChallengerView::from_screening(&self.cfg.challenger, screening),
            &self.deployment.thresholds,
            DisputeConfig {
                n_way: self.cfg.n_way,
            },
        )?;
        let (verdict, winner) = match outcome.result {
            DisputeResult::Leaf(leaf) => {
                // Phase 3: single-operator adjudication.
                let case = leaf_case(graph, leaf, &self.trace, &self.inputs);
                let committee = sample_committee(
                    self.deployment.fleet.devices(),
                    self.cfg.committee,
                    self.cfg.seed,
                );
                let engine = BoundEngine::paper_default();
                let (path, leaf_verdict) =
                    adjudicate(&case, &engine, &self.deployment.thresholds, &committee)?;
                let winner = match leaf_verdict {
                    LeafVerdict::Fraud => Party::Challenger,
                    LeafVerdict::Accepted => Party::Proposer,
                };
                (Some((path, leaf_verdict)), winner)
            }
            DisputeResult::NoOffendingChild { .. } => (None, Party::Proposer),
            // A reveal failed to open against the root bound into `C0`:
            // attributable proposer fraud, no leaf adjudication needed.
            DisputeResult::CommitmentBreach { .. } => (None, Party::Challenger),
        };
        self.verdict = verdict;
        self.winner = Some(winner);
        self.dispute = Some(outcome);
        Ok(())
    }

    /// Final phase: settles a resolved dispute (slashing the loser) or
    /// lets an unchallenged claim's window elapse, then reports. A
    /// resolved dispute settles whether or not the screening flagged the
    /// claim — a griefer's forced dispute on a clean claim settles for the
    /// proposer.
    ///
    /// # Errors
    ///
    /// Errors when called before [`screen`](Self::screen), when a flagged
    /// claim was never [`dispute`](Self::dispute)d, when the dispute was
    /// [abandoned](Self::challenge_and_abandon) without an
    /// [adoption](Self::adopt_dispute), or when settlement fails on the
    /// coordinator.
    pub fn settle(self, coordinator: &SharedCoordinator) -> Result<SessionReport> {
        let Some(screening) = &self.screening else {
            return Err(TaoError::Config(
                "settle() requires screen() to have run".into(),
            ));
        };
        let final_status = {
            let coord = coordinator.coordinator();
            if let Some(winner) = self.winner {
                coord.settle(self.claim_id, winner, self.cfg.committee)?;
            } else if self.abandoned {
                return Err(TaoError::Config(
                    "settle() on an abandoned dispute: adopt_dispute() first".into(),
                ));
            } else if screening.flagged {
                return Err(TaoError::Config(
                    "settle() requires dispute() on a flagged claim".into(),
                ));
            } else {
                coord.advance(self.cfg.window + 1);
            }
            coord.claim(self.claim_id)?.status
        };
        Ok(SessionReport {
            claim_id: self.claim_id,
            output: self.output,
            challenged: screening.flagged || self.dispute.is_some(),
            exceedance: screening.exceedance,
            dispute: self.dispute,
            verdict: self.verdict,
            final_status,
        })
    }
}

/// Convenience: builds a funded coordinator with default market economics
/// and a mid-region slash.
///
/// # Errors
///
/// Returns an error when the default economics have an empty feasible
/// region (they do not).
pub fn default_coordinator() -> Result<Coordinator> {
    let econ = tao_protocol::EconParams::default_market();
    let (lo, hi) = econ
        .feasible_slash_region()
        .ok_or_else(|| TaoError::Config("default economics infeasible".into()))?;
    let c = Coordinator::new(econ, (lo + hi) / 2.0)?;
    c.fund("proposer", 10_000);
    c.fund("challenger", 1_000);
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::deploy;
    use tao_calib::DEFAULT_ALPHA;
    use tao_device::Fleet;
    use tao_graph::execute;
    use tao_models::{bert, data, BertConfig};

    fn deployment() -> (Deployment, Vec<Tensor<f32>>) {
        let cfg = BertConfig {
            layers: 1,
            ..BertConfig::small()
        };
        let model = bert::build(cfg, 1);
        let samples = data::token_dataset(6, cfg.seq, cfg.vocab, 100);
        let d = deploy(model, Fleet::standard(), &samples, DEFAULT_ALPHA).unwrap();
        let inputs = vec![bert::sample_ids(cfg, 777)];
        (d, inputs)
    }

    #[test]
    fn honest_session_finalizes_unchallenged() {
        let (d, inputs) = deployment();
        let coord = SharedCoordinator::new(default_coordinator().unwrap());
        let report = SessionBuilder::new(&d, inputs).run(&coord).unwrap();
        assert!(
            !report.challenged,
            "honest cross-device run must pass screening"
        );
        assert!(report.exceedance <= 1.0);
        assert!(report.proposer_prevailed());
        assert!(matches!(report.final_status, ClaimStatus::Finalized));
    }

    #[test]
    fn malicious_session_is_caught_and_slashed() {
        let (d, inputs) = deployment();
        let coord = SharedCoordinator::new(default_coordinator().unwrap());
        // Perturb an interior operator enough to shift the output.
        let target = d.model.graph.compute_nodes()[2];
        let honest = execute(
            &d.model.graph,
            &inputs,
            Device::rtx4090_like().config(),
            None,
        )
        .unwrap();
        let shape = honest.values[target.0].dims().to_vec();
        let mut p = Perturbations::new();
        p.insert(target, Tensor::full(&shape, 0.02));
        let report = SessionBuilder::new(&d, inputs)
            .behavior(ProposerBehavior::Malicious(p))
            .run(&coord)
            .unwrap();
        assert!(report.challenged);
        let dispute = report.dispute.as_ref().unwrap();
        assert!(matches!(dispute.result, DisputeResult::Leaf(_)));
        let (_, verdict) = report.verdict.unwrap();
        assert_eq!(verdict, LeafVerdict::Fraud);
        assert!(matches!(
            report.final_status,
            ClaimStatus::Settled {
                winner: Party::Challenger
            }
        ));
        assert!(coord.balance("challenger") > Money::from_credits(1_000));
    }

    /// A proposer serving a commitment other than the one whose root it
    /// bound into `C0` (withheld, truncated or over-long) is convicted at
    /// round 0 of the dispute, and the session settles for the challenger
    /// without a leaf verdict.
    #[test]
    fn a_doctored_commitment_settles_for_the_challenger() {
        let (d, inputs) = deployment();
        let target = d.model.graph.compute_nodes()[2];
        let honest = execute(
            &d.model.graph,
            &inputs,
            Device::rtx4090_like().config(),
            None,
        )
        .unwrap();
        let mut p = Perturbations::new();
        p.insert(target, Tensor::full(honest.values[target.0].dims(), 0.02));
        let n = honest.values.len();
        for label in ["withheld", "truncated", "over-long"] {
            let coord = SharedCoordinator::new(default_coordinator().unwrap());
            let mut session = SessionBuilder::new(&d, inputs.clone())
                .behavior(ProposerBehavior::Malicious(p.clone()))
                .submit(&coord)
                .unwrap();
            assert!(session.screen().unwrap(), "{label}");
            let all = session.trace_commitment.digests();
            let digests = match label {
                "withheld" => Vec::new(),
                "truncated" => all[..all.len() / 2].to_vec(),
                _ => [all, &all[..1]].concat(),
            };
            assert_ne!(digests.len(), n, "{label}");
            session.trace_commitment = TraceCommitment::from_digests(digests);
            let outcome = session.dispute(&coord).unwrap().unwrap();
            assert!(
                matches!(
                    outcome.result,
                    DisputeResult::CommitmentBreach { round: 0, .. }
                ),
                "{label}: {:?}",
                outcome.result
            );
            let report = session.settle(&coord).unwrap();
            assert_eq!(report.verdict, None, "{label}");
            assert!(
                matches!(
                    report.final_status,
                    ClaimStatus::Settled {
                        winner: Party::Challenger
                    }
                ),
                "{label}"
            );
        }
    }

    #[test]
    fn dispute_localizes_exact_perturbed_operator() {
        let (d, inputs) = deployment();
        let coord = SharedCoordinator::new(default_coordinator().unwrap());
        let target = d.model.graph.compute_nodes()[4];
        let honest = execute(
            &d.model.graph,
            &inputs,
            Device::rtx4090_like().config(),
            None,
        )
        .unwrap();
        let shape = honest.values[target.0].dims().to_vec();
        let mut p = Perturbations::new();
        p.insert(target, Tensor::full(&shape, 0.05));
        let report = SessionBuilder::new(&d, inputs)
            .behavior(ProposerBehavior::Malicious(p))
            .run(&coord)
            .unwrap();
        if let Some(dispute) = &report.dispute {
            if let DisputeResult::Leaf(leaf) = dispute.result {
                assert_eq!(leaf, target, "dispute must land on the perturbed operator");
            }
        }
    }

    #[test]
    fn phases_are_separately_drivable_and_guarded() {
        let (d, inputs) = deployment();
        let coord = SharedCoordinator::new(default_coordinator().unwrap());
        let pending = SessionBuilder::new(&d, inputs).prepare().unwrap();
        let c0 = *pending.commitment();
        let mut session = pending.submit(&coord).unwrap();
        assert_eq!(session.claim_id(), 0);
        assert_eq!(
            coord.coordinator().claim(0).unwrap().commitment,
            c0,
            "posted commitment matches the prepared one"
        );
        // dispute() before screen() is a contract violation.
        assert!(session.dispute(&coord).is_err());
        assert!(!session.screen().unwrap());
        assert!(session.screening().is_some());
        // Unflagged claims have no dispute.
        assert!(session.dispute(&coord).unwrap().is_none());
        let report = session.settle(&coord).unwrap();
        assert!(report.proposer_prevailed());
    }

    #[test]
    fn griefed_honest_claim_settles_for_the_proposer() {
        let (d, inputs) = deployment();
        let coord = SharedCoordinator::new(default_coordinator().unwrap());
        let mut session = SessionBuilder::new(&d, inputs).submit(&coord).unwrap();
        // Ungated griefing: force_dispute before screen() is a contract
        // violation (the griefer still plays with a trace).
        assert!(session.force_dispute(&coord).is_err());
        assert!(!session.screen().unwrap(), "claim is honest");
        let outcome = session.force_dispute(&coord).unwrap().unwrap();
        assert!(
            matches!(outcome.result, DisputeResult::NoOffendingChild { .. }),
            "honest claim must yield no offending child: {:?}",
            outcome.result
        );
        let report = session.settle(&coord).unwrap();
        assert!(report.challenged, "a forced dispute counts as challenged");
        assert!(matches!(
            report.final_status,
            ClaimStatus::Settled {
                winner: Party::Proposer
            }
        ));
        // The griefer forfeited its deposit to the honest proposer.
        assert!(coord.balance("challenger") < Money::from_credits(1_000));
    }

    #[test]
    fn abandoned_dispute_cannot_settle() {
        let (d, inputs) = deployment();
        let coord = SharedCoordinator::new(default_coordinator().unwrap());
        let mut session = SessionBuilder::new(&d, inputs).submit(&coord).unwrap();
        assert!(!session.abandoned());
        session.screen().unwrap();
        session.challenge_and_abandon(&coord).unwrap();
        assert!(session.abandoned());
        // The claim is frozen: nobody else can challenge it...
        assert!(coord
            .coordinator()
            .open_challenge(0, "someone-else")
            .is_err());
        // ...and the session cannot settle out of the frozen state.
        assert!(session.settle(&coord).is_err());
    }

    #[test]
    fn watchtower_adopts_abandoned_dispute_and_convicts() {
        let (d, inputs) = deployment();
        let c = default_coordinator().unwrap();
        c.fund("watchtower", 1_000);
        let coord = SharedCoordinator::new(c);
        // Collusion: a perturbed claim challenged by the partner, which
        // immediately abandons the dispute.
        let target = d.model.graph.compute_nodes()[2];
        let honest = execute(
            &d.model.graph,
            &inputs,
            Device::rtx4090_like().config(),
            None,
        )
        .unwrap();
        let shape = honest.values[target.0].dims().to_vec();
        let mut p = Perturbations::new();
        p.insert(target, Tensor::full(&shape, 0.02));
        let mut session = SessionBuilder::new(&d, inputs)
            .behavior(ProposerBehavior::Malicious(p))
            .submit(&coord)
            .unwrap();
        // Adoption before abandonment is a contract violation.
        assert!(session
            .adopt_dispute(&coord, "watchtower", &Device::h100_like())
            .is_err());
        session.challenge_and_abandon(&coord).unwrap();
        let outcome = session
            .adopt_dispute(&coord, "watchtower", &Device::h100_like())
            .unwrap()
            .unwrap();
        assert!(matches!(outcome.result, DisputeResult::Leaf(_)));
        assert!(!session.abandoned());
        let report = session.settle(&coord).unwrap();
        assert!(matches!(
            report.final_status,
            ClaimStatus::Settled {
                winner: Party::Challenger
            }
        ));
        // The watchtower profits; the deserting colluder's deposit burned.
        assert!(coord.balance("watchtower") > Money::from_credits(1_000));
        let colluder_total =
            coord.balance("challenger") + coord.coordinator().escrowed("challenger");
        assert!(
            colluder_total < Money::from_credits(1_000),
            "deserter kept {colluder_total}"
        );
        let ledger = coord.coordinator().ledger();
        assert_eq!(ledger.total_value(), ledger.injected());
    }

    #[test]
    fn multi_input_claims_bind_every_input() {
        // Two prepared claims differing only in a non-leading input must
        // commit differently (the old API hashed inputs[0] only).
        let (d, _) = deployment();
        // BERT takes one input; emulate a multi-input claim directly via
        // the commitment primitive the session uses.
        let x = Tensor::<f32>::ones(&[2, 2]);
        let y1 = Tensor::<f32>::zeros(&[2, 2]);
        let y2 = Tensor::<f32>::full(&[2, 2], 0.5);
        let meta = ClaimMeta {
            device: "dev".into(),
            kernel: "k".into(),
            dtype: "f32".into(),
            challenge_window: 10,
        };
        let out = Tensor::<f32>::ones(&[1]);
        let rt = tao_merkle::sha256(b"trace-root");
        let c1 = claim_commitment(
            &d.commitment,
            &inputs_hash(&[x.clone(), y1]),
            &tensor_hash(&out),
            &rt,
            &meta,
        );
        let c2 = claim_commitment(
            &d.commitment,
            &inputs_hash(&[x, y2]),
            &tensor_hash(&out),
            &rt,
            &meta,
        );
        assert_ne!(c1, c2, "second input must be bound into C0");
    }
}
