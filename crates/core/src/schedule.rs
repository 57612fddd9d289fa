//! Concurrent session scheduling over one shared deployment and
//! coordinator.
//!
//! The scheduler alternates parallel compute phases with short serial
//! coordinator phases so that concurrent execution is *observationally
//! equivalent* to running the same sessions one after another:
//!
//! 1. **Prepare** (parallel): every proposer forward pass runs on a scoped
//!    worker thread — no coordinator interaction.
//! 2. **Submit** (serial, in session order): claims are posted one by one,
//!    so claim ids are assigned deterministically (session `i` gets the
//!    `i`-th id the coordinator hands out).
//! 3. **Screen + dispute** (parallel): challenger screening, dispute
//!    localization and leaf adjudication run concurrently; `open_challenge`
//!    holds the coordinator's lock only for its own bookkeeping. No
//!    session advances the clock here, so no claim's challenge window can
//!    close under a slower session.
//! 4. **Settle** (parallel): disputed claims settle and unchallenged
//!    claims' windows elapse concurrently. Each settle or advance runs
//!    alone under the coordinator's one lock, and per-claim settlement
//!    commutes (every amount is a function of its claim, the clock only
//!    moves forward), so the interleaving does not matter. Reports are
//!    collected in session order.
//!
//! Bond arithmetic on the coordinator is a sum of per-event deltas, so the
//! final balances, claim statuses and per-session reports match a serial
//! run exactly (see `tests/tests/scheduler.rs` for the equivalence test
//! and `tests/tests/coordinator_invariants.rs` for the coordinator-level
//! proptest). The one behavioral difference is peak escrow: all proposer
//! deposits are locked at once during phase 2, so accounts must be funded
//! for the sum of concurrent deposits rather than one at a time. That
//! requirement is checked **at admission**, before any claim is posted:
//! an underfunded batch fails with a typed
//! [`TaoError::InsufficientFunds`] naming the account, its peak escrow
//! requirement and its balance, instead of bouncing mid-batch with
//! earlier claims already pending.
//!
//! The worker pool is configurable up to [`MAX_WORKERS`]. The settle
//! phase runs no forward passes and uses the full pool; the compute-bound
//! phases (prepare, screen + dispute) stay clamped to
//! [`MAX_PAR_THREADS`]. These session workers are the only threads a
//! batch runs: every kernel runs on its caller's thread.

use std::collections::BTreeMap;

use tao_protocol::par::{parallel_map, MAX_PAR_THREADS, MAX_WORKERS};
use tao_protocol::Money;

use crate::error::TaoError;
use crate::session::{PendingSession, Session, SessionBuilder, SessionReport, SharedCoordinator};
use crate::Result;

/// Runs batches of verification sessions concurrently.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    threads: usize,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl Scheduler {
    /// A scheduler sized to the host's available parallelism (bounded by
    /// [`MAX_WORKERS`]).
    pub fn new() -> Self {
        let threads = tao_tensor::kernel::host_threads().min(MAX_WORKERS);
        Scheduler { threads }
    }

    /// A scheduler with an explicit worker count (at least 1). Pools up
    /// to [`MAX_WORKERS`] are accepted (the compute-bound phases
    /// internally clamp to [`MAX_PAR_THREADS`]).
    pub fn with_threads(threads: usize) -> Self {
        Scheduler {
            threads: threads.clamp(1, MAX_WORKERS),
        }
    }

    /// The effective worker-thread count after clamping.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every session to completion and returns their reports in
    /// session order. Claim ids are assigned deterministically: session
    /// `i` receives the `i`-th claim id the coordinator allocates.
    ///
    /// # Errors
    ///
    /// Returns the first error (by session order) any phase produced. A
    /// submission error (phase 2) leaves already-submitted claims pending
    /// on the coordinator; an error in a parallel phase propagates only
    /// after that phase completes, so every surviving session has still
    /// been driven through settlement or finality (the reports are
    /// discarded with the error).
    pub fn run(
        &self,
        coordinator: &SharedCoordinator,
        sessions: Vec<SessionBuilder>,
    ) -> Result<Vec<SessionReport>> {
        let resolved = self.run_with(coordinator, sessions, |_, session, coord| {
            if session.screen()? {
                session.dispute(coord)?;
            }
            Ok(())
        })?;
        Ok(resolved.into_iter().map(|(report, ())| report).collect())
    }

    /// [`run`](Self::run) with a custom resolve phase: `resolve` replaces
    /// the default screen-then-dispute-if-flagged logic of phase 3 and
    /// runs once per session (concurrently, at the compute-phase thread
    /// cap), receiving the session's batch index, the session handle and
    /// the shared coordinator. Whatever it returns rides along with the
    /// session's report.
    ///
    /// This is the campaign hook: adversarial drivers use it to play
    /// non-default moves — forced disputes on clean claims, abandoned
    /// challenges adopted by watchtowers — while keeping the scheduler's
    /// four-phase structure (and its determinism guarantees) intact.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run): the first error by session order, after the
    /// failing phase completes.
    pub fn run_with<T: Send>(
        &self,
        coordinator: &SharedCoordinator,
        sessions: Vec<SessionBuilder>,
        resolve: impl Fn(usize, &mut Session, &SharedCoordinator) -> Result<T> + Sync,
    ) -> Result<Vec<(SessionReport, T)>> {
        // Compute-bound phases clamp to MAX_PAR_THREADS; only the
        // coordinator-bound settle phase uses the full pool.
        let compute_threads = self.threads.min(MAX_PAR_THREADS);
        // Phase 1 (parallel): proposer forward passes + commitments.
        let prepared = parallel_map(sessions, compute_threads, SessionBuilder::prepare);
        let mut pending = Vec::with_capacity(prepared.len());
        for p in prepared {
            pending.push(p?);
        }
        // Admission check: concurrent sessions escrow every deposit at
        // once during phase 2, so an account must cover the *sum* of its
        // quotes, not one deposit at a time. Checking up front turns an
        // opaque mid-batch bounce (which would strand already-posted
        // claims) into a typed error naming the peak requirement.
        check_peak_escrow(coordinator, &pending)?;
        // Phase 2 (serial, in order): deterministic claim-id assignment.
        let mut submitted = Vec::with_capacity(pending.len());
        for (index, session) in pending.into_iter().enumerate() {
            submitted.push((index, session.submit(coordinator)?));
        }
        // Phase 3 (parallel): screening, disputes and leaf adjudication —
        // or whatever moves `resolve` plays instead.
        let resolve = &resolve;
        let resolved = parallel_map(
            submitted,
            compute_threads,
            |(index, mut session)| -> Result<_> {
                let extra = resolve(index, &mut session, coordinator)?;
                Ok((session, extra))
            },
        );
        // Phase 4 (parallel): settlement. Per-claim settles and clock
        // advances commute on the coordinator, so reports are produced
        // concurrently and collected in session order.
        let settled = parallel_map(resolved, self.threads, |entry| -> Result<_> {
            let (session, extra) = entry?;
            Ok((session.settle(coordinator)?, extra))
        });
        let mut reports = Vec::with_capacity(settled.len());
        for report in settled {
            reports.push(report?);
        }
        Ok(reports)
    }
}

/// Verifies every proposer account can cover the batch's peak concurrent
/// escrow: the exact sum of its sessions' deposit quotes
/// (`max(D_p, deposit_bound)` each, in fixed-point money) against its
/// free balance. Accounts are checked in name order so the first failure
/// is deterministic.
fn check_peak_escrow(coordinator: &SharedCoordinator, pending: &[PendingSession]) -> Result<()> {
    let inner = coordinator.coordinator();
    let mut peak: BTreeMap<&str, Money> = BTreeMap::new();
    for session in pending {
        let entry = peak
            .entry(session.proposer_account())
            .or_insert(Money::ZERO);
        *entry += session.deposit_quote(inner);
    }
    for (account, needed) in peak {
        let available = inner.balance(account);
        if needed > available {
            return Err(TaoError::InsufficientFunds {
                account: account.to_string(),
                needed,
                available,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::deploy;
    use crate::session::{default_coordinator, ProposerBehavior};
    use tao_calib::DEFAULT_ALPHA;
    use tao_device::Fleet;
    use tao_graph::{execute, Perturbations};
    use tao_models::{bert, data, BertConfig};
    use tao_protocol::ClaimStatus;
    use tao_tensor::Tensor;

    #[test]
    fn scheduler_runs_mixed_sessions_with_deterministic_ids() {
        let cfg = BertConfig {
            layers: 1,
            ..BertConfig::small()
        };
        let model = bert::build(cfg, 1);
        let samples = data::token_dataset(6, cfg.seq, cfg.vocab, 100);
        let d = deploy(model, Fleet::standard(), &samples, DEFAULT_ALPHA).unwrap();
        let coord = SharedCoordinator::new(default_coordinator().unwrap());

        let target = d.model.graph.compute_nodes()[2];
        let honest_exec = execute(
            &d.model.graph,
            &[bert::sample_ids(cfg, 1)],
            tao_device::Device::rtx4090_like().config(),
            None,
        )
        .unwrap();
        let shape = honest_exec.values[target.0].dims().to_vec();
        let builders: Vec<SessionBuilder> = (0..4)
            .map(|i| {
                let b = SessionBuilder::new(&d, vec![bert::sample_ids(cfg, 100 + i)]);
                if i == 1 {
                    let mut p = Perturbations::new();
                    p.insert(target, Tensor::full(&shape, 0.05));
                    b.behavior(ProposerBehavior::Malicious(p))
                } else {
                    b
                }
            })
            .collect();
        let reports = Scheduler::with_threads(3).run(&coord, builders).unwrap();
        assert_eq!(reports.len(), 4);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.claim_id, i as u64, "claim ids assigned in session order");
            if i == 1 {
                assert!(r.challenged);
                assert!(!r.proposer_prevailed());
            } else {
                assert!(!r.challenged);
                assert!(matches!(r.final_status, ClaimStatus::Finalized));
            }
        }
    }

    /// An account that could fund claims one at a time but not the whole
    /// concurrent batch is rejected at admission with the exact peak
    /// escrow requirement — and no claim is posted.
    #[test]
    fn underfunded_batch_fails_admission_with_peak_escrow_requirement() {
        use tao_protocol::{Coordinator, EconParams};

        let cfg = BertConfig {
            layers: 1,
            ..BertConfig::small()
        };
        let model = bert::build(cfg, 1);
        let samples = data::token_dataset(6, cfg.seq, cfg.vocab, 100);
        let d = deploy(model, Fleet::standard(), &samples, DEFAULT_ALPHA).unwrap();

        let econ = EconParams::default_market();
        let (lo, hi) = econ.feasible_slash_region().unwrap();
        let inner = Coordinator::new(econ, (lo + hi) / 2.0).unwrap();
        let quote = inner.amounts().d_p.max(d.static_report.deposit_bound);
        // Enough for two serial claims, but not three concurrent ones.
        let funded = quote * 2;
        inner.fund("proposer", funded);
        let coord = SharedCoordinator::new(inner);

        let builders: Vec<SessionBuilder> = (0..3)
            .map(|i| SessionBuilder::new(&d, vec![bert::sample_ids(cfg, 300 + i)]))
            .collect();
        let err = Scheduler::with_threads(3)
            .run(&coord, builders)
            .unwrap_err();
        match err {
            TaoError::InsufficientFunds {
                account,
                needed,
                available,
            } => {
                assert_eq!(account, "proposer");
                assert_eq!(needed, quote * 3, "peak = sum of all concurrent quotes");
                assert_eq!(available, funded);
            }
            other => panic!("expected InsufficientFunds, got {other}"),
        }
        // Nothing was posted and nothing is escrowed: the batch was
        // rejected before phase 2 touched the coordinator.
        let inner = coord.into_inner();
        assert!(inner.claim(0).is_err(), "no claim may be posted");
        assert_eq!(inner.escrowed("proposer"), Money::ZERO);
        assert_eq!(inner.balance("proposer"), funded);
    }
}
