//! Concurrent session scheduling over one shared deployment and
//! coordinator.
//!
//! The scheduler is an in-order pipeline whose result is *observationally
//! equivalent* to running the same sessions one after another. A pool of
//! `min(threads, batch)` scoped workers (`threads` is at most
//! `MAX_PAR_THREADS`) pulls session indices from one shared queue, and
//! each worker drives its session from start to finish before it pulls
//! the next:
//!
//! 1. **Prepare**: the proposer's forward pass and trace commitment, with
//!    no coordinator interaction.
//! 2. **Submit**, through a turnstile: session `i` posts its claim only
//!    after session `i − 1` has posted, so session `i` gets the `i`-th
//!    claim id the coordinator hands out whichever worker runs it.
//! 3. **Resolve**: challenger screening, dispute localization and leaf
//!    adjudication (or a custom hook, see [`Scheduler::run_with`]);
//!    `open_challenge` holds the coordinator's lock only for its own
//!    bookkeeping.
//! 4. **Settle**, after one barrier: every worker waits until every
//!    resolve is done, then settles the sessions it ran. No session
//!    advances the clock before the barrier, so one honest claim's
//!    `advance(window + 1)` cannot close another claim's window before
//!    that claim is screened. Each settle or advance runs alone under the
//!    coordinator's one lock, and per-claim settlement commutes (every
//!    amount is a function of its claim, the clock only moves forward),
//!    so the interleaving does not matter. Reports are collected in
//!    session order.
//!
//! A worker keeps one session's model weights and traces hot from its
//! proposer pass to its challenger pass; nothing waits for the whole batch
//! but settlement.
//!
//! Bond arithmetic on the coordinator is a sum of per-event deltas, so the
//! final balances, claim statuses, per-session reports and epoch roots
//! match a serial run exactly (see `tests/tests/scheduler.rs` for the
//! equivalence test and `tests/tests/coordinator_invariants.rs` for the
//! coordinator-level proptest). The one behavioral difference is peak
//! escrow: every deposit of the batch may be locked at once before the
//! barrier, so accounts must be funded for the sum of the batch's
//! deposits rather than one at a time. That requirement is checked **at
//! admission**, before any worker starts: an underfunded batch fails with
//! a typed [`TaoError::InsufficientFunds`] naming the account, its peak
//! escrow requirement and its balance, instead of bouncing mid-batch with
//! earlier claims already pending.
//!
//! These session workers are the only threads a batch runs: every kernel
//! runs on its caller's thread.

use std::collections::BTreeMap;
use std::sync::{Barrier, Condvar, Mutex, MutexGuard, PoisonError};

use tao_protocol::par::MAX_PAR_THREADS;
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
    /// A scheduler sized to the host's available parallelism, clamped to
    /// `[1, MAX_PAR_THREADS]`.
    pub fn new() -> Self {
        Scheduler::with_threads(tao_tensor::kernel::host_threads())
    }

    /// A scheduler with an explicit worker count, clamped to
    /// `[1, MAX_PAR_THREADS]`. A batch runs on no more workers than it has
    /// sessions.
    pub fn with_threads(threads: usize) -> Self {
        Scheduler {
            threads: threads.clamp(1, MAX_PAR_THREADS),
        }
    }

    /// The most workers a batch can use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every session to completion and returns their reports in
    /// session order. Claim ids are assigned deterministically: session
    /// `i` receives the `i`-th claim id the coordinator allocates.
    ///
    /// # Errors
    ///
    /// Returns the first error by session order, after every session that
    /// posted a claim has been driven as far as it goes (the reports are
    /// discarded with the error).
    ///
    /// - An underfunded batch fails admission and posts nothing.
    /// - A prepare or submit error in session `i` stops every later
    ///   session before it posts: session `i` and every session after it
    ///   post no claim, and sessions before `i` still settle or finalize.
    /// - A resolve or settle error leaves that session's claim where the
    ///   error found it; every other posted session still settles.
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

    /// [`run`](Self::run) with a custom resolve step: `resolve` replaces
    /// the default screen-then-dispute-if-flagged logic and runs once per
    /// session, on the session's worker right after its claim posts,
    /// receiving the session's batch index, the session handle and the
    /// shared coordinator. Whatever it returns rides along with the
    /// session's report.
    ///
    /// This is the campaign hook: adversarial drivers use it to play
    /// non-default moves — forced disputes on clean claims, abandoned
    /// challenges adopted by watchtowers — while keeping the scheduler's
    /// ordered submission and settlement barrier (and its determinism
    /// guarantees) intact. `resolve` must not advance the clock.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_with<T: Send>(
        &self,
        coordinator: &SharedCoordinator,
        sessions: Vec<SessionBuilder>,
        resolve: impl Fn(usize, &mut Session, &SharedCoordinator) -> Result<T> + Sync,
    ) -> Result<Vec<(SessionReport, T)>> {
        // Every deposit of the batch may be escrowed at once before the
        // settlement barrier, so an account must cover the *sum* of its
        // quotes, not one deposit at a time. Checking before any worker
        // starts turns an opaque mid-batch bounce (which would strand
        // already-posted claims) into a typed error naming the peak.
        check_peak_escrow(coordinator, &sessions)?;
        let batch = sessions.len();
        let workers = self.threads.min(batch);
        let queue = Mutex::new(sessions.into_iter().enumerate());
        let turnstile = Turnstile::default();
        let barrier = Barrier::new(workers);
        // Prepare, submit in turn and resolve one session; `None` when an
        // earlier session failed before this one could post.
        let pipeline = |index: usize, builder: SessionBuilder| {
            let _close = CloseOnUnwind(&turnstile, index);
            let mut session = match turnstile.submit(index, builder.prepare(), coordinator)? {
                Ok(session) => session,
                Err(e) => return Some(Err(e)),
            };
            Some(resolve(index, &mut session, coordinator).map(|extra| (session, extra)))
        };
        let worker = || {
            let resolved = {
                let _arrive = ArriveOnDrop(&barrier);
                let mut resolved = Vec::new();
                loop {
                    // Its own statement, so the queue unlocks before the
                    // session runs.
                    let Some((index, builder)) = lock(&queue).next() else {
                        break resolved;
                    };
                    if let Some(outcome) = pipeline(index, builder) {
                        resolved.push((index, outcome));
                    }
                }
            };
            resolved
                .into_iter()
                .map(|(index, outcome)| {
                    let settled = outcome.and_then(|(session, extra)| {
                        session.settle(coordinator).map(|report| (report, extra))
                    });
                    (index, settled)
                })
                .collect::<Vec<_>>()
        };
        let mut slots: Vec<Option<Result<(SessionReport, T)>>> = Vec::new();
        slots.resize_with(batch, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            for handle in handles {
                let settled = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (index, outcome) in settled {
                    slots[index] = Some(outcome);
                }
            }
        });
        // A session is skipped only after an earlier one failed, and that
        // failure fills its slot, so the first error comes first.
        slots
            .into_iter()
            .map(|slot| slot.expect("a skipped session follows a failed one"))
            .collect()
    }
}

/// Orders claim submission: session `i` posts only after every session
/// before it posted, unless a session at or before `i` failed to post, in
/// which case session `i` never posts.
#[derive(Default)]
struct Turnstile {
    turn: Mutex<Turn>,
    changed: Condvar,
}

struct Turn {
    /// The next session index allowed to post.
    next: usize,
    /// The first session that failed to post; no later session posts.
    stop: usize,
}

impl Default for Turn {
    fn default() -> Self {
        Turn {
            next: 0,
            stop: usize::MAX,
        }
    }
}

impl Turnstile {
    /// Waits for session `index`'s turn and posts its prepared claim.
    /// A prepare error closes the turnstile without waiting. `None` when
    /// an earlier session failed to post.
    fn submit(
        &self,
        index: usize,
        prepared: Result<PendingSession>,
        coordinator: &SharedCoordinator,
    ) -> Option<Result<Session>> {
        let mut turn = lock(&self.turn);
        let submitted = match prepared {
            Ok(pending) => {
                while turn.next < index && index < turn.stop {
                    turn = self
                        .changed
                        .wait(turn)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if index > turn.stop {
                    return None;
                }
                pending.submit(coordinator)
            }
            Err(e) => Err(e),
        };
        match submitted {
            Ok(_) => turn.next += 1,
            Err(_) => turn.stop = turn.stop.min(index),
        }
        self.changed.notify_all();
        Some(submitted)
    }

    /// Stops every session after `index` from posting.
    fn close(&self, index: usize) {
        let mut turn = lock(&self.turn);
        turn.stop = turn.stop.min(index);
        self.changed.notify_all();
    }
}

/// Closes the turnstile at its session when a worker panics, so later
/// sessions stop waiting for a turn that never comes.
struct CloseOnUnwind<'a>(&'a Turnstile, usize);

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close(self.1);
        }
    }
}

/// Arrives at the settlement barrier when dropped, also when a worker
/// panics, so the other workers never wait for it forever.
struct ArriveOnDrop<'a>(&'a Barrier);

impl Drop for ArriveOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Locks `mutex`, ignoring poison: a panicking worker's panic is
/// re-raised when the scope joins it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Verifies every proposer account can cover the batch's peak concurrent
/// escrow: the exact sum of its sessions' deposit quotes
/// (`max(D_p, deposit_bound)` each, in fixed-point money) against its
/// free balance. Accounts are checked in name order so the first failure
/// is deterministic.
fn check_peak_escrow(coordinator: &SharedCoordinator, sessions: &[SessionBuilder]) -> Result<()> {
    let inner = coordinator.coordinator();
    let mut peak: BTreeMap<&str, Money> = BTreeMap::new();
    for session in sessions {
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
