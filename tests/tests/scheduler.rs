//! Scheduler equivalence: running a batch of mixed honest/malicious
//! sessions concurrently must be observationally identical to running the
//! same sessions one after another — same claim ids, challenge flags,
//! exceedances, dispute outcomes and winners, bit-exact final balances
//! and the same sealed epoch root — at every pool size.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use tao::{
    deploy, Deployment, ProposerBehavior, Scheduler, SessionBuilder, SessionConfig, SessionReport,
    SharedCoordinator,
};
use tao_device::{Device, Fleet};
use tao_graph::{execute, Perturbations};
use tao_models::{bert, data, BertConfig};
use tao_protocol::{
    ClaimStatus, Coordinator, EconParams, LeafVerdict, Money, Party, ProtocolError,
};
use tao_tensor::Tensor;

const JOBS: usize = 6;
/// Which session indices cheat.
const CHEATS: [usize; 2] = [1, 4];

fn deployment() -> (Deployment, BertConfig) {
    let cfg = BertConfig {
        layers: 1,
        ..BertConfig::small()
    };
    let model = bert::build(cfg, 1);
    // 16 samples for envelope coverage on fresh inputs (see e2e notes).
    let samples = data::token_dataset(16, cfg.seq, cfg.vocab, 10);
    let d = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    (d, cfg)
}

/// A coordinator funded for the whole batch at once: concurrent sessions
/// escrow all their deposits simultaneously, so the proposer needs
/// `JOBS * D_p` available rather than `D_p` at a time.
fn coordinator() -> SharedCoordinator {
    let econ = EconParams::default_market();
    let (lo, hi) = econ.feasible_slash_region().unwrap();
    let c = Coordinator::new(econ, (lo + hi) / 2.0).unwrap();
    c.fund("proposer", 50_000);
    c.fund("challenger", 5_000);
    SharedCoordinator::new(c)
}

/// The same batch of sessions every time: inputs vary per job, and the
/// cheating jobs perturb different operators.
fn builders(d: &Deployment, cfg: BertConfig) -> Vec<SessionBuilder> {
    let nodes = d.model.graph.compute_nodes();
    (0..JOBS)
        .map(|i| {
            let inputs = vec![bert::sample_ids(cfg, 500 + i as u64)];
            let b = SessionBuilder::new(d, inputs.clone());
            if CHEATS.contains(&i) {
                let target = nodes[(2 + 3 * i) % nodes.len()];
                let honest = execute(
                    &d.model.graph,
                    &inputs,
                    Device::rtx4090_like().config(),
                    None,
                )
                .unwrap();
                let shape = honest.values[target.0].dims().to_vec();
                let delta = Tensor::<f32>::randn(&shape, 9_000 + i as u64).mul_scalar(0.05);
                let mut p = Perturbations::new();
                p.insert(target, delta);
                b.behavior(ProposerBehavior::Malicious(p))
            } else {
                b
            }
        })
        .collect()
}

fn winner_of(report: &SessionReport) -> Option<Party> {
    match report.final_status {
        ClaimStatus::Settled { winner } => Some(winner),
        _ => None,
    }
}

#[test]
fn concurrent_scheduler_is_equivalent_to_serial_execution() {
    let (d, cfg) = deployment();

    // Serial baseline: one session at a time through the one-shot runner.
    let serial_coord = coordinator();
    let serial: Vec<SessionReport> = builders(&d, cfg)
        .into_iter()
        .map(|b| b.run(&serial_coord).unwrap())
        .collect();
    let serial_root = serial_coord.coordinator().seal_epoch().root;
    let serial_inner = serial_coord.into_inner();
    for (i, s) in serial.iter().enumerate() {
        assert_eq!(s.claim_id, i as u64, "serial claim ids are sequential");
        assert_eq!(
            s.challenged,
            CHEATS.contains(&i),
            "session {i}: exactly the cheats are flagged (exceedance {})",
            s.exceedance
        );
        if s.challenged {
            assert_eq!(winner_of(s), Some(Party::Challenger));
            assert_eq!(s.verdict.map(|(_, v)| v), Some(LeafVerdict::Fraud));
        }
    }

    // A pool of one worker, pools narrower and wider than the batch, and
    // requests beyond the per-batch worker cap.
    for threads in [1, 2, 3, 8, 12] {
        let parallel_coord = coordinator();
        let parallel = Scheduler::with_threads(threads)
            .run(&parallel_coord, builders(&d, cfg))
            .unwrap();

        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            let at = format!("{threads} workers, session {i}");
            assert_eq!(p.claim_id, i as u64, "{at}: claim ids are deterministic");
            assert_eq!(s.challenged, p.challenged, "{at}: challenge flag");
            assert_eq!(
                s.exceedance.to_bits(),
                p.exceedance.to_bits(),
                "{at}: exceedance"
            );
            assert_eq!(s.final_status, p.final_status, "{at}: final status");
            assert_eq!(winner_of(s), winner_of(p), "{at}: winner");
            assert_eq!(s.verdict, p.verdict, "{at}: leaf verdict");
            assert_eq!(s.dispute, p.dispute, "{at}: dispute outcome");
        }

        // Final balances are bit-identical: the fixed-point ledger makes
        // bond arithmetic a sum of exact per-event deltas, independent of
        // interleaving.
        for account in ["proposer", "challenger", "committee-pool"] {
            let a = serial_inner.balance(account);
            let b = parallel_coord.balance(account);
            assert_eq!(
                a, b,
                "{threads} workers, {account}: serial {a} vs parallel {b}"
            );
        }
        // The canonical gas log seals to the same epoch root.
        assert_eq!(
            parallel_coord.coordinator().seal_epoch().root,
            serial_root,
            "{threads} workers: epoch root"
        );
        // And nothing is left in escrow on either path.
        let parallel_inner = parallel_coord.into_inner();
        for account in ["proposer", "challenger"] {
            assert_eq!(serial_inner.escrowed(account), Money::ZERO);
            assert_eq!(parallel_inner.escrowed(account), Money::ZERO);
        }
    }
}

/// A session that fails to prepare stops every later session before it
/// posts, while the sessions before it still run to settlement.
#[test]
fn a_prepare_error_stops_later_sessions_before_they_post() {
    const FAILING: usize = 3;
    let (d, cfg) = deployment();
    for threads in [1, 2, 3, 8] {
        let mut batch = builders(&d, cfg);
        // The model takes one `[seq]` token row; a `[2, 3, 5]` input
        // fails the proposer's forward pass.
        batch[FAILING] = SessionBuilder::new(&d, vec![Tensor::zeros(&[2, 3, 5])]);
        let coord = coordinator();
        let err = Scheduler::with_threads(threads)
            .run(&coord, batch)
            .unwrap_err();

        // The same error a serial prepare of that session returns.
        let direct = SessionBuilder::new(&d, vec![Tensor::zeros(&[2, 3, 5])])
            .prepare()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            direct.to_string(),
            "{threads} workers: run returns the prepare error"
        );

        let inner = coord.into_inner();
        for id in 0..FAILING as u64 {
            let status = inner.claim(id).unwrap().status;
            assert!(
                matches!(status, ClaimStatus::Finalized | ClaimStatus::Settled { .. }),
                "{threads} workers: claim {id} is {status:?}"
            );
        }
        assert!(
            matches!(
                inner.claim(FAILING as u64),
                Err(ProtocolError::UnknownClaim(id)) if id == FAILING as u64
            ),
            "{threads} workers: no claim from the failing session on"
        );
        for account in ["proposer", "challenger"] {
            assert_eq!(
                inner.escrowed(account),
                Money::ZERO,
                "{threads} workers: {account} escrow"
            );
        }
    }
}

/// Two workers run two sessions at once: each session's resolve waits
/// until the other's has started. A pipeline that ran one session at a
/// time would leave each wait to time out.
#[test]
fn two_workers_resolve_two_sessions_at_once() {
    let (d, cfg) = deployment();
    let started = Mutex::new(0usize);
    let changed = Condvar::new();
    let batch = builders(&d, cfg).into_iter().take(2).collect();
    let overlapped = Scheduler::with_threads(2)
        .run_with(&coordinator(), batch, |_, session, c| {
            let mut count = started.lock().unwrap();
            *count += 1;
            changed.notify_all();
            let (count, _) = changed
                .wait_timeout_while(count, Duration::from_secs(60), |n| *n < 2)
                .unwrap();
            let overlapped = *count == 2;
            drop(count);
            if session.screen()? {
                session.dispute(c)?;
            }
            Ok(overlapped)
        })
        .unwrap();
    assert!(
        overlapped.iter().all(|(_, overlapped)| *overlapped),
        "sessions ran one after the other"
    );
}

/// A worker that panics mid-batch does not strand the others at the
/// turnstile or the settlement barrier: the panic reaches the caller.
#[test]
fn a_panicking_resolve_propagates_instead_of_hanging() {
    let (done, finished) = mpsc::channel();
    thread::spawn(move || {
        let (d, cfg) = deployment();
        for threads in [2, 3] {
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                Scheduler::with_threads(threads).run_with(
                    &coordinator(),
                    builders(&d, cfg),
                    |index, session, c| {
                        assert_ne!(index, 1, "planted resolve panic");
                        if session.screen()? {
                            session.dispute(c)?;
                        }
                        Ok(())
                    },
                )
            }));
            done.send((threads, run.is_err())).unwrap();
        }
    });
    for _ in 0..2 {
        let (threads, panicked) = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("the scheduler hung after a worker panicked");
        assert!(panicked, "{threads} workers: the panic reaches the caller");
    }
}

/// The dispute plan is per deployment: the batch's two disputes build one
/// plan between them, and later requests at their width return it.
#[test]
fn scheduled_disputes_share_one_plan() {
    let (d, cfg) = deployment();
    assert!(d.dispute_plans.is_empty());
    let reports = Scheduler::with_threads(2)
        .run(&coordinator(), builders(&d, cfg))
        .unwrap();
    assert_eq!(
        reports.iter().filter(|r| r.challenged).count(),
        CHEATS.len()
    );
    assert_eq!(d.dispute_plans.len(), 1);
    let n_way = SessionConfig::default().n_way;
    let anchors = d.dispute_anchors();
    let plan = anchors.plan(&d.model.graph, n_way).unwrap();
    assert!(Arc::ptr_eq(
        &plan,
        &d.clone()
            .dispute_anchors()
            .plan(&d.model.graph, n_way)
            .unwrap()
    ));
    assert_eq!(d.dispute_plans.len(), 1);
}
