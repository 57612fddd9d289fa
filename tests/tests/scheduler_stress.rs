//! Scheduler stress: a batch of 32 mixed honest/cheating sessions on a
//! 16-worker request, which a batch runs on `MAX_PAR_THREADS` workers.
//! Under that contention the pool bound, the deterministic claim-id
//! assignment through the turnstile and the serial-equivalence guarantee
//! — including settlement after the barrier — must all still hold.

use tao::{
    deploy, Deployment, ProposerBehavior, Scheduler, SessionBuilder, SessionReport,
    SharedCoordinator,
};
use tao_device::{Device, Fleet};
use tao_graph::{execute, Perturbations};
use tao_models::{bert, data, BertConfig};
use tao_protocol::{ClaimStatus, Coordinator, EconParams, Party, MAX_PAR_THREADS};
use tao_tensor::Tensor;

const JOBS: usize = 32;
/// Every fourth session cheats, each at a different operator.
const fn cheats(i: usize) -> bool {
    i % 4 == 1
}

fn deployment() -> (Deployment, BertConfig) {
    let cfg = BertConfig {
        layers: 1,
        ..BertConfig::small()
    };
    let model = bert::build(cfg, 1);
    let samples = data::token_dataset(16, cfg.seq, cfg.vocab, 10);
    let d = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    (d, cfg)
}

/// Funded for all 32 concurrent deposits at once.
fn coordinator() -> SharedCoordinator {
    let econ = EconParams::default_market();
    let (lo, hi) = econ.feasible_slash_region().unwrap();
    let c = Coordinator::new(econ, (lo + hi) / 2.0).unwrap();
    c.fund("proposer", 500_000);
    c.fund("challenger", 50_000);
    SharedCoordinator::new(c)
}

fn builders(d: &Deployment, cfg: BertConfig) -> Vec<SessionBuilder> {
    let nodes = d.model.graph.compute_nodes();
    (0..JOBS)
        .map(|i| {
            let inputs = vec![bert::sample_ids(cfg, 40_000 + i as u64)];
            let b = SessionBuilder::new(d, inputs.clone());
            if cheats(i) {
                let target = nodes[(1 + 2 * i) % nodes.len()];
                let honest = execute(
                    &d.model.graph,
                    &inputs,
                    Device::rtx4090_like().config(),
                    None,
                )
                .unwrap();
                let shape = honest.values[target.0].dims().to_vec();
                let delta = Tensor::<f32>::randn(&shape, 70_000 + i as u64).mul_scalar(0.05);
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
fn worker_pool_reports_the_workers_a_batch_can_use() {
    // A batch runs at most MAX_PAR_THREADS workers, so the pool clamps
    // every request to [1, MAX_PAR_THREADS].
    assert_eq!(MAX_PAR_THREADS, 8);
    assert_eq!(Scheduler::with_threads(16).threads(), 8);
    assert_eq!(Scheduler::with_threads(1_000).threads(), 8);
    assert_eq!(Scheduler::with_threads(0).threads(), 1);
    assert_eq!(Scheduler::with_threads(3).threads(), 3);
    assert!((1..=MAX_PAR_THREADS).contains(&Scheduler::new().threads()));
}

#[test]
fn batch_of_32_under_contention_matches_serial_execution() {
    let (d, cfg) = deployment();

    // Serial baseline through the one-shot runner.
    let serial_coord = coordinator();
    let serial: Vec<SessionReport> = builders(&d, cfg)
        .into_iter()
        .map(|b| b.run(&serial_coord).unwrap())
        .collect();

    // Concurrent run on a 16-worker request over 32 sessions: the batch
    // runs on MAX_PAR_THREADS workers, so every worker pulls several
    // sessions and waits its turn to submit each one.
    let parallel_coord = coordinator();
    let scheduler = Scheduler::with_threads(16);
    assert_eq!(scheduler.threads(), MAX_PAR_THREADS);
    let parallel = scheduler.run(&parallel_coord, builders(&d, cfg)).unwrap();

    assert_eq!(serial.len(), JOBS);
    assert_eq!(parallel.len(), JOBS);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        // Claim ids deterministic in session order on both paths.
        assert_eq!(s.claim_id, i as u64, "serial claim id {i}");
        assert_eq!(p.claim_id, i as u64, "parallel claim id {i}");
        // Exactly the cheats get challenged, and observably identically.
        assert_eq!(s.challenged, cheats(i), "session {i} challenge flag");
        assert_eq!(s.challenged, p.challenged, "session {i} flag parity");
        assert_eq!(s.final_status, p.final_status, "session {i} status");
        assert_eq!(winner_of(s), winner_of(p), "session {i} winner");
        if cheats(i) {
            assert_eq!(winner_of(p), Some(Party::Challenger), "cheat {i} caught");
        } else {
            assert!(p.proposer_prevailed(), "honest session {i}");
        }
    }

    // Balances and escrow match the serial run bit-exactly — fixed-point
    // money leaves no rounding noise to tolerate.
    for account in ["proposer", "challenger", "committee-pool"] {
        let a = serial_coord.balance(account);
        let b = parallel_coord.balance(account);
        assert_eq!(a, b, "{account}: serial {a} vs parallel {b}");
    }
    let serial_inner = serial_coord.into_inner();
    let parallel_inner = parallel_coord.into_inner();
    for account in ["proposer", "challenger"] {
        assert_eq!(serial_inner.escrowed(account), tao_protocol::Money::ZERO);
        assert_eq!(parallel_inner.escrowed(account), tao_protocol::Money::ZERO);
    }
    // Ledger conservation after the parallel settle phase — exact.
    let ledger = parallel_inner.ledger();
    assert_eq!(
        ledger.total_value(),
        ledger.injected(),
        "conservation violated after parallel settle"
    );
}
