//! Scheduler equivalence: running a batch of mixed honest/malicious
//! sessions concurrently must be observationally identical to running the
//! same sessions one after another — same claim ids, same challenge
//! flags, same winners, and bit-exact final balances.

use std::sync::Arc;

use tao::{
    deploy, Deployment, ProposerBehavior, Scheduler, SessionBuilder, SessionConfig, SessionReport,
    SharedCoordinator,
};
use tao_device::{Device, Fleet};
use tao_graph::{execute, Perturbations};
use tao_models::{bert, data, BertConfig};
use tao_protocol::{ClaimStatus, Coordinator, EconParams, LeafVerdict, Party};
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

    // Concurrent run over a fresh coordinator, with a pool wider than the
    // old 8-worker cap so the parallel settle phase is genuinely
    // concurrent even for this 6-session batch.
    let parallel_coord = coordinator();
    let parallel = Scheduler::with_threads(12)
        .run(&parallel_coord, builders(&d, cfg))
        .unwrap();

    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.claim_id, i as u64, "serial claim ids are sequential");
        assert_eq!(p.claim_id, i as u64, "parallel claim ids are deterministic");
        assert_eq!(s.challenged, p.challenged, "session {i} challenge flag");
        assert_eq!(
            s.challenged,
            CHEATS.contains(&i),
            "session {i}: exactly the cheats are flagged (exceedance {})",
            s.exceedance
        );
        assert_eq!(s.final_status, p.final_status, "session {i} final status");
        assert_eq!(winner_of(s), winner_of(p), "session {i} winner");
        assert_eq!(
            s.verdict.map(|(_, v)| v),
            p.verdict.map(|(_, v)| v),
            "session {i} leaf verdict"
        );
        if s.challenged {
            assert_eq!(winner_of(s), Some(Party::Challenger));
            assert_eq!(s.verdict.map(|(_, v)| v), Some(LeafVerdict::Fraud));
        }
    }

    // Final balances are bit-identical: the fixed-point ledger makes bond
    // arithmetic a sum of exact per-event deltas, independent of
    // interleaving.
    for account in ["proposer", "challenger", "committee-pool"] {
        let a = serial_coord.balance(account);
        let b = parallel_coord.balance(account);
        assert_eq!(a, b, "{account}: serial {a} vs parallel {b}");
    }
    // And nothing is left in escrow on either path.
    let serial_inner = serial_coord.into_inner();
    let parallel_inner = parallel_coord.into_inner();
    for account in ["proposer", "challenger"] {
        assert_eq!(serial_inner.escrowed(account), tao_protocol::Money::ZERO);
        assert_eq!(parallel_inner.escrowed(account), tao_protocol::Money::ZERO);
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
