//! Dispute walkthrough: a malicious proposer perturbs a mid-graph
//! operator; the challenger localizes it round by round and the leaf is
//! adjudicated.
//!
//! Run with `cargo run --release -p tao-examples --example dispute_walkthrough`.

use tao::{
    default_coordinator, deploy, ProposerBehavior, SessionBuilder, SessionConfig, SharedCoordinator,
};
use tao_device::{Device, Fleet};
use tao_graph::{execute, Perturbations};
use tao_models::{data, qwen, QwenConfig};
use tao_protocol::DisputeResult;
use tao_tensor::Tensor;

fn main() {
    println!("TAO dispute walkthrough\n");
    let cfg = QwenConfig::small();
    let model = qwen::build(cfg, 3);
    let samples = data::token_dataset(24, cfg.seq, cfg.vocab, 500);
    let deployment = deploy(model, Fleet::standard(), &samples, 3.0).expect("deployment");
    let inputs = vec![qwen::sample_ids(cfg, 7)];

    // The adversary: perturb a mid-graph SwiGLU output.
    let graph = &deployment.model.graph;
    let target = graph
        .nodes()
        .iter()
        .find(|n| n.name.contains("layers1.mlp.glu"))
        .map(|n| n.id)
        .expect("mlp node exists");
    let honest = execute(graph, &inputs, Device::rtx4090_like().config(), None).expect("forward");
    let shape = honest.values[target.0].dims().to_vec();
    let mut perturb = Perturbations::new();
    perturb.insert(target, Tensor::<f32>::randn(&shape, 99).mul_scalar(0.03));
    println!(
        "adversary perturbs node {target} ({})",
        graph.node(target).expect("exists").name
    );

    // Drive the session phase by phase instead of one-shot `run()`, to
    // watch each protocol step land on the coordinator.
    let coordinator = SharedCoordinator::new(default_coordinator().expect("economics feasible"));
    let n_way = 4;
    let mut session = SessionBuilder::new(&deployment, inputs)
        .config(SessionConfig {
            n_way,
            ..SessionConfig::default()
        })
        .behavior(ProposerBehavior::Malicious(perturb))
        .submit(&coordinator)
        .expect("claim posts");
    println!("claim #{} posted", session.claim_id());

    let flagged = session.screen().expect("screening runs");
    assert!(flagged, "perturbation must trip the screening");
    println!(
        "screening exceedance {:.2} -> challenge",
        session.screening().expect("screened").exceedance
    );

    session.dispute(&coordinator).expect("dispute runs");
    let report = session.settle(&coordinator).expect("settlement");
    let dispute = report.dispute.as_ref().expect("dispute ran");
    println!("\ndispute game (N = {n_way}), screening trace reused:");
    for r in &dispute.rounds {
        println!(
            "  round {}: range [{}, {}) -> child {} ({} Merkle checks, {:.2} MFLOP re-executed)",
            r.round,
            r.range.0,
            r.range.1,
            r.chosen,
            r.merkle_checks,
            r.selection_flops as f64 / 1e6
        );
    }
    match dispute.result {
        DisputeResult::Leaf(leaf) => {
            println!(
                "\nlocalized to operator {leaf} ({}) — the perturbed node: {}",
                graph.node(leaf).expect("exists").name,
                leaf == target
            );
        }
        DisputeResult::NoOffendingChild { round } => {
            println!("\nsearch went cold at round {round} (unexpected here)");
        }
        DisputeResult::CommitmentBreach { round, node } => {
            println!(
                "\nreveal for node {node} failed against the committed trace root at \
                 round {round} (unexpected here: this proposer commits honestly)"
            );
        }
    }
    println!(
        "reveals verified against the C0-bound trace root: {}",
        dispute.reveal_checks
    );
    let (path, verdict) = report.verdict.expect("leaf adjudicated");
    println!("adjudication path: {path:?}; verdict: {verdict:?}");
    println!("dispute gas: {:.1} kgas", dispute.gas.kgas());
    println!("final status: {:?}", report.final_status);
    assert!(!report.proposer_prevailed(), "fraud must be slashed");
}
