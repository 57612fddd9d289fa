//! End-to-end protocol integration: full sessions across model families.

use tao::{
    default_coordinator, deploy, ProposerBehavior, SessionBuilder, SessionConfig, SharedCoordinator,
};
use tao_device::{Device, Fleet};
use tao_graph::{execute, Perturbations};
use tao_models::{bert, data, qwen, resnet, BertConfig, QwenConfig, ResNetConfig};
use tao_protocol::{ClaimStatus, DisputeResult, LeafVerdict, Party};
use tao_tensor::Tensor;

fn perturbation_at(
    deployment: &tao::Deployment,
    inputs: &[Tensor<f32>],
    index: usize,
    magnitude: f32,
) -> (tao_graph::NodeId, Perturbations) {
    let nodes = deployment.model.graph.compute_nodes();
    let target = nodes[index % nodes.len()];
    let honest = execute(
        &deployment.model.graph,
        inputs,
        Device::rtx4090_like().config(),
        None,
    )
    .expect("forward");
    let shape = honest.values[target.0].dims().to_vec();
    // Non-uniform perturbation: a uniform constant before a softmax would
    // be absorbed by shift invariance and change nothing observable.
    let delta = Tensor::<f32>::randn(&shape, 4_242).mul_scalar(magnitude);
    let mut p = Perturbations::new();
    p.insert(target, delta);
    (target, p)
}

#[test]
fn bert_honest_and_malicious_sessions() {
    let cfg = BertConfig {
        layers: 1,
        ..BertConfig::small()
    };
    let model = bert::build(cfg, 1);
    // 16 samples: max-envelope thresholds are max-statistics, and at the
    // 6-sample scale the relative-error tail of an honest sibling operator
    // can exceed its own tau on a fresh input, mislocalizing the dispute.
    let samples = data::token_dataset(16, cfg.seq, cfg.vocab, 10);
    let deployment = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    let inputs = vec![bert::sample_ids(cfg, 123)];
    let coord = SharedCoordinator::new(default_coordinator().unwrap());

    let honest = SessionBuilder::new(&deployment, inputs.clone())
        .run(&coord)
        .unwrap();
    assert!(!honest.challenged);
    assert!(matches!(honest.final_status, ClaimStatus::Finalized));

    let (target, p) = perturbation_at(&deployment, &inputs, 5, 0.05);
    let evil = SessionBuilder::new(&deployment, inputs)
        .behavior(ProposerBehavior::Malicious(p))
        .run(&coord)
        .unwrap();
    assert!(evil.challenged);
    let dispute = evil.dispute.expect("dispute ran");
    assert_eq!(dispute.result, DisputeResult::Leaf(target));
    assert!(
        dispute.reveal_checks > 0,
        "dispute must verify reveals against the C0-bound trace root"
    );
    assert_eq!(evil.verdict.unwrap().1, LeafVerdict::Fraud);
    assert!(matches!(
        evil.final_status,
        ClaimStatus::Settled {
            winner: Party::Challenger
        }
    ));
}

#[test]
fn qwen_dispute_localizes_across_partition_widths() {
    let cfg = QwenConfig {
        layers: 2,
        ..QwenConfig::small()
    };
    let model = qwen::build(cfg, 2);
    // 16 samples for envelope coverage; see bert_honest_and_malicious_sessions.
    let samples = data::token_dataset(16, cfg.seq, cfg.vocab, 20);
    let deployment = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    let inputs = vec![qwen::sample_ids(cfg, 55)];
    let (target, p) = perturbation_at(&deployment, &inputs, 9, 0.05);

    let mut rounds_by_n = Vec::new();
    for n_way in [2usize, 4, 8] {
        let coord = SharedCoordinator::new(default_coordinator().unwrap());
        let report = SessionBuilder::new(&deployment, inputs.clone())
            .config(SessionConfig {
                n_way,
                ..SessionConfig::default()
            })
            .behavior(ProposerBehavior::Malicious(p.clone()))
            .run(&coord)
            .unwrap();
        let dispute = report.dispute.expect("dispute ran");
        assert_eq!(dispute.result, DisputeResult::Leaf(target), "N = {n_way}");
        assert!(
            dispute.reveal_checks > 0,
            "N = {n_way}: reveals must be verified"
        );
        rounds_by_n.push(dispute.rounds.len());
    }
    assert!(
        rounds_by_n[2] <= rounds_by_n[0],
        "wider partitions cannot need more rounds: {rounds_by_n:?}"
    );
}

#[test]
fn resnet_session_catches_conv_perturbation() {
    let cfg = ResNetConfig {
        blocks: 2,
        ..ResNetConfig::small()
    };
    let model = resnet::build(cfg, 3);
    let samples = data::image_dataset(6, cfg.in_channels, cfg.image, cfg.classes, 30);
    let deployment = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    let inputs = vec![data::class_image(cfg.in_channels, cfg.image, 1, 777)];
    let (_, p) = perturbation_at(&deployment, &inputs, 3, 0.1);
    let coord = SharedCoordinator::new(default_coordinator().unwrap());
    let report = SessionBuilder::new(&deployment, inputs)
        .behavior(ProposerBehavior::Malicious(p))
        .run(&coord)
        .unwrap();
    assert!(report.challenged);
    assert!(!report.proposer_prevailed());
}

#[test]
fn honest_sessions_never_flagged_across_device_pairings() {
    let cfg = BertConfig {
        layers: 1,
        ..BertConfig::small()
    };
    let model = bert::build(cfg, 4);
    let samples = data::token_dataset(8, cfg.seq, cfg.vocab, 40);
    let deployment = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    let fleet = Fleet::standard();
    for proposer in fleet.devices() {
        for challenger in fleet.devices() {
            let coord = SharedCoordinator::new(default_coordinator().unwrap());
            let inputs = vec![bert::sample_ids(cfg, 900)];
            let report = SessionBuilder::new(&deployment, inputs)
                .config(SessionConfig {
                    proposer: proposer.clone(),
                    challenger: challenger.clone(),
                    ..SessionConfig::default()
                })
                .run(&coord)
                .unwrap();
            assert!(
                !report.challenged,
                "false positive: {} vs {}",
                proposer.name(),
                challenger.name()
            );
        }
    }
}

#[test]
fn coordinator_pays_and_slashes_consistently() {
    let cfg = BertConfig {
        layers: 1,
        ..BertConfig::small()
    };
    let model = bert::build(cfg, 6);
    let samples = data::token_dataset(5, cfg.seq, cfg.vocab, 60);
    let deployment = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    let inputs = vec![bert::sample_ids(cfg, 31)];
    let coord = SharedCoordinator::new(default_coordinator().unwrap());
    let p0 = coord.balance("proposer");
    let c0 = coord.balance("challenger");

    // Honest: proposer gains the reward.
    SessionBuilder::new(&deployment, inputs.clone())
        .run(&coord)
        .unwrap();
    assert!(coord.balance("proposer") > p0);

    // Malicious: proposer slashed, challenger rewarded.
    let (_, p) = perturbation_at(&deployment, &inputs, 4, 0.05);
    let mid = coord.balance("proposer");
    SessionBuilder::new(&deployment, inputs)
        .behavior(ProposerBehavior::Malicious(p))
        .run(&coord)
        .unwrap();
    assert!(coord.balance("proposer") < mid);
    assert!(coord.balance("challenger") > c0);
    assert!(coord.coordinator().gas().total > 0);
}

/// Disputes raised *inside a concurrent campaign* must still be anchored
/// to the proposer's session commitment: every dispute verifies reveals
/// against the `C0`-bound trace root, across every adversary archetype
/// (escalated evasion, spam logits, colluding pairs adopted by
/// watchtowers, and griefed honest claims).
#[test]
fn campaign_disputes_reuse_screening_traces_and_commitments() {
    let report = tao_campaign::Campaign::new(tao_campaign::CampaignConfig::smoke(5))
        .run()
        .unwrap();
    report.assert_floors();
    let mut disputes = 0;
    for outcome in &report.outcomes {
        let Some(d) = &outcome.dispute else { continue };
        disputes += 1;
        assert!(
            d.reveal_checks > 0,
            "claim {} ({:?}): campaign dispute skipped reveal verification",
            outcome.claim_id,
            outcome.role
        );
    }
    // Every planted cheat and every griefed honest claim carries a dispute.
    let pop = report.population;
    let expected = (pop.planted() + pop.griefers.min(pop.honest)) * report.epochs.len();
    assert_eq!(disputes, expected, "campaign dispute count");
}
