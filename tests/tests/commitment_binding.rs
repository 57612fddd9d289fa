//! Integration tests for the commitment loop: the trace root is bound
//! into `C0`, dispute reveals are verified against it, and a proposer
//! whose revealed digests disagree with the committed root is *detected
//! and attributed* — a tampered or stale digest cache can no longer
//! silently steer the bisection.

use tao::{deploy, Deployment, ProposerBehavior, SessionBuilder, SessionConfig};
use tao_device::{Device, Fleet};
use tao_graph::{execute, execute_observed, OpKind, Perturbations};
use tao_merkle::{MerkleTree, StreamingCommitter, TraceCommitment};
use tao_models::{bert, data, BertConfig};
use tao_protocol::{
    run_dispute, ChallengerView, DisputeConfig, DisputeOutcome, DisputeResult, ProposerView,
    ProtocolError,
};
use tao_tensor::Tensor;

fn deployment() -> (Deployment, Vec<Tensor<f32>>, BertConfig) {
    let cfg = BertConfig {
        layers: 1,
        ..BertConfig::small()
    };
    let model = bert::build(cfg, 1);
    let samples = data::token_dataset(16, cfg.seq, cfg.vocab, 10);
    let d = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    let inputs = vec![bert::sample_ids(cfg, 123)];
    (d, inputs, cfg)
}

/// Runs a dispute for a proposer that perturbed mid-graph, with the given
/// commitment presented for the descent and the given root anchored into
/// the claim. The honest-commitment root comes from streaming digests
/// through the proposer's own forward pass, exactly as a real session
/// prepares `C0`.
fn dispute_with(
    d: &Deployment,
    inputs: &[Tensor<f32>],
    commitment: Option<&TraceCommitment>,
    anchor_root: Option<&tao_merkle::Digest>,
) -> DisputeOutcome {
    let graph = &d.model.graph;
    let challenger = Device::h100_like();
    let target = graph.compute_nodes()[5];
    let honest = execute(graph, inputs, Device::rtx4090_like().config(), None).unwrap();
    let shape = honest.values[target.0].dims().to_vec();
    let mut p = Perturbations::new();
    p.insert(target, Tensor::<f32>::randn(&shape, 4_242).mul_scalar(0.05));
    let trace = execute(
        graph,
        inputs,
        Device::rtx4090_like().config(),
        Some(&p),
    )
    .unwrap();
    let mut proposer = ProposerView::new(&trace);
    if let Some(c) = commitment {
        proposer = proposer.with_commitment(c);
    }
    let mut anchors = d.dispute_anchors();
    if let Some(root) = anchor_root {
        anchors = anchors.with_trace_root(root);
    }
    run_dispute(
        graph,
        anchors,
        proposer,
        inputs,
        ChallengerView::fresh(&challenger),
        &d.thresholds,
        DisputeConfig { n_way: 2 },
    )
    .unwrap()
}

/// The proposer's committed trace, streamed through the perturbed forward
/// pass (same perturbation as [`dispute_with`]).
fn streamed_commitment(d: &Deployment, inputs: &[Tensor<f32>]) -> TraceCommitment {
    let graph = &d.model.graph;
    let target = graph.compute_nodes()[5];
    let honest = execute(graph, inputs, Device::rtx4090_like().config(), None).unwrap();
    let shape = honest.values[target.0].dims().to_vec();
    let mut p = Perturbations::new();
    p.insert(target, Tensor::<f32>::randn(&shape, 4_242).mul_scalar(0.05));
    let mut committer = StreamingCommitter::new(graph.len());
    let trace = execute_observed(
        graph,
        inputs,
        Device::rtx4090_like().config(),
        Some(&p),
        &mut committer,
    )
    .unwrap();
    let commitment = committer.finish();
    // Streamed digests are bit-identical to the post-hoc oracle.
    assert_eq!(
        commitment.root(),
        TraceCommitment::build(&trace.values).root()
    );
    commitment
}

#[test]
fn honest_commitment_survives_anchored_descent() {
    let (d, inputs, _) = deployment();
    let commitment = streamed_commitment(&d, &inputs);
    let root = commitment.root();
    let unanchored = dispute_with(&d, &inputs, Some(&commitment), None);
    let anchored = dispute_with(&d, &inputs, Some(&commitment), Some(&root));
    // Anchoring changes nothing for an honest committer: same leaf, same
    // challenger cost, zero leaf rehashes — but now the reveals are
    // *verified*, not trusted.
    assert_eq!(anchored.result, unanchored.result);
    assert!(matches!(anchored.result, DisputeResult::Leaf(_)));
    assert_eq!(anchored.rehashed_leaves, 0);
    assert_eq!(anchored.challenger_flops, unanchored.challenger_flops);
    assert_eq!(unanchored.reveal_checks, 0);
    assert!(anchored.reveal_checks > 0);
}

#[test]
fn single_corrupted_digest_is_detected_and_attributed() {
    let (d, inputs, _) = deployment();
    let commitment = streamed_commitment(&d, &inputs);
    let honest_root = commitment.root();
    // The proposer plants one corrupted digest in the cache it serves
    // reveals from — the classic "steer the descent off the fraud" move.
    let mut digests = commitment.digests().to_vec();
    digests[d.model.graph.len() / 2][0] ^= 0x01;
    let tampered = TraceCommitment::from_digests(digests);
    assert_ne!(tampered.root(), honest_root);
    let outcome = dispute_with(&d, &inputs, Some(&tampered), Some(&honest_root));
    // The reveals open against the tampered tree, not the root bound into
    // C0: the descent terminates with an attributable breach at round 0
    // instead of descending on garbage.
    assert!(
        matches!(
            outcome.result,
            DisputeResult::CommitmentBreach { round: 0, .. }
        ),
        "tampered cache must be detected: {:?}",
        outcome.result
    );
    assert!(outcome.reveal_checks > 0 || outcome.rounds.len() == 1);
}

#[test]
fn stale_commitment_over_wrong_trace_is_detected() {
    let (d, inputs, cfg) = deployment();
    let commitment = streamed_commitment(&d, &inputs);
    let honest_root = commitment.root();
    // A stale cache: digests from a different request's trace entirely.
    let other_inputs = vec![bert::sample_ids(cfg, 999)];
    let stale = streamed_commitment(&d, &other_inputs);
    assert_ne!(stale.root(), honest_root);
    let outcome = dispute_with(&d, &inputs, Some(&stale), Some(&honest_root));
    assert!(
        matches!(outcome.result, DisputeResult::CommitmentBreach { .. }),
        "stale cache must be detected: {:?}",
        outcome.result
    );
}

#[test]
fn dropping_the_commitment_is_no_escape_hatch() {
    let (d, inputs, _) = deployment();
    let commitment = streamed_commitment(&d, &inputs);
    let honest_root = commitment.root();
    // Withholding the commitment produces records with no reveals; under
    // an anchored dispute that is itself a breach (missing reveal), not a
    // quiet fallback to unverified hashing.
    let outcome = dispute_with(&d, &inputs, None, Some(&honest_root));
    assert!(
        matches!(
            outcome.result,
            DisputeResult::CommitmentBreach { round: 0, .. }
        ),
        "withheld commitment must be a breach: {:?}",
        outcome.result
    );
}

#[test]
fn anchor_tree_off_its_committed_root_is_refused() {
    let (d, inputs, _) = deployment();
    let graph = &d.model.graph;
    let trace = execute(graph, &inputs, Device::rtx4090_like().config(), None).unwrap();
    let challenger = Device::h100_like();
    // A tree whose root differs from the committed one would have the
    // challenger check proofs against the wrong leaf digests, so the
    // dispute is refused with a typed error before any record is posted.
    let foreign = MerkleTree::from_leaves(&[b"not the committed tree".to_vec()]);
    for tree in ["graph", "weight"] {
        let mut anchors = d.dispute_anchors();
        if tree == "graph" {
            anchors.graph_tree = &foreign;
        } else {
            anchors.weight_tree = &foreign;
        }
        let got = run_dispute(
            graph,
            anchors,
            ProposerView::new(&trace),
            &inputs,
            ChallengerView::fresh(&challenger),
            &d.thresholds,
            DisputeConfig { n_way: 2 },
        );
        assert_eq!(got.unwrap_err(), ProtocolError::AnchorMismatch { tree });
    }
}

/// A session's `C0` trace root comes from the deployment's parameter
/// table; a cheat planted on a parameter node (a fresh buffer, so a table
/// miss) must still commit exactly the oracle's root over the cheating
/// trace, and an honest session the oracle's root over the honest one.
#[test]
fn parameter_cheat_session_root_equals_oracle() {
    let (d, inputs, _) = deployment();
    let graph = &d.model.graph;
    let cfg = SessionConfig::default();
    let (param, name) = graph
        .nodes()
        .iter()
        .find_map(|n| match &n.kind {
            OpKind::Parameter(name) => Some((n.id, name.clone())),
            _ => None,
        })
        .unwrap();
    let shape = graph.param(&name).unwrap().dims().to_vec();
    let mut p = Perturbations::new();
    p.insert(param, Tensor::<f32>::randn(&shape, 77).mul_scalar(0.05));
    let mut roots = Vec::new();
    for (label, behavior) in [
        ("honest", ProposerBehavior::Honest),
        ("parameter cheat", ProposerBehavior::Malicious(p)),
    ] {
        let perturb = match &behavior {
            ProposerBehavior::Malicious(p) => Some(p),
            ProposerBehavior::Honest => None,
        };
        let oracle = TraceCommitment::build(
            &execute(graph, &inputs, cfg.proposer.config(), perturb)
                .unwrap()
                .values,
        )
        .root();
        let pending = SessionBuilder::new(&d, inputs.clone())
            .config(cfg.clone())
            .behavior(behavior)
            .prepare()
            .unwrap();
        assert_eq!(pending.trace_root(), oracle, "{label}");
        roots.push(oracle);
    }
    assert_ne!(roots[0], roots[1], "the parameter cheat must reach the root");
}
