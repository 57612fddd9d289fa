//! Integration tests for the commitment loop: the trace root is bound
//! into `C0`, dispute reveals are verified against it, and a proposer
//! whose revealed digests disagree with the committed root is *detected
//! and attributed* — a tampered or stale digest cache can no longer
//! silently steer the bisection.

use tao::{deploy, Deployment, ProposerBehavior, SessionBuilder, SessionConfig};
use tao_device::{Device, Fleet};
use tao_graph::{execute, execute_observed, Execution, OpKind, Perturbations};
use tao_merkle::{Digest, MerkleTree, StreamingCommitter, TraceCommitment};
use tao_models::{bert, data, BertConfig};
use tao_protocol::{
    run_dispute, screen_claim, ChallengerView, ClaimCheck, DisputeConfig, DisputeOutcome,
    DisputeResult, ProposerView, ProtocolError, Screening,
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

/// The challenger's screening of `trace`'s claimed logits.
fn screen(d: &Deployment, inputs: &[Tensor<f32>], trace: &Execution) -> Screening {
    let claim = ClaimCheck {
        inputs,
        claimed_output: trace.value(d.model.logits).unwrap(),
    };
    let graph = &d.model.graph;
    screen_claim(
        graph,
        d.model.logits,
        &d.thresholds,
        claim,
        &Device::h100_like(),
    )
    .unwrap()
}

/// Runs a dispute for a proposer that perturbed mid-graph, with the given
/// commitment presented for the descent (none when withheld) and the given
/// root anchored into the claim. The honest-commitment root comes from
/// streaming digests through the proposer's own forward pass, exactly as a
/// real session prepares `C0`.
fn dispute_with(
    d: &Deployment,
    inputs: &[Tensor<f32>],
    commitment: Option<&TraceCommitment>,
    anchor_root: &Digest,
) -> DisputeOutcome {
    let graph = &d.model.graph;
    let challenger = Device::h100_like();
    let target = graph.compute_nodes()[5];
    let honest = execute(graph, inputs, Device::rtx4090_like().config(), None).unwrap();
    let shape = honest.values[target.0].dims().to_vec();
    let mut p = Perturbations::new();
    p.insert(target, Tensor::<f32>::randn(&shape, 4_242).mul_scalar(0.05));
    let trace = execute(graph, inputs, Device::rtx4090_like().config(), Some(&p)).unwrap();
    let mut proposer = ProposerView::new(&trace);
    if let Some(c) = commitment {
        proposer = proposer.with_commitment(c);
    }
    let screening = screen(d, inputs, &trace);
    assert!(screening.flagged, "the planted cheat must be flagged");
    run_dispute(
        graph,
        d.dispute_anchors().with_trace_root(anchor_root),
        proposer,
        inputs,
        ChallengerView::from_screening(&challenger, &screening),
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
    // Streamed digests are bit-identical to the seed oracle.
    assert_eq!(
        commitment.root(),
        TraceCommitment::reference(&trace.values).root()
    );
    commitment
}

#[test]
fn honest_commitment_survives_anchored_descent() {
    let (d, inputs, _) = deployment();
    let commitment = streamed_commitment(&d, &inputs);
    let root = commitment.root();
    let anchored = dispute_with(&d, &inputs, Some(&commitment), &root);
    // An honest committer's reveals all open against the root, so the
    // descent reaches the planted leaf with every reveal *verified*.
    let target = d.model.graph.compute_nodes()[5];
    assert_eq!(anchored.result, DisputeResult::Leaf(target));
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
    let outcome = dispute_with(&d, &inputs, Some(&tampered), &honest_root);
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
    let outcome = dispute_with(&d, &inputs, Some(&stale), &honest_root);
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
    // Withholding the commitment produces records with no reveals, and a
    // truncated one leaves the nodes past its end unrevealed: each is a
    // missing reveal. An over-long one reveals every node, but from a tree
    // that is not the one whose root was bound into C0. All three are a
    // breach at round 0, not a quiet fallback to unverified hashing.
    let digests = commitment.digests();
    let truncated = TraceCommitment::from_digests(digests[..digests.len() / 2].to_vec());
    let mut longer = digests.to_vec();
    longer.push(digests[0]);
    let over_long = TraceCommitment::from_digests(longer);
    for (label, presented) in [
        ("withheld", None),
        ("truncated", Some(&truncated)),
        ("over-long", Some(&over_long)),
    ] {
        let outcome = dispute_with(&d, &inputs, presented, &honest_root);
        assert!(
            matches!(
                outcome.result,
                DisputeResult::CommitmentBreach { round: 0, .. }
            ),
            "{label} commitment must be a breach: {:?}",
            outcome.result
        );
    }
}

#[test]
fn anchor_tree_off_its_committed_root_is_refused() {
    let (d, inputs, _) = deployment();
    let graph = &d.model.graph;
    let trace = execute(graph, &inputs, Device::rtx4090_like().config(), None).unwrap();
    let commitment = TraceCommitment::build(&trace.values);
    let root = commitment.root();
    let screening = screen(&d, &inputs, &trace);
    let challenger = Device::h100_like();
    let dispute = |anchors| {
        run_dispute(
            graph,
            anchors,
            ProposerView::new(&trace).with_commitment(&commitment),
            &inputs,
            ChallengerView::from_screening(&challenger, &screening),
            &d.thresholds,
            DisputeConfig { n_way: 2 },
        )
    };
    // A tree whose root differs from the committed one would have the
    // challenger check proofs against the wrong leaf digests, so the
    // dispute is refused with a typed error before any record is posted.
    let foreign = MerkleTree::from_leaves(&[b"not the committed tree".to_vec()]);
    for tree in ["graph", "weight"] {
        let mut anchors = d.dispute_anchors().with_trace_root(&root);
        if tree == "graph" {
            anchors.graph_tree = &foreign;
        } else {
            anchors.weight_tree = &foreign;
        }
        assert_eq!(
            dispute(anchors).unwrap_err(),
            ProtocolError::AnchorMismatch { tree }
        );
    }
    // Without the trace root bound into C0 there is nothing to open the
    // proposer's reveals against: refused the same way.
    assert_eq!(
        dispute(d.dispute_anchors()).unwrap_err(),
        ProtocolError::Unanchored
    );
}

/// A session's `C0` trace root comes from the deployment's parameter
/// table; a cheat planted on a parameter node (a fresh buffer, so a table
/// miss) must still commit exactly the seed oracle's root over the
/// cheating trace, and an honest session the oracle's root over the honest
/// one. Both equal a streaming committer's pass over the same inputs.
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
        let values = execute(graph, &inputs, cfg.proposer.config(), perturb)
            .unwrap()
            .values;
        let oracle = TraceCommitment::reference(&values).root();
        let pending = SessionBuilder::new(&d, inputs.clone())
            .config(cfg.clone())
            .behavior(behavior.clone())
            .prepare()
            .unwrap();
        assert_eq!(pending.trace_root(), oracle, "{label}");
        // The batch commit equals the streaming committer's pass over the
        // same inputs.
        let mut committer = StreamingCommitter::with_params(graph.len(), &d.param_digests);
        execute_observed(
            graph,
            &inputs,
            cfg.proposer.config(),
            perturb,
            &mut committer,
        )
        .unwrap();
        assert_eq!(
            pending.trace_root(),
            committer.finish().root(),
            "{label}: streamed"
        );
        roots.push(oracle);
    }
    assert_ne!(
        roots[0], roots[1],
        "the parameter cheat must reach the root"
    );
}
