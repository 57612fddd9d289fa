//! Dispute-side differential tests.
//!
//! - The challenger commits to nothing: a dispute played from a fresh
//!   challenger, from a reused screening trace and from a whole
//!   [`Screening`](tao_protocol::Screening) reaches the same outcome (only
//!   the forward-pass count differs), on each bundled model with a planted
//!   cheat, and a session's screening carries no commitment.
//! - Structural equality is one bit-strict rule in the descent and at the
//!   leaf: a proposer that pairs a real compute cheat with `-0.0` in place
//!   of a `+0.0` input element in its committed trace is still convicted.
//! - `extract`'s live-outs, derived from each node's last use, equal the
//!   seed scan over every later node's inputs on every slice of each
//!   bundled model's N=2 bisection, and the last-use index `Graph::new`
//!   stores equals a fresh scan on every bundled model.

use tao::{
    default_coordinator, deploy, Deployment, ProposerBehavior, SessionBuilder, SessionConfig,
    SharedCoordinator,
};
use tao_bounds::BoundEngine;
use tao_device::Fleet;
use tao_graph::{execute, extract, partition, Graph, NodeId, OpKind, Perturbations};
use tao_merkle::TraceCommitment;
use tao_models::{
    bert, data, diffusion, quantize_linears, qwen, resnet, transformer, BertConfig,
    DiffusionConfig, Model, QwenConfig, ResNetConfig, TransformerConfig,
};
use tao_protocol::{
    adjudicate, leaf_case, run_dispute, sample_committee, screen_claim, ChallengerView, ClaimCheck,
    DisputeConfig, DisputeOutcome, DisputeResult, LeafVerdict, ProposerView,
};
use tao_tensor::Tensor;

fn bert_cfg() -> BertConfig {
    BertConfig {
        layers: 1,
        ..BertConfig::small()
    }
}

fn qwen_cfg() -> QwenConfig {
    QwenConfig {
        layers: 1,
        ..QwenConfig::small()
    }
}

fn resnet_cfg() -> ResNetConfig {
    ResNetConfig {
        blocks: 1,
        ..ResNetConfig::small()
    }
}

/// A small deployment of BERT, Qwen and ResNet with one input each.
fn deployed() -> Vec<(&'static str, Deployment, Vec<Tensor<f32>>)> {
    let (bert_cfg, qwen_cfg, resnet_cfg) = (bert_cfg(), qwen_cfg(), resnet_cfg());
    let deploy_small = |model: Model, samples: Vec<Vec<Tensor<f32>>>| {
        deploy(model, Fleet::standard(), &samples, 3.0).expect("deploy")
    };
    vec![
        (
            "bert",
            deploy_small(
                bert::build(bert_cfg, 1),
                data::token_dataset(6, bert_cfg.seq, bert_cfg.vocab, 10),
            ),
            vec![bert::sample_ids(bert_cfg, 123)],
        ),
        (
            "qwen",
            deploy_small(
                qwen::build(qwen_cfg, 2),
                data::token_dataset(6, qwen_cfg.seq, qwen_cfg.vocab, 20),
            ),
            vec![qwen::sample_ids(qwen_cfg, 55)],
        ),
        (
            "resnet",
            deploy_small(
                resnet::build(resnet_cfg, 3),
                data::image_dataset(
                    6,
                    resnet_cfg.in_channels,
                    resnet_cfg.image,
                    resnet_cfg.classes,
                    30,
                ),
            ),
            vec![data::class_image(
                resnet_cfg.in_channels,
                resnet_cfg.image,
                1,
                777,
            )],
        ),
    ]
}

/// A non-uniform perturbation of the middle compute node.
fn planted_cheat(d: &Deployment, inputs: &[Tensor<f32>], cfg: &SessionConfig) -> Perturbations {
    let nodes = d.model.graph.compute_nodes();
    planted_cheat_at(d, inputs, cfg, nodes[nodes.len() / 2])
}

/// A non-uniform perturbation of `target`'s output.
fn planted_cheat_at(
    d: &Deployment,
    inputs: &[Tensor<f32>],
    cfg: &SessionConfig,
    target: NodeId,
) -> Perturbations {
    let graph = &d.model.graph;
    let honest = execute(graph, inputs, cfg.proposer.config(), None).unwrap();
    let shape = honest.values[target.0].dims().to_vec();
    let mut p = Perturbations::new();
    p.insert(target, Tensor::<f32>::randn(&shape, 4_242).mul_scalar(0.5));
    p
}

fn without_forward_passes(mut outcome: DisputeOutcome) -> DisputeOutcome {
    outcome.challenger_forward_passes = 0;
    outcome
}

#[test]
fn every_challenger_view_reaches_the_same_outcome() {
    let cfg = SessionConfig::default();
    for (name, d, inputs) in deployed() {
        let graph = &d.model.graph;
        let p = planted_cheat(&d, &inputs, &cfg);
        let trace = execute(graph, &inputs, cfg.proposer.config(), Some(&p)).unwrap();
        let commitment = TraceCommitment::build(&trace.values);
        let root = commitment.root();
        let screening = screen_claim(
            graph,
            d.model.logits,
            &d.thresholds,
            ClaimCheck {
                inputs: &inputs,
                claimed_output: trace.value(d.model.logits).unwrap(),
            },
            &cfg.challenger,
        )
        .unwrap();
        assert!(screening.flagged, "{name}: planted cheat not flagged");
        assert!(
            screening.commitment().is_none(),
            "{name}: challenger committed"
        );
        let dispute = |challenger: ChallengerView<'_>| {
            run_dispute(
                graph,
                d.dispute_anchors().with_trace_root(&root),
                ProposerView::new(&trace).with_commitment(&commitment),
                &inputs,
                challenger,
                &d.thresholds,
                DisputeConfig { n_way: cfg.n_way },
            )
            .unwrap()
        };
        let fresh = dispute(ChallengerView::fresh(&cfg.challenger));
        let reused = dispute(ChallengerView::with_screening(
            &cfg.challenger,
            &screening.trace,
        ));
        let whole = dispute(ChallengerView::from_screening(&cfg.challenger, &screening));
        assert_eq!(fresh.challenger_forward_passes, 1, "{name}");
        assert_eq!(reused.challenger_forward_passes, 0, "{name}");
        assert_eq!(whole, reused, "{name}: from_screening vs with_screening");
        assert_eq!(
            without_forward_passes(fresh),
            without_forward_passes(reused),
            "{name}: fresh vs with_screening"
        );

        // A session screens through the same entry point, keeps no
        // challenger commitment, and plays the same dispute.
        let coord = SharedCoordinator::new(default_coordinator().unwrap());
        let mut session = SessionBuilder::new(&d, inputs.clone())
            .behavior(ProposerBehavior::Malicious(p))
            .submit(&coord)
            .unwrap();
        assert!(session.screen().unwrap(), "{name}: session did not flag");
        assert!(
            session.screening().unwrap().commitment().is_none(),
            "{name}"
        );
        let played = session
            .dispute(&coord)
            .unwrap()
            .expect("flagged claim disputed");
        assert_eq!(*played, whole, "{name}: session dispute");
    }
}

#[test]
fn a_negative_zero_input_does_not_acquit_a_compute_cheat() {
    let cfg = SessionConfig::default();
    for (name, d, mut inputs) in deployed() {
        let graph = &d.model.graph;
        // A `+0.0` claim input element (a valid token id and pixel value).
        inputs[0].data_mut()[0] = 0.0;
        let input = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::Input(0)))
            .unwrap()
            .id;
        // The cheat sits in the input's first consumer, so some round
        // splits the input (a live-out) from the cheat: a looser structural
        // rule at the leaf than in the descent would steer the game to the
        // input's infinite exceedance and acquit there.
        let consumer = graph
            .nodes()
            .iter()
            .find(|n| n.inputs.contains(&input))
            .unwrap()
            .id;
        let p = planted_cheat_at(&d, &inputs, &cfg, consumer);
        let mut trace = execute(graph, &inputs, cfg.proposer.config(), Some(&p)).unwrap();
        // The proposer also commits `-0.0` for that element: `==` with the
        // claim input, a different bit pattern.
        trace.values[input.0].data_mut()[0] = -0.0;
        let commitment = TraceCommitment::build(&trace.values);
        let root = commitment.root();
        let screening = screen_claim(
            graph,
            d.model.logits,
            &d.thresholds,
            ClaimCheck {
                inputs: &inputs,
                claimed_output: trace.value(d.model.logits).unwrap(),
            },
            &cfg.challenger,
        )
        .unwrap();
        assert!(screening.flagged, "{name}: planted cheat not flagged");
        let outcome = run_dispute(
            graph,
            d.dispute_anchors().with_trace_root(&root),
            ProposerView::new(&trace).with_commitment(&commitment),
            &inputs,
            ChallengerView::from_screening(&cfg.challenger, &screening),
            &d.thresholds,
            DisputeConfig { n_way: cfg.n_way },
        )
        .unwrap();
        // Adjudicate the leaf exactly as a session does.
        let DisputeResult::Leaf(leaf) = outcome.result else {
            panic!("{name}: no leaf reached: {:?}", outcome.result);
        };
        let committee = sample_committee(d.fleet.devices(), cfg.committee, cfg.seed);
        let (_, verdict) = adjudicate(
            &leaf_case(graph, leaf, &trace, &inputs),
            &BoundEngine::paper_default(),
            &d.thresholds,
            &committee,
        )
        .unwrap();
        assert_eq!(
            verdict,
            LeafVerdict::Fraud,
            "{name}: leaf {leaf:?} acquitted"
        );
    }
}

/// The seed live-out scan: a slice node is visible outside when a later
/// node reads it or it is a graph output.
fn live_out_by_scan(graph: &Graph, start: usize, end: usize) -> Vec<NodeId> {
    graph.nodes()[start..end]
        .iter()
        .map(|node| node.id)
        .filter(|id| {
            graph.nodes()[end..]
                .iter()
                .any(|later| later.inputs.contains(id))
                || graph.outputs().contains(id)
        })
        .collect()
}

/// The seed last-use scan the executor and `extract` ran per call: each
/// value's last reader (itself when never read), outputs pinned to the end.
fn last_uses_by_scan(graph: &Graph) -> Vec<usize> {
    let mut last: Vec<usize> = (0..graph.len()).collect();
    for node in graph.nodes() {
        for &input in &node.inputs {
            last[input.0] = node.id.0;
        }
    }
    for &out in graph.outputs() {
        last[out.0] = usize::MAX;
    }
    last
}

/// Every bundled model family at a small configuration.
fn bundled_models() -> Vec<(&'static str, Model)> {
    let transformer_cfg = TransformerConfig {
        layers: 1,
        ..TransformerConfig::small()
    };
    vec![
        ("bert", bert::build(bert_cfg(), 1)),
        ("qwen", qwen::build(qwen_cfg(), 2)),
        ("qwen-deep8", qwen::build(QwenConfig::deep(8), 1)),
        ("resnet", resnet::build(resnet_cfg(), 3)),
        ("diffusion", diffusion::build(DiffusionConfig::small(), 1)),
        ("transformer", transformer::build(transformer_cfg, 3)),
        (
            "int8-transformer",
            quantize_linears(&transformer::build(transformer_cfg, 3)),
        ),
    ]
}

#[test]
fn the_graphs_last_use_index_equals_a_fresh_scan_on_every_bundled_model() {
    for (name, model) in bundled_models() {
        let graph = &model.graph;
        assert_eq!(graph.last_uses(), last_uses_by_scan(graph), "{name}");
    }
}

#[test]
fn extract_live_outs_equal_the_seed_scan_on_every_bisection_slice() {
    for (name, model) in bundled_models() {
        let graph = &model.graph;
        let mut pending = vec![(0, graph.len())];
        let mut slices = 0;
        while let Some((start, end)) = pending.pop() {
            let sub = extract(graph, start, end).unwrap();
            assert_eq!(
                sub.live_out,
                live_out_by_scan(graph, start, end),
                "{name}: [{start}, {end})"
            );
            slices += 1;
            if end - start > 1 {
                pending.extend(partition(start, end, 2));
            }
        }
        // A full binary bisection of n leaves has 2n - 1 slices.
        assert_eq!(slices, 2 * graph.len() - 1, "{name}");
    }
}
