//! Dispute-side differential tests.
//!
//! - A dispute played from the challenger's
//!   [`Screening`](tao_protocol::Screening) equals the one a session plays,
//!   on each bundled model with a planted cheat, and re-executes per round
//!   never more than it examines, and in total strictly less than it
//!   accounts.
//! - Structural equality is one bit-strict rule in the descent and at the
//!   leaf: a proposer that pairs a real compute cheat with `-0.0` in place
//!   of a `+0.0` input element in its committed trace is still convicted.
//! - A partition width below 2 is a typed error, from a session too.
//! - `extract`'s live-outs, derived from each node's last use, equal the
//!   seed scan over every later node's inputs on every slice of each
//!   bundled model's N=2 bisection, and the last-use index `Graph::new`
//!   stores equals a fresh scan on every bundled model.
//! - A dispute child whose live-ins all precede its parent's start
//!   re-executes to exactly the parent's values at its nodes, on every
//!   range of each bundled model's N=2 and N=4 bisection trees.
//! - Planted- and mild-cheat disputes equal the outcomes pinned in
//!   `golden/dispute_outcomes.txt`.
//! - The dispute plan of each bundled model at N=2 and N=4 holds exactly
//!   the ranges recursive `partition` produces, each with `extract`'s
//!   slice, and every planned record equals the one assembled from
//!   `extract` and `MerkleTree::prove`.

use tao::{
    default_coordinator, deploy, Deployment, ProposerBehavior, SessionBuilder, SessionConfig,
    SharedCoordinator, TaoError,
};
use tao_bounds::BoundEngine;
use tao_calib::{error_profile, DEFAULT_EPS};
use tao_device::{Device, Fleet};
use tao_graph::{
    execute, execute_subgraph, extract, partition, Graph, NodeId, OpKind, Perturbations,
};
use tao_merkle::{
    graph_tree, weight_tree, Digest, FastSha256, InclusionProof, MerkleTree, TraceCommitment,
};
use tao_models::{
    bert, data, diffusion, quantize_linears, qwen, resnet, transformer, BertConfig,
    DiffusionConfig, Model, QwenConfig, ResNetConfig, TransformerConfig,
};
use tao_protocol::{
    adjudicate, leaf_case, run_dispute, sample_committee, screen_claim, ChallengerView, ClaimCheck,
    DisputeConfig, DisputeOutcome, DisputePlan, DisputeResult, LeafVerdict, ProposerView,
    ProtocolError, SubgraphRecord,
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

/// The compute nodes a quarter and halfway into a graph's compute nodes:
/// planted-cheat targets in its first half and near its middle.
fn cheat_targets(graph: &Graph) -> [(&'static str, NodeId); 2] {
    let nodes = graph.compute_nodes();
    [
        ("quarter", nodes[nodes.len() / 4]),
        ("middle", nodes[nodes.len() / 2]),
    ]
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

#[test]
fn every_challenger_view_reaches_the_same_outcome() {
    let cfg = SessionConfig::default();
    for (name, d, inputs) in deployed() {
        let graph = &d.model.graph;
        for (place, target) in cheat_targets(graph) {
            let name = format!("{name} {place}");
            let p = planted_cheat_at(&d, &inputs, &cfg, target);
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
            let whole = run_dispute(
                graph,
                d.dispute_anchors().with_trace_root(&root),
                ProposerView::new(&trace).with_commitment(&commitment),
                &inputs,
                ChallengerView::from_screening(&cfg.challenger, &screening),
                &d.thresholds,
                DisputeConfig { n_way: cfg.n_way },
            )
            .unwrap();
            // Children are re-executed only when their values are not
            // already the parent range's: never more than is examined, and
            // in total strictly less than the dispute accounts.
            for r in &whole.rounds {
                assert!(
                    r.reexecuted_flops <= r.selection_flops,
                    "{name}: round {}",
                    r.round
                );
            }
            let reexecuted: u64 = whole.rounds.iter().map(|r| r.reexecuted_flops).sum();
            assert!(
                reexecuted < whole.challenger_flops,
                "{name}: re-executed {reexecuted} of {}",
                whole.challenger_flops
            );

            // A session screens through the same entry point and plays the
            // same dispute; whole-outcome equality covers each round's
            // re-executed FLOPs.
            let coord = SharedCoordinator::new(default_coordinator().unwrap());
            let mut session = SessionBuilder::new(&d, inputs.clone())
                .behavior(ProposerBehavior::Malicious(p))
                .submit(&coord)
                .unwrap();
            assert!(session.screen().unwrap(), "{name}: session did not flag");
            let played = session
                .dispute(&coord)
                .unwrap()
                .expect("flagged claim disputed");
            assert_eq!(*played, whole, "{name}: session dispute");
        }
    }
}

#[test]
fn a_session_with_partition_width_one_surfaces_the_typed_error() {
    let cfg = SessionConfig {
        n_way: 1,
        ..SessionConfig::default()
    };
    let (_, d, inputs) = deployed().swap_remove(0);
    let p = planted_cheat(&d, &inputs, &cfg);
    let coord = SharedCoordinator::new(default_coordinator().unwrap());
    let mut session = SessionBuilder::new(&d, inputs)
        .config(cfg)
        .behavior(ProposerBehavior::Malicious(p))
        .submit(&coord)
        .unwrap();
    assert!(session.screen().unwrap());
    assert_eq!(
        session.dispute(&coord).unwrap_err(),
        TaoError::Protocol(ProtocolError::BadWidth { n_way: 1 }.to_string())
    );
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

/// Every bundled model family at a small configuration, with one input.
fn bundled_models() -> Vec<(&'static str, Model, Vec<Tensor<f32>>)> {
    let transformer_cfg = TransformerConfig {
        layers: 1,
        ..TransformerConfig::small()
    };
    let resnet_cfg = resnet_cfg();
    let diffusion_cfg = DiffusionConfig::small();
    let diffusion = diffusion::build(diffusion_cfg, 1);
    let latent = Tensor::<f32>::randn(&diffusion.input_shapes[0], 42);
    vec![
        (
            "bert",
            bert::build(bert_cfg(), 1),
            vec![bert::sample_ids(bert_cfg(), 123)],
        ),
        (
            "qwen",
            qwen::build(qwen_cfg(), 2),
            vec![qwen::sample_ids(qwen_cfg(), 55)],
        ),
        (
            "qwen-deep8",
            qwen::build(QwenConfig::deep(8), 1),
            vec![qwen::sample_ids(QwenConfig::deep(8), 7)],
        ),
        (
            "resnet",
            resnet::build(resnet_cfg, 3),
            vec![data::class_image(
                resnet_cfg.in_channels,
                resnet_cfg.image,
                1,
                777,
            )],
        ),
        (
            "diffusion",
            diffusion,
            vec![latent, diffusion::time_embedding(5, diffusion_cfg.temb)],
        ),
        (
            "transformer",
            transformer::build(transformer_cfg, 3),
            vec![transformer::sample_ids(transformer_cfg, 9)],
        ),
        (
            "int8-transformer",
            quantize_linears(&transformer::build(transformer_cfg, 3)),
            vec![transformer::sample_ids(transformer_cfg, 9)],
        ),
    ]
}

#[test]
fn the_graphs_last_use_index_equals_a_fresh_scan_on_every_bundled_model() {
    for (name, model, _) in bundled_models() {
        let graph = &model.graph;
        assert_eq!(graph.last_uses(), last_uses_by_scan(graph), "{name}");
    }
}

#[test]
fn extract_live_outs_equal_the_seed_scan_on_every_bisection_slice() {
    for (name, model, _) in bundled_models() {
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

/// Same dims and the same element bits.
fn bits_equal(a: &[Tensor<f32>], b: &[Tensor<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dims() == y.dims()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// The exactness argument for dispute children inheriting their parent's
/// re-execution: a child whose live-ins all precede the parent range's
/// start reads nothing the parent's re-execution did not, so re-executed
/// alone from a cheating proposer's boundary values it equals the parent's
/// re-execution at its nodes, bit for bit. And a range `[0, m)`, which has
/// no live-ins, re-executed from an empty boundary equals the challenger's
/// own trace: round 0's parent.
#[test]
fn a_child_without_live_ins_in_its_parent_inherits_the_parents_values() {
    let (proposer, challenger) = (Device::rtx4090_like(), Device::h100_like());
    for (name, model, inputs) in bundled_models() {
        let graph = &model.graph;
        let target = graph.compute_nodes()[graph.compute_nodes().len() / 2];
        let honest = execute(graph, &inputs, proposer.config(), None).unwrap();
        let mut p = Perturbations::new();
        p.insert(
            target,
            Tensor::<f32>::randn(honest.values[target.0].dims(), 4_242).mul_scalar(0.5),
        );
        let trace = execute(graph, &inputs, proposer.config(), Some(&p)).unwrap();
        let own = execute(graph, &inputs, challenger.config(), None).unwrap();
        let reexecute = |start: usize, end: usize, boundary: &[Tensor<f32>]| {
            let sub = extract(graph, start, end).unwrap();
            execute_subgraph(graph, &sub, boundary, &inputs, challenger.config()).unwrap()
        };
        for n_way in [2, 4] {
            let mut inherited = 0;
            let mut pending = vec![(0, graph.len())];
            while let Some((start, end)) = pending.pop() {
                let parent = if start == 0 {
                    let parent = reexecute(start, end, &[]);
                    assert!(
                        bits_equal(&parent, &own.values[..end]),
                        "{name}: [0, {end}) vs the trace"
                    );
                    parent
                } else {
                    reexecute(start, end, &trace.values)
                };
                if end - start == 1 {
                    continue;
                }
                for (s, e) in partition(start, end, n_way) {
                    let child = extract(graph, s, e).unwrap();
                    if child.live_in.iter().all(|id| id.0 < start) {
                        assert!(
                            bits_equal(
                                &reexecute(s, e, &trace.values),
                                &parent[s - start..e - start]
                            ),
                            "{name} N={n_way}: [{s}, {e}) of [{start}, {end})"
                        );
                        inherited += 1;
                    }
                    pending.push((s, e));
                }
            }
            // At least the first child of every split range inherits.
            assert!(inherited >= graph.len() / n_way, "{name} N={n_way}");
        }
    }
}

/// One dispute's pinned fields: the result and totals, each round's
/// range, width, choice, record bytes, selection FLOPs and Merkle checks,
/// and the gas log.
fn render_outcome(label: &str, o: &DisputeOutcome) -> String {
    let mut s = format!(
        "{label}: {:?} flops={} merkle={} reveals={}\n",
        o.result, o.challenger_flops, o.merkle_checks, o.reveal_checks
    );
    for r in &o.rounds {
        s += &format!(
            "  round {} [{}, {}) children={} chosen={} bytes={} flops={} merkle={}\n",
            r.round,
            r.range.0,
            r.range.1,
            r.children,
            r.chosen,
            r.partition_bytes,
            r.selection_flops,
            r.merkle_checks
        );
    }
    let gas: Vec<String> = o
        .gas
        .log
        .iter()
        .map(|e| format!("{}={}", e.action, e.gas))
        .collect();
    s += &format!("  gas {}\n", gas.join(" "));
    s
}

/// A perturbation of `target` along a fixed random direction, scaled so
/// the target's own exceedance against the challenger's trace is about
/// `exceedance`; `None` when the target has no threshold or the direction
/// does not register. A mild cheat leaves the children downstream of the
/// target under the live-in gate, so they are examined too: one confirmed
/// from values it must not inherit would steer the descent off the target.
fn mild_cheat_at(
    d: &Deployment,
    inputs: &[Tensor<f32>],
    cfg: &SessionConfig,
    target: NodeId,
    exceedance: f64,
) -> Option<Perturbations> {
    let graph = &d.model.graph;
    let honest = execute(graph, inputs, cfg.proposer.config(), None).unwrap();
    let own = execute(graph, inputs, cfg.challenger.config(), None).unwrap();
    let direction = Tensor::<f32>::randn(honest.values[target.0].dims(), 4_242);
    let exceedance_at = |scale: f32| {
        let claimed = honest.values[target.0]
            .add(&direction.mul_scalar(scale))
            .unwrap();
        d.thresholds.exceedance(
            target,
            &error_profile(&claimed, &own.values[target.0], DEFAULT_EPS),
        )
    };
    let unit = exceedance_at(1e-2).filter(|e| e.is_finite() && *e > 0.0)?;
    let mut p = Perturbations::new();
    p.insert(
        target,
        direction.mul_scalar(1e-2 * (exceedance / unit) as f32),
    );
    Some(p)
}

/// Whether a session's screening flags the cheat, and the disputes it
/// plays at each width, reusing that screening.
fn session_disputes(
    d: &Deployment,
    inputs: &[Tensor<f32>],
    cfg: &SessionConfig,
    p: &Perturbations,
    widths: &[usize],
) -> (bool, Vec<DisputeOutcome>) {
    let graph = &d.model.graph;
    let trace = execute(graph, inputs, cfg.proposer.config(), Some(p)).unwrap();
    let commitment = TraceCommitment::build(&trace.values);
    let root = commitment.root();
    let screening = screen_claim(
        graph,
        d.model.logits,
        &d.thresholds,
        ClaimCheck {
            inputs,
            claimed_output: trace.value(d.model.logits).unwrap(),
        },
        &cfg.challenger,
    )
    .unwrap();
    let outcomes = widths
        .iter()
        .map(|&n_way| {
            run_dispute(
                graph,
                d.dispute_anchors().with_trace_root(&root),
                ProposerView::new(&trace).with_commitment(&commitment),
                inputs,
                ChallengerView::from_screening(&cfg.challenger, &screening),
                &d.thresholds,
                DisputeConfig { n_way },
            )
            .unwrap()
        })
        .collect();
    (screening.flagged, outcomes)
}

/// Disputes at N=2 and N=4 equal the outcomes captured before children
/// inherited their parent's re-execution (`golden/dispute_outcomes.txt`):
/// field by field for a planted cheat a quarter and halfway into each
/// deployment's compute nodes, and by result, choices, totals and gas for
/// a mild cheat (exceedance about 4) at every calibrated compute node,
/// flagged by screening or not.
#[test]
fn disputes_match_the_golden_outcomes() {
    let cfg = SessionConfig::default();
    let mut rendered = String::new();
    for (name, d, inputs) in deployed() {
        let graph = &d.model.graph;
        for (place, target) in cheat_targets(graph) {
            let p = planted_cheat_at(&d, &inputs, &cfg, target);
            let (_, outcomes) = session_disputes(&d, &inputs, &cfg, &p, &[2, 4]);
            for (o, n_way) in outcomes.iter().zip([2, 4]) {
                rendered += &render_outcome(&format!("{name} {place} {target:?} n={n_way}"), o);
            }
        }
    }
    for (name, d, inputs) in deployed() {
        for &target in d.model.graph.compute_nodes().iter() {
            let Some(p) = mild_cheat_at(&d, &inputs, &cfg, target, 4.0) else {
                continue;
            };
            let (flagged, outcomes) = session_disputes(&d, &inputs, &cfg, &p, &[2, 4]);
            for (o, n_way) in outcomes.iter().zip([2, 4]) {
                let chosen: Vec<String> = o
                    .rounds
                    .iter()
                    .map(|r| match r.chosen {
                        usize::MAX => "none".to_string(),
                        c => c.to_string(),
                    })
                    .collect();
                rendered += &format!(
                    "{name} mild {target:?} n={n_way} flagged={flagged}: {:?} chosen={} flops={} merkle={} reveals={} gas={}\n",
                    o.result,
                    chosen.join(","),
                    o.challenger_flops,
                    o.merkle_checks,
                    o.reveal_checks,
                    o.gas.total
                );
            }
        }
    }
    let golden = include_str!("golden/dispute_outcomes.txt");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    assert_eq!(rendered.lines().count(), golden.lines().count());
}

/// The record of `[start, end)` assembled without a plan: `extract`'s
/// slice, `MerkleTree::prove` on the graph and weight trees, and every
/// frontier digest revealed from `commitment`.
fn record_by_extract_and_prove(
    graph: &Graph,
    (gt, wt): (&MerkleTree, &MerkleTree),
    (start, end): (usize, usize),
    commitment: &TraceCommitment,
) -> SubgraphRecord {
    let sub = extract(graph, start, end).unwrap();
    let reveal = |id: &NodeId| {
        let proof = commitment.tree().prove(id.0).unwrap();
        (id.0, *commitment.digest(id.0).unwrap(), proof)
    };
    let live_in: Vec<_> = sub.live_in.iter().map(reveal).collect();
    let live_out: Vec<_> = sub.live_out.iter().map(reveal).collect();
    let list_hash = |reveals: &[(usize, Digest, InclusionProof)]| {
        let mut h = FastSha256::new();
        for (_, digest, _) in reveals {
            h.update(digest);
        }
        h.finalize()
    };
    let leaf_of = |name: &String| graph.params().keys().position(|k| k == name).unwrap();
    SubgraphRecord {
        live_in_hash: list_hash(&live_in),
        live_out_hash: list_hash(&live_out),
        op_proofs: (start..end).map(|i| (i, gt.prove(i).unwrap())).collect(),
        param_proofs: sub
            .param_refs
            .iter()
            .map(|n| (n.clone(), wt.prove(leaf_of(n)).unwrap()))
            .collect(),
        trace_reveals: live_in.into_iter().chain(live_out).collect(),
        sub,
    }
}

#[test]
fn the_dispute_plan_equals_extract_and_prove_on_every_bisection_range() {
    for (name, model, inputs) in bundled_models() {
        let graph = &model.graph;
        let (gt, wt) = (graph_tree(graph), weight_tree(graph));
        let trace = execute(graph, &inputs, Device::rtx4090_like().config(), None).unwrap();
        let commitment = TraceCommitment::build(&trace.values);
        for n_way in [2, 4] {
            let plan = DisputePlan::build(graph, &gt, &wt, n_way).unwrap();
            let mut want = Vec::new();
            let mut pending = vec![(0, graph.len())];
            while let Some((start, end)) = pending.pop() {
                if end - start > 1 {
                    want.extend(partition(start, end, n_way));
                    pending.extend(partition(start, end, n_way));
                }
            }
            want.sort_unstable();
            assert_eq!(plan.ranges().collect::<Vec<_>>(), want, "{name} N={n_way}");
            for &(s, e) in &want {
                assert_eq!(
                    plan.subgraph(s, e),
                    Some(&extract(graph, s, e).unwrap()),
                    "{name} N={n_way}: [{s}, {e})"
                );
                assert_eq!(
                    plan.record((s, e), Some(&commitment)).unwrap(),
                    record_by_extract_and_prove(graph, (&gt, &wt), (s, e), &commitment),
                    "{name} N={n_way}: [{s}, {e})"
                );
            }
        }
    }
}
