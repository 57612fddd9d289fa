//! Red-path record verification: every record a real dispute posts, on
//! each bundled model, under single-field and single-bit mutations.
//!
//! The challenger verifies records against the cached leaf digests of its
//! own trees ([`verify_record_anchored`]); [`verify_record`] re-serializes
//! and rehashes every leaf and is the oracle. For every mutant both must
//! return the identical `Ok((merkle_checks, reveal_checks))` or the
//! identical typed error, and neither may panic. Mutations that break a
//! binding (a flipped digest bit, a dropped reveal, a foreign parameter
//! name) must be rejected, and so must records that do not prove exactly
//! their slice: op proofs dropped, reordered or duplicated, a parameter
//! proof omitted, or a live-in/live-out frontier truncated with its
//! interface hash re-derived to match.

use tao::{deploy, Deployment};
use tao_device::{Device, Fleet};
use tao_graph::{execute, extract, partition, Execution, NodeId, Perturbations};
use tao_merkle::{Digest, FastSha256, InclusionProof, TraceCommitment};
use tao_models::{bert, data, qwen, resnet, BertConfig, Model, QwenConfig, ResNetConfig};
use tao_protocol::{
    make_record_with, run_dispute, screen_claim, verify_record, verify_record_anchored,
    ChallengerView, ClaimCheck, DisputeConfig, ParamIndex, ProposerView, SubgraphRecord,
};
use tao_tensor::Tensor;

const N_WAY: usize = 2;

/// A small deployment of each bundled model family with one input.
fn bundled() -> Vec<(&'static str, Deployment, Vec<Tensor<f32>>)> {
    let bert_cfg = BertConfig {
        layers: 1,
        ..BertConfig::small()
    };
    let qwen_cfg = QwenConfig {
        layers: 1,
        ..QwenConfig::small()
    };
    let resnet_cfg = ResNetConfig {
        blocks: 1,
        ..ResNetConfig::small()
    };
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

/// Runs an anchored dispute against a proposer that perturbed a mid-graph
/// operator, then rebuilds every record it posted, round by round, exactly
/// as the proposer built them.
fn dispute_records(
    d: &Deployment,
    inputs: &[Tensor<f32>],
) -> (Vec<SubgraphRecord>, TraceCommitment) {
    let graph = &d.model.graph;
    let nodes = graph.compute_nodes();
    let target = nodes[nodes.len() / 2];
    let honest = execute(graph, inputs, Device::rtx4090_like().config(), None).unwrap();
    let mut p = Perturbations::new();
    let shape = honest.values[target.0].dims().to_vec();
    p.insert(target, Tensor::<f32>::randn(&shape, 4_242).mul_scalar(0.5));
    let trace: Execution =
        execute(graph, inputs, Device::rtx4090_like().config(), Some(&p)).unwrap();
    let commitment = TraceCommitment::build(&trace.values);
    let root = commitment.root();
    let anchors = d.dispute_anchors().with_trace_root(&root);
    let challenger = Device::h100_like();
    let claim = ClaimCheck {
        inputs,
        claimed_output: trace.value(d.model.logits).unwrap(),
    };
    let screening = screen_claim(graph, d.model.logits, &d.thresholds, claim, &challenger).unwrap();
    let outcome = run_dispute(
        graph,
        anchors,
        ProposerView::new(&trace).with_commitment(&commitment),
        inputs,
        ChallengerView::from_screening(&challenger, &screening),
        &d.thresholds,
        DisputeConfig { n_way: N_WAY },
    )
    .unwrap();
    assert!(!outcome.rounds.is_empty());

    let params = ParamIndex::new(graph);
    let mut records = Vec::new();
    for round in &outcome.rounds {
        let mut round_checks = 0;
        for (s, e) in partition(round.range.0, round.range.1, N_WAY) {
            let sub = extract(graph, s, e).unwrap();
            let rec = make_record_with(
                anchors.graph_tree,
                anchors.weight_tree,
                &params,
                &sub,
                Some(&commitment),
            )
            .unwrap();
            round_checks += verify_record_anchored(graph, &anchors, &params, &rec)
                .unwrap()
                .0;
            records.push(rec);
        }
        // These are the records the dispute verified: same Merkle checks.
        assert_eq!(round_checks, round.merkle_checks, "round {}", round.round);
    }
    (records, commitment)
}

/// Flips one bit of the first present sibling of `proof`.
fn flip_sibling_bit(proof: &mut InclusionProof, bit: usize) {
    if let Some(s) = proof.siblings.iter_mut().flatten().next() {
        s[bit / 8 % 32] ^= 1 << (bit % 8);
    }
}

/// The positions worth mutating in a list of `len`: first, middle, last.
fn probes(len: usize) -> Vec<usize> {
    let mut v = vec![0, len / 2, len.saturating_sub(1)];
    v.dedup();
    v.retain(|&i| i < len);
    v
}

/// The interface hash of `ids` re-derived from `rec`'s revealed digests,
/// as a proposer posting a doctored frontier would compute it.
fn rederived_hash(rec: &SubgraphRecord, ids: &[NodeId]) -> Digest {
    let mut h = FastSha256::new();
    for id in ids {
        let (_, digest, _) = rec
            .trace_reveals
            .iter()
            .find(|(n, _, _)| *n == id.0)
            .expect("every frontier node is revealed");
        h.update(digest);
    }
    h.finalize()
}

/// Single-field and single-bit mutants of `rec`, each tagged with whether
/// it must be rejected.
fn mutants(rec: &SubgraphRecord, graph_len: usize) -> Vec<(String, SubgraphRecord, bool)> {
    let mut out = Vec::new();
    let mut push = |label: String, must_reject: bool, f: &dyn Fn(&mut SubgraphRecord)| {
        let mut m = rec.clone();
        f(&mut m);
        out.push((label, m, must_reject));
    };
    for i in probes(rec.op_proofs.len()) {
        for (tag, idx) in [
            ("next", rec.op_proofs[i].0 + 1),
            ("past-end", graph_len + 3),
            ("max", usize::MAX),
        ] {
            push(format!("op {i} index {tag}"), true, &|m| {
                m.op_proofs[i].0 = idx
            });
        }
        push(format!("op {i} sibling bit"), false, &|m| {
            flip_sibling_bit(&mut m.op_proofs[i].1, 7 * i + 3)
        });
        push(format!("op {i} proof index"), false, &|m| {
            m.op_proofs[i].1.index ^= 1
        });
    }
    // Coverage: the op proofs must be exactly `start..end`, in order.
    for i in probes(rec.op_proofs.len()) {
        push(format!("op {i} proof dropped"), true, &|m| {
            m.op_proofs.remove(i);
        });
        push(format!("op {i} proof duplicated"), true, &|m| {
            m.op_proofs.insert(i, m.op_proofs[i].clone())
        });
    }
    if rec.op_proofs.len() > 1 {
        push("op proofs reordered".into(), true, &|m| {
            let last = m.op_proofs.len() - 1;
            m.op_proofs.swap(0, last)
        });
    }
    let names: Vec<String> = rec.param_proofs.iter().map(|(n, _)| n.clone()).collect();
    for i in probes(rec.param_proofs.len()) {
        push(format!("param {i} sibling bit"), false, &|m| {
            flip_sibling_bit(&mut m.param_proofs[i].1, 11 * i + 5)
        });
        push(format!("param {i} proof index"), false, &|m| {
            m.param_proofs[i].1.index ^= 1
        });
        push(format!("param {i} unknown name"), true, &|m| {
            m.param_proofs[i].0 = "no.such.param".into()
        });
        if let Some(other) = names.iter().find(|n| **n != names[i]) {
            push(format!("param {i} swapped name"), true, &|m| {
                m.param_proofs[i].0 = other.clone()
            });
        }
        push(format!("param {i} proof omitted"), true, &|m| {
            m.param_proofs.remove(i);
        });
    }
    // Truncated frontiers whose interface hash still re-derives from the
    // reveals: only the coverage rule catches these.
    if !rec.sub.live_in.is_empty() {
        push("live-in truncated, hash re-derived".into(), true, &|m| {
            m.sub.live_in.pop();
            m.live_in_hash = rederived_hash(m, &m.sub.live_in);
        });
    }
    if !rec.sub.live_out.is_empty() {
        push("live-out truncated, hash re-derived".into(), true, &|m| {
            m.sub.live_out.pop();
            m.live_out_hash = rederived_hash(m, &m.sub.live_out);
        });
    }
    for i in probes(rec.trace_reveals.len()) {
        push(format!("reveal {i} digest bit"), true, &|m| {
            m.trace_reveals[i].1[i % 32] ^= 0x10
        });
        push(format!("reveal {i} sibling bit"), false, &|m| {
            flip_sibling_bit(&mut m.trace_reveals[i].2, 13 * i + 1)
        });
        push(format!("reveal {i} proof index"), true, &|m| {
            m.trace_reveals[i].2.index ^= 1
        });
        push(format!("reveal {i} node id"), true, &|m| {
            m.trace_reveals[i].0 ^= 1
        });
        push(format!("reveal {i} dropped"), true, &|m| {
            m.trace_reveals.remove(i);
        });
    }
    push("live-in hash bit".into(), true, &|m| {
        m.live_in_hash[0] ^= 0x01
    });
    push("live-out hash bit".into(), true, &|m| {
        m.live_out_hash[31] ^= 0x80
    });
    out
}

#[test]
fn cached_and_rehashing_verifiers_agree_on_every_mutant() {
    for (model, d, inputs) in bundled() {
        let graph = &d.model.graph;
        let (records, commitment) = dispute_records(&d, &inputs);
        let root = commitment.root();
        let anchors = d.dispute_anchors().with_trace_root(&root);
        let params = ParamIndex::new(graph);
        let mut rejected = 0usize;
        let mut total = 0usize;
        for (r, rec) in records.iter().enumerate() {
            for (label, mutant, must_reject) in
                std::iter::once(("unchanged".to_string(), rec.clone(), false))
                    .chain(mutants(rec, graph.len()))
            {
                let oracle = verify_record(
                    graph,
                    anchors.graph_root,
                    anchors.weight_root,
                    &root,
                    &mutant,
                );
                let cached = verify_record_anchored(graph, &anchors, &params, &mutant);
                assert_eq!(cached, oracle, "{model} record {r}: {label}");
                if must_reject {
                    assert!(cached.is_err(), "{model} record {r}: {label} accepted");
                }
                if label == "unchanged" {
                    assert!(cached.is_ok(), "{model} record {r}: honest record rejected");
                }
                rejected += usize::from(cached.is_err());
                total += 1;
            }
        }
        assert!(
            rejected > total / 2,
            "{model}: only {rejected} of {total} mutants rejected"
        );
    }
}
