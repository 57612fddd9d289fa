//! Red-path record verification: every record a real dispute posts, on
//! each bundled model, under single-field and single-bit mutations.
//!
//! The challenger verifies records against its own dispute plan and the
//! cached leaf digests of its own trees, and opens each distinct trace
//! reveal once per dispute ([`verify_record_anchored`]); [`verify_record`]
//! re-extracts every slice and re-serializes and rehashes every leaf and
//! reveal, and is the oracle. For every mutant both must return the
//! identical `Ok((merkle_checks, reveal_checks))` or the identical typed
//! error, and neither may panic. Mutations that break a
//! binding (a flipped digest bit, a dropped reveal, a foreign parameter
//! name) must be rejected, and so must records that do not prove exactly
//! their slice: op proofs dropped, reordered or duplicated, a parameter
//! proof omitted, or a live-in/live-out frontier truncated with its
//! interface hash re-derived to match.
//!
//! Two red paths are specific to the plan and the reveal memo: a record
//! for a range outside the plan is refused with the frontier check's
//! error, and a later-round record whose repeated reveal carries a
//! tampered digest or proof is refused as the oracle refuses it.

use tao::{deploy, Deployment};
use tao_device::{Device, Fleet};
use tao_graph::{execute, extract, partition, Execution, NodeId, Perturbations, Subgraph};
use tao_merkle::{Digest, FastSha256, InclusionProof, TraceCommitment};
use tao_models::{bert, data, qwen, resnet, BertConfig, Model, QwenConfig, ResNetConfig};
use tao_protocol::{
    run_dispute, screen_claim, verify_record, verify_record_anchored, ChallengerView, ClaimCheck,
    DisputeConfig, OpenedReveals, ProposerView, ProtocolError, SubgraphRecord,
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
/// as the proposer built them, and verifies them in that order with one
/// reveal memo, as the dispute did. Returns each record with its round.
fn dispute_records(
    d: &Deployment,
    inputs: &[Tensor<f32>],
) -> (Vec<(usize, SubgraphRecord)>, TraceCommitment) {
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

    let plan = anchors.plan(graph, N_WAY).unwrap();
    let mut opened = OpenedReveals::default();
    let mut records = Vec::new();
    let mut reveals = 0;
    for round in &outcome.rounds {
        let mut round_checks = 0;
        for range in partition(round.range.0, round.range.1, N_WAY) {
            let rec = plan.record(range, Some(&commitment)).unwrap();
            let (checks, reveal_checks) =
                verify_record_anchored(&anchors, &plan, &mut opened, &rec).unwrap();
            round_checks += checks;
            reveals += reveal_checks;
            records.push((round.round, rec));
        }
        // These are the records the dispute verified: same Merkle checks.
        assert_eq!(round_checks, round.merkle_checks, "round {}", round.round);
    }
    // A repeated reveal still counts as a check.
    assert_eq!(reveals, outcome.reveal_checks);
    (records, commitment)
}

/// The oracle record of `[start, end)`: [`extract`]'s slice, proofs from
/// the deployment's trees and reveals from `commitment`, assembled without
/// the dispute plan.
fn oracle_record(
    d: &Deployment,
    (start, end): (usize, usize),
    commitment: &TraceCommitment,
) -> SubgraphRecord {
    let graph = &d.model.graph;
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
        op_proofs: (start..end)
            .map(|i| (i, d.graph_tree.prove(i).unwrap()))
            .collect(),
        param_proofs: sub
            .param_refs
            .iter()
            .map(|n| (n.clone(), d.weight_tree.prove(leaf_of(n)).unwrap()))
            .collect(),
        trace_reveals: live_in.into_iter().chain(live_out).collect(),
        sub,
    }
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
        let plan = anchors.plan(graph, N_WAY).unwrap();
        // Every honest reveal has opened once, so a mutant's untouched
        // reveals are read from the memo and its tampered ones are not.
        let mut opened = OpenedReveals::default();
        for (_, rec) in &records {
            verify_record_anchored(&anchors, &plan, &mut opened, rec).unwrap();
        }
        let mut rejected = 0usize;
        let mut total = 0usize;
        for (r, (_, rec)) in records.iter().enumerate() {
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
                let cached = verify_record_anchored(&anchors, &plan, &mut opened, &mutant);
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

/// The frontier check's refusal of the slice `[start, end)`.
fn frontier_error(start: usize, end: usize) -> ProtocolError {
    ProtocolError::BadRecord(format!(
        "slice [{start}, {end}) does not carry the graph's frontiers"
    ))
}

#[test]
fn a_record_for_a_range_outside_the_plan_is_refused() {
    for (model, d, inputs) in bundled() {
        let graph = &d.model.graph;
        let len = graph.len();
        let (_, commitment) = dispute_records(&d, &inputs);
        let root = commitment.root();
        let anchors = d.dispute_anchors().with_trace_root(&root);
        let plan = anchors.plan(graph, N_WAY).unwrap();
        let mut opened = OpenedReveals::default();
        // Empty, reversed and out-of-bounds slices with well-formed op
        // proof coverage: neither in the plan nor extractable, so the
        // oracle refuses each with the same error.
        let proof = d.graph_tree.prove(0).unwrap();
        for (start, end) in [(3, 3), (5, 2), (len - 1, len + 1), (len, len + 2)] {
            let rec = SubgraphRecord {
                sub: Subgraph {
                    start,
                    end,
                    live_in: vec![],
                    param_refs: vec![],
                    live_out: vec![],
                },
                live_in_hash: FastSha256::new().finalize(),
                live_out_hash: FastSha256::new().finalize(),
                op_proofs: (start..end).map(|i| (i, proof.clone())).collect(),
                param_proofs: vec![],
                trace_reveals: vec![],
            };
            let oracle = verify_record(graph, anchors.graph_root, anchors.weight_root, &root, &rec);
            assert_eq!(oracle, Err(frontier_error(start, end)), "{model}");
            assert_eq!(
                verify_record_anchored(&anchors, &plan, &mut opened, &rec),
                oracle,
                "{model}: [{start}, {end})"
            );
        }
        // Well-formed records of slices the game never posts (the whole
        // graph, and a range straddling the first split): the oracle,
        // which holds no plan, accepts them; the plan refuses them with
        // the frontier check's error.
        for (start, end) in [(0, len), (1, len / 2 + 2)] {
            assert!(plan.subgraph(start, end).is_none(), "{model}");
            let rec = oracle_record(&d, (start, end), &commitment);
            assert!(
                verify_record(graph, anchors.graph_root, anchors.weight_root, &root, &rec).is_ok()
            );
            assert_eq!(
                verify_record_anchored(&anchors, &plan, &mut opened, &rec),
                Err(frontier_error(start, end)),
                "{model}: [{start}, {end})"
            );
        }
    }
}

#[test]
fn a_repeated_reveal_with_a_tampered_digest_or_proof_is_refused_like_the_oracle() {
    for (model, d, inputs) in bundled() {
        let graph = &d.model.graph;
        let (records, commitment) = dispute_records(&d, &inputs);
        let root = commitment.root();
        let anchors = d.dispute_anchors().with_trace_root(&root);
        let plan = anchors.plan(graph, N_WAY).unwrap();
        let mut repeats = 0;
        for (r, (round, rec)) in records.iter().enumerate() {
            // The reveals of records from earlier rounds, opened in order.
            let mut opened = OpenedReveals::default();
            let earlier: Vec<&SubgraphRecord> = records[..r]
                .iter()
                .filter(|(k, _)| k < round)
                .map(|(_, e)| e)
                .collect();
            for e in &earlier {
                verify_record_anchored(&anchors, &plan, &mut opened, e).unwrap();
            }
            for (i, (id, digest, proof)) in rec.trace_reveals.iter().enumerate() {
                let repeated = earlier
                    .iter()
                    .flat_map(|e| &e.trace_reveals)
                    .any(|(n, dg, p)| n == id && dg == digest && p == proof);
                if !repeated {
                    continue;
                }
                repeats += 1;
                let mut variants: Vec<(&str, SubgraphRecord, bool)> = Vec::new();
                let mut tampered = rec.clone();
                tampered.trace_reveals[i].1[3] ^= 0x04;
                variants.push(("digest bit", tampered, true));
                let mut tampered = rec.clone();
                flip_sibling_bit(&mut tampered.trace_reveals[i].2, 5);
                // A proof with no present sibling has no bit to flip.
                let must_reject = tampered != *rec;
                variants.push(("sibling bit", tampered, must_reject));
                // A different proof that opens the same digest: not in the
                // memo, so its path is hashed, to the oracle's verdict.
                let mut longer = rec.clone();
                longer.trace_reveals[i].2.siblings.push(None);
                variants.push(("extra empty sibling", longer, false));
                for (label, variant, must_reject) in variants {
                    let oracle = verify_record(
                        graph,
                        anchors.graph_root,
                        anchors.weight_root,
                        &root,
                        &variant,
                    );
                    let anchored = verify_record_anchored(&anchors, &plan, &mut opened, &variant);
                    assert_eq!(anchored, oracle, "{model} record {r} reveal {i}: {label}");
                    if must_reject {
                        assert!(
                            matches!(anchored, Err(ProtocolError::RevealMismatch { .. })),
                            "{model} record {r} reveal {i}: {label} accepted"
                        );
                    }
                }
            }
        }
        assert!(repeats > 0, "{model}: no reveal repeats across rounds");
    }
}
