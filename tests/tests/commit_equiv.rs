//! Differential equivalence harness for the commitment layer — the
//! `kernel_equiv` idiom applied to hashing: every fast path
//! ([`FastSha256`] on whichever compressor the host dispatches to, the
//! streaming canonical encoders, the tree builder, the trace committer
//! with and without a parameter table) must be **bit-identical** to the
//! seed scalar oracles, for any message length and chunking, ragged leaf
//! counts (past 32k leaves included) and any mix of tensor shapes.

use proptest::prelude::*;
use tao_graph::{
    execute_observed, forward_observed, BufferPool, GraphBuilder, NodeId, OpKind, Perturbations,
    ValueObserver,
};
use tao_merkle::{
    canon_tensor, sha256, tensor_hash, tensor_hash_reference, verify_inclusion_digest,
    verify_inclusion_digest_reference, Digest, FastSha256, InclusionProof, MerkleTree,
    ParamDigests, Sha256, StreamingCommitter, TokenChain, TraceCommitment,
};
use tao_models::Model;
use tao_tensor::{KernelConfig, Tensor};

fn message(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
        .collect()
}

fn fast_sha256(data: &[u8]) -> Digest {
    let mut h = FastSha256::new();
    h.update(data);
    h.finalize()
}

/// The hashing verdict for leaf `leaf` of `tree` (false out of range).
fn hashed_verdict(tree: &MerkleTree, leaf: usize, proof: &InclusionProof) -> bool {
    tree.leaf_digests()
        .get(leaf)
        .is_some_and(|&d| verify_inclusion_digest(&tree.root(), d, proof))
}

/// Mutants of a valid proof, each labelled: a tampered sibling byte, a
/// flipped index bit at every level (`None` levels and two levels past
/// the depth included), indices past `len` or with high bits set, a
/// truncated proof, an extra trailing `None` or `Some`, a `Some`<->`None`
/// swap at every level, and the proof reshaped with its `None` slots
/// dropped or with a leading `None` slot inserted.
fn proof_mutants(
    proof: &InclusionProof,
    len: usize,
    bit: usize,
    foreign: Digest,
) -> Vec<(String, InclusionProof)> {
    let mut out = Vec::new();
    let mut push = |label: String, f: &dyn Fn(&mut InclusionProof)| {
        let mut m = proof.clone();
        f(&mut m);
        out.push((label, m));
    };
    push("sibling byte".into(), &|m| {
        if let Some(s) = m.siblings.iter_mut().flatten().nth(bit % 3) {
            s[bit / 8] ^= 1 << (bit % 8);
        }
    });
    for k in 0..proof.siblings.len() + 2 {
        push(format!("index bit {k}"), &|m| m.index ^= 1 << k);
        push(format!("swap {k}"), &|m| {
            if let Some(s) = m.siblings.get_mut(k) {
                *s = if s.is_some() { None } else { Some(foreign) };
            }
        });
    }
    push("index + len".into(), &|m| m.index += len);
    push("index past len".into(), &|m| m.index = len + bit);
    push("high bits".into(), &|m| m.index |= usize::MAX << 40);
    push("top bit".into(), &|m| m.index |= 1 << (usize::BITS - 1));
    push("truncated".into(), &|m| {
        m.siblings.pop();
    });
    push("trailing None".into(), &|m| m.siblings.push(None));
    push("trailing Some".into(), &|m| m.siblings.push(Some(foreign)));
    push("leading None".into(), &|m| {
        m.siblings.insert(0, None);
        m.index <<= 1;
    });
    push("None slots dropped".into(), &|m| {
        let (mut index, mut siblings) = (0, Vec::new());
        for (k, s) in m.siblings.iter().enumerate() {
            if s.is_some() {
                index |= ((m.index >> k) & 1) << siblings.len();
                siblings.push(*s);
            }
        }
        *m = InclusionProof { index, siblings };
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The streaming hasher equals the scalar oracle for any chunking of
    /// any message, and one-shot.
    #[test]
    fn fast_hasher_equals_oracle_for_any_chunking(
        len in 0usize..2048,
        split in 1usize..97,
        seed in 0u8..255,
    ) {
        let data = message(len, seed);
        let want = sha256(&data);
        let mut h = FastSha256::new();
        for chunk in data.chunks(split) {
            h.update(chunk);
        }
        prop_assert_eq!(h.finalize(), want, "split {}", split);
        prop_assert_eq!(fast_sha256(&data), want, "one-shot");
    }

    /// Tree builds from raw leaves and from leaf digests equal the seed
    /// builder for ragged leaf counts, also when several threads build the
    /// same tree at once.
    #[test]
    fn tree_builds_equal_reference_for_ragged_counts_and_threads(
        n in 0usize..90,
        leaf_len in 1usize..80,
        boost in 0usize..2,
    ) {
        // `boost` occasionally pushes the leaf count past 32k leaves, far
        // beyond any tree a protocol session builds.
        let n = if boost == 1 { n * 512 } else { n };
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| message(leaf_len, i as u8)).collect();
        let oracle = MerkleTree::from_leaves_reference(&leaves);
        prop_assert_eq!(&MerkleTree::from_leaves(&leaves), &oracle, "auto path");
        let digests: Vec<_> = leaves
            .iter()
            .map(|l| {
                let mut h = Sha256::new();
                h.update(&[0x00]);
                h.update(l);
                h.finalize()
            })
            .collect();
        prop_assert_eq!(&MerkleTree::from_leaf_digests(digests.clone()), &oracle, "digests");
        let concurrent: Vec<MerkleTree> = std::thread::scope(|scope| {
            let builds: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| MerkleTree::from_leaf_digests(digests.clone())))
                .collect();
            builds.into_iter().map(|b| b.join().unwrap()).collect()
        });
        for (i, tree) in concurrent.iter().enumerate() {
            prop_assert_eq!(tree, &oracle, "concurrent build {}", i);
        }
    }

    /// Inclusion verdicts on the fast path-hashing backend equal the seed
    /// scalar path walk for every proof of a tree: valid proofs, and
    /// proofs with a flipped sibling bit, a shifted index or a different
    /// leaf.
    #[test]
    fn inclusion_verdicts_equal_reference_for_valid_and_tampered_proofs(
        n in 1usize..70,
        seed in 0u8..255,
        tamper in 0usize..4,
        bit in 0usize..256,
    ) {
        let leaves: Vec<Vec<u8>> = (0..n)
            .map(|i| message(9 + i % 5, (i as u8).wrapping_mul(seed)))
            .collect();
        let tree = MerkleTree::from_leaves(&leaves);
        let root = tree.root();
        for (idx, &leaf) in tree.leaf_digests().iter().enumerate() {
            let mut leaf = leaf;
            let mut proof = tree.prove(idx).unwrap();
            prop_assert!(verify_inclusion_digest(&root, leaf, &proof), "leaf {}", idx);
            match tamper {
                0 => {
                    if let Some(s) = proof.siblings.iter_mut().flatten().next() {
                        s[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                1 => proof.index ^= 1 << (bit % 7),
                2 => leaf[bit / 8] ^= 1 << (bit % 8),
                _ => {}
            }
            prop_assert_eq!(
                verify_inclusion_digest(&root, leaf, &proof),
                verify_inclusion_digest_reference(&root, leaf, &proof),
                "leaf {}", idx
            );
        }
    }

    /// Path comparison against the verifier's own tree returns the
    /// hashing verdict on every valid proof and every mutant of it, for
    /// trees of 1–300 leaves with and without duplicate leaves; also for
    /// each proof checked against another occurrence of its leaf (when
    /// leaves repeat), the neighbouring leaf and out-of-range leaves.
    #[test]
    fn path_comparison_equals_hashing_for_valid_and_mutated_proofs(
        n in 1usize..301,
        distinct in 1usize..301,
        bit in 0usize..256,
    ) {
        // Leaf bytes repeat with period `distinct`: duplicate leaves (and
        // duplicate subtrees) whenever `distinct < n`.
        let leaves: Vec<Vec<u8>> = (0..n)
            .map(|i| ((i % distinct) as u32).to_le_bytes().to_vec())
            .collect();
        let tree = MerkleTree::from_leaves(&leaves);
        let foreign = tree.root();
        for i in 0..n {
            let proof = tree.prove(i).unwrap();
            prop_assert!(tree.matches_path(i, &proof), "leaf {}", i);
            prop_assert!(hashed_verdict(&tree, i, &proof), "leaf {}", i);
            for (label, m) in proof_mutants(&proof, n, bit, foreign) {
                prop_assert_eq!(
                    tree.matches_path(i, &m),
                    hashed_verdict(&tree, i, &m),
                    "leaf {}: {}", i, label
                );
            }
            for leaf in [i ^ 1, n, n + bit, usize::MAX, (i + distinct) % n] {
                prop_assert_eq!(
                    tree.matches_path(leaf, &proof),
                    hashed_verdict(&tree, leaf, &proof),
                    "proof {} against leaf {}", i, leaf
                );
            }
        }
    }

    /// The streaming tensor digest equals hashing the materialized
    /// canonical bytes, and the trace committer (with and without a
    /// parameter table) equals the seed materializing path, for any mix
    /// of tensor shapes.
    #[test]
    fn trace_commitments_equal_reference_for_any_shape_mix(
        shapes in prop::collection::vec(0usize..6, 0..24),
    ) {
        let values: Vec<Tensor<f32>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let dims: &[usize] = match s {
                    0 => &[1],
                    1 => &[17],
                    2 => &[4, 4],
                    3 => &[4, 4],
                    4 => &[2, 3, 5],
                    _ => &[],     // rank-0 scalar
                };
                Tensor::<f32>::rand_uniform(dims, -2.0, 2.0, 1000 + i as u64)
            })
            .collect();
        for t in &values {
            prop_assert_eq!(tensor_hash(t), tensor_hash_reference(t));
            prop_assert_eq!(tensor_hash(t), sha256(&canon_tensor(t)));
        }
        let oracle = TraceCommitment::reference(&values);
        prop_assert_eq!(&TraceCommitment::build(&values), &oracle);
    }

    /// Streamed commitments (digests hashed as the executor produces each
    /// node) are bit-identical to the post-hoc oracle over the finished
    /// trace — under both retention policies and for any chain
    /// depth/width/seed.
    #[test]
    fn streamed_commitment_equals_post_hoc_for_any_graph(
        depth in 1usize..4,
        width in 2usize..17,
        seed in 0u64..1000,
    ) {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let mut cur = x;
        for i in 0..depth {
            let w = b.parameter(
                format!("w{i}"),
                Tensor::<f32>::rand_uniform(&[width, width], -0.4, 0.4, seed + i as u64),
            );
            let m = b.op(format!("mm{i}"), OpKind::MatMul, &[cur, w]);
            cur = b.op(format!("act{i}"), OpKind::Gelu, &[m]);
        }
        let g = b.finish(vec![cur]).unwrap();
        let inputs = vec![Tensor::<f32>::rand_uniform(&[3, width], -1.0, 1.0, seed + 99)];
        let k = KernelConfig::reference();
        // Seed oracle over the trace executor's kept-alive values.
        let mut probe = StreamingCommitter::new(g.len());
        let trace = execute_observed(&g, &inputs, &k, None, &mut probe).unwrap();
        let oracle = TraceCommitment::reference(&trace.values);
        prop_assert_eq!(probe.finish().root(), oracle.root(), "trace");
        // Pooled passes, cold and then warm on the same pool.
        let mut pool = BufferPool::new();
        for pass in 0..2usize {
            let mut committer = StreamingCommitter::new(g.len());
            forward_observed(&g, &inputs, &k, &mut pool, &mut committer).unwrap();
            prop_assert_eq!(
                committer.finish().root(),
                oracle.root(),
                "pooled pass {}",
                pass
            );
        }
    }

    /// The rolling token chain equals its post-hoc oracle and is prefix
    /// stable at every length: root_at(t) of the long chain equals the
    /// root of the chain stopped at t.
    #[test]
    fn token_chain_matches_oracle_and_is_prefix_stable(
        tokens in prop::collection::vec(0u64..50_000, 1..20),
    ) {
        let steps: Vec<(u64, Digest)> = tokens
            .iter()
            .enumerate()
            .map(|(t, &tok)| (tok, sha256(&[t as u8, tok as u8])))
            .collect();
        let mut chain = TokenChain::new();
        for (tok, root) in &steps {
            chain.append(*tok, root);
        }
        let oracle = TokenChain::from_steps(&steps);
        prop_assert_eq!(chain.root(), oracle.root());
        for t in 0..steps.len() {
            let prefix = TokenChain::from_steps(&steps[..=t]);
            prop_assert_eq!(*chain.root_at(t).unwrap(), prefix.root(), "prefix t={}", t);
        }
    }
}

/// Non-prop boundary sweep: every padding-relevant message length on the
/// compressor this host dispatches to (cheap, exhaustive, deterministic).
#[test]
fn padding_boundaries_on_every_backend() {
    for len in [
        0usize, 1, 54, 55, 56, 57, 63, 64, 65, 118, 119, 120, 127, 128, 129,
    ] {
        let data = message(len, 9);
        assert_eq!(fast_sha256(&data), sha256(&data), "len {len}");
    }
}

/// One-shot finalization padding: every message length 0..=300 (every
/// padding branch, 55/56/63/64/119/120 included) hashed one-shot and split
/// equals the scalar oracle.
#[test]
fn one_update_padding_equals_oracle_for_every_length() {
    for len in 0..=300usize {
        let data = message(len, len as u8);
        let want = sha256(&data);
        let mut h = FastSha256::new();
        h.update(&data[..len / 3]);
        h.update(&data[len / 3..]);
        assert_eq!(h.finalize(), want, "split len {len}");
        assert_eq!(fast_sha256(&data), want, "one-shot len {len}");
    }
}

/// The weight tree's streaming leaf encoder equals the seed materializing
/// path on a real model's state dict.
#[test]
fn weight_tree_streaming_equals_reference() {
    use tao_models::{bert, BertConfig};
    let model = bert::build(
        BertConfig {
            layers: 1,
            ..BertConfig::small()
        },
        3,
    );
    let fast = tao_merkle::weight_tree(&model.graph);
    let oracle = tao_merkle::weight_tree_reference(&model.graph);
    assert_eq!(fast, oracle);
    assert_eq!(fast.root(), oracle.root());
}

/// Each bundled model family at a small configuration plus the int8
/// transformer: the model, the same topology with different weights, and
/// valid inputs.
fn bundled_pairs() -> Vec<(&'static str, Model, Model, Vec<Tensor<f32>>)> {
    use tao_models::{
        bert, data, diffusion, quantize_linears, qwen, resnet, transformer, BertConfig,
        DiffusionConfig, QwenConfig, ResNetConfig, TransformerConfig,
    };
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
    let diffusion_cfg = DiffusionConfig::small();
    let int8_cfg = TransformerConfig {
        layers: 1,
        ..TransformerConfig::small()
    };
    let diffusion_model = diffusion::build(diffusion_cfg, 1);
    let diffusion_inputs = vec![
        Tensor::<f32>::randn(&diffusion_model.input_shapes[0], 42),
        diffusion::time_embedding(5, diffusion_cfg.temb),
    ];
    vec![
        (
            "bert",
            bert::build(bert_cfg, 1),
            bert::build(bert_cfg, 2),
            vec![bert::sample_ids(bert_cfg, 123)],
        ),
        (
            "qwen",
            qwen::build(qwen_cfg, 1),
            qwen::build(qwen_cfg, 2),
            vec![qwen::sample_ids(qwen_cfg, 55)],
        ),
        (
            "resnet",
            resnet::build(resnet_cfg, 1),
            resnet::build(resnet_cfg, 2),
            vec![data::class_image(
                resnet_cfg.in_channels,
                resnet_cfg.image,
                1,
                777,
            )],
        ),
        (
            "diffusion",
            diffusion_model,
            diffusion::build(diffusion_cfg, 2),
            diffusion_inputs,
        ),
        (
            "int8-transformer",
            quantize_linears(&transformer::build(int8_cfg, 3)),
            quantize_linears(&transformer::build(int8_cfg, 4)),
            vec![transformer::sample_ids(int8_cfg, 44)],
        ),
    ]
}

/// Streams `values` through a table-backed committer in node order.
fn streamed_over(values: &[Tensor<f32>], params: &ParamDigests) -> TraceCommitment {
    let mut c = StreamingCommitter::with_params(values.len(), params);
    for (i, v) in values.iter().enumerate() {
        c.observe(NodeId(i), v);
    }
    c.finish()
}

/// The parameter table never changes a digest: on every bundled model the
/// kept-trace batch build (with and without the table) and the
/// table-backed streamed commitments equal the `TraceCommitment::reference`
/// seed oracle on an honest pass (traced, and pooled cold and warm), with
/// each parameter node perturbed in turn, with a reshaped view of a
/// parameter (same buffer, other shape), and with a table built from the
/// same topology under different weights.
#[test]
fn param_table_commitments_equal_oracle_on_every_bundled_model() {
    let k = KernelConfig::reference();
    for (name, model, other, inputs) in bundled_pairs() {
        let g = &model.graph;
        let table = ParamDigests::new(g);
        let param_ids: Vec<NodeId> = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Parameter(_)))
            .map(|n| n.id)
            .collect();
        assert!(!param_ids.is_empty(), "{name}: no parameters");

        // Honest pass: every parameter node hits the table.
        let mut c = StreamingCommitter::with_params(g.len(), &table);
        let trace = execute_observed(g, &inputs, &k, None, &mut c).unwrap();
        let oracle = TraceCommitment::reference(&trace.values);
        assert_eq!(
            TraceCommitment::build(&trace.values),
            oracle,
            "{name}: kept trace"
        );
        assert_eq!(
            TraceCommitment::build_with_params(&trace.values, &table),
            oracle,
            "{name}: kept trace with table"
        );
        assert_eq!(c.finish(), oracle, "{name}: honest traced");
        let hits = (0..g.len())
            .filter(|&i| table.get(i, &trace.values[i]).is_some())
            .count();
        assert_eq!(hits, param_ids.len(), "{name}: every parameter hits");
        let mut pool = BufferPool::new();
        for pass in 0..2 {
            let mut c = StreamingCommitter::with_params(g.len(), &table);
            forward_observed(g, &inputs, &k, &mut pool, &mut c).unwrap();
            assert_eq!(c.finish(), oracle, "{name}: pooled pass {pass}");
        }

        // A perturbed parameter is a fresh buffer: it must miss.
        for (j, &id) in param_ids.iter().enumerate() {
            let dims = trace.values[id.0].dims().to_vec();
            let mut p = Perturbations::new();
            p.insert(
                id,
                Tensor::<f32>::randn(&dims, 900 + j as u64).mul_scalar(0.01),
            );
            let mut c = StreamingCommitter::with_params(g.len(), &table);
            let cheat = execute_observed(g, &inputs, &k, Some(&p), &mut c).unwrap();
            assert!(
                table.get(id.0, &cheat.values[id.0]).is_none(),
                "{name}: {id} hit"
            );
            let want = TraceCommitment::reference(&cheat.values);
            assert_ne!(
                want.root(),
                oracle.root(),
                "{name}: {id} perturbation invisible"
            );
            assert_eq!(c.finish(), want, "{name}: perturbed {id} streamed");
            assert_eq!(
                TraceCommitment::build_with_params(&cheat.values, &table),
                want,
                "{name}: perturbed {id} kept trace"
            );
        }

        // A reshaped view shares the buffer but not the canonical header.
        let id = param_ids[0];
        let mut values = trace.values.clone();
        let w = &values[id.0];
        let view = if w.rank() == 1 {
            w.reshape(&[1, w.len()]).unwrap()
        } else {
            w.reshape(&[w.len()]).unwrap()
        };
        assert!(view.shares_buffer(w));
        values[id.0] = view;
        let want = TraceCommitment::reference(&values);
        assert_ne!(want.root(), oracle.root(), "{name}: reshape invisible");
        assert_eq!(
            streamed_over(&values, &table),
            want,
            "{name}: reshape streamed"
        );
        assert_eq!(
            TraceCommitment::build_with_params(&values, &table),
            want,
            "{name}: reshape kept trace"
        );

        // Same topology, different weights: the foreign table never hits.
        let foreign = ParamDigests::new(&other.graph);
        assert_eq!(foreign.len(), g.len(), "{name}: same topology");
        assert!((0..g.len()).all(|i| foreign.get(i, &trace.values[i]).is_none()));
        assert_eq!(
            streamed_over(&trace.values, &foreign),
            oracle,
            "{name}: foreign"
        );
        assert_eq!(
            TraceCommitment::build_with_params(&trace.values, &foreign),
            oracle,
            "{name}: foreign kept trace"
        );
    }
}
