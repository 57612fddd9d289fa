//! Commitment-layer microbenchmark: the dispatched SHA-256, the batch
//! hasher and the trace commitment vs the seed scalar paths.
//!
//! Five sections, every timed pair also bit-compared (digests and roots),
//! so this doubles as a fast regression check of the commitment
//! equivalence contract (`cargo test --test commit_equiv` is the
//! exhaustive version). Each pair is timed as alternating repetitions of
//! both sides; a row's speedup is the median of the per-repetition
//! ratios, so a drift in host speed moves both sides of a ratio together.
//!
//! 1. **SHA-256** — a batch of independent messages through `FastSha256`
//!    (SHA-NI rounds when the title line says it was detected, scalar
//!    rounds otherwise) vs the seed scalar hasher.
//! 2. **Trace commitment** — the headline number: committing a ≥ 1 MiB
//!    activation trace (leaf hash + tree build) on the fast path vs the
//!    seed path (materialize canon bytes, scalar SHA-256, seed tree).
//!    Asserted ≥ 4x outside smoke mode; roots must match bit-for-bit.
//! 3. **Tree build** — the serial interior build from leaf digests vs the
//!    seed builder over 16384 to 65536 leaves, far past the few hundred
//!    leaves of any tree a protocol session builds.
//! 4. **Inclusion-proof verification** — every proof of a 4096-leaf tree
//!    checked against cached leaf digests on the seed scalar path walk vs
//!    the fast one, and by comparison with the verifier's own tree path
//!    (`MerkleTree::matches_path`, the dispute challenger's check), with
//!    the valid and the tampered verdicts of all three bit-compared. Path
//!    comparison is asserted ≥ 8x the fast path walk outside smoke mode.
//! 5. **Batch commitment per forward pass** — for each bundled model, one
//!    pass's node values committed with the `ParamDigests` table by
//!    `TraceCommitment::build_with_params` (one `sha256_batch` per stage:
//!    the values, the leaves, each tree level) vs every message hashed on
//!    its own with `FastSha256`, roots bit-compared. The title line names
//!    the arm that ran (the 16-lane AVX-512 compressor, or per-message
//!    hashing). Asserted ≥ 1.5x on qwen-deep8 outside smoke mode when the
//!    16-lane arm ran.
//!
//! Run with `cargo run --release -p tao-bench --bin commit_microbench`.
//! Pass `--smoke` for a seconds-scale CI variant. Set
//! `CRITERION_CSV=<path>` to append figure-ready CSV rows (same schema as
//! the criterion stub's writer).

use tao_bench::{export_csv, paired, print_table, Paired};
use tao_graph::execute;
use tao_merkle::{
    canon_tensor_len, hash_leaves, sha256, tensor_hash, verify_inclusion_digest,
    verify_inclusion_digest_reference, Digest, FastSha256, InclusionProof, MerkleTree,
    ParamDigests, TraceCommitment,
};
use tao_models::{
    bert, data, quantize_linears, qwen, resnet, transformer, BertConfig, Model, QwenConfig,
    ResNetConfig, TransformerConfig,
};
use tao_tensor::{KernelConfig, Tensor};

/// The two rows ("seed-scalar", "fast") of a seed-vs-fast table: time,
/// speedup and throughput over `bytes`.
fn pair_rows(p: &Paired, bytes: u64) -> Vec<Vec<String>> {
    let gib = |t: f64| format!("{:.2} GiB/s", bytes as f64 / t / (1u64 << 30) as f64);
    vec![
        vec![
            "seed-scalar".into(),
            format!("{:.3}ms", 1e3 * p.seed),
            "1.00x".into(),
            gib(p.seed),
        ],
        vec![
            "fast".into(),
            format!("{:.3}ms", 1e3 * p.fast),
            format!("{:.2}x", p.speedup),
            gib(p.fast),
        ],
    ]
}

/// Exports both sides of a pair as `<prefix>/seed-scalar` and
/// `<prefix>/fast`.
fn export_pair(prefix: &str, p: &Paired, bytes: u64) {
    export_csv(&format!("{prefix}/seed-scalar"), p.seed, "bytes", bytes);
    export_csv(&format!("{prefix}/fast"), p.fast, "bytes", bytes);
}

/// True when the host has the CPU features `FastSha256` needs for its
/// SHA-NI rounds.
fn sha_ni_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// True when the host has the CPU features `sha256_batch` needs for its
/// 16-lane AVX-512 compressor.
fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

fn fast_sha256(data: &[u8]) -> Digest {
    let mut h = FastSha256::new();
    h.update(data);
    h.finalize()
}

/// The trace root of `values` with every message hashed on its own by
/// `FastSha256`: one `tensor_hash` per value that misses `params`, then
/// one hash per leaf and per interior node, level by level.
fn per_message_root(values: &[Tensor<f32>], params: &ParamDigests) -> Digest {
    let hash = |prefix: u8, parts: &[&[u8]]| {
        let mut h = FastSha256::new();
        h.update(&[prefix]);
        for part in parts {
            h.update(part);
        }
        h.finalize()
    };
    let mut level: Vec<Digest> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let digest = params.get(i, v).unwrap_or_else(|| tensor_hash(v));
            hash(0x00, &[&digest])
        })
        .collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [l, r] => hash(0x01, &[l, r]),
                _ => pair[0],
            })
            .collect();
    }
    level.first().copied().unwrap_or_else(|| sha256(b""))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = tao_tensor::kernel::host_threads();
    let lanes16 = avx512_detected();
    println!(
        "commit_microbench — {cores} cores; SHA-NI {}; batch arm: {}",
        if sha_ni_detected() {
            "detected"
        } else {
            "not detected (scalar rounds)"
        },
        if lanes16 {
            "16-lane AVX-512"
        } else {
            "per-message (no AVX-512)"
        }
    );
    let samples = if smoke { 3 } else { 15 };

    // --- 1. SHA-256 over independent messages ----------------------------
    let (msg_count, msg_len) = if smoke { (64, 512) } else { (512, 2048) };
    let msgs: Vec<Vec<u8>> = (0..msg_count)
        .map(|i| (0..msg_len).map(|j| ((i * 31 + j) % 251) as u8).collect())
        .collect();
    let total_bytes = (msg_count * msg_len) as u64;
    let seed_batch = || msgs.iter().map(|m| sha256(m)).collect::<Vec<_>>();
    let fast_batch = || msgs.iter().map(|m| fast_sha256(m)).collect::<Vec<_>>();
    assert_eq!(fast_batch(), seed_batch(), "digests drifted from scalar");
    let p = paired(samples, seed_batch, fast_batch);
    export_pair("commit/sha256", &p, total_bytes);
    print_table(
        &format!("SHA-256 — {msg_count} messages x {msg_len} B vs scalar oracle, {cores} cores"),
        &["hasher", "batch time", "speedup", "throughput"],
        &pair_rows(&p, total_bytes),
    );

    // --- 2. the headline: 1 MiB trace commitment -------------------------
    // 64 activation tensors of [64, 64] f32 = 1 MiB of trace data (plus a
    // few odd shapes).
    let (tensors, dim) = if smoke { (16, 32) } else { (64, 64) };
    let values: Vec<Tensor<f32>> = (0..tensors)
        .map(|i| {
            if i % 13 == 12 {
                Tensor::<f32>::rand_uniform(&[dim / 2, dim, 2], -1.0, 1.0, i as u64)
            } else {
                Tensor::<f32>::rand_uniform(&[dim, dim], -1.0, 1.0, i as u64)
            }
        })
        .collect();
    let trace_bytes: u64 = values.iter().map(|t| 4 * t.len() as u64).sum();
    let oracle = TraceCommitment::reference(&values);
    let got = TraceCommitment::build(&values);
    assert_eq!(got, oracle, "trace commitment drifted");
    assert_eq!(got.root(), oracle.root());
    let trace = paired(
        samples,
        || TraceCommitment::reference(&values),
        || TraceCommitment::build(&values),
    );
    export_pair("commit/trace_commitment", &trace, trace_bytes);
    print_table(
        &format!(
            "Trace commitment — {} KiB trace ({} tensors), leaf hash + tree build, {cores} cores",
            trace_bytes / 1024,
            values.len(),
        ),
        &["path", "commit time", "speedup vs seed", "throughput"],
        &pair_rows(&trace, trace_bytes),
    );

    // --- 3. serial tree build vs the seed builder, over leaf counts -----
    let leaf_len = 64;
    let leaf_counts: &[usize] = if smoke {
        &[2048]
    } else {
        &[16384, 32768, 65536]
    };
    let mut rows = Vec::new();
    for &leaf_count in leaf_counts {
        let leaves: Vec<Vec<u8>> = (0..leaf_count)
            .map(|i| (0..leaf_len).map(|j| ((i * 7 + j) % 256) as u8).collect())
            .collect();
        let digests = hash_leaves(&leaves);
        assert_eq!(
            MerkleTree::from_leaf_digests(digests.clone()),
            MerkleTree::from_leaves_reference(&leaves),
            "{leaf_count} leaves: tree drifted"
        );
        let p = paired(
            samples,
            || MerkleTree::from_leaf_digests_reference(digests.clone()),
            || MerkleTree::from_leaf_digests(digests.clone()),
        );
        export_pair(
            &format!("commit/tree_build/{leaf_count}"),
            &p,
            32 * leaf_count as u64,
        );
        rows.push(vec![
            format!("{leaf_count}"),
            format!("{:.3}ms", 1e3 * p.seed),
            format!("{:.3}ms", 1e3 * p.fast),
            format!("{:.2}x", p.speedup),
        ]);
    }
    print_table(
        &format!(
            "Tree build — interior levels from {leaf_len} B leaves' digests, one thread, {cores} cores (trees bit-identical)"
        ),
        &["leaves", "seed", "fast", "speedup"],
        &rows,
    );

    // --- 4. inclusion-proof verification against cached leaf digests ----
    let proof_leaves: Vec<Vec<u8>> = (0..4096u32).map(|i| i.to_le_bytes().to_vec()).collect();
    let proof_tree = MerkleTree::from_leaves(&proof_leaves);
    let proof_root = proof_tree.root();
    let valid: Vec<InclusionProof> = (0..proof_tree.len())
        .map(|i| proof_tree.prove(i).expect("index in range"))
        .collect();
    let tampered: Vec<InclusionProof> = valid
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut p = p.clone();
            let level = i % p.siblings.len();
            if let Some(s) = p.siblings.get_mut(level).and_then(Option::as_mut) {
                s[i % 32] ^= 1 << (i % 8);
            }
            p
        })
        .collect();
    type Verify = fn(&Digest, Digest, &InclusionProof) -> bool;
    let verdicts = |verify: Verify, proofs: &[InclusionProof]| -> Vec<bool> {
        proofs
            .iter()
            .zip(proof_tree.leaf_digests())
            .map(|(p, &leaf)| verify(&proof_root, leaf, p))
            .collect()
    };
    assert!(
        verdicts(verify_inclusion_digest, &valid)
            .iter()
            .all(|&ok| ok),
        "valid proof rejected"
    );
    assert_eq!(
        verdicts(verify_inclusion_digest, &tampered),
        verdicts(verify_inclusion_digest_reference, &tampered),
        "tampered verdicts drifted from the scalar path"
    );
    let compared = |proofs: &[InclusionProof]| -> Vec<bool> {
        proofs
            .iter()
            .enumerate()
            .map(|(i, p)| proof_tree.matches_path(i, p))
            .collect()
    };
    for (set, proofs) in [("valid", &valid), ("tampered", &tampered)] {
        assert_eq!(
            compared(proofs),
            verdicts(verify_inclusion_digest, proofs),
            "{set} path-comparison verdicts drifted from path hashing"
        );
    }
    let p = paired(
        samples,
        || verdicts(verify_inclusion_digest_reference, &valid),
        || verdicts(verify_inclusion_digest, &valid),
    );
    export_pair("commit/inclusion_verify", &p, (32 * valid.len()) as u64);
    let path = paired(
        samples,
        || verdicts(verify_inclusion_digest, &valid),
        || compared(&valid),
    );
    export_csv(
        "commit/inclusion_verify/path-compare",
        path.fast,
        "bytes",
        (32 * valid.len()) as u64,
    );
    let per_proof = |t: f64| format!("{:.0}ns", 1e9 * t / valid.len() as f64);
    print_table(
        &format!(
            "Inclusion-proof verification — all {} proofs of a {}-leaf tree against cached leaf digests, {cores} cores (valid and tampered verdicts bit-compared)",
            valid.len(),
            proof_tree.len()
        ),
        &["check", "all proofs", "per proof", "speedup"],
        &[
            vec!["seed-scalar path hashing".into(), format!("{:.3}ms", 1e3 * p.seed), per_proof(p.seed), "1.00x".into()],
            vec!["fast path hashing".into(), format!("{:.3}ms", 1e3 * p.fast), per_proof(p.fast), format!("{:.2}x", p.speedup)],
            vec![
                "path comparison".into(),
                format!("{:.3}ms", 1e3 * path.fast),
                per_proof(path.fast),
                format!("{:.2}x vs fast", path.speedup),
            ],
        ],
    );

    // --- 5. batch vs per-message commitment per forward pass ------------
    let mut rows = Vec::new();
    let mut deep8 = f64::NAN;
    for (name, model, inputs) in bundled_models() {
        let graph = &model.graph;
        let trace = execute(graph, &inputs, &KernelConfig::reference(), None).expect("forward");
        let values = &trace.values;
        let table = ParamDigests::new(graph);
        let root = TraceCommitment::build_with_params(values, &table).root();
        assert_eq!(
            root,
            per_message_root(values, &table),
            "{name}: batch root drifted"
        );
        assert_eq!(
            root,
            TraceCommitment::reference(values).root(),
            "{name}: batch root drifted from the seed oracle"
        );
        let pass_samples = if smoke { 11 } else { 201 };
        let p = paired(
            pass_samples,
            || per_message_root(values, &table),
            || TraceCommitment::build_with_params(values, &table),
        );
        let bytes: usize = values
            .iter()
            .enumerate()
            .filter(|(i, v)| table.get(*i, v).is_none())
            .map(|(_, v)| canon_tensor_len(v))
            .sum();
        export_csv(
            &format!("commit/batch_pass/{name}/per-message"),
            p.seed,
            "bytes",
            bytes as u64,
        );
        export_csv(
            &format!("commit/batch_pass/{name}/batch"),
            p.fast,
            "bytes",
            bytes as u64,
        );
        if name == "qwen-deep8" {
            deep8 = p.speedup;
        }
        rows.push(vec![
            name.to_string(),
            format!("{}", graph.len()),
            format!("{bytes}"),
            format!("{:.1}us", 1e6 * p.seed),
            format!("{:.1}us", 1e6 * p.fast),
            format!("{:.2}x", p.speedup),
        ]);
    }
    print_table(
        &format!(
            "Batch commitment per forward pass — one pass's node values with the ParamDigests table, per-message FastSha256 vs sha256_batch ({} arm), {cores} cores (roots bit-identical)",
            if lanes16 { "16-lane AVX-512" } else { "per-message" }
        ),
        &["model", "nodes", "bytes (table)", "per-message", "batch", "speedup"],
        &rows,
    );

    println!(
        "\nAll timed pairs bit-compared against the seed scalar paths: OK.\n\
         {} KiB trace-commitment speedup vs seed (median of {samples} paired ratios): {:.2}x",
        trace_bytes / 1024,
        trace.speedup
    );
    println!(
        "Inclusion-proof path comparison vs fast path hashing (median of {samples} paired ratios): {:.2}x",
        path.speedup
    );
    println!("qwen-deep8 batch commitment vs per-message hashing: {deep8:.2}x");
    if smoke {
        println!("(smoke mode: speedup floors not asserted)");
    } else {
        assert!(
            trace.speedup >= 4.0,
            "trace-commitment speedup {:.2}x fell below the 4x floor",
            trace.speedup
        );
        assert!(
            path.speedup >= 8.0,
            "path-comparison speedup {:.2}x fell below the 8x floor",
            path.speedup
        );
        if lanes16 {
            assert!(
                deep8 >= 1.5,
                "qwen-deep8 batch commitment ran at {deep8:.2}x per-message hashing, below the 1.5x floor"
            );
        }
    }
}

/// The bundled model families at their small configurations (plus the
/// 8-layer Qwen and the int8 transformer), each with one valid input.
fn bundled_models() -> Vec<(&'static str, Model, Vec<Tensor<f32>>)> {
    let bert_cfg = BertConfig::small();
    let qwen_cfg = QwenConfig::small();
    let deep_cfg = QwenConfig::deep(8);
    let resnet_cfg = ResNetConfig::small();
    let int8_cfg = TransformerConfig::small();
    vec![
        (
            "bert-small",
            bert::build(bert_cfg, 1),
            vec![bert::sample_ids(bert_cfg, 7)],
        ),
        (
            "qwen-small",
            qwen::build(qwen_cfg, 1),
            vec![qwen::sample_ids(qwen_cfg, 7)],
        ),
        (
            "qwen-deep8",
            qwen::build(deep_cfg, 1),
            vec![qwen::sample_ids(deep_cfg, 7)],
        ),
        (
            "resnet-small",
            resnet::build(resnet_cfg, 1),
            vec![data::class_image(
                resnet_cfg.in_channels,
                resnet_cfg.image,
                1,
                7,
            )],
        ),
        (
            "transformer-int8",
            quantize_linears(&transformer::build(int8_cfg, 1)),
            vec![transformer::sample_ids(int8_cfg, 7)],
        ),
    ]
}
