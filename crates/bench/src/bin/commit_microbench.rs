//! Commitment-layer microbenchmark: multi-way SHA-256 and the streaming,
//! level-parallel trace committer vs the seed scalar paths.
//!
//! Five sections, every timed pair also bit-compared (digests and roots),
//! so this doubles as a fast regression check of the commitment
//! equivalence contract (`cargo test --test commit_equiv` is the
//! exhaustive version):
//!
//! 1. **Multi-way SHA-256** — batches of independent messages per
//!    supported backend (scalar oracle, portable 4/8-lane, AVX2 8-lane,
//!    SHA-NI) vs the seed scalar hasher.
//! 2. **Trace commitment** — the headline number: committing a ≥ 1 MiB
//!    activation trace (leaf hash + tree build) on the fast path vs the
//!    seed path (materialize canon bytes, scalar SHA-256, serial tree).
//!    Asserted ≥ 4x outside smoke mode; roots must match bit-for-bit.
//! 3. **Tree build** — parallel vs serial interior construction over leaf
//!    sets of 16384 to 65536 leaves, swept across forced thread counts
//!    (bit-identical at every count). This is the table the tree builder's
//!    fan-out threshold (`PAR_MIN_PAIRS`) is set from; the thread columns
//!    are only interesting on multi-core hosts.
//! 4. **Inclusion-proof verification** — every proof of a 4096-leaf tree
//!    checked against cached leaf digests (the dispute challenger's path)
//!    on the seed scalar path walk vs the auto backend, with the valid and
//!    the tampered verdicts bit-compared.
//! 5. **Streamed commitment per forward pass** — for each bundled model,
//!    one pass's node values streamed through a `StreamingCommitter` with
//!    and without the deployment's `ParamDigests` table: bytes hashed, time
//!    and the two roots bit-compared.
//!
//! Run with `cargo run --release -p tao-bench --bin commit_microbench`.
//! Pass `--smoke` for a seconds-scale CI variant. Set
//! `CRITERION_CSV=<path>` to append figure-ready CSV rows (same schema as
//! the criterion stub's writer).

use std::io::Write as _;
use std::time::Instant;

use tao_bench::print_table;
use tao_graph::{execute, NodeId, ValueObserver};
use tao_merkle::{
    canon_tensor_len, sha256, sha256_batch_with, verify_inclusion_digest,
    verify_inclusion_digest_reference, Backend, Digest, InclusionProof, MerkleTree, ParamDigests,
    StreamingCommitter, TraceCommitment, MAX_HASH_THREADS,
};
use tao_models::{
    bert, data, quantize_linears, qwen, resnet, transformer, BertConfig, Model, QwenConfig,
    ResNetConfig, TransformerConfig,
};
use tao_tensor::{KernelConfig, Tensor};

/// Median wall-clock seconds of `samples` runs of `f` (one warm-up run).
fn median_secs<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_unstable_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Appends one row in the criterion stub's CSV schema when
/// `CRITERION_CSV` is set.
fn export_csv(id: &str, secs: f64, bytes: u64) {
    let Ok(path) = std::env::var("CRITERION_CSV") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let exists = std::path::Path::new(&path).exists();
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path);
    let Ok(mut file) = file else {
        eprintln!("commit_microbench: CSV export to {path} failed to open");
        return;
    };
    if !exists {
        let _ = writeln!(
            file,
            "id,samples,min_ns,mean_ns,median_ns,stddev_ns,throughput_unit,throughput_per_iter,outliers_rejected"
        );
    }
    let ns = (secs * 1e9) as u128;
    let _ = writeln!(file, "{},1,{ns},{ns},{ns},0,bytes,{bytes},0", id.replace(',', ";"));
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let backends = Backend::available();
    let cores = tao_tensor::kernel::host_threads();
    println!(
        "commit_microbench — {cores} cores; backends on this host: {}  (auto: {})",
        backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", "),
        Backend::auto().name()
    );

    // --- 1. multi-way SHA-256 over independent messages ------------------
    let (msg_count, msg_len, samples) = if smoke { (64, 512, 3) } else { (512, 2048, 9) };
    let msgs: Vec<Vec<u8>> = (0..msg_count)
        .map(|i| (0..msg_len).map(|j| ((i * 31 + j) % 251) as u8).collect())
        .collect();
    let total_bytes = (msg_count * msg_len) as u64;
    let want: Vec<_> = msgs.iter().map(|m| sha256(m)).collect();
    let t_scalar = median_secs(samples, || sha256_batch_with(Backend::Scalar, &msgs));
    let mut rows = Vec::new();
    for &backend in &backends {
        let got = sha256_batch_with(backend, &msgs);
        assert_eq!(got, want, "{backend:?} digests drifted from scalar");
        let t = median_secs(samples, || sha256_batch_with(backend, &msgs));
        export_csv(&format!("commit/sha256_batch/{}", backend.name()), t, total_bytes);
        rows.push(vec![
            backend.name().to_string(),
            format!("{:.3}ms", 1e3 * t),
            format!("{:.2}x", t_scalar / t),
            format!("{:.2} GiB/s", total_bytes as f64 / t / (1u64 << 30) as f64),
        ]);
    }
    print_table(
        &format!(
            "Multi-way SHA-256 — {msg_count} messages x {msg_len} B vs scalar oracle, {cores} cores"
        ),
        &["backend", "batch time", "speedup", "throughput"],
        &rows,
    );

    // --- 2. the headline: 1 MiB trace commitment -------------------------
    // 64 activation tensors of [64, 64] f32 = 1 MiB of trace data (plus a
    // few odd shapes so the lane batcher sees ragged groups).
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
    let t_seed = median_secs(samples, || TraceCommitment::reference(&values));
    export_csv("commit/trace_commitment/seed-scalar", t_seed, trace_bytes);
    let mut rows = Vec::new();
    let mut auto_speedup = 0.0;
    for &backend in &backends {
        let got = TraceCommitment::build_with(&values, backend);
        assert_eq!(got, oracle, "{backend:?}: trace commitment drifted");
        assert_eq!(got.root(), oracle.root());
        let t = median_secs(samples, || TraceCommitment::build_with(&values, backend));
        if backend == Backend::auto() {
            auto_speedup = t_seed / t;
        }
        export_csv(&format!("commit/trace_commitment/{}", backend.name()), t, trace_bytes);
        rows.push(vec![
            backend.name().to_string(),
            format!("{:.3}ms", 1e3 * t),
            format!("{:.2}x", t_seed / t),
            format!("{:.2} GiB/s", trace_bytes as f64 / t / (1u64 << 30) as f64),
        ]);
    }
    print_table(
        &format!(
            "Trace commitment — {} KiB trace ({} tensors), leaf hash + tree build vs seed path ({:.3}ms), {cores} cores",
            trace_bytes / 1024,
            values.len(),
            1e3 * t_seed
        ),
        &["backend", "commit time", "speedup vs seed", "throughput"],
        &rows,
    );

    // --- 3. parallel vs serial tree build, swept over leaf counts -------
    let leaf_len = 64;
    let leaf_counts: &[usize] = if smoke { &[2048] } else { &[16384, 32768, 65536] };
    let mut rows = Vec::new();
    for &leaf_count in leaf_counts {
        let leaves: Vec<Vec<u8>> = (0..leaf_count)
            .map(|i| (0..leaf_len).map(|j| ((i * 7 + j) % 256) as u8).collect())
            .collect();
        let tree_oracle = MerkleTree::from_leaves_reference(&leaves);
        let t_tree_seed = median_secs(samples, || MerkleTree::from_leaves_reference(&leaves));
        export_csv(
            &format!("commit/tree_build/{leaf_count}/seed-serial"),
            t_tree_seed,
            (leaf_count * leaf_len) as u64,
        );
        let digests = tao_merkle::hash_leaves(Backend::auto(), &leaves);
        let mut t_one = 0.0;
        for threads in [1usize, 2, MAX_HASH_THREADS] {
            let got = MerkleTree::from_leaf_digests_with(digests.clone(), Backend::auto(), threads);
            assert_eq!(
                got.root(),
                tree_oracle.root(),
                "{leaf_count} leaves, threads={threads}: tree root drifted"
            );
            let t = median_secs(samples, || {
                MerkleTree::from_leaf_digests_with(digests.clone(), Backend::auto(), threads)
            });
            if threads == 1 {
                t_one = t;
            }
            export_csv(
                &format!("commit/tree_build/{leaf_count}/{threads}threads"),
                t,
                (leaf_count * leaf_len) as u64,
            );
            rows.push(vec![
                format!("{leaf_count}"),
                format!("{threads}"),
                format!("{:.3}ms", 1e3 * t),
                format!("{:.2}x", t_one / t),
                format!("{:.2}x", t_tree_seed / t),
            ]);
        }
    }
    print_table(
        &format!(
            "Tree build — {leaf_len} B leaves, {} backend, forced thread counts, {cores} cores (roots bit-identical; thread speedup needs a multi-core host)",
            Backend::auto().name()
        ),
        &["leaves", "threads", "interior build", "vs 1 thread", "vs seed"],
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
    let paths: [(&str, Verify); 2] = [
        ("seed-scalar", verify_inclusion_digest_reference),
        (Backend::auto().name(), verify_inclusion_digest),
    ];
    let mut rows = Vec::new();
    let mut t_verify_seed = 0.0;
    for (name, verify) in paths {
        assert!(verdicts(verify, &valid).iter().all(|&ok| ok), "{name}: valid proof rejected");
        assert_eq!(
            verdicts(verify, &tampered),
            verdicts(verify_inclusion_digest_reference, &tampered),
            "{name}: tampered verdicts drifted from the scalar path"
        );
        let t = median_secs(samples, || verdicts(verify, &valid));
        if name == "seed-scalar" {
            t_verify_seed = t;
        }
        export_csv(
            &format!("commit/inclusion_verify/{name}"),
            t,
            (32 * valid.len()) as u64,
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.3}ms", 1e3 * t),
            format!("{:.0}ns", 1e9 * t / valid.len() as f64),
            format!("{:.2}x", t_verify_seed / t),
        ]);
    }
    print_table(
        &format!(
            "Inclusion-proof verification — all {} proofs of a {}-leaf tree against cached leaf digests, {cores} cores (valid and tampered verdicts bit-compared)",
            valid.len(),
            proof_tree.len()
        ),
        &["path hashing", "all proofs", "per proof", "speedup"],
        &rows,
    );

    // --- 5. streamed commitment per forward pass, with and without the
    // parameter table -----------------------------------------------------
    let mut rows = Vec::new();
    for (name, model, inputs) in bundled_models() {
        let graph = &model.graph;
        let trace = execute(graph, &inputs, &KernelConfig::reference(), None).expect("forward");
        let table = ParamDigests::new(graph);
        let stream = |params: &ParamDigests| {
            let mut c = StreamingCommitter::with_params(graph.len(), params);
            for (i, v) in trace.values.iter().enumerate() {
                c.observe(NodeId(i), v);
            }
            c.finish()
        };
        let empty = ParamDigests::default();
        let oracle = TraceCommitment::build(&trace.values);
        assert_eq!(stream(&empty), oracle, "{name}: streamed root drifted");
        assert_eq!(stream(&table), oracle, "{name}: table-backed root drifted");
        let bytes_all: usize = trace.values.iter().map(canon_tensor_len).sum();
        let bytes_missed: usize = trace
            .values
            .iter()
            .enumerate()
            .filter(|(i, v)| table.get(*i, v).is_none())
            .map(|(_, v)| canon_tensor_len(v))
            .sum();
        let pass_samples = if smoke { 11 } else { 201 };
        let t_all = median_secs(pass_samples, || stream(&empty));
        let t_table = median_secs(pass_samples, || stream(&table));
        export_csv(&format!("commit/streamed_pass/{name}/no-table"), t_all, bytes_all as u64);
        export_csv(&format!("commit/streamed_pass/{name}/table"), t_table, bytes_missed as u64);
        rows.push(vec![
            name.to_string(),
            format!("{}", graph.len()),
            format!("{bytes_all}"),
            format!("{bytes_missed}"),
            format!("{:.0}%", 100.0 * (1.0 - bytes_missed as f64 / bytes_all as f64)),
            format!("{:.1}us", 1e6 * t_all),
            format!("{:.1}us", 1e6 * t_table),
            format!("{:.2}x", t_all / t_table),
        ]);
    }
    print_table(
        &format!(
            "Streamed commitment per forward pass — one pass's node values through a StreamingCommitter without / with the ParamDigests table, {} backend, {cores} cores (roots bit-identical)",
            Backend::auto().name()
        ),
        &["model", "nodes", "bytes (all)", "bytes (table)", "saved", "no table", "table", "speedup"],
        &rows,
    );

    println!(
        "\nAll timed pairs bit-compared against the seed scalar paths: OK.\n\
         Auto-backend 1 MiB trace-commitment speedup vs seed: {auto_speedup:.2}x"
    );
    if smoke {
        println!("(smoke mode: speedup floor not asserted)");
    } else {
        assert!(
            auto_speedup >= 4.0,
            "trace-commitment speedup {auto_speedup:.2}x fell below the 4x floor"
        );
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
        ("bert-small", bert::build(bert_cfg, 1), vec![bert::sample_ids(bert_cfg, 7)]),
        ("qwen-small", qwen::build(qwen_cfg, 1), vec![qwen::sample_ids(qwen_cfg, 7)]),
        ("qwen-deep8", qwen::build(deep_cfg, 1), vec![qwen::sample_ids(deep_cfg, 7)]),
        (
            "resnet-small",
            resnet::build(resnet_cfg, 1),
            vec![data::class_image(resnet_cfg.in_channels, resnet_cfg.image, 1, 7)],
        ),
        (
            "transformer-int8",
            quantize_linears(&transformer::build(int8_cfg, 1)),
            vec![transformer::sample_ids(int8_cfg, 7)],
        ),
    ]
}
