//! Differential oracle for the static analysis layer: the report
//! [`tao_analysis::analyze`] folds out of the contracts must agree
//! *exactly* with what `execute_with_stats` measures on a real forward
//! pass — per-node shapes, per-node FLOPs, and the trace executor's peak
//! resident bytes — on every bundled model, on an operator zoo covering
//! every `OpKind`, and on proptest-random graphs with ragged, broadcast
//! and batched shapes.
//!
//! The suite also pins the gas schedule cross-crate (the static base must
//! equal `tao_protocol::gas::commit_claim()`) and exercises the linter's
//! red path: planted-violation fixtures must be rejected, and it pins
//! the bounds engine's per-node theoretical bounds bit for bit on the zoo
//! and every bundled model.

use proptest::prelude::*;
use tao_analysis::{
    analyze, analyze_with, infer_shape, LintConfig, LintRule, Severity, StaticReport,
    BYTES_PER_GAS, FLOPS_PER_GAS, GAS_BASE,
};
use tao_graph::{
    eval_node, execute, execute_observed, execute_with_stats, forward_observed, BufferPool, Graph,
    GraphBuilder, GraphError, NodeId, OpKind,
};
use tao_merkle::{StreamingCommitter, TraceCommitment};
use tao_models::{
    bert, data, diffusion, qwen, resnet, transformer, BertConfig, DiffusionConfig, Model,
    QwenConfig, ResNetConfig, TransformerConfig,
};
use tao_tensor::{KernelConfig, Tensor};

/// Runs the graph and asserts the static report matches the measured
/// execution exactly: shapes, per-node FLOPs, peak resident bytes, and
/// the gas quote recomputed from the measured costs.
fn assert_static_matches_measured(
    graph: &Graph,
    inputs: &[Tensor<f32>],
    label: &str,
) -> StaticReport {
    let shapes: Vec<Vec<usize>> = inputs.iter().map(|t| t.dims().to_vec()).collect();
    let report = analyze(graph, &shapes);
    assert!(
        report.is_admissible(),
        "{label}: deny findings on an executable graph: {:?}",
        report.lint_findings
    );
    let cfg = KernelConfig::reference();
    let (exec, stats) = execute_with_stats(graph, inputs, &cfg, None)
        .unwrap_or_else(|e| panic!("{label}: admissible graph failed to execute: {e}"));
    assert_eq!(report.shapes.len(), graph.len(), "{label}: shape count");
    for (i, node) in graph.nodes().iter().enumerate() {
        assert_eq!(
            report.shapes[i].as_deref(),
            Some(exec.values[i].dims()),
            "{label}: node {i} ({}, {:?}) inferred shape drifted from execution",
            node.name,
            node.kind
        );
    }
    assert_eq!(
        report.flops, exec.flops,
        "{label}: static per-node FLOPs drifted from the executor's ledger"
    );
    assert_eq!(
        report.peak_resident_bytes, stats.peak_resident_bytes,
        "{label}: static peak resident bytes drifted from the trace executor"
    );
    assert_eq!(
        report.gas_quote,
        GAS_BASE + report.total_flops() / FLOPS_PER_GAS + report.bytes_moved / BYTES_PER_GAS,
        "{label}: gas quote must be the published linear schedule"
    );
    report
}

/// Builds a bundled model at its small configuration together with valid
/// sample inputs (token models need in-vocabulary ids).
fn bundled(name: &str) -> (Model, Vec<Tensor<f32>>) {
    match name {
        "transformer" => {
            let cfg = TransformerConfig::small();
            (
                transformer::build(cfg, 1),
                vec![transformer::sample_ids(cfg, 42)],
            )
        }
        "bert" => {
            let cfg = BertConfig::small();
            (bert::build(cfg, 1), vec![bert::sample_ids(cfg, 42)])
        }
        "qwen" => {
            let cfg = QwenConfig::small();
            (qwen::build(cfg, 1), vec![qwen::sample_ids(cfg, 42)])
        }
        "resnet" => {
            let cfg = ResNetConfig::small();
            (
                resnet::build(cfg, 1),
                vec![data::class_image(cfg.in_channels, cfg.image, 3, 42)],
            )
        }
        "diffusion" => {
            let cfg = DiffusionConfig::small();
            let model = diffusion::build(cfg, 1);
            let latent = Tensor::<f32>::randn(&model.input_shapes[0], 42);
            let temb = diffusion::time_embedding(5, cfg.temb);
            (model, vec![latent, temb])
        }
        other => panic!("unknown bundled model {other:?}"),
    }
}

#[test]
fn static_report_matches_measured_execution_on_every_bundled_model() {
    for name in ["transformer", "bert", "qwen", "resnet", "diffusion"] {
        let (model, inputs) = bundled(name);
        let report = assert_static_matches_measured(&model.graph, &inputs, name);
        assert!(report.total_flops() > 0, "{name}: zero-cost model");
        assert!(
            report.deposit_bound > tao_protocol::Money::ZERO,
            "{name}: deposit bound must scale with work"
        );
    }
}

#[test]
fn gas_base_is_pinned_to_the_coordinator_schedule() {
    // The static quote and the coordinator's ledger must price a claim
    // commitment identically; this is the cross-crate seam the quoted
    // admission path (`submit_claim_quoted`) relies on.
    assert_eq!(GAS_BASE, tao_protocol::gas::commit_claim());
}

/// One graph exercising every `OpKind` at least once: a 2-D path with
/// ragged/broadcast operands, a 4-D NCHW path for conv/pool/norm ops, and
/// an embedding lookup. Every op node is a graph output so nothing is
/// dead code.
fn op_zoo() -> (Graph, Vec<Tensor<f32>>) {
    let mut b = GraphBuilder::new(3);
    let x = b.input(0, "x"); // [3, 8]
    let img = b.input(1, "img"); // [2, 4, 6, 6]
    let ids = b.input(2, "ids"); // [4]

    let row = b.parameter("row", Tensor::<f32>::randn(&[8], 11));
    let w_mm = b.parameter("w_mm", Tensor::<f32>::randn(&[8, 5], 12).mul_scalar(0.3));
    let w_lin = b.parameter("w_lin", Tensor::<f32>::randn(&[5, 8], 13).mul_scalar(0.3));
    let b_lin = b.parameter("b_lin", Tensor::<f32>::randn(&[5], 14));
    let gamma = b.parameter("gamma", Tensor::<f32>::ones(&[8]));
    let beta = b.parameter("beta", Tensor::<f32>::zeros(&[8]));
    let table = b.parameter("table", Tensor::<f32>::randn(&[10, 8], 15));
    let mask = b.parameter(
        "mask",
        Tensor::<f32>::from_vec(vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0], &[8]).unwrap(),
    );
    let w_cv = b.parameter(
        "w_cv",
        Tensor::<f32>::randn(&[5, 4, 3, 3], 16).mul_scalar(0.2),
    );
    let b_cv = b.parameter("b_cv", Tensor::<f32>::randn(&[5], 17));
    let g4 = b.parameter("g4", Tensor::<f32>::ones(&[4]));
    let be4 = b.parameter("be4", Tensor::<f32>::zeros(&[4]));
    let mu4 = b.parameter("mu4", Tensor::<f32>::zeros(&[4]));
    let var4 = b.parameter("var4", Tensor::<f32>::ones(&[4]));

    let mut outs: Vec<NodeId> = Vec::new();
    let mut op = |b: &mut GraphBuilder, name: &str, kind: OpKind, ins: &[NodeId]| -> NodeId {
        let id = b.op(name, kind, ins);
        outs.push(id);
        id
    };

    // Positivity scaffolding so div/log/rsqrt lint clean.
    let sig = op(&mut b, "sig", OpKind::Sigmoid, &[x]);
    let pos = op(&mut b, "pos", OpKind::AddScalar(1.0), &[sig]);

    // Binary elementwise with a broadcast [8] operand.
    let a1 = op(&mut b, "a1", OpKind::Add, &[x, row]);
    let s1 = op(&mut b, "s1", OpKind::Sub, &[a1, x]);
    let m1 = op(&mut b, "m1", OpKind::Mul, &[s1, x]);
    let _d1 = op(&mut b, "d1", OpKind::Div, &[m1, pos]);
    let _pw = op(&mut b, "pw", OpKind::Pow, &[pos, sig]);

    // Unary chains (domains kept valid: sqrt of a square, log of pos).
    let n1 = op(&mut b, "n1", OpKind::Neg, &[x]);
    let as1 = op(&mut b, "as1", OpKind::AddScalar(0.5), &[n1]);
    let ms1 = op(&mut b, "ms1", OpKind::MulScalar(2.0), &[as1]);
    let ps1 = op(&mut b, "ps1", OpKind::PowScalar(2.0), &[ms1]);
    let _sq = op(&mut b, "sq", OpKind::Sqrt, &[ps1]);
    let _rs = op(&mut b, "rs", OpKind::Rsqrt, &[pos]);
    let _ex = op(&mut b, "ex", OpKind::Exp, &[sig]);
    let _lg = op(&mut b, "lg", OpKind::Log, &[pos]);
    let _sn = op(&mut b, "sn", OpKind::Sin, &[x]);
    let _cs = op(&mut b, "cs", OpKind::Cos, &[x]);
    let _th = op(&mut b, "th", OpKind::Tanh, &[x]);
    let _rl = op(&mut b, "rl", OpKind::Relu, &[x]);
    let _ge = op(&mut b, "ge", OpKind::Gelu, &[x]);
    let _si = op(&mut b, "si", OpKind::Silu, &[x]);

    // Softmax / normalization.
    let sm = op(&mut b, "sm", OpKind::Softmax, &[x]);
    let _ln = op(
        &mut b,
        "ln",
        OpKind::LayerNorm { eps: 1e-5 },
        &[x, gamma, beta],
    );
    let _rn = op(&mut b, "rn", OpKind::RmsNorm { eps: 1e-6 }, &[x, gamma]);

    // Linear algebra (ragged shapes: [3,8] @ [8,5]).
    let _mm = op(&mut b, "mm", OpKind::MatMul, &[x, w_mm]);
    let _li = op(&mut b, "li", OpKind::Linear, &[x, w_lin, b_lin]);

    // Int8-quantized linear algebra and the static-scale fake-quant pair.
    let _qm = op(&mut b, "qm", OpKind::QuantMatmul, &[x, w_mm]);
    let _ql = op(&mut b, "ql", OpKind::QuantLinear, &[x, w_lin, b_lin]);
    let qz = op(&mut b, "qz", OpKind::Quantize { scale: 0.05 }, &[x]);
    let _dq = op(&mut b, "dq", OpKind::Dequantize { scale: 0.05 }, &[qz]);

    // Reductions.
    let _ma = op(&mut b, "ma", OpKind::MeanAll, &[x]);
    let _sa = op(&mut b, "sa", OpKind::SumAll, &[x]);
    let _sx = op(&mut b, "sx", OpKind::SumAxis(1), &[x]);
    let _mx = op(&mut b, "mx", OpKind::MeanAxis(1), &[x]);
    let _xx = op(&mut b, "xx", OpKind::MaxAxis(0), &[x]);

    // Structural / movement ops.
    let _rh = op(&mut b, "rh", OpKind::Reshape(vec![4, 6]), &[x]);
    let _fl = op(&mut b, "fl", OpKind::Flatten, &[x]);
    let _ff = op(&mut b, "ff", OpKind::FlattenFrom(1), &[x]);
    let _tr = op(&mut b, "tr", OpKind::Transpose(0, 1), &[x]);
    let _pm = op(&mut b, "pm", OpKind::Permute(vec![1, 0]), &[x]);
    let _sl = op(
        &mut b,
        "sl",
        OpKind::Slice {
            axis: 1,
            start: 2,
            end: 6,
        },
        &[x],
    );
    let _cc = op(&mut b, "cc", OpKind::Concat(0), &[x, sm]);
    let _em = op(&mut b, "em", OpKind::Embedding, &[table, ids]);
    let _mf = op(&mut b, "mf", OpKind::MaskedFill(-1e9), &[x, mask]);
    let _id = op(&mut b, "id", OpKind::Identity, &[x]);

    // 4-D NCHW path: convolution, pooling, resampling, batch/group norm.
    let _cv = op(
        &mut b,
        "cv",
        OpKind::Conv2d {
            stride: 1,
            padding: 1,
        },
        &[img, w_cv, b_cv],
    );
    let _bn = op(
        &mut b,
        "bn",
        OpKind::BatchNorm2d { eps: 1e-5 },
        &[img, g4, be4, mu4, var4],
    );
    let _gn = op(
        &mut b,
        "gn",
        OpKind::GroupNorm {
            groups: 2,
            eps: 1e-5,
        },
        &[img, g4, be4],
    );
    let _mp = op(
        &mut b,
        "mp",
        OpKind::MaxPool2d {
            kernel: 2,
            stride: 2,
        },
        &[img],
    );
    let _ap = op(
        &mut b,
        "ap",
        OpKind::AvgPool2d {
            kernel: 2,
            stride: 2,
        },
        &[img],
    );
    let _gp = op(&mut b, "gp", OpKind::AdaptiveAvgPool1x1, &[img]);
    let _up = op(&mut b, "up", OpKind::UpsampleNearest(2), &[img]);

    let graph = b.finish(outs).expect("zoo graph is well-formed");
    let inputs = vec![
        Tensor::<f32>::randn(&[3, 8], 21),
        Tensor::<f32>::randn(&[2, 4, 6, 6], 22),
        Tensor::<f32>::from_vec(vec![0.0, 3.0, 7.0, 9.0], &[4]).unwrap(),
    ];
    (graph, inputs)
}

#[test]
fn op_zoo_covers_every_kind_and_matches_measured_execution() {
    let (graph, inputs) = op_zoo();
    // Coverage: every OpKind discriminant appears in the zoo.
    let mut seen: Vec<std::mem::Discriminant<OpKind>> = Vec::new();
    for node in graph.nodes() {
        let d = std::mem::discriminant(&node.kind);
        if !seen.contains(&d) {
            seen.push(d);
        }
    }
    // 53 OpKind variants (incl. Input/Parameter); a new op without zoo
    // coverage shows up as a count mismatch here.
    assert_eq!(seen.len(), 53, "zoo must exercise every OpKind exactly");
    assert_static_matches_measured(&graph, &inputs, "op-zoo");
}

#[test]
fn op_zoo_is_bit_identical_under_every_retention_policy() {
    // One executor loop, two retention policies: the traced pass (every
    // value kept), a cold pooled pass and a warm pooled pass must produce
    // the same value at every node — pinned through the streamed per-node
    // digests against the scalar oracle — and the same graph outputs.
    let (graph, inputs) = op_zoo();
    let cfg = KernelConfig::reference();
    let trace = execute(&graph, &inputs, &cfg, None).unwrap();
    let oracle = TraceCommitment::reference(&trace.values);
    let mut committer = StreamingCommitter::new(graph.len());
    execute_observed(&graph, &inputs, &cfg, None, &mut committer).unwrap();
    assert_eq!(committer.finish(), oracle, "KeepAll");
    let want = trace.outputs(&graph);
    let mut pool = BufferPool::new();
    for label in ["cold LastUse", "warm LastUse"] {
        // Most zoo nodes are outputs or read a shared input, so little is
        // recycled on its own: warm the pool with stale, NaN-filled buffers
        // of every traced size, which the pooled kernels must overwrite.
        let primed = if label == "warm LastUse" {
            for v in &trace.values {
                pool.give(vec![f32::NAN; v.len()]);
            }
            pool.len()
        } else {
            0
        };
        let mut committer = StreamingCommitter::new(graph.len());
        let outputs = forward_observed(&graph, &inputs, &cfg, &mut pool, &mut committer).unwrap();
        assert_eq!(committer.finish(), oracle, "{label}");
        assert_eq!(outputs.len(), want.len());
        for (got, want) in outputs.iter().zip(&want) {
            assert_eq!(got.dims(), want.dims(), "{label}");
            let same = got
                .data()
                .iter()
                .zip(want.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{label}: output drifted from the trace");
        }
        if primed > 0 {
            assert!(pool.len() < primed, "{label}: no op drew from the pool");
        }
    }
}

#[test]
fn executor_and_shape_inference_refuse_the_same_input_counts() {
    // Every zoo node, cloned with one input too few and one too many (an
    // `Input` or `Parameter` leaf gains one input edge): `eval_node` must
    // refuse the count before it reads a value (it is given none), and
    // `infer_shape` must report an arity issue for exactly the counts
    // `eval_node` refuses. The node's own count must pass both.
    let (graph, inputs) = op_zoo();
    let shapes: Vec<Vec<usize>> = inputs.iter().map(|t| t.dims().to_vec()).collect();
    let report = analyze(&graph, &shapes);
    let cfg = KernelConfig::reference();
    let mut refusals = 0;
    for node in graph.nodes() {
        let n = node.inputs.len();
        for got in [n.checked_sub(1), Some(n), Some(n + 1)]
            .into_iter()
            .flatten()
        {
            let mut probe = node.clone();
            probe.inputs.resize(got, NodeId(0));
            let run = eval_node(&graph, &probe, &[], &[], &cfg, &mut BufferPool::new());
            let refused = matches!(run, Err(GraphError::Arity { got: g, .. }) if g == got);
            let dims: Vec<&[usize]> = probe
                .inputs
                .iter()
                .map(|id| report.shapes[id.0].as_deref().expect("zoo shapes resolve"))
                .collect();
            let flagged = infer_shape(&probe.kind, &dims).is_err_and(|e| e.0.contains("arity"));
            let label = format!("{} ({:?}) with {got} inputs", node.name, node.kind);
            assert_eq!(refused, flagged, "{label}: executor {run:?}");
            assert!(got != n || !refused, "{label}: its own count refused");
            refusals += usize::from(refused);
        }
    }
    // Only Concat admits one more input, and only the optional-bias ops
    // one fewer, so nearly every probe is refused.
    assert!(refusals > graph.len(), "{refusals} refusals");
}

/// Deterministically grows a random-but-valid op chain over a base shape,
/// tracking the current shape so each op choice is admissible. Covers
/// ragged dims, broadcast operands, rank changes and batched matmul.
fn chain_graph(base: &[usize], codes: &[u8]) -> (Graph, Vec<Tensor<f32>>) {
    let mut b = GraphBuilder::new(1);
    let mut cur = b.input(0, "x");
    let mut shape: Vec<usize> = base.to_vec();
    for (i, &c) in codes.iter().enumerate() {
        let name = format!("n{i}");
        match c % 10 {
            0 => cur = b.op(name, OpKind::AddScalar(0.5), &[cur]),
            1 => cur = b.op(name, OpKind::MulScalar(1.5), &[cur]),
            2 => cur = b.op(name, OpKind::Relu, &[cur]),
            3 => cur = b.op(name, OpKind::Tanh, &[cur]),
            4 => cur = b.op(name, OpKind::Softmax, &[cur]),
            5 => {
                // Broadcast add against a trailing-dim parameter.
                let d = *shape.last().unwrap();
                let p = b.parameter(format!("p{i}"), Tensor::<f32>::randn(&[d], 100 + i as u64));
                cur = b.op(name, OpKind::Add, &[cur, p]);
            }
            6 if shape.len() >= 2 => {
                // (Batched) matmul against [k, n]; ragged n from the code.
                let k = *shape.last().unwrap();
                let n = (c as usize / 10) % 4 + 1;
                let p = b.parameter(
                    format!("w{i}"),
                    Tensor::<f32>::randn(&[k, n], 200 + i as u64).mul_scalar(0.3),
                );
                cur = b.op(name, OpKind::MatMul, &[cur, p]);
                *shape.last_mut().unwrap() = n;
            }
            7 if shape.len() >= 2 => {
                cur = b.op(name, OpKind::SumAxis(0), &[cur]);
                shape.remove(0);
            }
            8 if shape.len() >= 2 => {
                cur = b.op(name, OpKind::Transpose(0, shape.len() - 1), &[cur]);
                let r = shape.len();
                shape.swap(0, r - 1);
            }
            9 => {
                cur = b.op(name, OpKind::Flatten, &[cur]);
                shape = vec![shape.iter().product()];
            }
            _ => cur = b.op(name, OpKind::Sigmoid, &[cur]),
        }
    }
    let head = b.op("head", OpKind::Softmax, &[cur]);
    let graph = b.finish(vec![head]).expect("chain graph is well-formed");
    (graph, vec![Tensor::<f32>::randn(base, 7)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_graphs_match_measured_execution(
        base in prop::collection::vec(1usize..5, 1..4),
        codes in prop::collection::vec(0u8..255, 1..12),
    ) {
        let (graph, inputs) = chain_graph(&base, &codes);
        assert_static_matches_measured(&graph, &inputs, "proptest-chain");
    }
}

// ---------------------------------------------------------------------
// Linter red path: planted violations must be rejected.
// ---------------------------------------------------------------------

#[test]
fn planted_shape_mismatch_is_denied_by_default() {
    let mut b = GraphBuilder::new(1);
    let x = b.input(0, "x");
    let w = b.parameter("w", Tensor::<f32>::zeros(&[3, 5]));
    let y = b.op("y", OpKind::MatMul, &[x, w]);
    let g = b.finish(vec![y]).unwrap();
    let report = analyze(&g, &[vec![2, 4]]);
    assert!(!report.is_admissible(), "inner-dim mismatch must deny");
    assert!(report
        .lint_findings
        .iter()
        .any(|f| f.rule == LintRule::ShapeMismatch && f.severity == Severity::Deny));
}

#[test]
fn planted_leaf_with_an_input_edge_is_denied_and_refused_at_execution() {
    let mut b = GraphBuilder::new(1);
    let x = b.input(0, "x");
    let leaf = b.op("leaf", OpKind::Input(0), &[x]);
    let y = b.op("y", OpKind::Softmax, &[leaf]);
    let g = b.finish(vec![y]).unwrap();
    let report = analyze(&g, &[vec![2]]);
    assert!(report
        .lint_findings
        .iter()
        .any(|f| f.rule == LintRule::ShapeMismatch
            && f.severity == Severity::Deny
            && f.node == Some(leaf)));
    let run = execute(&g, &[Tensor::ones(&[2])], &KernelConfig::reference(), None);
    assert!(
        matches!(run, Err(GraphError::Arity { node, got: 1, .. }) if node == leaf),
        "{run:?}"
    );
}

#[test]
fn planted_unreachable_and_raw_head_fail_only_under_strict() {
    let mut b = GraphBuilder::new(1);
    let x = b.input(0, "x");
    let _dead = b.op("dead", OpKind::Relu, &[x]);
    let w = b.parameter("w", Tensor::<f32>::eye(4));
    let y = b.op("y", OpKind::MatMul, &[x, w]); // raw-logit head
    let g = b.finish(vec![y]).unwrap();

    let default = analyze_with(&g, &[vec![2, 4]], &LintConfig::default());
    assert!(default.is_admissible(), "warnings admit by default");
    assert!(default
        .lint_findings
        .iter()
        .any(|f| f.rule == LintRule::Unreachable));
    assert!(default
        .lint_findings
        .iter()
        .any(|f| f.rule == LintRule::CalibrationSafety));

    let strict = analyze_with(&g, &[vec![2, 4]], &LintConfig::strict());
    assert!(!strict.is_admissible(), "strict mode escalates to deny");
}

#[test]
fn planted_unbounded_denominator_fails_only_under_strict() {
    let mut b = GraphBuilder::new(2);
    let x = b.input(0, "x");
    let d = b.input(1, "d");
    let q = b.op("q", OpKind::Div, &[x, d]);
    let s = b.op("out", OpKind::Softmax, &[q]);
    let g = b.finish(vec![s]).unwrap();
    let shapes = [vec![2, 4], vec![2, 4]];
    let default = analyze_with(&g, &shapes, &LintConfig::default());
    assert!(default.is_admissible());
    assert!(default
        .lint_findings
        .iter()
        .any(|f| f.rule == LintRule::UnboundedDenominator && f.severity == Severity::Warn));
    let strict = analyze_with(&g, &shapes, &LintConfig::strict());
    assert!(!strict.is_admissible());
}

/// SHA-256 digests of the per-node theoretical bounds (`f64::to_bits` of
/// every element) under `BoundEngine::paper_default()` and
/// `BoundEngine::deterministic()`, for the operator zoo and every bundled
/// model. Any change to which rounding template an operator gets, or to a
/// template's arithmetic, moves one of these.
const BOUND_GOLDEN: [(&str, &str, &str); 6] = [
    (
        "zoo",
        "28a6a6ef1c0ca801b1017552fdc9a0462027e8fc2d5c47e920f9dc38f8dffa00",
        "b3e3255c05ff8ba20dbe0e97198736374313986610ab1560813bf118409f775c",
    ),
    (
        "transformer",
        "aa7b3d08f7dbd1a277e6a37b431e7a3b58c8a8380909babfbfa2e05fa2ac5b8e",
        "22a3dd9a31a30fa076d9200b474a98967dd34569c5ebfc095118d6c91acc57cb",
    ),
    (
        "bert",
        "0e6d73750585ec3aae8c0f10b239a19e104684d875ce189f133109f5ed189639",
        "65bfa62e7ebbf82d24254467578dfcf8736bd91cff9c14400e9ef7ab9759022a",
    ),
    (
        "qwen",
        "4f673d9ce7dceb6adf150c035895eb9c7d1cdc22efe3ee1297975ac284aab1bb",
        "b355edc49fac98a6ada88de225ae52088da4f3ea5aa94534838843d8e35e4538",
    ),
    (
        "resnet",
        "365effebb54a28cb7a0e2be779aaf106509b6dedadc857a741fc77eb423be5b3",
        "dfe29febadfdb00fa6a9fbecd6c39b6aca9281464151e67ac1d3c73bd7eacddb",
    ),
    (
        "diffusion",
        "1beec8bdf46a7cd7413ee9b5b1948d2b7bfe53880c9c740abf44c21794935d83",
        "d41b08dfec5d31856bb18d3380fbfd202fbc9585a2eda161084f203faabfa804",
    ),
];

/// Digest of `co_execute`'s result: one SHA-256 per node over the bits of
/// its bound, hashed together in node order; an error hashes its text.
fn bound_digest(engine: &tao_bounds::BoundEngine, graph: &Graph, inputs: &[Tensor<f32>]) -> String {
    use tao_merkle::{sha256, to_hex};
    let exec = execute(graph, inputs, &KernelConfig::reference(), None).unwrap();
    let mut nodes = Vec::new();
    match engine.co_execute(graph, &exec) {
        Ok(bounds) => {
            for tau in &bounds {
                let bits: Vec<u8> = tau
                    .data()
                    .iter()
                    .flat_map(|t| t.to_bits().to_le_bytes())
                    .collect();
                nodes.extend_from_slice(&sha256(&bits));
            }
        }
        Err(e) => nodes.extend_from_slice(&sha256(e.to_string().as_bytes())),
    }
    to_hex(&sha256(&nodes))
}

#[test]
fn theoretical_bounds_are_pinned() {
    use tao_bounds::BoundEngine;
    let graphs = std::iter::once(("zoo", op_zoo())).chain(tao::MODEL_NAMES.iter().map(|&name| {
        let (model, inputs) = bundled(name);
        (name, (model.graph, inputs))
    }));
    for ((name, (graph, inputs)), (golden_name, paper, det)) in graphs.zip(BOUND_GOLDEN) {
        assert_eq!(name, golden_name);
        let got_paper = bound_digest(&BoundEngine::paper_default(), &graph, &inputs);
        let got_det = bound_digest(&BoundEngine::deterministic(), &graph, &inputs);
        assert_eq!(got_paper, paper, "{name}: paper_default bounds");
        assert_eq!(got_det, det, "{name}: deterministic bounds");
    }
}
