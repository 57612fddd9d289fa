//! Executor cost-regression suite: the `Arc`-sharing and buffer-pool
//! contracts of `tao-graph`, pinned on a transformer-shaped graph.
//!
//! Contracts under test:
//!
//! * **Zero parameter copies.** Tensor storage is copy-on-write, so a
//!   `Parameter` node's value shares the graph's weight buffer — in both
//!   the trace executor and the pooled forward executor, on every pass.
//! * **Pooled forward allocates strictly fewer buffers** than the trace
//!   executor on the same graph (structural sharing plus pool reuse), and
//!   its peak resident set is strictly below keep-everything.
//! * **Bit-identical outputs.** The pooled executor runs the same kernels
//!   in the same order; recycled buffers must never change a bit.

use tao_graph::{execute, execute_with_stats, forward_with_stats, BufferPool, OpKind};
use tao_models::{qwen, QwenConfig};
use tao_tensor::{KernelConfig, Tensor};

fn transformer() -> (tao_graph::Graph, Vec<Tensor<f32>>) {
    let cfg = QwenConfig::small();
    let model = qwen::build(cfg, 77);
    let inputs = vec![qwen::sample_ids(cfg, 5)];
    (model.graph, inputs)
}

#[test]
fn trace_executor_shares_parameters_with_zero_copies() {
    let (graph, inputs) = transformer();
    let cfg = KernelConfig::reference();
    let (exec, stats) = execute_with_stats(&graph, &inputs, &cfg, None).unwrap();
    assert_eq!(stats.param_copies, 0, "parameters must be Arc-shared");
    // Spot-check the sharing directly: every Parameter node's traced value
    // aliases the graph's own weight buffer.
    let mut params_seen = 0;
    for node in graph.nodes() {
        if let OpKind::Parameter(name) = &node.kind {
            params_seen += 1;
            assert!(
                exec.values[node.id.0].shares_buffer(graph.param(name).unwrap()),
                "parameter {name:?} was deep-copied into the trace"
            );
        }
    }
    assert!(params_seen > 10, "transformer should have many parameters");
    assert!(stats.peak_resident_bytes > 0);
}

#[test]
fn pooled_forward_allocates_strictly_less_and_matches_bitwise() {
    let (graph, inputs) = transformer();
    let cfg = KernelConfig::reference();
    let (trace, trace_stats) = execute_with_stats(&graph, &inputs, &cfg, None).unwrap();
    let want = trace.outputs(&graph);

    let mut pool = BufferPool::new();
    for pass in 0..2 {
        let (outputs, stats) = forward_with_stats(&graph, &inputs, &cfg, &mut pool).unwrap();
        // Bit-identical outputs: same kernels, same order, recycled
        // buffers change nothing.
        assert_eq!(outputs.len(), want.len());
        for (got, want) in outputs.iter().zip(&want) {
            assert_eq!(got.dims(), want.dims(), "pass {pass}");
            let same = got
                .data()
                .iter()
                .zip(want.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "pass {pass}: pooled forward drifted from the trace");
        }
        assert_eq!(stats.param_copies, 0, "pass {pass}");
        assert!(
            stats.fresh_allocations < trace_stats.fresh_allocations,
            "pass {pass}: pooled {} fresh buffers vs trace executor {}",
            stats.fresh_allocations,
            trace_stats.fresh_allocations
        );
        // With softmax/norm outputs routed through the pool the working
        // set is a small fraction of keep-everything; pin at least 2x.
        assert!(
            stats.peak_resident_bytes * 2 < trace_stats.peak_resident_bytes,
            "pass {pass}: pooled peak {} must undercut keep-everything {} by 2x",
            stats.peak_resident_bytes,
            trace_stats.peak_resident_bytes
        );
        if pass > 0 {
            assert!(
                stats.pool_hits > 0,
                "warm passes must draw from the buffer pool"
            );
        }
    }
}

#[test]
fn warm_pool_reduces_fresh_allocations_further() {
    let (graph, inputs) = transformer();
    let cfg = KernelConfig::reference();
    let mut pool = BufferPool::new();
    let (_, cold) = forward_with_stats(&graph, &inputs, &cfg, &mut pool).unwrap();
    let (_, warm) = forward_with_stats(&graph, &inputs, &cfg, &mut pool).unwrap();
    assert!(
        warm.fresh_allocations < cold.fresh_allocations,
        "warm pass: {} fresh vs cold {}",
        warm.fresh_allocations,
        cold.fresh_allocations
    );
    assert!(warm.pool_hits >= cold.pool_hits);
}

#[test]
fn every_pooled_capable_op_draws_from_a_warm_pool() {
    // The pooled kernel set covers elementwise, GEMM, convolution, softmax
    // and normalization ops. After one priming pass every such node must
    // compute into a recycled buffer — a fresh allocation for any of them
    // means an op silently fell back to the allocating kernel (the
    // norm/softmax/conv regression this test exists to catch).
    let (graph, inputs) = transformer();
    let cfg = KernelConfig::reference();
    let pooled_capable = graph
        .nodes()
        .iter()
        .filter(|n| {
            matches!(
                n.kind,
                OpKind::Add
                    | OpKind::Sub
                    | OpKind::Mul
                    | OpKind::Div
                    | OpKind::Neg
                    | OpKind::AddScalar(_)
                    | OpKind::MulScalar(_)
                    | OpKind::Relu
                    | OpKind::MatMul
                    | OpKind::Linear
                    | OpKind::Conv2d { .. }
                    | OpKind::Softmax
                    | OpKind::LayerNorm { .. }
                    | OpKind::RmsNorm { .. }
            )
        })
        .count() as u64;
    assert!(
        graph
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::Softmax | OpKind::RmsNorm { .. })),
        "fixture must exercise the softmax/norm pooled arms"
    );
    let mut pool = BufferPool::new();
    let _ = forward_with_stats(&graph, &inputs, &cfg, &mut pool).unwrap();
    let (_, warm) = forward_with_stats(&graph, &inputs, &cfg, &mut pool).unwrap();
    assert_eq!(
        warm.pool_hits, pooled_capable,
        "warm pass: {} pool hits but {} pooled-capable ops — some op is \
         allocating fresh instead of recycling",
        warm.pool_hits, pooled_capable
    );
}

#[test]
fn observed_warm_pass_keeps_pool_economics_identical() {
    // The streamed-commitment hook must not tax the pooled executor: the
    // committer hashes each value by reference as it is produced, so an
    // observed pass recycles exactly the buffers an unobserved one does —
    // and still produces the bit-identical commitment.
    use tao_graph::forward_observed;
    use tao_merkle::{StreamingCommitter, TraceCommitment};

    let (graph, inputs) = transformer();
    let cfg = KernelConfig::reference();
    let trace = execute(&graph, &inputs, &cfg, None).unwrap();
    let oracle = TraceCommitment::build(&trace.values);
    let want = trace.outputs(&graph);

    let mut plain = BufferPool::new();
    let mut observed = BufferPool::new();
    for pass in 0..2u32 {
        let (outputs, stats) = forward_with_stats(&graph, &inputs, &cfg, &mut plain).unwrap();
        let mut committer = StreamingCommitter::new(graph.len());
        let streamed =
            forward_observed(&graph, &inputs, &cfg, &mut observed, &mut committer).unwrap();
        assert_eq!(committer.finish(), oracle, "pass {pass}");
        let bits = |ts: &[Tensor<f32>]| -> Vec<Vec<u32>> {
            ts.iter()
                .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            bits(&outputs),
            bits(&want),
            "pass {pass}: pooled output drifted"
        );
        assert_eq!(
            bits(&streamed),
            bits(&want),
            "pass {pass}: observed output drifted"
        );
        if pass == 1 {
            assert!(stats.pool_hits > 0);
        }
        // Same pool contents after every pass...
        assert_eq!(observed.len(), plain.len(), "pass {pass}");
        assert_eq!(observed.held_bytes(), plain.held_bytes(), "pass {pass}");
    }
    // ...so the next pass on either pool has the same economics.
    let (_, after_plain) = forward_with_stats(&graph, &inputs, &cfg, &mut plain).unwrap();
    let (_, after_observed) = forward_with_stats(&graph, &inputs, &cfg, &mut observed).unwrap();
    assert_eq!(after_observed, after_plain);
}

#[test]
fn greedy_decode_runs_pooled_with_zero_parameter_copies() {
    // The decode loop rides the pooled executor; its per-step stats are
    // internal, so pin the contract at the executor level on the same
    // graph and assert decode stays deterministic across executors.
    let cfg = QwenConfig::small();
    let model = qwen::build(cfg, 11);
    let prompt = qwen::sample_ids(cfg, 2);
    let kernel = KernelConfig::reference();
    let steps = tao_models::greedy_decode(
        &model,
        cfg,
        &prompt,
        3,
        &kernel,
        &tao_models::decode::Argmax,
    )
    .unwrap();
    assert_eq!(steps.len(), 3);
    // Reference: drive the trace executor by hand and compare tokens.
    let mut window = prompt.clone();
    for step in &steps {
        let exec = execute(&model.graph, std::slice::from_ref(&window), &kernel, None).unwrap();
        let logits = exec.value(model.logits).unwrap();
        let lane = &logits.data()[logits.len() - cfg.vocab..];
        let argmax = lane
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(step.token, argmax, "pooled decode diverged from trace");
        let mut ids = window.data()[1..].to_vec();
        ids.push(step.token as f32);
        window = Tensor::from_vec(ids, &[cfg.seq]).unwrap();
    }
}
