//! The graph executor: one topological loop with a retention policy.
//!
//! [`execute`] and its variants keep every node's output alive
//! (`Retention::KeepAll`) because the trace is what the proposer commits
//! to and what the dispute localizes over. [`crate::forward`] and its
//! variants run the *same* loop under `Retention::LastUse`: each
//! intermediate is freed after its final consumer and its buffer returned
//! to a [`BufferPool`] that later nodes draw from. [`eval_node`] is the one
//! per-operator dispatch both policies share, so the two produce
//! bit-identical values by construction.

use std::collections::HashMap;

use tao_tensor::{Conv2dParams, KernelConfig, Tensor};

use crate::error::GraphError;
use crate::graph::{Graph, Node, NodeId};
use crate::op::OpKind;
use crate::pool::{pooled_len_estimate, BufferPool, ExecStats, ResidentSet};
use crate::Result;

/// A complete execution trace: every node's output tensor plus FLOP counts.
///
/// The trace is what the proposer commits to (via per-operator I/O hashes)
/// and what the challenger compares against during dispute localization.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Output tensor of every node, indexed by node id.
    pub values: Vec<Tensor<f32>>,
    /// FLOPs attributed to every node, indexed by node id.
    pub flops: Vec<u64>,
}

impl Execution {
    /// Output of a node.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range id.
    pub fn value(&self, id: NodeId) -> Result<&Tensor<f32>> {
        self.values.get(id.0).ok_or(GraphError::UnknownNode(id))
    }

    /// Graph output tensors, in declaration order.
    pub fn outputs(&self, graph: &Graph) -> Vec<Tensor<f32>> {
        graph
            .outputs()
            .iter()
            .map(|&id| self.values[id.0].clone())
            .collect()
    }

    /// Total FLOPs of the execution.
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }
}

/// Additive perturbations injected after selected operators — the paper's
/// adversary model (`h_v <- h_v + Δ_v`).
pub type Perturbations = HashMap<NodeId, Tensor<f32>>;

/// Observes every node's final output value exactly once during an
/// execution pass — the streamed-commitment hook.
///
/// Under either retention policy, `observe` fires once per node, in node
/// order, right after the node's value is produced (perturbation applied)
/// and before any later node runs.
pub trait ValueObserver {
    /// Called exactly once per node with its final output value.
    fn observe(&mut self, id: NodeId, value: &Tensor<f32>);

    /// Hands the observer an owned value together with the pool its buffer
    /// should return to. The executor never calls this — every value
    /// reaches [`observe`](Self::observe) instead — and the default body
    /// forwards there and recycles the buffer.
    fn observe_retired(&mut self, id: NodeId, value: Tensor<f32>, pool: &mut BufferPool) {
        self.observe(id, &value);
        if let Some(buf) = value.into_unique_data() {
            pool.give(buf);
        }
    }
}

/// Which node values an execution pass keeps alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retention {
    /// Every value stays live to the end of the pass (the trace), and
    /// per-node FLOPs are recorded.
    KeepAll,
    /// Each intermediate is dropped after its last consumer and its
    /// uniquely owned buffer goes back to the pool; graph outputs stay
    /// live.
    LastUse,
}

/// Executes `graph` on `inputs` under `cfg`, optionally injecting additive
/// perturbations after selected node outputs.
///
/// # Errors
///
/// Returns an error on input-count mismatch, arity violations, or kernel
/// shape errors.
pub fn execute(
    graph: &Graph,
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
    perturb: Option<&Perturbations>,
) -> Result<Execution> {
    let mut pool = BufferPool::new();
    run::<false>(
        graph,
        inputs,
        cfg,
        perturb,
        &mut pool,
        Retention::KeepAll,
        None,
    )
    .map(|(exec, _)| exec)
}

/// [`execute`] with a [`ValueObserver`] receiving every node's final value
/// as it is produced — the streamed-commitment entry point for traced
/// execution (each value is hashed as soon as it exists, instead of in a
/// post-hoc pass over the finished trace).
///
/// # Errors
///
/// Same error conditions as [`execute`].
pub fn execute_observed(
    graph: &Graph,
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
    perturb: Option<&Perturbations>,
    observer: &mut dyn ValueObserver,
) -> Result<Execution> {
    let mut pool = BufferPool::new();
    run::<false>(
        graph,
        inputs,
        cfg,
        perturb,
        &mut pool,
        Retention::KeepAll,
        Some(observer),
    )
    .map(|(e, _)| e)
}

/// [`execute`] plus the executor cost ledger ([`ExecStats`]).
///
/// The trace keeps every value alive by design, so its peak resident set
/// equals its total; the interesting counters here are `param_copies` —
/// pinned to 0 by the `Arc`-sharing contract — and `fresh_allocations`,
/// the baseline the pooled [`crate::forward`] pass is measured against.
///
/// # Errors
///
/// Same error conditions as [`execute`].
pub fn execute_with_stats(
    graph: &Graph,
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
    perturb: Option<&Perturbations>,
) -> Result<(Execution, ExecStats)> {
    let mut pool = BufferPool::new();
    run::<true>(
        graph,
        inputs,
        cfg,
        perturb,
        &mut pool,
        Retention::KeepAll,
        None,
    )
}

/// The executor loop: evaluates every node in order, applies its
/// perturbation, observes it, and then — under `Retention::LastUse` —
/// frees the values whose last consumer just ran, returning their buffers
/// to `pool`. Under `LastUse` the freed slots of the returned values hold
/// empty tensors and `flops` is empty.
///
/// `ExecStats::peak_resident_bytes` is measured only with `RESIDENT`
/// (the `_with_stats` entry points); it costs a hash-map update per value,
/// so every other pass leaves it 0.
pub(crate) fn run<const RESIDENT: bool>(
    graph: &Graph,
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
    perturb: Option<&Perturbations>,
    pool: &mut BufferPool,
    retention: Retention,
    mut observer: Option<&mut dyn ValueObserver>,
) -> Result<(Execution, ExecStats)> {
    if inputs.len() != graph.num_inputs() {
        return Err(GraphError::InputCount {
            expected: graph.num_inputs(),
            got: inputs.len(),
        });
    }
    let keep_all = retention == Retention::KeepAll;
    // Which value ids die right after node i.
    let mut free_at: Vec<Vec<usize>> = vec![Vec::new(); if keep_all { 0 } else { graph.len() }];
    if !keep_all {
        for (id, &l) in graph.last_uses().iter().enumerate() {
            if l != usize::MAX && l != id {
                free_at[l].push(id);
            }
        }
    }
    let mut stats = ExecStats::default();
    let mut resident = RESIDENT.then(ResidentSet::default);
    // Freed slots are replaced by clones of this empty tensor (an Arc
    // bump, no allocation).
    let empty = Tensor::<f32>::zeros(&[0]);
    let mut values: Vec<Tensor<f32>> = Vec::with_capacity(graph.len());
    let mut flops = Vec::with_capacity(if keep_all { graph.len() } else { 0 });
    for node in graph.nodes() {
        let held = pool.len();
        let mut out = eval_node(graph, node, &values, inputs, cfg, pool)?;
        let from_pool = pool.len() < held;
        if let Some(delta) = perturb.and_then(|p| p.get(&node.id)) {
            out = out.add(delta)?;
        }
        if let Some(param) = graph.param_value(node.id) {
            if !out.shares_buffer(param) {
                stats.param_copies += 1;
            }
        }
        if from_pool {
            stats.pool_hits += 1;
        } else if !output_shares_storage(graph, node, inputs, &values, &out) {
            stats.fresh_allocations += 1;
        }
        if keep_all {
            let in_shapes = node.inputs.iter().map(|&i| values[i.0].shape());
            flops.push(node.kind.flops(in_shapes, out.shape()));
        }
        if let Some(obs) = observer.as_deref_mut() {
            obs.observe(node.id, &out);
        }
        if let Some(resident) = resident.as_mut() {
            resident.add(&out);
        }
        values.push(out);
        for &id in free_at.get(node.id.0).map_or(&[][..], Vec::as_slice) {
            let dead = core::mem::replace(&mut values[id], empty.clone());
            if let Some(resident) = resident.as_mut() {
                resident.remove(&dead);
            }
            if let Some(buf) = dead.into_unique_data() {
                pool.give(buf);
            }
        }
    }
    stats.peak_resident_bytes = resident.map_or(0, |r| r.peak);
    Ok((Execution { values, flops }, stats))
}

/// True when `out` aliases the storage of one of `node`'s operands: an
/// input value, the graph's own parameter tensor, or a graph input — the
/// definition of "not a fresh allocation" in
/// [`ExecStats::fresh_allocations`].
fn output_shares_storage(
    graph: &Graph,
    node: &Node,
    inputs: &[Tensor<f32>],
    values: &[Tensor<f32>],
    out: &Tensor<f32>,
) -> bool {
    node.inputs.iter().any(|&i| out.shares_buffer(&values[i.0]))
        || graph
            .param_value(node.id)
            .is_some_and(|p| out.shares_buffer(p))
        || matches!(node.kind, OpKind::Input(idx)
            if inputs.get(idx).map(|t| out.shares_buffer(t)).unwrap_or(false))
}

/// Evaluates a single node given already-computed predecessor values —
/// the one per-operator dispatch of the executor.
///
/// Operators with a `_with_buf` kernel compute into a buffer drawn from
/// `pool` (a fresh one when the pool has none that fits); the kernels run
/// the same numeric code either way, so results never depend on the pool.
/// Exposed for leaf re-execution during single-operator adjudication: the
/// committee calls this with the committed inputs of the disputed operator
/// and an empty pool.
///
/// # Errors
///
/// Returns [`GraphError::Arity`] when the node's input count is not one
/// its [`OpKind::arity`] admits, checked before any value is read, and an
/// error on kernel shape errors.
pub fn eval_node(
    graph: &Graph,
    node: &Node,
    values: &[Tensor<f32>],
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
    pool: &mut BufferPool,
) -> Result<Tensor<f32>> {
    eval_node_with(graph, node, |id| values.get(id.0), inputs, cfg, pool)
}

/// [`eval_node`] reading each predecessor through `value` instead of a
/// store indexed by node id, so a slice can be evaluated from a store of
/// its own size ([`crate::execute_subgraph`]). A predecessor for which
/// `value` returns `None` is a [`GraphError::UnknownNode`].
pub(crate) fn eval_node_with<'v>(
    graph: &Graph,
    node: &Node,
    value: impl Fn(NodeId) -> Option<&'v Tensor<f32>>,
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
    pool: &mut BufferPool,
) -> Result<Tensor<f32>> {
    let arity = node.kind.arity();
    if !arity.admits(node.inputs.len()) {
        return Err(GraphError::Arity {
            node: node.id,
            expected: arity,
            got: node.inputs.len(),
        });
    }
    let arg = |k: usize| -> Result<&Tensor<f32>> {
        let id = *node.inputs.get(k).ok_or(GraphError::Arity {
            node: node.id,
            expected: arity,
            got: node.inputs.len(),
        })?;
        value(id).ok_or(GraphError::UnknownNode(id))
    };
    // An optional third operand (bias) after two required ones.
    let bias = || (node.inputs.len() == 3).then(|| arg(2)).transpose();
    // An output buffer for a pooled kernel: the pool's smallest fit for
    // the output-size estimate, else a fresh (empty) Vec.
    let mut buf = |b: Option<&Tensor<f32>>| -> Result<Vec<f32>> {
        let len = pooled_len_estimate(&node.kind, arg(0)?, b);
        Ok(pool.take(len).unwrap_or_default())
    };
    let out = match &node.kind {
        OpKind::Input(idx) => inputs.get(*idx).cloned().ok_or(GraphError::InputCount {
            expected: idx + 1,
            got: inputs.len(),
        })?,
        OpKind::Parameter(name) => graph
            .param_value(node.id)
            .ok_or_else(|| GraphError::MissingParameter(name.clone()))?
            .clone(),
        OpKind::Add => arg(0)?.add_with_buf(arg(1)?, buf(Some(arg(1)?))?)?,
        OpKind::Sub => arg(0)?.sub_with_buf(arg(1)?, buf(Some(arg(1)?))?)?,
        OpKind::Mul => arg(0)?.mul_with_buf(arg(1)?, buf(Some(arg(1)?))?)?,
        OpKind::Div => arg(0)?.div_with_buf(arg(1)?, buf(Some(arg(1)?))?)?,
        OpKind::Pow => arg(0)?.pow(arg(1)?)?,
        OpKind::Neg => arg(0)?.neg_with_buf(buf(None)?),
        OpKind::AddScalar(s) => arg(0)?.add_scalar_with_buf(*s as f32, buf(None)?),
        OpKind::MulScalar(s) => arg(0)?.mul_scalar_with_buf(*s as f32, buf(None)?),
        OpKind::PowScalar(p) => arg(0)?.pow_scalar(*p as f32),
        OpKind::Sqrt => arg(0)?.sqrt(),
        OpKind::Rsqrt => arg(0)?.rsqrt(cfg),
        OpKind::Exp => arg(0)?.exp(cfg),
        OpKind::Log => arg(0)?.ln(cfg),
        OpKind::Sin => arg(0)?.sin(),
        OpKind::Cos => arg(0)?.cos(),
        OpKind::Tanh => arg(0)?.tanh(cfg),
        OpKind::Relu => arg(0)?.relu_with_buf(buf(None)?),
        OpKind::Gelu => arg(0)?.gelu(cfg),
        OpKind::Silu => arg(0)?.silu(cfg),
        OpKind::Sigmoid => arg(0)?.sigmoid(cfg),
        OpKind::Softmax => arg(0)?.softmax_last_with_buf(cfg, buf(None)?)?,
        OpKind::LayerNorm { eps } => {
            arg(0)?.layer_norm_with_buf(arg(1)?, arg(2)?, *eps, cfg, buf(None)?)?
        }
        OpKind::RmsNorm { eps } => arg(0)?.rms_norm_with_buf(arg(1)?, *eps, cfg, buf(None)?)?,
        OpKind::BatchNorm2d { eps } => {
            arg(0)?.batch_norm2d(arg(1)?, arg(2)?, arg(3)?, arg(4)?, *eps, cfg)?
        }
        OpKind::GroupNorm { groups, eps } => {
            arg(0)?.group_norm(*groups, arg(1)?, arg(2)?, *eps, cfg)?
        }
        OpKind::MatMul => arg(0)?.matmul_with_buf(arg(1)?, cfg, buf(Some(arg(1)?))?)?,
        // A weight that is the graph's own parameter tensor runs from the
        // operand the graph packed once; any other weight (perturbed,
        // revealed, computed) is packed per call. Both run the same kernel.
        OpKind::Linear => {
            let bias = bias()?;
            let (x, w) = (arg(0)?, arg(1)?);
            let buf = buf(Some(w))?;
            match graph.linear_pack(node.inputs[1], w) {
                Some(packed) => x.linear_packed_with_buf(packed, bias, cfg, buf)?,
                None => x.linear_with_buf(w, bias, cfg, buf)?,
            }
        }
        OpKind::Conv2d { stride, padding } => {
            let bias = bias()?;
            let params = Conv2dParams {
                stride: *stride,
                padding: *padding,
            };
            let (x, w) = (arg(0)?, arg(1)?);
            let buf = buf(Some(w))?;
            match graph.conv_pack(node.inputs[1], w) {
                Some(packed) => x.conv2d_packed_with_buf(w, packed, bias, params, cfg, buf)?,
                None => x.conv2d_with_buf(w, bias, params, cfg, buf)?,
            }
        }
        OpKind::QuantMatmul => arg(0)?.quant_matmul_with_buf(arg(1)?, buf(Some(arg(1)?))?)?,
        OpKind::QuantLinear => {
            let bias = bias()?;
            arg(0)?.quant_linear_with_buf(arg(1)?, bias, buf(Some(arg(1)?))?)?
        }
        OpKind::Quantize { scale } => arg(0)?.quantize_static_with_buf(*scale, buf(None)?)?,
        OpKind::Dequantize { scale } => arg(0)?.dequantize_static_with_buf(*scale, buf(None)?)?,
        OpKind::MeanAll => Tensor::scalar(arg(0)?.mean_all(cfg)),
        OpKind::SumAll => Tensor::scalar(arg(0)?.sum_all(cfg)),
        OpKind::SumAxis(axis) => arg(0)?.sum_axis(*axis, cfg)?,
        OpKind::MeanAxis(axis) => arg(0)?.mean_axis(*axis, cfg)?,
        OpKind::MaxAxis(axis) => arg(0)?.max_axis(*axis)?,
        OpKind::MaxPool2d { kernel, stride } => arg(0)?.max_pool2d(*kernel, *stride)?,
        OpKind::AvgPool2d { kernel, stride } => arg(0)?.avg_pool2d(*kernel, *stride, cfg)?,
        OpKind::AdaptiveAvgPool1x1 => arg(0)?.adaptive_avg_pool2d_1x1(cfg)?,
        OpKind::UpsampleNearest(factor) => arg(0)?.upsample_nearest2x(*factor)?,
        OpKind::Reshape(dims) => arg(0)?.reshape(dims)?,
        OpKind::Flatten => arg(0)?.flatten(),
        OpKind::FlattenFrom(axis) => {
            let t = arg(0)?;
            let keep: Vec<usize> = t.dims()[..*axis].to_vec();
            let rest: usize = t.dims()[*axis..].iter().product();
            let mut dims = keep;
            dims.push(rest);
            t.reshape(&dims)?
        }
        OpKind::Transpose(a, b) => arg(0)?.transpose(*a, *b)?,
        OpKind::Permute(perm) => arg(0)?.permute(perm)?,
        OpKind::Slice { axis, start, end } => arg(0)?.slice(*axis, *start, *end)?,
        OpKind::Concat(axis) => {
            let tensors = (0..node.inputs.len())
                .map(arg)
                .collect::<Result<Vec<_>>>()?;
            Tensor::cat(&tensors, *axis)?
        }
        OpKind::Embedding => {
            let ids: Vec<usize> = arg(1)?
                .data()
                .iter()
                .map(|&x| x.max(0.0).round() as usize)
                .collect();
            arg(0)?.embedding(&ids)?
        }
        OpKind::MaskedFill(value) => arg(0)?.masked_fill(arg(1)?, *value as f32)?,
        OpKind::Identity => arg(0)?.clone(),
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn executes_linear_chain() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::eye(2));
        let y = b.op("y", OpKind::MatMul, &[x, w]);
        let z = b.op("z", OpKind::Relu, &[y]);
        let g = b.finish(vec![z]).unwrap();
        let input = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]).unwrap();
        let exec = execute(&g, &[input], &KernelConfig::reference(), None).unwrap();
        assert_eq!(exec.outputs(&g)[0].data(), &[1.0, 0.0, 3.0, 0.0]);
        assert!(exec.total_flops() > 0);
    }

    #[test]
    fn input_count_checked() {
        let mut b = GraphBuilder::new(2);
        let x = b.input(0, "x");
        let g = b.finish(vec![x]).unwrap();
        assert!(execute(&g, &[Tensor::ones(&[1])], &KernelConfig::reference(), None).is_err());
    }

    #[test]
    fn perturbation_injected_after_node() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let y = b.op("y", OpKind::MulScalar(2.0), &[x]);
        let z = b.op("z", OpKind::AddScalar(0.0), &[y]);
        let g = b.finish(vec![z]).unwrap();
        let input = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let mut p = Perturbations::new();
        p.insert(y, Tensor::from_vec(vec![0.5], &[1]).unwrap());
        let honest = execute(
            &g,
            std::slice::from_ref(&input),
            &KernelConfig::reference(),
            None,
        )
        .unwrap();
        let evil = execute(&g, &[input], &KernelConfig::reference(), Some(&p)).unwrap();
        assert_eq!(honest.outputs(&g)[0].data(), &[2.0]);
        assert_eq!(evil.outputs(&g)[0].data(), &[2.5]);
    }

    #[test]
    fn arity_violation_detected() {
        // Too few inputs, then too many.
        let cases: [(OpKind, usize); 3] =
            [(OpKind::Add, 1), (OpKind::Relu, 2), (OpKind::Linear, 4)];
        for (kind, n) in cases {
            let mut b = GraphBuilder::new(1);
            let x = b.input(0, "x");
            let bad = b.op("bad", kind.clone(), &vec![x; n]);
            let g = b.finish(vec![bad]).unwrap();
            let r = execute(&g, &[Tensor::ones(&[1])], &KernelConfig::reference(), None);
            assert!(
                matches!(r, Err(GraphError::Arity { got, .. }) if got == n),
                "{kind} with {n} inputs: {r:?}"
            );
        }
    }

    #[test]
    fn embedding_rounds_ids() {
        let mut b = GraphBuilder::new(1);
        let table = b.parameter("table", Tensor::<f32>::arange(8).reshape(&[4, 2]).unwrap());
        let ids = b.input(0, "ids");
        let e = b.op("emb", OpKind::Embedding, &[table, ids]);
        let g = b.finish(vec![e]).unwrap();
        let ids_t = Tensor::from_vec(vec![2.0, 0.0], &[2]).unwrap();
        let exec = execute(&g, &[ids_t], &KernelConfig::reference(), None).unwrap();
        assert_eq!(exec.outputs(&g)[0].data(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_stride_conv2d_is_an_error_not_a_panic() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::ones(&[1, 1, 2, 2]));
        let kind = OpKind::Conv2d {
            stride: 0,
            padding: 0,
        };
        let y = b.op("conv", kind, &[x, w]);
        let g = b.finish(vec![y]).unwrap();
        let input = Tensor::<f32>::ones(&[1, 1, 4, 4]);
        let cfg = KernelConfig::reference();
        let traced = execute(&g, std::slice::from_ref(&input), &cfg, None);
        assert!(traced.is_err(), "execute accepted stride 0");
        let mut pool = crate::pool::BufferPool::new();
        let pooled = crate::pool::forward(&g, &[input], &cfg, &mut pool);
        assert!(pooled.is_err(), "forward accepted stride 0");
    }

    #[test]
    fn flatten_from_keeps_batch() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let f = b.op("f", OpKind::FlattenFrom(1), &[x]);
        let g = b.finish(vec![f]).unwrap();
        let input = Tensor::<f32>::zeros(&[2, 3, 4]);
        let exec = execute(&g, &[input], &KernelConfig::reference(), None).unwrap();
        assert_eq!(exec.outputs(&g)[0].dims(), &[2, 12]);
    }
}
