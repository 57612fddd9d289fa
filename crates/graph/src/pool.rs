//! The buffer pool behind the outputs-only forward pass: last-use
//! analysis, size-bucketed buffer recycling, and allocation accounting.
//!
//! The trace executor ([`crate::execute`]) *must* keep every node's output
//! alive, because the trace is what the proposer commits to and the
//! dispute localizes over. Plain inference (serving, decode loops) has no
//! such obligation. [`forward`] runs the same executor loop under the
//! `LastUse` retention policy: parameters and
//! inputs are `Arc`-shared into the value list (a refcount bump — `Tensor`
//! storage is copy-on-write), a last-use pass over the op list frees each
//! intermediate at its final consumer, and uniquely-owned freed buffers
//! return to a size-bucketed [`BufferPool`] that later nodes draw from via
//! the tensor layer's `_with_buf` kernels. Those kernels run the identical
//! numeric code paths as their allocating originals, so pooled forward
//! passes are **bit-identical** to [`crate::execute`]'s outputs.
//!
//! [`ExecStats`] exposes the cost ledger (fresh allocations, pool hits,
//! parameter copies, peak resident bytes) so tests can *pin* the
//! contract: zero parameter copies, strictly fewer fresh buffers than the
//! trace executor, and a peak resident set far below keep-everything.

use std::collections::{BTreeMap, HashMap};

use tao_tensor::{Conv2dParams, KernelConfig, Tensor};

use crate::exec::{run, Retention, ValueObserver};
use crate::graph::Graph;
use crate::op::OpKind;
use crate::Result;

/// Executor cost counters, exposed for regression tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Node outputs that required a fresh heap buffer (not shared with a
    /// parameter/input/predecessor and not drawn from the pool).
    pub fresh_allocations: u64,
    /// Node outputs computed into a buffer recycled from the pool.
    pub pool_hits: u64,
    /// Parameter nodes whose value deep-copied the weight tensor. The
    /// `Arc`-sharing contract pins this to 0.
    pub param_copies: u64,
    /// Peak bytes of live value buffers (each shared buffer counted
    /// once). The trace executor's peak is its total; the pooled executor
    /// frees dead intermediates, so its peak tracks the graph's true
    /// working set. Only the `_with_stats` entry points, which return it,
    /// measure it.
    pub peak_resident_bytes: u64,
}

/// Tracks the live value buffers by identity so shared buffers (an
/// `Arc`-shared parameter referenced by several nodes, a reshape sharing
/// its producer's storage) count once toward the resident set.
#[derive(Debug, Default)]
pub(crate) struct ResidentSet {
    refs: HashMap<usize, (u64, u64)>, // buffer id -> (bytes, refcount)
    resident: u64,
    pub(crate) peak: u64,
}

impl ResidentSet {
    pub(crate) fn add(&mut self, t: &Tensor<f32>) {
        let bytes = (t.len() * core::mem::size_of::<f32>()) as u64;
        let entry = self.refs.entry(t.buffer_id()).or_insert((bytes, 0));
        if entry.1 == 0 {
            self.resident += entry.0;
        }
        entry.1 += 1;
        self.peak = self.peak.max(self.resident);
    }

    pub(crate) fn remove(&mut self, t: &Tensor<f32>) {
        if let Some(entry) = self.refs.get_mut(&t.buffer_id()) {
            entry.1 = entry.1.saturating_sub(1);
            if entry.1 == 0 {
                self.resident -= entry.0;
                // Evict the dead entry: the allocator can hand a later
                // buffer the same address, and a stale `(bytes, 0)` record
                // would charge the old size for the new buffer.
                self.refs.remove(&t.buffer_id());
            }
        }
    }
}

/// A size-bucketed pool of reusable `f32` buffers, keyed by capacity.
///
/// [`forward`] returns each dead intermediate's buffer here (when no other
/// tensor shares it) and draws the smallest buffer that fits the next
/// pooled node's output estimate. Capacity reuse is a pure allocation
/// optimization: the `_with_buf` kernels produce identical bits whether
/// the buffer is fresh or recycled.
#[derive(Debug, Default)]
pub struct BufferPool {
    buckets: BTreeMap<usize, Vec<Vec<f32>>>,
    held: usize,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the smallest pooled buffer with capacity at least `len`.
    pub fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let key = *self.buckets.range(len.max(1)..).next().map(|(k, _)| k)?;
        let bucket = self.buckets.get_mut(&key)?;
        let buf = bucket.pop()?;
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        self.held -= 1;
        Some(buf)
    }

    /// Returns a buffer to the pool.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.held += 1;
        self.buckets.entry(buf.capacity()).or_default().push(buf);
    }

    /// Number of buffers currently held.
    pub fn len(&self) -> usize {
        self.held
    }

    /// True when the pool holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Total bytes of pooled capacity.
    pub fn held_bytes(&self) -> u64 {
        self.buckets
            .iter()
            .map(|(cap, bucket)| (cap * bucket.len() * core::mem::size_of::<f32>()) as u64)
            .sum()
    }
}

/// Output-length estimate for the pooled kernels (a heuristic for pool
/// sizing only — the `_with_buf` kernels resize as needed, so a wrong
/// estimate can never affect results).
pub(crate) fn pooled_len_estimate(
    node: &OpKind,
    a: &Tensor<f32>,
    b: Option<&Tensor<f32>>,
) -> usize {
    match node {
        OpKind::MatMul | OpKind::QuantMatmul => {
            let b = b.expect("matmul has two inputs");
            let k = a.dims().last().copied().unwrap_or(1).max(1);
            let n = b.dims().last().copied().unwrap_or(0);
            (a.len() / k) * n
        }
        OpKind::Linear | OpKind::QuantLinear => {
            let w = b.expect("linear has a weight");
            let in_f = w.dims().last().copied().unwrap_or(1).max(1);
            let out_f = w.dims().first().copied().unwrap_or(0);
            (a.len() / in_f) * out_f
        }
        OpKind::Conv2d { stride, padding } => {
            let w = b.expect("conv2d has a weight");
            if a.rank() != 4 || w.rank() != 4 {
                return 0;
            }
            let params = Conv2dParams {
                stride: *stride,
                padding: *padding,
            };
            let (n, h, wd) = (a.dims()[0], a.dims()[2], a.dims()[3]);
            let (c_out, kh, kw) = (w.dims()[0], w.dims()[2], w.dims()[3]);
            match (params.out_extent(h, kh), params.out_extent(wd, kw)) {
                (Some(oh), Some(ow)) => n * c_out * oh * ow,
                _ => 0,
            }
        }
        // Binary elementwise: the broadcast output volume (0 on
        // incompatible shapes — the kernel will error before the buffer
        // matters).
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => {
            let b = b.expect("binary op has two inputs");
            a.shape()
                .broadcast(b.shape())
                .map(|s| s.volume())
                .unwrap_or(0)
        }
        _ => a.len(),
    }
}

/// Executes `graph` on `inputs`, returning only the declared outputs.
///
/// Semantically identical to running [`crate::execute`] and collecting
/// [`crate::Execution::outputs`] — every value is computed by the same
/// kernels in the same order — but parameters are `Arc`-shared instead of
/// copied, dead intermediates are freed at their last use, and their
/// buffers are recycled through `pool` into later nodes.
///
/// # Errors
///
/// Same error conditions as [`crate::execute`].
pub fn forward(
    graph: &Graph,
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
    pool: &mut BufferPool,
) -> Result<Vec<Tensor<f32>>> {
    let (pass, _) = run::<false>(graph, inputs, cfg, None, pool, Retention::LastUse, None)?;
    Ok(pass.outputs(graph))
}

/// [`forward`] plus the executor cost ledger.
///
/// # Errors
///
/// Same error conditions as [`crate::execute`].
pub fn forward_with_stats(
    graph: &Graph,
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
    pool: &mut BufferPool,
) -> Result<(Vec<Tensor<f32>>, ExecStats)> {
    let (pass, stats) = run::<true>(graph, inputs, cfg, None, pool, Retention::LastUse, None)?;
    Ok((pass.outputs(graph), stats))
}

/// [`forward`] with a [`ValueObserver`] receiving every node's final value
/// once, in node order, as it is produced — the streamed-commitment hook
/// for pooled inference. Observation borrows each value and never touches
/// the pool, so the pass recycles exactly the buffers an unobserved pass
/// does.
///
/// # Errors
///
/// Same error conditions as [`crate::execute`].
pub fn forward_observed(
    graph: &Graph,
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
    pool: &mut BufferPool,
    observer: &mut dyn ValueObserver,
) -> Result<Vec<Tensor<f32>>> {
    let (pass, _) = run::<false>(
        graph,
        inputs,
        cfg,
        None,
        pool,
        Retention::LastUse,
        Some(observer),
    )?;
    Ok(pass.outputs(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::exec::execute;

    fn mlp() -> (Graph, Vec<Tensor<f32>>) {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w1 = b.parameter("w1", Tensor::<f32>::rand_uniform(&[16, 16], -0.5, 0.5, 1));
        let b1 = b.parameter("b1", Tensor::<f32>::rand_uniform(&[16], -0.5, 0.5, 2));
        let h = b.op("fc1", OpKind::Linear, &[x, w1, b1]);
        let r = b.op("relu", OpKind::Relu, &[h]);
        let w2 = b.parameter("w2", Tensor::<f32>::rand_uniform(&[16, 16], -0.5, 0.5, 3));
        let m = b.op("mm", OpKind::MatMul, &[r, w2]);
        let a = b.op("res", OpKind::Add, &[m, x]);
        let s = b.op("scale", OpKind::MulScalar(0.5), &[a]);
        let g = b.finish(vec![s]).unwrap();
        let inputs = vec![Tensor::<f32>::rand_uniform(&[4, 16], -1.0, 1.0, 9)];
        (g, inputs)
    }

    #[test]
    fn pooled_forward_is_bit_identical_to_trace_execute() {
        let (g, inputs) = mlp();
        let cfg = KernelConfig::reference();
        let trace = execute(&g, &inputs, &cfg, None).unwrap();
        let mut pool = BufferPool::new();
        // Two passes: the second draws from the pool filled by the first.
        for pass in 0..2 {
            let (outputs, stats) = forward_with_stats(&g, &inputs, &cfg, &mut pool).unwrap();
            assert_eq!(outputs.len(), 1);
            let want = trace.outputs(&g);
            for (got, want) in outputs.iter().zip(&want) {
                assert_eq!(got.dims(), want.dims());
                let same = got
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "pass {pass}: pooled output drifted");
            }
            assert_eq!(stats.param_copies, 0, "pass {pass}");
            if pass == 1 {
                assert!(stats.pool_hits > 0, "second pass must reuse buffers");
            }
        }
    }

    #[test]
    fn pool_buckets_by_capacity() {
        let mut pool = BufferPool::new();
        assert!(pool.is_empty());
        pool.give(Vec::with_capacity(64));
        pool.give(Vec::with_capacity(256));
        assert_eq!(pool.len(), 2);
        assert!(pool.held_bytes() >= (64 + 256) * 4);
        // Smallest sufficient bucket wins.
        let b = pool.take(60).unwrap();
        assert!(b.capacity() >= 64 && b.capacity() < 256);
        assert!(pool.take(1024).is_none());
        assert_eq!(pool.len(), 1);
        // Zero-capacity buffers are not worth holding.
        pool.give(Vec::new());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn last_use_analysis_pins_outputs() {
        let (g, _) = mlp();
        let last = g.last_uses();
        for &out in g.outputs() {
            assert_eq!(last[out.0], usize::MAX);
        }
        // The input feeds the residual add, so it must stay live past fc1.
        assert!(last[0] > 3);
    }

    #[test]
    fn observation_is_in_node_order_and_leaves_pool_economics_unchanged() {
        /// Records the ids it sees; reads each value without keeping it.
        struct Order(Vec<usize>);
        impl ValueObserver for Order {
            fn observe(&mut self, id: crate::NodeId, value: &Tensor<f32>) {
                assert!(value.data().iter().all(|x| x.is_finite()));
                self.0.push(id.0);
            }
        }
        let (g, inputs) = mlp();
        let cfg = KernelConfig::reference();
        let (mut plain, mut observed) = (BufferPool::new(), BufferPool::new());
        for pass in 0..2 {
            let (_, want) = run::<true>(
                &g,
                &inputs,
                &cfg,
                None,
                &mut plain,
                Retention::LastUse,
                None,
            )
            .unwrap();
            let mut order = Order(Vec::new());
            let (_, got) = run::<true>(
                &g,
                &inputs,
                &cfg,
                None,
                &mut observed,
                Retention::LastUse,
                Some(&mut order),
            )
            .unwrap();
            assert_eq!(order.0, (0..g.len()).collect::<Vec<_>>(), "pass {pass}");
            assert_eq!(got, want, "pass {pass}");
            assert_eq!(observed.len(), plain.len(), "pass {pass}");
            assert_eq!(observed.held_bytes(), plain.held_bytes(), "pass {pass}");
        }
    }

    #[test]
    fn input_count_checked() {
        let (g, _) = mlp();
        let mut pool = BufferPool::new();
        assert!(forward(&g, &[], &KernelConfig::reference(), &mut pool).is_err());
    }
}
