//! Per-deployment parameter digests: each weight tensor is hashed once,
//! not once per forward pass.
//!
//! A `Parameter` node's traced value is the graph's own weight tensor (an
//! `Arc` clone, never a copy), so its [`tensor_hash`](crate::tensor_hash)
//! is the same on every pass. [`ParamDigests`] hashes each parameter
//! node's tensor once and serves that digest to every trace commitment
//! of the deployment ([`crate::TraceCommitment::build_with_params`],
//! [`crate::StreamingCommitter::with_params`]).
//!
//! A lookup hits only when the observed value shares the cached tensor's
//! buffer *and* has its shape; anything else (a perturbed weight, a
//! reshaped view, a value from another graph) is hashed as usual. Shared
//! storage is never mutated — `Tensor::data_mut` unshares first — and the
//! table's own clone keeps the buffer from ever becoming unique, so it can
//! never be reclaimed into a buffer pool and refilled. Equal shapes give
//! equal canonical headers, so a hit's digest equals
//! [`tensor_hash`](crate::tensor_hash) of the value bit for bit.

use std::sync::Arc;

use tao_graph::{Graph, OpKind};
use tao_tensor::Tensor;

use crate::commit::tensor_hashes;
use crate::sha256::Digest;

/// A parameter node's cached tensor and its
/// [`tensor_hash`](crate::tensor_hash).
type Cached = (Tensor<f32>, Digest);

/// One slot per graph node: the cached tensor and digest for a `Parameter`
/// node, `None` otherwise. Cloning shares the table.
#[derive(Debug, Clone, Default)]
pub struct ParamDigests {
    slots: Arc<[Option<Cached>]>,
}

impl ParamDigests {
    /// Hashes every `Parameter` node's tensor of `graph` once, in one
    /// batch.
    pub fn new(graph: &Graph) -> Self {
        let tensors: Vec<Option<&Tensor<f32>>> = graph
            .nodes()
            .iter()
            .map(|node| match &node.kind {
                OpKind::Parameter(name) => graph.param(name).ok(),
                _ => None,
            })
            .collect();
        let mut digests =
            tensor_hashes(&tensors.iter().flatten().copied().collect::<Vec<_>>()).into_iter();
        let slots = tensors
            .into_iter()
            .map(|t| {
                Some((
                    t?.clone(),
                    digests.next().expect("one digest per parameter"),
                ))
            })
            .collect();
        ParamDigests { slots }
    }

    /// The cached digest of node `id`'s value, when `value` is that node's
    /// cached parameter tensor (same buffer, same shape); `None` otherwise.
    pub fn get(&self, id: usize, value: &Tensor<f32>) -> Option<Digest> {
        match self.slots.get(id) {
            Some(Some((t, d))) if value.shares_buffer(t) && value.dims() == t.dims() => Some(*d),
            _ => None,
        }
    }

    /// Number of node slots (the graph's node count; 0 for an empty table).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True for an empty table, which never hits.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::tensor_hash;
    use tao_graph::GraphBuilder;

    fn graph(seed: u64) -> Graph {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[4, 6], -1.0, 1.0, seed));
        let m = b.op("mm", OpKind::MatMul, &[x, w]);
        b.finish(vec![m]).unwrap()
    }

    #[test]
    fn hits_only_the_shared_buffer_at_its_shape() {
        let g = graph(1);
        let table = ParamDigests::new(&g);
        assert_eq!(table.len(), g.len());
        let w = g.param("w").unwrap();
        let id = g
            .nodes()
            .iter()
            .position(|n| matches!(n.kind, OpKind::Parameter(_)))
            .unwrap();
        assert_eq!(table.get(id, &w.clone()), Some(tensor_hash(w)));
        // Another node's slot, a reshaped view and an equal-valued copy miss.
        assert_eq!(table.get(0, w), None);
        let view = w.reshape(&[6, 4]).unwrap();
        assert!(view.shares_buffer(w));
        assert_eq!(table.get(id, &view), None);
        let copy = Tensor::from_vec(w.data().to_vec(), w.dims()).unwrap();
        assert_eq!(table.get(id, &copy), None);
        // A table from another graph misses this graph's weights.
        assert_eq!(ParamDigests::new(&graph(2)).get(id, w), None);
        assert_eq!(ParamDigests::default().get(id, w), None);
    }
}
