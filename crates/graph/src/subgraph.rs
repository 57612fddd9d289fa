//! Verifiable subgraph extraction: contiguous slices of the canonical
//! topological order with live-in/live-out frontiers (Eq. 13–14 of the
//! paper) and standalone re-execution.

use tao_tensor::{KernelConfig, Tensor};

use crate::error::GraphError;
use crate::exec::eval_node_with;
use crate::graph::{Graph, NodeId};
use crate::op::OpKind;
use crate::pool::BufferPool;
use crate::Result;

/// A contiguous slice `[start, end)` of a graph's canonical topological
/// order, with its dataflow frontiers.
///
/// `live_in` lists producer nodes *outside* the slice whose values nodes
/// inside consume (`In(S)` in the paper, excluding parameters, which are
/// covered by the weight commitment instead). `live_out` lists nodes inside
/// the slice consumed outside it or declared as graph outputs (`Out(S)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Subgraph {
    /// Inclusive start index in the canonical order.
    pub start: usize,
    /// Exclusive end index.
    pub end: usize,
    /// External producer nodes feeding the slice (sorted ascending).
    pub live_in: Vec<NodeId>,
    /// Parameter names referenced inside the slice (sorted).
    pub param_refs: Vec<String>,
    /// Slice nodes visible outside (sorted ascending).
    pub live_out: Vec<NodeId>,
}

impl Subgraph {
    /// Number of operators in the slice.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for an empty slice (never produced by [`extract`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True when the slice is a single operator (dispute leaf).
    pub fn is_leaf(&self) -> bool {
        self.len() == 1
    }

    /// True if a node id falls inside the slice.
    pub fn contains(&self, id: NodeId) -> bool {
        (self.start..self.end).contains(&id.0)
    }
}

/// Computes the live-in/live-out frontiers of `[start, end)` by the linear
/// scan of §5.2.
///
/// # Errors
///
/// Returns [`GraphError::BadRange`] for an empty or out-of-bounds range.
pub fn extract(graph: &Graph, start: usize, end: usize) -> Result<Subgraph> {
    if start >= end || end > graph.len() {
        return Err(GraphError::BadRange {
            start,
            end,
            len: graph.len(),
        });
    }
    let mut live_in = Vec::new();
    let mut param_refs = Vec::new();
    for node in &graph.nodes()[start..end] {
        if let OpKind::Parameter(name) = &node.kind {
            param_refs.push(name.clone());
        }
        for &input in &node.inputs {
            if input.0 < start {
                // Parameters feeding the slice are covered by the weight
                // commitment, not by interface hashes.
                if let OpKind::Parameter(name) = &graph.node(input)?.kind {
                    param_refs.push(name.clone());
                } else if !live_in.contains(&input) {
                    live_in.push(input);
                }
            }
        }
    }
    // A slice node is visible outside iff its last use (pinned to the end
    // for graph outputs) lies at or beyond `end`.
    let last = graph.last_uses();
    let live_out = (start..end)
        .filter(|&i| last[i] >= end)
        .map(NodeId)
        .collect();
    live_in.sort();
    param_refs.sort();
    param_refs.dedup();
    Ok(Subgraph {
        start,
        end,
        live_in,
        param_refs,
        live_out,
    })
}

/// Splits `[start, end)` into `n` contiguous, near-equal, non-empty slices
/// (fewer when the range is shorter than `n`). This is the canonical
/// partition policy both parties compute deterministically.
pub fn partition(start: usize, end: usize, n: usize) -> Vec<(usize, usize)> {
    let len = end.saturating_sub(start);
    if len == 0 || n == 0 {
        return Vec::new();
    }
    let pieces = n.min(len);
    let base = len / pieces;
    let extra = len % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut cursor = start;
    for i in 0..pieces {
        let size = base + usize::from(i < extra);
        out.push((cursor, cursor + size));
        cursor += size;
    }
    out
}

/// Re-executes a subgraph slice given boundary values.
///
/// `boundary` holds node values indexed by node id (a committed trace, say);
/// only the slice's `live_in` entries are read. Graph inputs and parameters
/// are taken from `inputs` / the graph's state dict. Returns the values of
/// the slice's nodes in node order, `sub.start..sub.end`.
///
/// Each node is evaluated by the executor's own dispatch
/// ([`crate::eval_node`]) from a store the size of the slice, so a slice's
/// values depend only on its live-in values, the inputs, the parameters and
/// `cfg`. In particular, a slice `[s, e)` inside a re-executed range
/// `[p, q)` whose live-ins all precede `p` reads exactly what it reads when
/// re-executed alone: its values are the range's values at `s..e`, bit for
/// bit.
///
/// # Errors
///
/// Returns an error when a live-in value is missing from `boundary` or a
/// kernel fails.
pub fn execute_subgraph(
    graph: &Graph,
    sub: &Subgraph,
    boundary: &[Tensor<f32>],
    inputs: &[Tensor<f32>],
    cfg: &KernelConfig,
) -> Result<Vec<Tensor<f32>>> {
    let nodes = graph.nodes();
    let mut out: Vec<Tensor<f32>> = Vec::with_capacity(sub.len());
    let mut pool = BufferPool::new();
    for node in &nodes[sub.start..sub.end] {
        // A predecessor is a slice node, a parameter, or a live-in.
        let value = |id: NodeId| {
            if id.0 >= sub.start {
                out.get(id.0 - sub.start)
            } else if let Some(param) = graph.param_value(id) {
                Some(param)
            } else if sub.live_in.binary_search(&id).is_ok() {
                boundary.get(id.0)
            } else {
                None
            }
        };
        let v = eval_node_with(graph, node, value, inputs, cfg, &mut pool)?;
        out.push(v);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::exec::execute;

    fn chain() -> Graph {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::eye(2));
        let m = b.op("m", OpKind::MatMul, &[x, w]);
        let r = b.op("r", OpKind::Relu, &[m]);
        let s = b.op("s", OpKind::MulScalar(2.0), &[r]);
        b.finish(vec![s]).unwrap()
    }

    #[test]
    fn frontiers_of_middle_slice() {
        let g = chain();
        // Slice containing only relu (index 3).
        let sub = extract(&g, 3, 4).unwrap();
        assert_eq!(sub.live_in, vec![NodeId(2)]);
        assert_eq!(sub.live_out, vec![NodeId(3)]);
        assert!(sub.param_refs.is_empty());
        assert!(sub.is_leaf());
    }

    #[test]
    fn param_edges_become_param_refs() {
        let g = chain();
        // Slice containing only matmul (index 2): inputs are x (live-in)
        // and w (parameter ref).
        let sub = extract(&g, 2, 3).unwrap();
        assert_eq!(sub.live_in, vec![NodeId(0)]);
        assert_eq!(sub.param_refs, vec!["w".to_string()]);
    }

    #[test]
    fn whole_graph_slice() {
        let g = chain();
        let sub = extract(&g, 0, g.len()).unwrap();
        assert!(sub.live_in.is_empty());
        assert_eq!(sub.live_out, vec![NodeId(4)]);
    }

    #[test]
    fn bad_ranges_rejected() {
        let g = chain();
        assert!(extract(&g, 2, 2).is_err());
        assert!(extract(&g, 0, 99).is_err());
        assert!(extract(&g, 4, 3).is_err());
    }

    #[test]
    fn partition_near_equal() {
        assert_eq!(partition(0, 10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(partition(5, 6, 4), vec![(5, 6)]);
        assert_eq!(partition(0, 4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(partition(3, 3, 2).is_empty());
        assert!(partition(0, 5, 0).is_empty());
    }

    #[test]
    fn partition_covers_range_exactly() {
        for len in 1..40 {
            for n in 1..10 {
                let parts = partition(7, 7 + len, n);
                assert_eq!(parts.first().unwrap().0, 7);
                assert_eq!(parts.last().unwrap().1, 7 + len);
                for w in parts.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                    assert!(w[0].1 > w[0].0);
                }
            }
        }
    }

    #[test]
    fn subgraph_reexecution_matches_full_trace() {
        let g = chain();
        let input = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]).unwrap();
        let cfg = KernelConfig::reference();
        let full = execute(&g, std::slice::from_ref(&input), &cfg, None).unwrap();
        let sub = extract(&g, 2, 4).unwrap();
        let got = execute_subgraph(&g, &sub, &full.values, &[input], &cfg).unwrap();
        assert_eq!(got.len(), sub.len());
        for (v, want) in got.iter().zip(&full.values[2..4]) {
            assert_eq!(v.data(), want.data());
        }
    }

    #[test]
    fn a_child_reading_only_its_parents_live_ins_equals_the_parents_values() {
        // x → matmul → relu → neg, and x → ×2 → +1: in the slice [3, 7)
        // both children, [3, 5) and [5, 7), read only the slice's live-ins
        // (the matmul and x).
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::eye(2));
        let m = b.op("m", OpKind::MatMul, &[x, w]);
        let r = b.op("r", OpKind::Relu, &[m]);
        let n = b.op("n", OpKind::Neg, &[r]);
        let d = b.op("d", OpKind::MulScalar(2.0), &[x]);
        let a = b.op("a", OpKind::AddScalar(1.0), &[d]);
        let g = b.finish(vec![n, a]).unwrap();
        let input = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]).unwrap();
        let cfg = KernelConfig::reference();
        // A boundary that is not any device's trace: x itself is perturbed.
        let mut boundary = execute(&g, std::slice::from_ref(&input), &cfg, None)
            .unwrap()
            .values;
        boundary[0] = boundary[0].add_scalar(0.5);
        let run = |start, end| {
            let sub = extract(&g, start, end).unwrap();
            execute_subgraph(&g, &sub, &boundary, std::slice::from_ref(&input), &cfg).unwrap()
        };
        let parent = run(3, 7);
        for (s, e) in [(3, 5), (5, 7)] {
            assert!(extract(&g, s, e).unwrap().live_in.iter().all(|id| id.0 < 3));
            for (got, want) in run(s, e).iter().zip(&parent[s - 3..e - 3]) {
                assert_eq!(got.dims(), want.dims());
                let bits =
                    |t: &Tensor<f32>| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want));
            }
        }
    }

    #[test]
    fn missing_boundary_value_errors() {
        let g = chain();
        let sub = extract(&g, 3, 4).unwrap();
        let r = execute_subgraph(
            &g,
            &sub,
            &[],
            &[Tensor::zeros(&[2, 2])],
            &KernelConfig::reference(),
        );
        assert!(r.is_err());
    }
}
