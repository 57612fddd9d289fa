//! The operator-level dataflow graph.

use std::collections::BTreeMap;
use std::sync::Arc;

use tao_tensor::kernel::{PackedLhs, PackedRhs};
use tao_tensor::Tensor;

use crate::error::GraphError;
use crate::op::OpKind;
use crate::Result;

/// Identifier of a node in its graph's canonical topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// One operator node: kind plus data-dependency edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Position in the canonical topological order.
    pub id: NodeId,
    /// Human-readable name (`"layer0.attn.matmul"`).
    pub name: String,
    /// Operator kind with attributes.
    pub kind: OpKind,
    /// Producer nodes, in argument order.
    pub inputs: Vec<NodeId>,
}

/// An acyclic dataflow graph `G = (V, E)` in canonical topological order,
/// together with its parameter state dict.
///
/// Nodes are stored in execution order; every edge points backwards
/// (`input.0 < id.0`), which the constructor validates. The canonical order
/// is what the dispute game's partition policy and the calibration's
/// "normalized node position" refer to.
///
/// Clones share the derived tables; equality compares only what the graph
/// was built from (nodes, parameters, inputs, outputs).
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    params: BTreeMap<String, Tensor<f32>>,
    num_inputs: usize,
    outputs: Vec<NodeId>,
    // Derived in `new` (the graph is immutable afterwards).
    last_use: Vec<usize>,
    slots: Arc<ParamSlots>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.params == other.params
            && self.num_inputs == other.num_inputs
            && self.outputs == other.outputs
    }
}

/// A parameter node's value, plus its GEMM operand packed once for the
/// graph's lifetime when the parameter is a `Linear` or `Conv2d` weight.
struct ParamSlot {
    value: Tensor<f32>,
    pack: Option<WeightPack>,
}

enum WeightPack {
    /// A rank-2 `Linear` weight as the GEMM rhs.
    Linear(PackedRhs<f32>),
    /// A `Conv2d` weight's `[c_out, c_in*kh*kw]` rows as the GEMM lhs.
    Conv(PackedLhs<'static, f32>),
}

/// Node-indexed parameter slots (`None` for every other node).
struct ParamSlots(Vec<Option<ParamSlot>>);

impl core::fmt::Debug for ParamSlots {
    // Derived from the nodes and parameters the graph already prints.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ParamSlots").finish_non_exhaustive()
    }
}

impl ParamSlots {
    fn new(nodes: &[Node], params: &BTreeMap<String, Tensor<f32>>) -> Self {
        let mut slots: Vec<Option<ParamSlot>> = nodes
            .iter()
            .map(|node| match &node.kind {
                OpKind::Parameter(name) => params.get(name).map(|value| ParamSlot {
                    value: value.clone(),
                    pack: None,
                }),
                _ => None,
            })
            .collect();
        for node in nodes {
            let Some(Some(slot)) = node.inputs.get(1).map(|w| &mut slots[w.0]) else {
                continue;
            };
            if slot.pack.is_some() {
                continue;
            }
            let w = &slot.value;
            slot.pack = match (&node.kind, w.dims()) {
                (OpKind::Linear, &[out_f, in_f]) => Some(WeightPack::Linear(
                    PackedRhs::from_transposed(w.data(), out_f, in_f),
                )),
                (OpKind::Conv2d { .. }, &[c_out, _, _, _]) => Some(WeightPack::Conv(
                    PackedLhs::from_row_major(w.data(), c_out, w.len() / c_out.max(1)).into_owned(),
                )),
                _ => None,
            };
        }
        ParamSlots(slots)
    }

    /// Node `id`'s slot when `value` is that node's parameter tensor: the
    /// same buffer and the same dims (the `ParamDigests` rule). A perturbed,
    /// revealed or reshaped weight misses.
    fn hit(&self, id: NodeId, value: &Tensor<f32>) -> Option<&WeightPack> {
        let slot = self.0.get(id.0)?.as_ref()?;
        let same = value.shares_buffer(&slot.value) && value.dims() == slot.value.dims();
        same.then_some(slot.pack.as_ref()).flatten()
    }
}

impl Graph {
    /// Assembles and validates a graph.
    ///
    /// # Errors
    ///
    /// Returns an error when ids are not dense `0..n`, an edge points
    /// forward (cycle), a referenced parameter is missing from the state
    /// dict, or an output id is out of range.
    pub fn new(
        nodes: Vec<Node>,
        params: BTreeMap<String, Tensor<f32>>,
        num_inputs: usize,
        outputs: Vec<NodeId>,
    ) -> Result<Self> {
        for (i, node) in nodes.iter().enumerate() {
            if node.id.0 != i {
                return Err(GraphError::Malformed(format!(
                    "node {} stored at position {i}",
                    node.id
                )));
            }
            for &input in &node.inputs {
                if input.0 >= i {
                    return Err(GraphError::Malformed(format!(
                        "edge {input} -> {} violates topological order",
                        node.id
                    )));
                }
            }
            if let OpKind::Parameter(name) = &node.kind {
                if !params.contains_key(name) {
                    return Err(GraphError::MissingParameter(name.clone()));
                }
            }
            if let OpKind::Input(idx) = node.kind {
                if idx >= num_inputs {
                    return Err(GraphError::Malformed(format!(
                        "input placeholder {idx} but graph declares {num_inputs} inputs"
                    )));
                }
            }
        }
        for &out in &outputs {
            if out.0 >= nodes.len() {
                return Err(GraphError::Malformed(format!("output {out} out of range")));
            }
        }
        if outputs.is_empty() {
            return Err(GraphError::Malformed("graph has no outputs".into()));
        }
        let mut last_use: Vec<usize> = (0..nodes.len()).collect();
        for node in &nodes {
            for &input in &node.inputs {
                last_use[input.0] = node.id.0;
            }
        }
        for &out in &outputs {
            last_use[out.0] = usize::MAX;
        }
        let slots = Arc::new(ParamSlots::new(&nodes, &params));
        Ok(Graph {
            nodes,
            params,
            num_inputs,
            outputs,
            last_use,
            slots,
        })
    }

    /// Nodes in canonical topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node count `|V|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node by id.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.0).ok_or(GraphError::UnknownNode(id))
    }

    /// The parameter state dict (sorted by name).
    pub fn params(&self) -> &BTreeMap<String, Tensor<f32>> {
        &self.params
    }

    /// A parameter tensor by name.
    ///
    /// # Errors
    ///
    /// Returns an error when the name is absent.
    pub fn param(&self, name: &str) -> Result<&Tensor<f32>> {
        self.params
            .get(name)
            .ok_or_else(|| GraphError::MissingParameter(name.into()))
    }

    /// The value of parameter node `id`: the state dict's tensor, shared
    /// (an `Arc` clone), read from a node-indexed slot. `None` when `id` is
    /// not a parameter node.
    pub(crate) fn param_value(&self, id: NodeId) -> Option<&Tensor<f32>> {
        Some(&self.slots.0.get(id.0)?.as_ref()?.value)
    }

    /// The `Linear` weight of parameter node `id`, packed once when the
    /// graph was built, if `weight` is that node's own tensor (same buffer,
    /// same dims); `None` for any other tensor.
    pub fn linear_pack(&self, id: NodeId, weight: &Tensor<f32>) -> Option<&PackedRhs<f32>> {
        match self.slots.hit(id, weight)? {
            WeightPack::Linear(packed) => Some(packed),
            WeightPack::Conv(_) => None,
        }
    }

    /// The `Conv2d` weight of parameter node `id`, packed once when the
    /// graph was built, under the same identity rule as
    /// [`linear_pack`](Self::linear_pack).
    pub fn conv_pack(&self, id: NodeId, weight: &Tensor<f32>) -> Option<&PackedLhs<'_, f32>> {
        match self.slots.hit(id, weight)? {
            WeightPack::Conv(packed) => Some(packed),
            WeightPack::Linear(_) => None,
        }
    }

    /// Number of graph inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Output node ids.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Last node index at which each value is read (its own index when
    /// never read); graph outputs are pinned live to the end
    /// (`usize::MAX`). Computed once, when the graph is built.
    pub fn last_uses(&self) -> &[usize] {
        &self.last_use
    }

    /// Ids of all non-structural ("compute") nodes, in canonical order.
    ///
    /// These are the operators with intrinsic rounding error — the attack
    /// surface and the interesting rows of the calibration profiles.
    pub fn compute_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| !n.kind.is_structural())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all traced operators (everything except inputs and
    /// parameters), in canonical order.
    ///
    /// Calibration and the dispute game's selection rule range over these:
    /// structural operators contribute no *fresh* rounding error, but their
    /// outputs inherit upstream cross-device drift, so they still need
    /// calibrated thresholds for threshold-guided selection.
    pub fn traced_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| !matches!(n.kind, OpKind::Input(_) | OpKind::Parameter(_)))
            .map(|n| n.id)
            .collect()
    }

    /// Consumers of each node (inverse edges).
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                out[input.0].push(node.id);
            }
        }
        out
    }

    /// Total parameter element count.
    pub fn param_count(&self) -> usize {
        self.params.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let nodes = vec![
            Node {
                id: NodeId(0),
                name: "x".into(),
                kind: OpKind::Input(0),
                inputs: vec![],
            },
            Node {
                id: NodeId(1),
                name: "w".into(),
                kind: OpKind::Parameter("w".into()),
                inputs: vec![],
            },
            Node {
                id: NodeId(2),
                name: "y".into(),
                kind: OpKind::MatMul,
                inputs: vec![NodeId(0), NodeId(1)],
            },
        ];
        let mut params = BTreeMap::new();
        params.insert("w".to_string(), Tensor::<f32>::eye(2));
        Graph::new(nodes, params, 1, vec![NodeId(2)]).unwrap()
    }

    #[test]
    fn valid_graph_builds() {
        let g = tiny();
        assert_eq!(g.len(), 3);
        assert_eq!(g.outputs(), &[NodeId(2)]);
        assert_eq!(g.param_count(), 4);
        assert_eq!(g.compute_nodes(), vec![NodeId(2)]);
    }

    #[test]
    fn rejects_forward_edges() {
        let nodes = vec![
            Node {
                id: NodeId(0),
                name: "a".into(),
                kind: OpKind::Identity,
                inputs: vec![NodeId(1)],
            },
            Node {
                id: NodeId(1),
                name: "x".into(),
                kind: OpKind::Input(0),
                inputs: vec![],
            },
        ];
        assert!(Graph::new(nodes, BTreeMap::new(), 1, vec![NodeId(1)]).is_err());
    }

    #[test]
    fn rejects_missing_parameter() {
        let nodes = vec![Node {
            id: NodeId(0),
            name: "w".into(),
            kind: OpKind::Parameter("absent".into()),
            inputs: vec![],
        }];
        assert!(Graph::new(nodes, BTreeMap::new(), 0, vec![NodeId(0)]).is_err());
    }

    #[test]
    fn rejects_bad_ids_and_outputs() {
        let nodes = vec![Node {
            id: NodeId(5),
            name: "x".into(),
            kind: OpKind::Input(0),
            inputs: vec![],
        }];
        assert!(Graph::new(nodes, BTreeMap::new(), 1, vec![NodeId(0)]).is_err());
        let ok = vec![Node {
            id: NodeId(0),
            name: "x".into(),
            kind: OpKind::Input(0),
            inputs: vec![],
        }];
        assert!(Graph::new(ok.clone(), BTreeMap::new(), 1, vec![NodeId(9)]).is_err());
        assert!(Graph::new(ok, BTreeMap::new(), 1, vec![]).is_err());
    }

    #[test]
    fn rejects_out_of_range_input_placeholder() {
        let nodes = vec![Node {
            id: NodeId(0),
            name: "x".into(),
            kind: OpKind::Input(3),
            inputs: vec![],
        }];
        assert!(Graph::new(nodes, BTreeMap::new(), 1, vec![NodeId(0)]).is_err());
    }

    #[test]
    fn consumers_inverse_edges() {
        let g = tiny();
        let cons = g.consumers();
        assert_eq!(cons[0], vec![NodeId(2)]);
        assert_eq!(cons[1], vec![NodeId(2)]);
        assert!(cons[2].is_empty());
    }
}
