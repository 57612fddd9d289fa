//! The per-deployment dispute plan (§5.3).
//!
//! Everything a record carries except the proposer's trace is a pure
//! function of the committed graph and the partition width: the ranges the
//! bisection visits, each range's frontiers and parameter references, and
//! the graph- and weight-tree proofs. A [`DisputePlan`] computes all of it
//! once per (deployment, width), so a record adds only its trace reveals
//! and interface hashes ([`DisputePlan::record`]), and the challenger checks
//! a record's slice against its own plan instead of re-deriving it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use tao_graph::{extract, partition, Graph, NodeId, Subgraph};
use tao_merkle::{Digest, FastSha256, InclusionProof, MerkleTree, TraceCommitment};

use crate::error::ProtocolError;
use crate::record::SubgraphRecord;
use crate::Result;

/// One range of the bisection tree.
#[derive(Debug)]
pub(crate) struct PlannedRange {
    /// The range's slice with its frontiers ([`extract`]'s).
    pub(crate) sub: Subgraph,
    /// The weight-tree leaf of each of `sub.param_refs`, in order.
    pub(crate) param_leaves: Vec<usize>,
}

/// Every range the bisection tree of one partition width produces, with
/// its [`Subgraph`], plus one graph-tree proof per node and one
/// weight-tree proof per parameter.
///
/// Both parties build their plan from their own graph and trees, so a plan
/// moves no trust: the proposer's records read their slices and proofs
/// from it, and the challenger compares a record's slice with its own
/// plan's entry for the range.
#[derive(Debug)]
pub struct DisputePlan {
    n_way: usize,
    graph_root: Digest,
    weight_root: Digest,
    ranges: BTreeMap<(usize, usize), PlannedRange>,
    op_proofs: Vec<InclusionProof>,
    param_proofs: Vec<InclusionProof>,
}

impl DisputePlan {
    /// Plans the bisection of `graph` at width `n_way`: every range that
    /// recursive [`partition`] produces from `[0, graph.len())` (the whole
    /// graph itself is never a child, so it is not planned), with proofs
    /// from `graph_tree` and `weight_tree`, which must be built from
    /// `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadWidth`] when `n_way < 2`, and
    /// [`ProtocolError::PlanMismatch`] when the graph tree does not have
    /// one leaf per node or the weight tree one per parameter.
    pub fn build(
        graph: &Graph,
        graph_tree: &MerkleTree,
        weight_tree: &MerkleTree,
        n_way: usize,
    ) -> Result<Self> {
        if n_way < 2 {
            return Err(ProtocolError::BadWidth { n_way });
        }
        for (tree, leaves, expected) in [
            ("graph", graph_tree.len(), graph.len()),
            ("weight", weight_tree.len(), graph.params().len()),
        ] {
            if leaves != expected {
                return Err(ProtocolError::PlanMismatch {
                    tree,
                    leaves,
                    expected,
                });
            }
        }
        // Weight-tree leaves follow the state dict's sorted key order.
        let leaf_of: HashMap<&str, usize> = graph
            .params()
            .keys()
            .enumerate()
            .map(|(i, k)| (k.as_str(), i))
            .collect();
        let mut ranges = BTreeMap::new();
        let mut pending = vec![(0, graph.len())];
        while let Some((start, end)) = pending.pop() {
            if end - start <= 1 {
                continue;
            }
            for (s, e) in partition(start, end, n_way) {
                let sub = extract(graph, s, e)?;
                let param_leaves = sub
                    .param_refs
                    .iter()
                    .map(|name| {
                        leaf_of.get(name.as_str()).copied().ok_or_else(|| {
                            ProtocolError::BadRecord(format!("unknown parameter {name:?}"))
                        })
                    })
                    .collect::<Result<_>>()?;
                ranges.insert((s, e), PlannedRange { sub, param_leaves });
                pending.push((s, e));
            }
        }
        let proofs = |tree: &MerkleTree| -> Vec<InclusionProof> {
            (0..tree.len()).filter_map(|i| tree.prove(i)).collect()
        };
        Ok(DisputePlan {
            n_way,
            graph_root: graph_tree.root(),
            weight_root: weight_tree.root(),
            ranges,
            op_proofs: proofs(graph_tree),
            param_proofs: proofs(weight_tree),
        })
    }

    /// Number of planned ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the graph has fewer than two nodes, so nothing is ever
    /// partitioned.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The planned ranges `(start, end)`, in increasing order.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ranges.keys().copied()
    }

    /// The slice of the planned range `[start, end)`, if it is one.
    pub fn subgraph(&self, start: usize, end: usize) -> Option<&Subgraph> {
        self.ranges.get(&(start, end)).map(|r| &r.sub)
    }

    pub(crate) fn range(&self, start: usize, end: usize) -> Option<&PlannedRange> {
        self.ranges.get(&(start, end))
    }

    /// The record the proposer posts for the planned range `[start, end)`:
    /// the slice, op proofs and parameter proofs from the plan, and the
    /// interface hashes and reveals read from the proposer's trace
    /// commitment.
    ///
    /// Every live-in and live-out node the commitment covers is revealed
    /// with its digest and its opening into the trace tree, and the
    /// interface hashes are derived from exactly those digests. A node the
    /// commitment does not cover (there is none, or it is too short) is
    /// simply left unrevealed, so the anchored verification refuses the
    /// record as a missing reveal: attributable to the proposer, like any
    /// reveal that does not open against the trace root bound into `C0`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadRecord`] when the range is not planned.
    pub fn record(
        &self,
        (start, end): (usize, usize),
        commitment: Option<&TraceCommitment>,
    ) -> Result<SubgraphRecord> {
        let planned = self.range(start, end).ok_or_else(|| {
            ProtocolError::BadRecord(format!("[{start}, {end}) is not a planned range"))
        })?;
        let sub = &planned.sub;
        // The frontiers are sorted, duplicate-free and disjoint (live-ins
        // precede the slice, live-outs lie in it), so each node is revealed
        // once.
        let reveal = |id: &NodeId| {
            let c = commitment?;
            Some((id.0, *c.digest(id.0)?, c.tree().prove(id.0)?))
        };
        let list_hash = |reveals: &[(usize, Digest, InclusionProof)]| {
            let mut h = FastSha256::new();
            for (_, digest, _) in reveals {
                h.update(digest);
            }
            h.finalize()
        };
        let mut trace_reveals: Vec<_> = sub.live_in.iter().filter_map(reveal).collect();
        let live_in_hash = list_hash(&trace_reveals);
        let live_out: Vec<_> = sub.live_out.iter().filter_map(reveal).collect();
        let live_out_hash = list_hash(&live_out);
        trace_reveals.extend(live_out);
        Ok(SubgraphRecord {
            sub: sub.clone(),
            live_in_hash,
            live_out_hash,
            op_proofs: (start..end)
                .map(|i| (i, self.op_proofs[i].clone()))
                .collect(),
            param_proofs: sub
                .param_refs
                .iter()
                .zip(&planned.param_leaves)
                .map(|(name, &k)| (name.clone(), self.param_proofs[k].clone()))
                .collect(),
            trace_reveals,
        })
    }
}

/// A deployment's dispute plans, one per partition width, each built on
/// first use and then shared by every dispute over the deployment.
#[derive(Debug, Default)]
pub struct DisputePlans {
    plans: Mutex<Vec<Arc<DisputePlan>>>,
}

impl DisputePlans {
    /// The plan for width `n_way` over these trees, built from `graph` on
    /// first request. Concurrent first requests build it once.
    ///
    /// # Errors
    ///
    /// As [`DisputePlan::build`].
    pub(crate) fn get(
        &self,
        graph: &Graph,
        graph_tree: &MerkleTree,
        weight_tree: &MerkleTree,
        n_way: usize,
    ) -> Result<Arc<DisputePlan>> {
        let mut plans = self.plans.lock();
        let (graph_root, weight_root) = (graph_tree.root(), weight_tree.root());
        if let Some(plan) = plans.iter().find(|p| {
            p.n_way == n_way && p.graph_root == graph_root && p.weight_root == weight_root
        }) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(DisputePlan::build(graph, graph_tree, weight_tree, n_way)?);
        plans.push(Arc::clone(&plan));
        Ok(plan)
    }

    /// Number of plans built so far.
    pub fn len(&self) -> usize {
        self.plans.lock().len()
    }

    /// True before the first plan is built.
    pub fn is_empty(&self) -> bool {
        self.plans.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_graph::GraphBuilder;
    use tao_merkle::{graph_tree, weight_tree};
    use tao_tensor::Tensor;

    fn chain(depth: usize) -> Graph {
        let mut b = GraphBuilder::new(1);
        let mut cur = b.input(0, "x");
        for i in 0..depth {
            let w = b.parameter(
                format!("w{i}"),
                Tensor::<f32>::rand_uniform(&[4, 4], -1.0, 1.0, i as u64),
            );
            cur = b.op(format!("mm{i}"), tao_graph::OpKind::MatMul, &[cur, w]);
        }
        b.finish(vec![cur]).unwrap()
    }

    #[test]
    fn a_plan_over_a_foreign_tree_is_a_typed_error() {
        let (g, other) = (chain(3), chain(4));
        let (gt, wt) = (graph_tree(&g), weight_tree(&g));
        let (ogt, owt) = (graph_tree(&other), weight_tree(&other));
        assert_eq!(
            DisputePlan::build(&g, &ogt, &wt, 2).unwrap_err(),
            ProtocolError::PlanMismatch {
                tree: "graph",
                leaves: other.len(),
                expected: g.len(),
            }
        );
        assert_eq!(
            DisputePlan::build(&g, &gt, &owt, 2).unwrap_err(),
            ProtocolError::PlanMismatch {
                tree: "weight",
                leaves: 4,
                expected: 3,
            }
        );
        assert_eq!(
            DisputePlan::build(&g, &gt, &wt, 1).unwrap_err(),
            ProtocolError::BadWidth { n_way: 1 }
        );
    }

    #[test]
    fn plans_are_built_once_per_width() {
        let g = chain(3);
        let (gt, wt) = (graph_tree(&g), weight_tree(&g));
        let plans = DisputePlans::default();
        let a = plans.get(&g, &gt, &wt, 2).unwrap();
        let b = plans.get(&g, &gt, &wt, 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = plans.get(&g, &gt, &wt, 4).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(plans.len(), 2);
        // A full binary bisection of n leaves has 2n - 2 children.
        assert_eq!(a.len(), 2 * g.len() - 2);
        assert!(a.record((0, g.len()), None).is_err());
    }
}
