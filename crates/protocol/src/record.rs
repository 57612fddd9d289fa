//! Subgraph records: the per-child commitments posted during dispute
//! rounds, with Merkle provenance proofs (§5.2).
//!
//! A record's interface hashes (`h_In`/`h_Out`) and the reveals that open
//! them are read from the proposer's [`TraceCommitment`] (per-node tensor
//! digests computed once, at claim time), so no activation tensor is
//! hashed inside a dispute.

use std::collections::HashMap;

use tao_graph::{extract, Graph, NodeId, Subgraph};
use tao_merkle::{
    verify_graph_leaf, verify_inclusion, verify_weight_leaf, Digest, FastSha256, InclusionProof,
    MerkleTree, TraceCommitment,
};

use crate::dispute::DisputeAnchors;
use crate::error::ProtocolError;
use crate::Result;

/// A posted subgraph record: slice indices, interface hashes, and
/// inclusion proofs binding the slice to the committed graph and weights.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphRecord {
    /// The slice with its frontiers.
    pub sub: Subgraph,
    /// `h_In`: hash of the live-in digest list (proposer's values).
    pub live_in_hash: Digest,
    /// `h_Out`: hash of the live-out digest list (proposer's values).
    pub live_out_hash: Digest,
    /// Inclusion proofs into the graph tree for every node in the slice.
    pub op_proofs: Vec<(usize, InclusionProof)>,
    /// Inclusion proofs into the weight tree for referenced parameters,
    /// keyed by `(name, leaf index)`.
    pub param_proofs: Vec<(String, InclusionProof)>,
    /// Revealed interface digests `(node id, digest, proof)` opening each
    /// live-in/live-out node's digest against the trace root bound into
    /// `C0`. Every frontier node must be revealed: verification refuses a
    /// record that leaves one out.
    pub trace_reveals: Vec<(usize, Digest, InclusionProof)>,
}

impl SubgraphRecord {
    /// Approximate posted size in bytes (for gas calldata accounting).
    pub fn byte_size(&self) -> usize {
        let proofs: usize = self
            .op_proofs
            .iter()
            .map(|(_, p)| 8 + p.siblings.len() * 33)
            .chain(
                self.param_proofs
                    .iter()
                    .map(|(n, p)| n.len() + 8 + p.siblings.len() * 33),
            )
            .chain(
                self.trace_reveals
                    .iter()
                    .map(|(_, _, p)| 8 + 32 + 8 + p.siblings.len() * 33),
            )
            .sum();
        16 + 64 + proofs
    }
}

/// Leaf position of every parameter name in the weight tree (the state
/// dict's sorted key order). Built once per dispute and shared by record
/// construction and verification.
#[derive(Debug, Clone)]
pub struct ParamIndex<'g> {
    positions: HashMap<&'g str, usize>,
}

impl<'g> ParamIndex<'g> {
    /// Indexes `graph`'s parameters in weight-tree leaf order.
    pub fn new(graph: &'g Graph) -> Self {
        ParamIndex {
            positions: graph
                .params()
                .keys()
                .enumerate()
                .map(|(i, k)| (k.as_str(), i))
                .collect(),
        }
    }

    /// The weight-tree leaf index of parameter `name`.
    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.positions.get(name).copied()
    }
}

/// Builds a record for a slice (proposer side): op and parameter proofs
/// from the anchor trees, with parameter leaves located through `params`,
/// and the interface hashes and reveals read from the proposer's trace
/// commitment.
///
/// Every live-in and live-out node the commitment covers is revealed with
/// its digest and its opening into the trace tree, and the interface
/// hashes are derived from exactly those digests. A node the commitment
/// does not cover (there is none, or it is too short) is simply left
/// unrevealed, so the anchored verification refuses the record as a
/// missing reveal: attributable to the proposer, like any reveal that does
/// not open against the trace root bound into `C0`.
///
/// # Errors
///
/// Returns an error when a proof index is out of range.
pub fn make_record_with(
    graph_tree: &MerkleTree,
    weight_tree: &MerkleTree,
    params: &ParamIndex<'_>,
    sub: &Subgraph,
    commitment: Option<&TraceCommitment>,
) -> Result<SubgraphRecord> {
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
    let mut op_proofs = Vec::with_capacity(sub.len());
    for idx in sub.start..sub.end {
        let proof = graph_tree
            .prove(idx)
            .ok_or_else(|| ProtocolError::BadRecord(format!("no graph leaf {idx}")))?;
        op_proofs.push((idx, proof));
    }
    let mut param_proofs = Vec::new();
    for name in &sub.param_refs {
        let leaf_index = params
            .get(name)
            .ok_or_else(|| ProtocolError::BadRecord(format!("unknown parameter {name:?}")))?;
        let proof = weight_tree
            .prove(leaf_index)
            .ok_or_else(|| ProtocolError::BadRecord(format!("no weight leaf {leaf_index}")))?;
        param_proofs.push((name.clone(), proof));
    }
    Ok(SubgraphRecord {
        sub: sub.clone(),
        live_in_hash,
        live_out_hash,
        op_proofs,
        param_proofs,
        trace_reveals,
    })
}

/// How a verifier checks each op and parameter proof.
enum LeafSource<'a> {
    /// Re-serialize the graph's node or parameter, hash it and hash the
    /// proof's path up to the committed root: the oracle.
    Rehash,
    /// Compare the proof with the path of the verifier's own tree, built
    /// from the graph and checked to be on the committed root.
    Cached {
        graph_tree: &'a MerkleTree,
        weight_tree: &'a MerkleTree,
        params: &'a ParamIndex<'a>,
    },
}

/// Verifies a record against the committed roots by re-serializing and
/// rehashing every proven leaf (challenger side, no trees needed). This is
/// the oracle for [`verify_record_anchored`]: both return the same counts
/// or the same error for any record, under the same coverage and reveal
/// rules.
///
/// Returns `(merkle_checks, reveal_checks)`.
///
/// # Errors
///
/// As [`verify_record_anchored`], except [`ProtocolError::AnchorMismatch`]
/// and [`ProtocolError::Unanchored`]: there are no trees to check, and the
/// trace root is given.
pub fn verify_record(
    graph: &Graph,
    graph_root: &Digest,
    weight_root: &Digest,
    trace_root: &Digest,
    record: &SubgraphRecord,
) -> Result<(u64, u64)> {
    verify_with(
        graph,
        graph_root,
        weight_root,
        trace_root,
        record,
        LeafSource::Rehash,
    )
}

/// Verifies a record against the dispute's anchors (challenger side):
/// every op and parameter proof is compared with the path of the
/// challenger's own tree ([`MerkleTree::matches_path`]), so no node
/// signature, parameter tensor or proof path is serialized or hashed. Only
/// the trace reveals are hashed: the challenger does not hold the
/// proposer's trace tree.
///
/// The coverage rule: a record must prove exactly its slice. Its op
/// proofs are for `sub.start..sub.end` in order, its parameter proofs name
/// exactly `sub.param_refs`, and `sub` (frontiers included) equals
/// [`extract`] of its range, because the challenger screens and
/// re-executes the child from those frontiers.
///
/// The reveal rule: **every** live-in and live-out node must carry a
/// revealed digest that opens against the anchors' trace root (the one
/// bound into `C0`) via a Merkle path, and the record's interface hashes
/// must re-derive from exactly those revealed digests. A tampered or stale
/// digest cache therefore cannot steer the round. It fails here,
/// attributably.
///
/// Sound under the precondition documented on [`DisputeAnchors`]: the
/// trees are the verifier's own, built from `graph`.
///
/// Returns `(merkle_checks, reveal_checks)`.
///
/// # Errors
///
/// Returns [`ProtocolError::AnchorMismatch`] when a tree's root differs
/// from its committed root, [`ProtocolError::Unanchored`] when the anchors
/// carry no trace root, [`ProtocolError::BadRecord`] when the record
/// breaks the coverage rule or any provenance proof fails, and
/// [`ProtocolError::RevealMismatch`] (naming
/// the first offending node) on a missing, mis-indexed, or non-opening
/// reveal, or interface hashes that do not re-derive from the revealed
/// digests.
pub fn verify_record_anchored(
    graph: &Graph,
    anchors: &DisputeAnchors<'_>,
    params: &ParamIndex<'_>,
    record: &SubgraphRecord,
) -> Result<(u64, u64)> {
    let trace_root = anchors.check()?;
    verify_with(
        graph,
        anchors.graph_root,
        anchors.weight_root,
        trace_root,
        record,
        LeafSource::Cached {
            graph_tree: anchors.graph_tree,
            weight_tree: anchors.weight_tree,
            params,
        },
    )
}

fn verify_with(
    graph: &Graph,
    graph_root: &Digest,
    weight_root: &Digest,
    trace_root: &Digest,
    record: &SubgraphRecord,
    leaves: LeafSource<'_>,
) -> Result<(u64, u64)> {
    let sub = &record.sub;
    if !record
        .op_proofs
        .iter()
        .map(|(i, _)| *i)
        .eq(sub.start..sub.end)
    {
        return Err(ProtocolError::BadRecord(format!(
            "op proofs do not cover [{}, {}) in order",
            sub.start, sub.end
        )));
    }
    if !record
        .param_proofs
        .iter()
        .map(|(n, _)| n)
        .eq(&sub.param_refs)
    {
        return Err(ProtocolError::BadRecord(
            "parameter proofs do not name exactly the slice's parameters".into(),
        ));
    }
    if extract(graph, sub.start, sub.end).ok().as_ref() != Some(sub) {
        return Err(ProtocolError::BadRecord(format!(
            "slice [{}, {}) does not carry the graph's frontiers",
            sub.start, sub.end
        )));
    }
    let mut checks = 0u64;
    for (idx, proof) in &record.op_proofs {
        checks += 1;
        let ok = match &leaves {
            LeafSource::Rehash => verify_graph_leaf(graph_root, graph.node(NodeId(*idx))?, proof),
            LeafSource::Cached { graph_tree, .. } => graph_tree.matches_path(*idx, proof),
        };
        if !ok {
            return Err(ProtocolError::BadRecord(format!(
                "graph proof for node {idx} invalid"
            )));
        }
    }
    for (name, proof) in &record.param_proofs {
        checks += 1;
        let ok = match &leaves {
            LeafSource::Rehash => verify_weight_leaf(weight_root, name, graph.param(name)?, proof),
            LeafSource::Cached {
                weight_tree,
                params,
                ..
            } => params
                .get(name)
                .is_some_and(|k| weight_tree.matches_path(k, proof)),
        };
        if !ok {
            return Err(ProtocolError::BadRecord(format!(
                "weight proof for {name:?} invalid"
            )));
        }
    }
    Ok((checks, verify_reveals(trace_root, record)?))
}

/// The reveal rule shared by both verifiers; returns the reveal count.
fn verify_reveals(root: &Digest, record: &SubgraphRecord) -> Result<u64> {
    let revealed: HashMap<usize, (&Digest, &InclusionProof)> = record
        .trace_reveals
        .iter()
        .map(|(id, d, p)| (*id, (d, p)))
        .collect();
    let mut reveal_checks = 0u64;
    for (ids, want, side) in [
        (&record.sub.live_in, &record.live_in_hash, "live-in"),
        (&record.sub.live_out, &record.live_out_hash, "live-out"),
    ] {
        let mut h = FastSha256::new();
        for &id in ids.iter() {
            let (digest, proof) =
                revealed
                    .get(&id.0)
                    .ok_or_else(|| ProtocolError::RevealMismatch {
                        node: id,
                        detail: format!("{side} digest never revealed"),
                    })?;
            reveal_checks += 1;
            if proof.index != id.0 || !verify_inclusion(root, &digest[..], proof) {
                return Err(ProtocolError::RevealMismatch {
                    node: id,
                    detail: format!("{side} reveal does not open against the committed root"),
                });
            }
            h.update(&digest[..]);
        }
        if h.finalize() != *want {
            return Err(ProtocolError::RevealMismatch {
                node: *ids.first().unwrap_or(&NodeId(record.sub.start)),
                detail: format!("{side} hash does not re-derive from the revealed digests"),
            });
        }
    }
    Ok(reveal_checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_graph::{execute, extract, Execution, GraphBuilder, OpKind};
    use tao_merkle::{graph_tree as build_gt, weight_tree as build_wt};
    use tao_tensor::{KernelConfig, Tensor};

    fn setup() -> (Graph, Execution, MerkleTree, MerkleTree) {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[4, 4], -1.0, 1.0, 1));
        let m = b.op("m", OpKind::MatMul, &[x, w]);
        let r = b.op("r", OpKind::Relu, &[m]);
        let s = b.op("s", OpKind::Softmax, &[r]);
        let g = b.finish(vec![s]).unwrap();
        let input = Tensor::<f32>::rand_uniform(&[2, 4], -1.0, 1.0, 2);
        let exec = execute(&g, &[input], &KernelConfig::reference(), None).unwrap();
        let gt = build_gt(&g);
        let wt = build_wt(&g);
        (g, exec, gt, wt)
    }

    /// The record the proposer of `trace` posts for `[start, end)`.
    fn record(
        g: &Graph,
        gt: &MerkleTree,
        wt: &MerkleTree,
        (start, end): (usize, usize),
        trace: &Execution,
    ) -> SubgraphRecord {
        let sub = extract(g, start, end).unwrap();
        let commitment = TraceCommitment::build(&trace.values);
        make_record_with(gt, wt, &ParamIndex::new(g), &sub, Some(&commitment)).unwrap()
    }

    fn trace_root(exec: &Execution) -> Digest {
        TraceCommitment::build(&exec.values).root()
    }

    #[test]
    fn record_roundtrip_verifies() {
        let (g, exec, gt, wt) = setup();
        let rec = record(&g, &gt, &wt, (2, 4), &exec);
        let (checks, reveals) =
            verify_record(&g, &gt.root(), &wt.root(), &trace_root(&exec), &rec).unwrap();
        assert_eq!(reveals as usize, rec.trace_reveals.len());
        assert_eq!(
            checks as usize,
            rec.op_proofs.len() + rec.param_proofs.len()
        );
        assert!(rec.byte_size() > 80);
    }

    #[test]
    fn record_with_param_refs() {
        let (g, exec, gt, wt) = setup();
        // Slice containing only the matmul references parameter "w".
        let rec = record(&g, &gt, &wt, (2, 3), &exec);
        assert_eq!(rec.param_proofs.len(), 1);
        assert!(verify_record(&g, &gt.root(), &wt.root(), &trace_root(&exec), &rec).is_ok());
    }

    #[test]
    fn tampered_root_rejected() {
        let (g, exec, gt, wt) = setup();
        let rec = record(&g, &gt, &wt, (2, 4), &exec);
        let mut bad_root = gt.root();
        bad_root[0] ^= 0xff;
        assert!(verify_record(&g, &bad_root, &wt.root(), &trace_root(&exec), &rec).is_err());
    }

    #[test]
    fn tampered_proof_rejected() {
        let (g, exec, gt, wt) = setup();
        let mut rec = record(&g, &gt, &wt, (2, 4), &exec);
        rec.op_proofs[0].0 = 0; // Claim the slice starts at a different op.
        assert!(verify_record(&g, &gt.root(), &wt.root(), &trace_root(&exec), &rec).is_err());
    }

    #[test]
    fn committed_records_reveal_every_frontier_digest() {
        let (g, exec, gt, wt) = setup();
        let sub = extract(&g, 2, 4).unwrap();
        let commitment = TraceCommitment::build(&exec.values);
        let params = ParamIndex::new(&g);
        let rec = make_record_with(&gt, &wt, &params, &sub, Some(&commitment)).unwrap();
        assert_eq!(
            rec.trace_reveals.len(),
            sub.live_in.len() + sub.live_out.len()
        );
        let root = commitment.root();
        let (gr, wr) = (gt.root(), wt.root());
        let anchors = DisputeAnchors {
            graph_tree: &gt,
            weight_tree: &wt,
            graph_root: &gr,
            weight_root: &wr,
            trace_root: Some(&root),
        };
        let (_, reveal_checks) = verify_record_anchored(&g, &anchors, &params, &rec).unwrap();
        assert_eq!(reveal_checks as usize, rec.trace_reveals.len());
        assert_eq!(
            verify_record(&g, &gr, &wr, &root, &rec),
            verify_record_anchored(&g, &anchors, &params, &rec)
        );
        // Without a commitment nothing is revealed, so the record is
        // refused: the reveals are mandatory.
        let bare = make_record_with(&gt, &wt, &params, &sub, None).unwrap();
        assert!(bare.trace_reveals.is_empty());
        assert!(matches!(
            verify_record_anchored(&g, &anchors, &params, &bare),
            Err(ProtocolError::RevealMismatch { .. })
        ));
        // A tampered revealed digest fails to open against the root.
        let mut tampered = rec.clone();
        tampered.trace_reveals[0].1[0] ^= 0x01;
        assert!(matches!(
            verify_record_anchored(&g, &anchors, &params, &tampered),
            Err(ProtocolError::RevealMismatch { .. })
        ));
        // Anchors without a trace root verify nothing.
        let unanchored = DisputeAnchors {
            trace_root: None,
            ..anchors
        };
        assert_eq!(
            verify_record_anchored(&g, &unanchored, &params, &rec),
            Err(ProtocolError::Unanchored)
        );
    }

    #[test]
    fn anchored_verification_refuses_a_tree_off_its_root() {
        let (g, exec, gt, wt) = setup();
        let rec = record(&g, &gt, &wt, (2, 4), &exec);
        let params = ParamIndex::new(&g);
        let (gr, mut wr, root) = (gt.root(), wt.root(), trace_root(&exec));
        wr[0] ^= 0x01;
        let anchors = DisputeAnchors {
            graph_tree: &gt,
            weight_tree: &wt,
            graph_root: &gr,
            weight_root: &wr,
            trace_root: Some(&root),
        };
        assert_eq!(
            verify_record_anchored(&g, &anchors, &params, &rec),
            Err(ProtocolError::AnchorMismatch { tree: "weight" })
        );
    }

    #[test]
    fn interface_hashes_bind_values() {
        let (g, exec, gt, wt) = setup();
        let rec = record(&g, &gt, &wt, (3, 4), &exec);
        // A perturbed trace yields a different live-out hash.
        let mut perturbed = exec.clone();
        perturbed.values[3].data_mut()[0] += 0.1;
        let rec2 = record(&g, &gt, &wt, (3, 4), &perturbed);
        assert_ne!(rec.live_out_hash, rec2.live_out_hash);
        assert_eq!(rec.live_in_hash, rec2.live_in_hash);
    }
}
