//! Subgraph records: the per-child commitments posted during dispute
//! rounds, with Merkle provenance proofs (§5.2).
//!
//! A record's slice and provenance proofs come from the deployment's
//! [`DisputePlan`]; its interface hashes (`h_In`/`h_Out`) and the reveals
//! that open them are read from the proposer's
//! [`TraceCommitment`](tao_merkle::TraceCommitment) (per-node tensor
//! digests computed once, at claim time), so no activation tensor is
//! hashed inside a dispute.

use std::collections::HashMap;

use tao_graph::{extract, Graph, NodeId, Subgraph};
use tao_merkle::{
    verify_graph_leaf, verify_inclusion, verify_weight_leaf, Digest, FastSha256, InclusionProof,
    MerkleTree,
};

use crate::dispute::DisputeAnchors;
use crate::error::ProtocolError;
use crate::plan::DisputePlan;
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

/// How a verifier checks each op and parameter proof.
enum LeafSource<'a> {
    /// Re-serialize the graph's node or parameter, hash it and hash the
    /// proof's path up to the committed root: the oracle.
    Rehash {
        graph: &'a Graph,
        graph_root: &'a Digest,
        weight_root: &'a Digest,
    },
    /// Compare the proof with the path of the verifier's own tree, built
    /// from the graph and checked to be on the committed root; the plan
    /// gives each parameter's leaf.
    Cached {
        graph_tree: &'a MerkleTree,
        weight_tree: &'a MerkleTree,
        param_leaves: &'a [usize],
    },
}

/// The trace reveals that opened against one trace root, so a repeat of
/// one is accepted without hashing its path again.
///
/// A dispute reveals the same frontier node in several rounds. An
/// identical proof of an identical digest opens identically, so a reveal
/// whose `(index, digest, proof)` equals one that already opened against
/// the same root is accepted as is; any other reveal is hashed. Verdicts
/// and reveal counts are the rehashing ones.
#[derive(Debug, Default)]
pub struct OpenedReveals {
    root: Option<Digest>,
    opened: HashMap<usize, (Digest, InclusionProof)>,
}

impl OpenedReveals {
    /// True when `proof` opens `digest` against `root`.
    fn opens(&mut self, root: &Digest, digest: &Digest, proof: &InclusionProof) -> bool {
        if self.root != Some(*root) {
            self.opened.clear();
            self.root = Some(*root);
        }
        if self
            .opened
            .get(&proof.index)
            .is_some_and(|(d, p)| d == digest && p == proof)
        {
            return true;
        }
        let opens = verify_inclusion(root, &digest[..], proof);
        if opens {
            self.opened.insert(proof.index, (*digest, proof.clone()));
        }
        opens
    }
}

/// Verifies a record against the committed roots by re-extracting its
/// slice and re-serializing and rehashing every proven leaf and reveal
/// (challenger side, no trees or plan needed). This is the oracle for
/// [`verify_record_anchored`]: both return the same counts or the same
/// error for any record of a planned range, under the same coverage and
/// reveal rules.
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
    check_coverage(record)?;
    let sub = &record.sub;
    if extract(graph, sub.start, sub.end).ok().as_ref() != Some(sub) {
        return Err(frontier_error(sub));
    }
    verify_with(
        trace_root,
        record,
        LeafSource::Rehash {
            graph,
            graph_root,
            weight_root,
        },
        None,
    )
}

/// Verifies a record against the dispute's anchors and the challenger's
/// own [`DisputePlan`] (challenger side): the record's slice is compared
/// with the plan's entry for its range, and every op and parameter proof
/// with the path of the challenger's own tree
/// ([`MerkleTree::matches_path`]), so nothing is extracted and no node
/// signature, parameter tensor or proof path is serialized or hashed. Only
/// the trace reveals are hashed, since the challenger does not hold the
/// proposer's trace tree, and a reveal already in `opened` is not hashed
/// again (see [`OpenedReveals`]).
///
/// The coverage rule: a record must prove exactly its slice. Its op
/// proofs are for `sub.start..sub.end` in order, its parameter proofs name
/// exactly `sub.param_refs`, and `sub` (frontiers included) equals the
/// plan's slice of its range (which is [`tao_graph::extract`]'s), because
/// the challenger screens and re-executes the child from those frontiers.
/// A range the plan lacks is refused like a slice with wrong frontiers:
/// the game never posts one.
///
/// The reveal rule: **every** live-in and live-out node must carry a
/// revealed digest that opens against the anchors' trace root (the one
/// bound into `C0`) via a Merkle path, and the record's interface hashes
/// must re-derive from exactly those revealed digests. A tampered or stale
/// digest cache therefore cannot steer the round. It fails here,
/// attributably.
///
/// Sound under the precondition documented on [`DisputeAnchors`]: the
/// trees and the plan are the verifier's own, built from one graph.
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
    anchors: &DisputeAnchors<'_>,
    plan: &DisputePlan,
    opened: &mut OpenedReveals,
    record: &SubgraphRecord,
) -> Result<(u64, u64)> {
    let trace_root = anchors.check()?;
    check_coverage(record)?;
    let sub = &record.sub;
    let planned = plan
        .range(sub.start, sub.end)
        .filter(|planned| planned.sub == *sub)
        .ok_or_else(|| frontier_error(sub))?;
    verify_with(
        trace_root,
        record,
        LeafSource::Cached {
            graph_tree: anchors.graph_tree,
            weight_tree: anchors.weight_tree,
            param_leaves: &planned.param_leaves,
        },
        Some(opened),
    )
}

/// The first half of the coverage rule, shared by both verifiers: op
/// proofs for exactly `sub.start..sub.end` in order, and parameter proofs
/// naming exactly `sub.param_refs`.
fn check_coverage(record: &SubgraphRecord) -> Result<()> {
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
    Ok(())
}

/// The second half of the coverage rule: a slice whose frontiers are not
/// the graph's (or, for the anchored verifier, not its plan's).
fn frontier_error(sub: &Subgraph) -> ProtocolError {
    ProtocolError::BadRecord(format!(
        "slice [{}, {}) does not carry the graph's frontiers",
        sub.start, sub.end
    ))
}

/// Checks the provenance proofs and reveals of a record whose slice has
/// passed the coverage rule.
fn verify_with(
    trace_root: &Digest,
    record: &SubgraphRecord,
    leaves: LeafSource<'_>,
    opened: Option<&mut OpenedReveals>,
) -> Result<(u64, u64)> {
    let mut checks = 0u64;
    for (idx, proof) in &record.op_proofs {
        checks += 1;
        let ok = match &leaves {
            LeafSource::Rehash {
                graph, graph_root, ..
            } => verify_graph_leaf(graph_root, graph.node(NodeId(*idx))?, proof),
            LeafSource::Cached { graph_tree, .. } => graph_tree.matches_path(*idx, proof),
        };
        if !ok {
            return Err(ProtocolError::BadRecord(format!(
                "graph proof for node {idx} invalid"
            )));
        }
    }
    for (i, (name, proof)) in record.param_proofs.iter().enumerate() {
        checks += 1;
        let ok = match &leaves {
            LeafSource::Rehash {
                graph, weight_root, ..
            } => verify_weight_leaf(weight_root, name, graph.param(name)?, proof),
            LeafSource::Cached {
                weight_tree,
                param_leaves,
                ..
            } => weight_tree.matches_path(param_leaves[i], proof),
        };
        if !ok {
            return Err(ProtocolError::BadRecord(format!(
                "weight proof for {name:?} invalid"
            )));
        }
    }
    Ok((checks, verify_reveals(trace_root, record, opened)?))
}

/// The reveal rule shared by both verifiers; returns the reveal count.
/// Without `opened` every reveal's path is hashed.
fn verify_reveals(
    root: &Digest,
    record: &SubgraphRecord,
    mut opened: Option<&mut OpenedReveals>,
) -> Result<u64> {
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
            let opens = proof.index == id.0
                && match opened.as_deref_mut() {
                    Some(memo) => memo.opens(root, digest, proof),
                    None => verify_inclusion(root, &digest[..], proof),
                };
            if !opens {
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
    use crate::plan::DisputePlans;
    use tao_graph::{execute, Execution, GraphBuilder, OpKind};
    use tao_merkle::{graph_tree as build_gt, weight_tree as build_wt, TraceCommitment};
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

    /// The N = 2 plan of the 5-node graph: `[0, 3)` and `[3, 5)`, then
    /// `[0, 2)`, `[2, 3)`, `[3, 4)`, `[4, 5)`, `[0, 1)` and `[1, 2)`.
    fn plan(g: &Graph, gt: &MerkleTree, wt: &MerkleTree) -> DisputePlan {
        DisputePlan::build(g, gt, wt, 2).unwrap()
    }

    /// The record the proposer of `trace` posts for `range`.
    fn record(
        g: &Graph,
        gt: &MerkleTree,
        wt: &MerkleTree,
        range: (usize, usize),
        trace: &Execution,
    ) -> SubgraphRecord {
        let commitment = TraceCommitment::build(&trace.values);
        plan(g, gt, wt).record(range, Some(&commitment)).unwrap()
    }

    fn trace_root(exec: &Execution) -> Digest {
        TraceCommitment::build(&exec.values).root()
    }

    #[test]
    fn record_roundtrip_verifies() {
        let (g, exec, gt, wt) = setup();
        let rec = record(&g, &gt, &wt, (3, 5), &exec);
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
        let rec = record(&g, &gt, &wt, (3, 5), &exec);
        let mut bad_root = gt.root();
        bad_root[0] ^= 0xff;
        assert!(verify_record(&g, &bad_root, &wt.root(), &trace_root(&exec), &rec).is_err());
    }

    #[test]
    fn tampered_proof_rejected() {
        let (g, exec, gt, wt) = setup();
        let mut rec = record(&g, &gt, &wt, (3, 5), &exec);
        rec.op_proofs[0].0 = 0; // Claim the slice starts at a different op.
        assert!(verify_record(&g, &gt.root(), &wt.root(), &trace_root(&exec), &rec).is_err());
    }

    #[test]
    fn committed_records_reveal_every_frontier_digest() {
        let (g, exec, gt, wt) = setup();
        let plan = plan(&g, &gt, &wt);
        let sub = plan.subgraph(3, 5).unwrap();
        let commitment = TraceCommitment::build(&exec.values);
        let rec = plan.record((3, 5), Some(&commitment)).unwrap();
        assert_eq!(
            rec.trace_reveals.len(),
            sub.live_in.len() + sub.live_out.len()
        );
        let root = commitment.root();
        let (gr, wr) = (gt.root(), wt.root());
        let plans = DisputePlans::default();
        let anchors = DisputeAnchors {
            graph_tree: &gt,
            weight_tree: &wt,
            graph_root: &gr,
            weight_root: &wr,
            trace_root: Some(&root),
            plans: &plans,
        };
        let mut opened = OpenedReveals::default();
        let (_, reveal_checks) =
            verify_record_anchored(&anchors, &plan, &mut opened, &rec).unwrap();
        assert_eq!(reveal_checks as usize, rec.trace_reveals.len());
        // A second check reads every reveal from `opened`, to the same
        // verdict as the oracle.
        assert_eq!(
            verify_record(&g, &gr, &wr, &root, &rec),
            verify_record_anchored(&anchors, &plan, &mut opened, &rec)
        );
        // Without a commitment nothing is revealed, so the record is
        // refused: the reveals are mandatory.
        let bare = plan.record((3, 5), None).unwrap();
        assert!(bare.trace_reveals.is_empty());
        assert!(matches!(
            verify_record_anchored(&anchors, &plan, &mut opened, &bare),
            Err(ProtocolError::RevealMismatch { .. })
        ));
        // A tampered revealed digest fails to open against the root, also
        // after its untampered reveal opened.
        let mut tampered = rec.clone();
        tampered.trace_reveals[0].1[0] ^= 0x01;
        assert!(matches!(
            verify_record_anchored(&anchors, &plan, &mut opened, &tampered),
            Err(ProtocolError::RevealMismatch { .. })
        ));
        // Anchors without a trace root verify nothing.
        let unanchored = DisputeAnchors {
            trace_root: None,
            ..anchors
        };
        assert_eq!(
            verify_record_anchored(&unanchored, &plan, &mut opened, &rec),
            Err(ProtocolError::Unanchored)
        );
    }

    #[test]
    fn anchored_verification_refuses_a_tree_off_its_root() {
        let (g, exec, gt, wt) = setup();
        let rec = record(&g, &gt, &wt, (3, 5), &exec);
        let (gr, mut wr, root) = (gt.root(), wt.root(), trace_root(&exec));
        wr[0] ^= 0x01;
        let plans = DisputePlans::default();
        let anchors = DisputeAnchors {
            graph_tree: &gt,
            weight_tree: &wt,
            graph_root: &gr,
            weight_root: &wr,
            trace_root: Some(&root),
            plans: &plans,
        };
        assert_eq!(
            verify_record_anchored(
                &anchors,
                &plan(&g, &gt, &wt),
                &mut OpenedReveals::default(),
                &rec
            ),
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
