//! Subgraph records: the per-child commitments posted during dispute
//! rounds, with Merkle provenance proofs (§5.2).
//!
//! Interface hashes (`h_In`/`h_Out`) are derived through a
//! [`TraceDigestCache`]: when the trace carries a
//! [`TraceCommitment`] (per-node tensor digests computed once, at claim
//! time), every round's child commitments re-derive from
//! the cached digests and **zero** activation tensors are rehashed inside
//! the dispute. Without one, the cache memoizes each node's digest across
//! rounds and reports how many leaf hashes it had to compute
//! ([`TraceDigestCache::rehashed_leaves`], surfaced as
//! `DisputeOutcome::rehashed_leaves`).

use std::collections::HashMap;

use tao_graph::{extract, Execution, Graph, NodeId, Subgraph};
use tao_merkle::{
    tensor_hash, verify_graph_leaf, verify_inclusion, verify_weight_leaf, Digest, FastSha256,
    InclusionProof, MerkleTree, TraceCommitment,
};

use crate::dispute::DisputeAnchors;
use crate::error::ProtocolError;
use crate::Result;

/// Per-node tensor digests of one execution trace, backed by a
/// [`TraceCommitment`] when one was supplied and a lazy memo otherwise.
#[derive(Debug)]
pub struct TraceDigestCache<'a> {
    committed: Option<&'a TraceCommitment>,
    lazy: HashMap<usize, Digest>,
    rehashed: u64,
}

impl<'a> TraceDigestCache<'a> {
    /// A cache over `committed` digests (zero rehashing when `Some`).
    pub fn new(committed: Option<&'a TraceCommitment>) -> Self {
        TraceDigestCache {
            committed,
            lazy: HashMap::new(),
            rehashed: 0,
        }
    }

    /// The digest of node `id`'s value in `trace`, from the commitment
    /// when available, the memo otherwise, hashing the tensor only on a
    /// first miss.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range node id.
    pub fn digest(&mut self, trace: &Execution, id: NodeId) -> Result<Digest> {
        if let Some(c) = self.committed {
            if let Some(d) = c.digest(id.0) {
                return Ok(*d);
            }
        }
        if let Some(d) = self.lazy.get(&id.0) {
            return Ok(*d);
        }
        let d = tensor_hash(trace.value(id)?);
        self.rehashed += 1;
        self.lazy.insert(id.0, d);
        Ok(d)
    }

    /// Hash of the ordered value list `H(Σ H(canon(z)))` — identical to
    /// [`tao_merkle::tensor_list_hash`] over the same tensors, but built
    /// from the cached digests.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range node id.
    pub fn list_hash(&mut self, trace: &Execution, ids: &[NodeId]) -> Result<Digest> {
        let mut h = FastSha256::new();
        for &id in ids {
            h.update(&self.digest(trace, id)?);
        }
        Ok(h.finalize())
    }

    /// How many tensor leaf hashes this cache computed (0 when every
    /// lookup was served by the supplied [`TraceCommitment`]).
    pub fn rehashed_leaves(&self) -> u64 {
        self.rehashed
    }

    /// The backing commitment, when one was supplied.
    pub fn committed(&self) -> Option<&'a TraceCommitment> {
        self.committed
    }

    /// Inclusion proof for node `id`'s digest into the backing
    /// commitment's trace tree (`None` without a commitment or out of
    /// range). This is what lets a record's interface digests be *opened*
    /// against the trace root bound into `C0`.
    pub fn prove(&self, id: NodeId) -> Option<InclusionProof> {
        self.committed.and_then(|c| c.tree().prove(id.0))
    }
}

/// A posted subgraph record: slice indices, interface hashes, and
/// inclusion proofs binding the slice to the committed graph and weights.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphRecord {
    /// The slice with its frontiers.
    pub sub: Subgraph,
    /// `h_In`: hash of the live-in tensor list (proposer's values).
    pub live_in_hash: Digest,
    /// `h_Out`: hash of the live-out tensor list (proposer's values).
    pub live_out_hash: Digest,
    /// Inclusion proofs into the graph tree for every node in the slice.
    pub op_proofs: Vec<(usize, InclusionProof)>,
    /// Inclusion proofs into the weight tree for referenced parameters,
    /// keyed by `(name, leaf index)`.
    pub param_proofs: Vec<(String, InclusionProof)>,
    /// Revealed interface digests `(node id, digest, proof)` opening each
    /// live-in/live-out node's digest against the trace root bound into
    /// `C0`. Empty when the proposer's trace carries no commitment (then
    /// an anchored verification must fail — the reveals are mandatory
    /// whenever a trace root was committed).
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

/// Builds a record for a slice from the proposer's trace (proposer side),
/// rehashing both interface tensor lists from scratch. Convenience wrapper
/// over [`make_record_with`] with a fresh digest cache.
///
/// # Errors
///
/// Returns an error when a proof index is out of range.
pub fn make_record(
    graph: &Graph,
    graph_tree: &MerkleTree,
    weight_tree: &MerkleTree,
    sub: &Subgraph,
    trace: &Execution,
) -> Result<SubgraphRecord> {
    let mut cache = TraceDigestCache::new(None);
    let params = ParamIndex::new(graph);
    make_record_with(graph_tree, weight_tree, &params, sub, trace, &mut cache)
}

/// Builds a record for a slice, deriving the interface hashes from the
/// digest cache (zero tensor rehashing when the cache is backed by a
/// [`TraceCommitment`]) and locating parameter leaves through `params`.
///
/// # Errors
///
/// Returns an error when a proof index is out of range.
pub fn make_record_with(
    graph_tree: &MerkleTree,
    weight_tree: &MerkleTree,
    params: &ParamIndex<'_>,
    sub: &Subgraph,
    trace: &Execution,
    cache: &mut TraceDigestCache<'_>,
) -> Result<SubgraphRecord> {
    let live_in_hash = cache.list_hash(trace, &sub.live_in)?;
    let live_out_hash = cache.list_hash(trace, &sub.live_out)?;
    // With a committed trace, reveal each interface digest with its
    // opening into the trace tree so the challenger can check every
    // revealed digest against the root bound into `C0`.
    let mut trace_reveals = Vec::new();
    if cache.committed().is_some() {
        let mut seen = std::collections::HashSet::new();
        for &id in sub.live_in.iter().chain(&sub.live_out) {
            if !seen.insert(id.0) {
                continue;
            }
            if let Some(proof) = cache.prove(id) {
                trace_reveals.push((id.0, cache.digest(trace, id)?, proof));
            }
        }
    }
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
/// or the same error for any record.
///
/// With `trace_root`, the reveal rule of [`verify_record_anchored`]
/// applies too.
///
/// Returns `(merkle_checks, reveal_checks)`.
///
/// # Errors
///
/// As [`verify_record_anchored`], except [`ProtocolError::AnchorMismatch`]:
/// there are no trees to check.
pub fn verify_record(
    graph: &Graph,
    graph_root: &Digest,
    weight_root: &Digest,
    trace_root: Option<&Digest>,
    record: &SubgraphRecord,
) -> Result<(u64, u64)> {
    verify_with(graph, graph_root, weight_root, trace_root, record, LeafSource::Rehash)
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
/// The reveal rule: when the anchors carry the trace root bound into `C0`,
/// **every** live-in and live-out node must carry a revealed digest that
/// opens against it via a Merkle path, and the record's interface hashes
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
/// from its committed root, [`ProtocolError::BadRecord`] when the record
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
    anchors.check_roots()?;
    verify_with(
        graph,
        anchors.graph_root,
        anchors.weight_root,
        anchors.trace_root,
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
    trace_root: Option<&Digest>,
    record: &SubgraphRecord,
    leaves: LeafSource<'_>,
) -> Result<(u64, u64)> {
    let sub = &record.sub;
    if !record.op_proofs.iter().map(|(i, _)| *i).eq(sub.start..sub.end) {
        return Err(ProtocolError::BadRecord(format!(
            "op proofs do not cover [{}, {}) in order",
            sub.start, sub.end
        )));
    }
    if !record.param_proofs.iter().map(|(n, _)| n).eq(&sub.param_refs) {
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
    let reveal_checks = match trace_root {
        Some(root) => verify_reveals(root, record)?,
        None => 0,
    };
    Ok((checks, reveal_checks))
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
    use tao_graph::{execute, extract, GraphBuilder, OpKind};
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

    #[test]
    fn record_roundtrip_verifies() {
        let (g, exec, gt, wt) = setup();
        let sub = extract(&g, 2, 4).unwrap();
        let rec = make_record(&g, &gt, &wt, &sub, &exec).unwrap();
        let (checks, reveals) = verify_record(&g, &gt.root(), &wt.root(), None, &rec).unwrap();
        assert_eq!(reveals, 0);
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
        let sub = extract(&g, 2, 3).unwrap();
        let rec = make_record(&g, &gt, &wt, &sub, &exec).unwrap();
        assert_eq!(rec.param_proofs.len(), 1);
        assert!(verify_record(&g, &gt.root(), &wt.root(), None, &rec).is_ok());
    }

    #[test]
    fn tampered_root_rejected() {
        let (g, exec, gt, wt) = setup();
        let sub = extract(&g, 2, 4).unwrap();
        let rec = make_record(&g, &gt, &wt, &sub, &exec).unwrap();
        let mut bad_root = gt.root();
        bad_root[0] ^= 0xff;
        assert!(verify_record(&g, &bad_root, &wt.root(), None, &rec).is_err());
    }

    #[test]
    fn tampered_proof_rejected() {
        let (g, exec, gt, wt) = setup();
        let sub = extract(&g, 2, 4).unwrap();
        let mut rec = make_record(&g, &gt, &wt, &sub, &exec).unwrap();
        rec.op_proofs[0].0 = 0; // Claim the slice starts at a different op.
        assert!(verify_record(&g, &gt.root(), &wt.root(), None, &rec).is_err());
    }

    #[test]
    fn cached_records_equal_uncached_and_count_rehashes() {
        let (g, exec, gt, wt) = setup();
        let sub = extract(&g, 2, 4).unwrap();
        let plain = make_record(&g, &gt, &wt, &sub, &exec).unwrap();
        assert!(plain.trace_reveals.is_empty(), "no commitment, no reveals");

        // Committed digests: identical hashes plus interface reveals,
        // zero rehashed leaves, and the reveals open against the root.
        let commitment = tao_merkle::TraceCommitment::build(&exec.values);
        let mut cache = TraceDigestCache::new(Some(&commitment));
        let params = ParamIndex::new(&g);
        let cached = make_record_with(&gt, &wt, &params, &sub, &exec, &mut cache).unwrap();
        assert_eq!(cached.live_in_hash, plain.live_in_hash);
        assert_eq!(cached.live_out_hash, plain.live_out_hash);
        assert_eq!(cached.op_proofs, plain.op_proofs);
        assert_eq!(cached.param_proofs, plain.param_proofs);
        assert_eq!(
            cached.trace_reveals.len(),
            sub.live_in.len() + sub.live_out.len()
        );
        assert!(cached.byte_size() > plain.byte_size());
        assert_eq!(cache.rehashed_leaves(), 0);
        let root = commitment.root();
        let (gr, wr) = (gt.root(), wt.root());
        let anchors = DisputeAnchors {
            graph_tree: &gt,
            weight_tree: &wt,
            graph_root: &gr,
            weight_root: &wr,
            trace_root: Some(&root),
        };
        let (_, reveal_checks) = verify_record_anchored(&g, &anchors, &params, &cached).unwrap();
        assert_eq!(reveal_checks as usize, cached.trace_reveals.len());
        assert_eq!(
            verify_record(&g, &gr, &wr, Some(&root), &cached),
            verify_record_anchored(&g, &anchors, &params, &cached)
        );
        // The plain record carries no reveals, so anchored verification
        // must reject it: reveals are mandatory once a root is committed.
        assert!(matches!(
            verify_record_anchored(&g, &anchors, &params, &plain),
            Err(ProtocolError::RevealMismatch { .. })
        ));
        // A tampered revealed digest fails to open against the root.
        let mut tampered = cached.clone();
        tampered.trace_reveals[0].1[0] ^= 0x01;
        assert!(matches!(
            verify_record_anchored(&g, &anchors, &params, &tampered),
            Err(ProtocolError::RevealMismatch { .. })
        ));

        // Lazy cache: same record, rehashes each node once then memoizes.
        let mut lazy = TraceDigestCache::new(None);
        let first = make_record_with(&gt, &wt, &params, &sub, &exec, &mut lazy).unwrap();
        assert_eq!(first, plain);
        let after_first = lazy.rehashed_leaves();
        assert!(after_first > 0);
        let second = make_record_with(&gt, &wt, &params, &sub, &exec, &mut lazy).unwrap();
        assert_eq!(second, plain);
        assert_eq!(lazy.rehashed_leaves(), after_first, "memoized across rounds");
    }

    #[test]
    fn anchored_verification_refuses_a_tree_off_its_root() {
        let (g, exec, gt, wt) = setup();
        let sub = extract(&g, 2, 4).unwrap();
        let rec = make_record(&g, &gt, &wt, &sub, &exec).unwrap();
        let params = ParamIndex::new(&g);
        let (gr, mut wr) = (gt.root(), wt.root());
        wr[0] ^= 0x01;
        let anchors = DisputeAnchors {
            graph_tree: &gt,
            weight_tree: &wt,
            graph_root: &gr,
            weight_root: &wr,
            trace_root: None,
        };
        assert_eq!(
            verify_record_anchored(&g, &anchors, &params, &rec),
            Err(ProtocolError::AnchorMismatch { tree: "weight" })
        );
    }

    #[test]
    fn interface_hashes_bind_values() {
        let (g, exec, gt, wt) = setup();
        let sub = extract(&g, 3, 4).unwrap();
        let rec = make_record(&g, &gt, &wt, &sub, &exec).unwrap();
        // A perturbed trace yields a different live-out hash.
        let mut perturbed = exec.clone();
        perturbed.values[3].data_mut()[0] += 0.1;
        let rec2 = make_record(&g, &gt, &wt, &sub, &perturbed).unwrap();
        assert_ne!(rec.live_out_hash, rec2.live_out_hash);
        assert_eq!(rec.live_in_hash, rec2.live_in_hash);
    }
}
