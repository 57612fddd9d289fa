//! Model and claim commitments (Phase 0 / Phase 1 artifacts), plus
//! [`TraceCommitment`] — per-node digests of an execution trace.
//!
//! The commitment hot path never materializes a tensor's canonical bytes:
//! a single tensor streams into a [`FastSha256`], and a whole trace or
//! weight list is one [`sha256_batch`] whose messages are each tensor's
//! small canonical header followed by its element bytes, read in place.
//! Trees build with [`MerkleTree::from_leaf_digests`]. The seed materializing
//! paths ([`tensor_hash_reference`], [`TraceCommitment::reference`]) stay
//! in-tree as the differential oracles and microbenchmark baselines; all
//! digests and roots are bit-identical by contract.

use tao_graph::Graph;
use tao_tensor::Tensor;

use crate::canon::{
    canon_param, canon_param_header_sink, canon_signature, canon_tensor, canon_tensor_header_sink,
    canon_tensor_sink, element_bytes,
};
use crate::params::ParamDigests;
use crate::sha256::{sha256, sha256_batch, Digest, FastSha256, Sha256};
use crate::tree::{hash_leaves, verify_inclusion, InclusionProof, MerkleTree};

/// Execution metadata bound into a claim commitment (the paper's "meta":
/// device type, kernel versions, dtypes, and the challenge window Δ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimMeta {
    /// Executing device name.
    pub device: String,
    /// Kernel configuration description.
    pub kernel: String,
    /// Element dtype of the execution.
    pub dtype: String,
    /// Challenge window in coordinator ticks.
    pub challenge_window: u64,
}

impl ClaimMeta {
    fn canon(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for field in [&self.device, &self.kernel, &self.dtype] {
            out.extend_from_slice(&(field.len() as u64).to_le_bytes());
            out.extend_from_slice(field.as_bytes());
        }
        out.extend_from_slice(&self.challenge_window.to_le_bytes());
        out
    }
}

/// The Phase 0 model commitment: weight root `r_w`, graph root `r_g`, and
/// the threshold root `r_e` for the calibrated empirical profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCommitment {
    /// Merkle root over the sorted parameter tensors.
    pub weight_root: Digest,
    /// Merkle root over the operator signatures in canonical order.
    pub graph_root: Digest,
    /// Merkle root over the committed empirical thresholds.
    pub threshold_root: Digest,
}

/// Builds the weight Merkle tree `T_w` (leaves: `canon(name, tensor)` in
/// lexicographic key order — the state dict is a `BTreeMap`, so iteration
/// order is already sorted).
///
/// The leaves are hashed in one batch, each reading its tensor's element
/// bytes in place; bit-identical to [`weight_tree_reference`].
pub fn weight_tree(graph: &Graph) -> MerkleTree {
    let (names, tensors): (Vec<&String>, Vec<&Tensor<f32>>) = graph.params().iter().unzip();
    MerkleTree::from_leaf_digests(hash_tensors(&tensors, |i, head| {
        head.push(crate::tree::LEAF_PREFIX);
        canon_param_header_sink(names[i], tensors[i], head);
    }))
}

/// Hashes `head_i ‖ element bytes of tensors[i]` for every tensor in one
/// [`sha256_batch`]; `head(i, arena)` appends message `i`'s head.
fn hash_tensors(
    tensors: &[&Tensor<f32>],
    mut head: impl FnMut(usize, &mut Vec<u8>),
) -> Vec<Digest> {
    let mut arena = Vec::new();
    let ends: Vec<usize> = (0..tensors.len())
        .map(|i| {
            head(i, &mut arena);
            arena.len()
        })
        .collect();
    let bodies: Vec<_> = tensors.iter().map(|t| element_bytes(t.data())).collect();
    let messages: Vec<(&[u8], &[u8])> = ends
        .iter()
        .zip(&bodies)
        .scan(0, |start, (&end, body)| {
            let head = &arena[*start..end];
            *start = end;
            Some((head, &body[..]))
        })
        .collect();
    sha256_batch(&messages)
}

/// [`tensor_hash`] of every tensor, in one batch.
pub(crate) fn tensor_hashes(tensors: &[&Tensor<f32>]) -> Vec<Digest> {
    hash_tensors(tensors, |i, head| {
        canon_tensor_header_sink(tensors[i], head)
    })
}

/// Seed construction of `T_w`: materialize every `canon(name, tensor)`
/// byte string, hash it scalar, build the tree serially. The differential
/// oracle (and microbenchmark baseline) for [`weight_tree`].
pub fn weight_tree_reference(graph: &Graph) -> MerkleTree {
    let leaves: Vec<Vec<u8>> = graph
        .params()
        .iter()
        .map(|(name, t)| canon_param(name, t))
        .collect();
    MerkleTree::from_leaves_reference(&leaves)
}

/// Builds the graph-structure Merkle tree `T_g` (leaves: `σ(n)` in
/// canonical topological order).
pub fn graph_tree(graph: &Graph) -> MerkleTree {
    let leaves: Vec<Vec<u8>> = graph.nodes().iter().map(canon_signature).collect();
    MerkleTree::from_leaves(&leaves)
}

/// Commits a model given the serialized per-operator thresholds (one byte
/// string per operator, in canonical node order).
pub fn commit_model<B: AsRef<[u8]>>(graph: &Graph, threshold_leaves: &[B]) -> ModelCommitment {
    ModelCommitment {
        weight_root: weight_tree(graph).root(),
        graph_root: graph_tree(graph).root(),
        threshold_root: MerkleTree::from_leaves(threshold_leaves).root(),
    }
}

/// Hash of a tensor's canonical serialization (`H(x)`, `H(y)`).
///
/// Streams the canonical bytes into a [`FastSha256`] without materializing
/// them; bit-identical to [`tensor_hash_reference`].
pub fn tensor_hash(t: &Tensor<f32>) -> Digest {
    let mut h = FastSha256::new();
    canon_tensor_sink(t, &mut h);
    h.finalize()
}

/// Seed tensor hash: materialize `canon(t)` and hash it with the scalar
/// oracle. Kept in-tree as the differential reference for
/// [`tensor_hash`].
pub fn tensor_hash_reference(t: &Tensor<f32>) -> Digest {
    sha256(&canon_tensor(t))
}

/// Per-node digests of an execution trace (one [`tensor_hash`] per traced
/// value) together with the Merkle tree over them.
///
/// This is the commitment a screening or proposer trace carries into a
/// dispute: child interface hashes (`h_In`/`h_Out`) re-derive from the
/// cached per-node digests instead of rehashing full activation tensors
/// every round, and the tree's root is a compact binding of the whole
/// trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCommitment {
    digests: Vec<Digest>,
    tree: MerkleTree,
}

impl TraceCommitment {
    /// Commits a trace: one [`tensor_hash`] per value, all in one batch.
    pub fn build(values: &[Tensor<f32>]) -> Self {
        Self::build_with_params(values, &ParamDigests::default())
    }

    /// Commits a kept trace whose parameter nodes take their digests from
    /// `params` (a hit needs the node's own weight buffer at its shape);
    /// every other value is hashed in one batch. Bit-identical to
    /// [`TraceCommitment::build`] for any table.
    pub fn build_with_params(values: &[Tensor<f32>], params: &ParamDigests) -> Self {
        let cached: Vec<Option<Digest>> = values
            .iter()
            .enumerate()
            .map(|(i, v)| params.get(i, v))
            .collect();
        let misses: Vec<&Tensor<f32>> = values
            .iter()
            .zip(&cached)
            .filter_map(|(v, d)| d.is_none().then_some(v))
            .collect();
        let mut hashed = tensor_hashes(&misses).into_iter();
        let digests = cached
            .into_iter()
            .map(|d| d.or_else(|| hashed.next()).expect("one digest per miss"))
            .collect();
        Self::from_digests(digests)
    }

    /// Assembles a commitment from already-computed per-node digests: the
    /// streamed-hashing entry point, where the executor's observer hashes
    /// each node's value as it is produced and only the tree assembly
    /// remains at the end of the pass. Bit-identical to
    /// [`TraceCommitment::build`] when the digests equal
    /// `values.iter().map(tensor_hash)`.
    pub fn from_digests(digests: Vec<Digest>) -> Self {
        TraceCommitment {
            tree: MerkleTree::from_leaf_digests(hash_leaves(&digests)),
            digests,
        }
    }

    /// Seed trace commitment: materialize each tensor's canonical bytes,
    /// hash them scalar, build the tree serially. The differential oracle
    /// and the microbenchmark baseline for [`TraceCommitment::build`].
    pub fn reference(values: &[Tensor<f32>]) -> Self {
        let digests: Vec<Digest> = values.iter().map(tensor_hash_reference).collect();
        TraceCommitment {
            tree: MerkleTree::from_leaves_reference(&digests),
            digests,
        }
    }

    /// The cached digest of node `i`'s value.
    pub fn digest(&self, i: usize) -> Option<&Digest> {
        self.digests.get(i)
    }

    /// All per-node digests, in node order.
    pub fn digests(&self) -> &[Digest] {
        &self.digests
    }

    /// The Merkle tree over the per-node digests.
    pub fn tree(&self) -> &MerkleTree {
        &self.tree
    }

    /// Root of the trace tree (the compact trace binding).
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// Number of committed node values.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// True when no values were committed.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }
}

/// Hash of an ordered tensor list (multi-input/multi-output interfaces):
/// `H(Σ_z H(canon(z)))` as in §5.2.
pub fn tensor_list_hash(ts: &[&Tensor<f32>]) -> Digest {
    let mut h = Sha256::new();
    for t in ts {
        h.update(&tensor_hash(t));
    }
    h.finalize()
}

/// Domain-separated hash of a claim's full ordered input list:
/// `H("tao.v1.inputs" || k || H(x_1) || … || H(x_k))`.
///
/// This is the `H(x)` bound into [`claim_commitment`] — the domain tag and
/// explicit length keep it injective against both single-tensor hashes and
/// list hashes of other arities, so multi-input claims are fully bound.
pub fn inputs_hash(inputs: &[Tensor<f32>]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"tao.v1.inputs");
    h.update(&(inputs.len() as u64).to_le_bytes());
    for t in inputs {
        h.update(&tensor_hash(t));
    }
    h.finalize()
}

/// Domain tag for the trace-root field of [`claim_commitment`]; keeps the
/// root injective against the neighbouring hash fields.
const TRACE_ROOT_DOMAIN: &[u8] = b"tao.v1.trace-root";

/// The Phase 1 claim commitment
/// `C0 = H(r_w || r_g || H(x) || H(y) || "tao.v1.trace-root" || r_t || meta)`.
///
/// `trace_root` is the root of the proposer's [`TraceCommitment`] over its
/// per-node execution digests, computed at prepare time. Binding it here is
/// what makes the dispute game's bisection reveals *verifiable*: every
/// digest the proposer reveals during descent must open against `r_t` via a
/// Merkle path, so a tampered or stale digest cache is detected and
/// attributed instead of silently steering the round.
pub fn claim_commitment(
    model: &ModelCommitment,
    input_hash: &Digest,
    output_hash: &Digest,
    trace_root: &Digest,
    meta: &ClaimMeta,
) -> Digest {
    let mut h = Sha256::new();
    h.update(&model.weight_root);
    h.update(&model.graph_root);
    h.update(input_hash);
    h.update(output_hash);
    h.update(TRACE_ROOT_DOMAIN);
    h.update(trace_root);
    h.update(&meta.canon());
    h.finalize()
}

/// Verifies that a revealed parameter belongs to a weight root.
pub fn verify_weight_leaf(
    root: &Digest,
    name: &str,
    tensor: &Tensor<f32>,
    proof: &InclusionProof,
) -> bool {
    verify_inclusion(root, &canon_param(name, tensor), proof)
}

/// Verifies that a node signature belongs to a graph root.
pub fn verify_graph_leaf(root: &Digest, node: &tao_graph::Node, proof: &InclusionProof) -> bool {
    verify_inclusion(root, &canon_signature(node), proof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_graph::{GraphBuilder, OpKind};

    fn model() -> Graph {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter(
            "fc.weight",
            Tensor::<f32>::rand_uniform(&[4, 4], -1.0, 1.0, 1),
        );
        let bias = b.parameter("fc.bias", Tensor::<f32>::zeros(&[4]));
        let y = b.op("fc", OpKind::Linear, &[x, w, bias]);
        b.finish(vec![y]).unwrap()
    }

    fn meta() -> ClaimMeta {
        ClaimMeta {
            device: "sim-a100".into(),
            kernel: "pairwise+fma".into(),
            dtype: "f32".into(),
            challenge_window: 10,
        }
    }

    #[test]
    fn weight_root_changes_with_any_weight_bit() {
        let g1 = model();
        let r1 = weight_tree(&g1).root();
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let mut wt = g1.param("fc.weight").unwrap().clone();
        wt.data_mut()[0] += f32::EPSILON;
        let w = b.parameter("fc.weight", wt);
        let bias = b.parameter("fc.bias", Tensor::<f32>::zeros(&[4]));
        let y = b.op("fc", OpKind::Linear, &[x, w, bias]);
        let g2 = b.finish(vec![y]).unwrap();
        assert_ne!(r1, weight_tree(&g2).root());
    }

    #[test]
    fn graph_root_changes_with_topology() {
        let g1 = model();
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("fc.weight", g1.param("fc.weight").unwrap().clone());
        let bias = b.parameter("fc.bias", Tensor::<f32>::zeros(&[4]));
        let y = b.op("fc", OpKind::Linear, &[x, w, bias]);
        let r = b.op("extra_relu", OpKind::Relu, &[y]);
        let g2 = b.finish(vec![r]).unwrap();
        assert_ne!(graph_tree(&g1).root(), graph_tree(&g2).root());
    }

    #[test]
    fn claim_commitment_binds_everything() {
        let g = model();
        let mc = commit_model(&g, &[b"thresholds".to_vec()]);
        let x = Tensor::<f32>::ones(&[1, 4]);
        let y = Tensor::<f32>::ones(&[1, 4]);
        let rt = sha256(b"trace-root");
        let c0 = claim_commitment(&mc, &tensor_hash(&x), &tensor_hash(&y), &rt, &meta());
        // Different output → different commitment.
        let y2 = Tensor::<f32>::zeros(&[1, 4]);
        let c1 = claim_commitment(&mc, &tensor_hash(&x), &tensor_hash(&y2), &rt, &meta());
        assert_ne!(c0, c1);
        // Different window → different commitment.
        let mut m2 = meta();
        m2.challenge_window = 99;
        let c2 = claim_commitment(&mc, &tensor_hash(&x), &tensor_hash(&y), &rt, &m2);
        assert_ne!(c0, c2);
        // Different trace root → different commitment: the per-node trace
        // tree is bound, so post-hoc digest swaps invalidate the claim.
        let rt2 = sha256(b"another-trace-root");
        let c3 = claim_commitment(&mc, &tensor_hash(&x), &tensor_hash(&y), &rt2, &meta());
        assert_ne!(c0, c3);
    }

    #[test]
    fn inputs_hash_binds_every_tensor_and_arity() {
        let a = Tensor::<f32>::ones(&[2, 2]);
        let b = Tensor::<f32>::zeros(&[2, 2]);
        // Every position is bound.
        assert_ne!(
            inputs_hash(&[a.clone(), b.clone()]),
            inputs_hash(&[a.clone(), a.clone()])
        );
        // Order is bound.
        assert_ne!(
            inputs_hash(&[a.clone(), b.clone()]),
            inputs_hash(&[b.clone(), a.clone()])
        );
        // Arity is bound: a singleton list is not the bare tensor hash and
        // not the undomained list hash.
        assert_ne!(inputs_hash(std::slice::from_ref(&a)), tensor_hash(&a));
        assert_ne!(
            inputs_hash(std::slice::from_ref(&a)),
            tensor_list_hash(&[&a])
        );
    }

    #[test]
    fn weight_inclusion_proofs() {
        let g = model();
        let tree = weight_tree(&g);
        // Keys sorted: fc.bias (0), fc.weight (1).
        let p_bias = tree.prove(0).unwrap();
        assert!(verify_weight_leaf(
            &tree.root(),
            "fc.bias",
            g.param("fc.bias").unwrap(),
            &p_bias
        ));
        // Wrong name fails.
        assert!(!verify_weight_leaf(
            &tree.root(),
            "fc.weight",
            g.param("fc.bias").unwrap(),
            &p_bias
        ));
    }

    #[test]
    fn graph_inclusion_proofs() {
        let g = model();
        let tree = graph_tree(&g);
        for node in g.nodes() {
            let p = tree.prove(node.id.0).unwrap();
            assert!(verify_graph_leaf(&tree.root(), node, &p));
        }
    }

    #[test]
    fn streaming_tensor_hash_matches_reference() {
        for dims in [vec![1], vec![7], vec![3, 5], vec![2, 3, 4], vec![]] {
            let t = Tensor::<f32>::rand_uniform(&dims, -2.0, 2.0, 9);
            assert_eq!(tensor_hash(&t), tensor_hash_reference(&t), "{dims:?}");
        }
    }

    #[test]
    fn streaming_weight_tree_matches_reference() {
        let g = model();
        assert_eq!(weight_tree(&g), weight_tree_reference(&g));
    }

    #[test]
    fn trace_commitment_matches_reference_on_every_backend() {
        let values: Vec<Tensor<f32>> = (0..13)
            .map(|i| {
                let dims: &[usize] = if i % 3 == 2 { &[2, 3, 3] } else { &[4, 8] };
                Tensor::<f32>::rand_uniform(dims, -1.0, 1.0, 100 + i)
            })
            .collect();
        let oracle = TraceCommitment::reference(&values);
        let got = TraceCommitment::build(&values);
        assert_eq!(got, oracle);
        // Pre-computed digests assemble to the identical commitment.
        let streamed = TraceCommitment::from_digests(values.iter().map(tensor_hash).collect());
        assert_eq!(streamed, oracle, "from_digests");
        for (i, v) in values.iter().enumerate() {
            assert_eq!(got.digest(i), Some(&tensor_hash(v)), "node {i}");
        }
        assert_eq!(oracle.len(), values.len());
        assert!(!oracle.is_empty());
        assert_ne!(oracle.root(), sha256(b""));
        assert!(TraceCommitment::build(&[]).is_empty());
    }

    #[test]
    fn tensor_list_hash_order_sensitive() {
        let a = Tensor::<f32>::ones(&[2]);
        let b = Tensor::<f32>::zeros(&[2]);
        assert_ne!(tensor_list_hash(&[&a, &b]), tensor_list_hash(&[&b, &a]));
    }
}
