//! Model and claim commitments (Phase 0 / Phase 1 artifacts), plus
//! [`TraceCommitment`] — per-node digests of an execution trace.
//!
//! The commitment hot path is allocation-free: tensors are canonicalized
//! row-by-row straight into the runtime-dispatched hashers of
//! [`crate::multiway`] (no per-leaf byte buffers), equal-shaped tensors are
//! hashed several lanes at a time, and trees build level-parallel. The
//! seed materializing paths ([`tensor_hash_reference`],
//! [`TraceCommitment::reference`]) stay in-tree as the differential
//! oracles and microbenchmark baselines; all digests and roots are
//! bit-identical by contract.

use tao_graph::Graph;
use tao_tensor::Tensor;

use crate::canon::{canon_param, canon_param_sink, canon_signature, canon_tensor, canon_tensor_sink};
use crate::multiway::{Backend, FastSha256, MultiSha256};
use crate::params::ParamDigests;
use crate::sha256::{sha256, Digest, Sha256};
use crate::tree::{verify_inclusion, InclusionProof, MerkleTree};

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
/// Each leaf's canonical bytes stream straight into the hasher (no
/// per-leaf buffer); bit-identical to [`weight_tree_reference`].
pub fn weight_tree(graph: &Graph) -> MerkleTree {
    let backend = Backend::auto();
    let leaf_digests: Vec<Digest> = graph
        .params()
        .iter()
        .map(|(name, t)| {
            let mut h = FastSha256::with_backend(backend);
            h.update(&[crate::tree::LEAF_PREFIX]);
            canon_param_sink(name, t, &mut h);
            h.finalize()
        })
        .collect();
    MerkleTree::from_leaf_digests(leaf_digests)
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
/// Streams the canonical bytes into the fastest supported hasher without
/// materializing them; bit-identical to [`tensor_hash_reference`].
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
/// trace. Equal-shaped tensors are hashed through the multi-way
/// compressor several lanes at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCommitment {
    digests: Vec<Digest>,
    tree: MerkleTree,
}

impl TraceCommitment {
    /// Commits a trace on the fastest supported backend.
    pub fn build(values: &[Tensor<f32>]) -> Self {
        Self::build_with(values, Backend::auto())
    }

    /// Commits a trace on a pinned backend (equivalence tests and
    /// microbenchmarks sweep every supported one).
    pub fn build_with(values: &[Tensor<f32>], backend: Backend) -> Self {
        Self::from_digests_with(tensor_digests(values, backend), backend)
    }

    /// [`TraceCommitment::build`] with parameter values' digests taken
    /// from `params` (see [`ParamDigests`]); every other value is hashed.
    /// Bit-identical to [`TraceCommitment::build`] for any table.
    pub fn build_with_params(values: &[Tensor<f32>], params: &ParamDigests) -> Self {
        let backend = Backend::auto();
        let cached: Vec<Option<Digest>> = values
            .iter()
            .enumerate()
            .map(|(i, v)| params.get(i, v))
            .collect();
        let missed: Vec<Tensor<f32>> = values
            .iter()
            .zip(&cached)
            .filter(|(_, c)| c.is_none())
            .map(|(v, _)| v.clone())
            .collect();
        let mut hashed = tensor_digests(&missed, backend).into_iter();
        let digests = cached
            .into_iter()
            .map(|c| c.unwrap_or_else(|| hashed.next().expect("one digest per missed value")))
            .collect();
        Self::from_digests_with(digests, backend)
    }

    /// Assembles a commitment from already-computed per-node digests on
    /// the fastest supported backend. This is the streamed-hashing entry
    /// point: the executor's observer hashes each node's value as it is
    /// produced, and only the tree assembly remains at the end of the
    /// pass. Bit-identical to [`TraceCommitment::build`] when
    /// the digests equal `values.iter().map(tensor_hash)`.
    pub fn from_digests(digests: Vec<Digest>) -> Self {
        Self::from_digests_with(digests, Backend::auto())
    }

    /// [`TraceCommitment::from_digests`] on a pinned backend.
    pub fn from_digests_with(digests: Vec<Digest>, backend: Backend) -> Self {
        let leaf_digests = crate::tree::hash_leaves(backend, &digests);
        // Traces below the fan-out threshold never query the host.
        let threads = crate::tree::auto_threads(digests.len());
        TraceCommitment {
            tree: MerkleTree::from_leaf_digests_with(leaf_digests, backend, threads),
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

/// Hashes every tensor's canonical serialization, batching equal-shaped
/// tensors through the 8-lane compressor (their canonical headers and
/// data lengths are identical, so the lanes stay in lockstep). Equal to
/// `values.iter().map(tensor_hash)` for any input.
#[cfg(target_endian = "little")]
pub fn tensor_digests(values: &[Tensor<f32>], backend: Backend) -> Vec<Digest> {
    let lanes = backend.lanes();
    let mut out = vec![[0u8; 32]; values.len()];
    if lanes <= 1 {
        for (o, t) in out.iter_mut().zip(values) {
            let mut h = FastSha256::with_backend(backend);
            canon_tensor_sink(t, &mut h);
            *o = h.finalize();
        }
        return out;
    }
    // Group by shape: identical dims mean identical header bytes and data
    // lengths, the lockstep precondition for multi-lane hashing.
    let groups = crate::multiway::group_indices_by(values.len(), |i| values[i].dims());
    for (dims, idxs) in &groups {
        // Headers beyond the stack staging buffer (absurd ranks) take the
        // single-stream path; correctness never depends on batching.
        let batchable = 27 + 16 * dims.len() <= 512;
        let mut chunks = idxs.chunks_exact(if batchable { lanes } else { usize::MAX });
        for chunk in &mut chunks {
            let batch: [&Tensor<f32>; 8] = std::array::from_fn(|j| &values[chunk[j]]);
            for (j, d) in tensor_digests_equal(backend, batch).into_iter().enumerate() {
                out[chunk[j]] = d;
            }
        }
        for &i in chunks.remainder() {
            let mut h = FastSha256::with_backend(backend);
            canon_tensor_sink(&values[i], &mut h);
            out[i] = h.finalize();
        }
    }
    out
}

/// Big-endian fallback: single-stream hashing (the multi-lane lockstep
/// path relies on the little-endian byte view of the element data).
#[cfg(not(target_endian = "little"))]
pub fn tensor_digests(values: &[Tensor<f32>], backend: Backend) -> Vec<Digest> {
    values
        .iter()
        .map(|t| {
            let mut h = FastSha256::with_backend(backend);
            canon_tensor_sink(t, &mut h);
            h.finalize()
        })
        .collect()
}

/// Hashes `N` equal-shaped tensors in one multi-lane pass: the shared
/// canonical header goes to every lane, then the element bytes advance in
/// lockstep. The header is staged in a fixed stack buffer, so the whole
/// pass performs no per-leaf heap allocation.
#[cfg(target_endian = "little")]
fn tensor_digests_equal<const N: usize>(
    backend: Backend,
    tensors: [&Tensor<f32>; N],
) -> [Digest; N] {
    let mut h = MultiSha256::<N>::new(backend);
    let t0 = tensors[0];
    let mut header = StackSink::<512>::new();
    crate::canon::canon_header_sink(t0, &mut header);
    h.update_all(header.bytes());
    const CHUNK_ELEMS: usize = 4096;
    let len = t0.len();
    let mut off = 0;
    while off < len {
        let end = (off + CHUNK_ELEMS).min(len);
        let parts: [&[u8]; N] = std::array::from_fn(|j| element_bytes(&tensors[j].data()[off..end]));
        h.update(parts);
        off = end;
    }
    h.finalize()
}

/// Little-endian byte view of a data slice (the canonical element
/// encoding on little-endian targets).
#[cfg(target_endian = "little")]
fn element_bytes(data: &[f32]) -> &[u8] {
    // SAFETY: f32 is plain-old-data; its LE memory layout equals the
    // canonical encoding on this target.
    unsafe { core::slice::from_raw_parts(data.as_ptr().cast::<u8>(), core::mem::size_of_val(data)) }
}

/// A fixed-capacity stack byte sink for small canonical fragments
/// (tensor headers are `19 + 16 * rank` bytes plus the dtype tag).
#[cfg(target_endian = "little")]
struct StackSink<const CAP: usize> {
    buf: [u8; CAP],
    len: usize,
}

#[cfg(target_endian = "little")]
impl<const CAP: usize> StackSink<CAP> {
    fn new() -> Self {
        StackSink {
            buf: [0u8; CAP],
            len: 0,
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

#[cfg(target_endian = "little")]
impl<const CAP: usize> crate::canon::CanonSink for StackSink<CAP> {
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
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
                let dims: &[usize] = match i % 3 {
                    0 => &[4, 8],
                    1 => &[4, 8], // same shape: exercises the lane batcher
                    _ => &[2, 3, 3],
                };
                Tensor::<f32>::rand_uniform(dims, -1.0, 1.0, 100 + i)
            })
            .collect();
        let oracle = TraceCommitment::reference(&values);
        assert_eq!(TraceCommitment::build(&values), oracle);
        for backend in Backend::available() {
            let got = TraceCommitment::build_with(&values, backend);
            assert_eq!(got, oracle, "{backend:?}");
            // Pre-computed digests assemble to the identical commitment.
            let streamed = TraceCommitment::from_digests_with(
                values.iter().map(tensor_hash).collect(),
                backend,
            );
            assert_eq!(streamed, oracle, "{backend:?} from_digests");
            for (i, v) in values.iter().enumerate() {
                assert_eq!(got.digest(i), Some(&tensor_hash(v)), "{backend:?} node {i}");
            }
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
