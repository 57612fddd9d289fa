//! Merkle trees with domain separation and inclusion proofs.
//!
//! Tree construction has two implementations with bit-identical output:
//! the seed serial builder ([`MerkleTree::from_leaf_digests_reference`]),
//! kept in-tree permanently as the differential oracle, and the default
//! fast builder, which hashes interior levels with the multi-way SHA-256
//! backends of [`crate::multiway`] and fans large levels out over scoped
//! worker threads. Every interior digest is a pure function of its two
//! children, so row-banding a level cannot change any bit regardless of
//! the thread count (the same argument as the tensor kernels' row bands).

use crate::multiway::{compress_blocks, sha256_many_equal, Backend, FastSha256};
use crate::sha256::{sha256, state_digest, Digest, Sha256, H0};

/// Domain-separation prefix for leaf hashes.
pub(crate) const LEAF_PREFIX: u8 = 0x00;
/// Domain-separation prefix for interior hashes.
pub(crate) const NODE_PREFIX: u8 = 0x01;

/// Upper bound on tree-builder worker threads (matches the kernel cap so
/// nested parallelism stays bounded).
pub const MAX_HASH_THREADS: usize = 8;

/// Minimum pair hashes in a level before it fans out to threads; below
/// this the spawn cost dominates. In `commit_microbench`'s forced-thread
/// table on a 2-core SHA-NI host, fanning a first level of 8192 pairs out
/// to 2 threads read 0.96–1.10x, within the 0.82–1.03x that builds which
/// never fan out read from run to run, while 16384 pairs read 1.09–1.35x
/// (BENCH.md, commitment section).
const PAR_MIN_PAIRS: usize = 16384;

/// A binary Merkle tree over a fixed leaf list.
///
/// Leaves are hashed with a `0x00` prefix and interior nodes with `0x01`
/// (preventing second-preimage splices); odd levels promote the last node
/// unchanged. Proof depth is `⌈log2 n⌉`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    // levels[0] = leaf digests, levels.last() = [root].
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: the leaf index plus sibling digests bottom-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling digest at each level, bottom-up; `None` where the node was
    /// promoted without a sibling.
    pub siblings: Vec<Option<Digest>>,
}

impl MerkleTree {
    /// Builds a tree from raw leaf byte strings (multi-way leaf hashing,
    /// level-parallel interior build; bit-identical to
    /// [`MerkleTree::from_leaves_reference`]).
    pub fn from_leaves<B: AsRef<[u8]>>(leaves: &[B]) -> Self {
        let backend = Backend::auto();
        let leaf_digests = hash_leaves(backend, leaves);
        Self::from_leaf_digests_with(leaf_digests, backend, auto_threads(leaves.len()))
    }

    /// Seed serial tree construction over raw leaves: scalar leaf hashing
    /// plus the serial interior builder. The differential oracle (and the
    /// microbenchmark baseline) for [`MerkleTree::from_leaves`].
    pub fn from_leaves_reference<B: AsRef<[u8]>>(leaves: &[B]) -> Self {
        let leaf_digests: Vec<Digest> = leaves
            .iter()
            .map(|l| {
                let mut h = Sha256::new();
                h.update(&[LEAF_PREFIX]);
                h.update(l.as_ref());
                h.finalize()
            })
            .collect();
        Self::from_leaf_digests_reference(leaf_digests)
    }

    /// Builds a tree from precomputed (already domain-separated) leaf
    /// digests on the fastest supported backend.
    pub fn from_leaf_digests(leaf_digests: Vec<Digest>) -> Self {
        let threads = auto_threads(leaf_digests.len());
        Self::from_leaf_digests_with(leaf_digests, Backend::auto(), threads)
    }

    /// Builds a tree from leaf digests with a pinned hash backend and
    /// worker count (the equivalence tests sweep both; results are
    /// independent of `threads`).
    pub fn from_leaf_digests_with(leaf_digests: Vec<Digest>, backend: Backend, threads: usize) -> Self {
        let mut levels = vec![leaf_digests];
        while levels.last().map(|l| l.len() > 1).unwrap_or(false) {
            let prev = levels.last().expect("non-empty by loop condition");
            levels.push(level_up(prev, backend, threads));
        }
        MerkleTree { levels }
    }

    /// Seed serial tree construction from leaf digests: one scalar pair
    /// hash at a time, exactly the pre-optimization loop. Kept in-tree
    /// permanently as the differential oracle.
    pub fn from_leaf_digests_reference(leaf_digests: Vec<Digest>) -> Self {
        let mut levels = vec![leaf_digests];
        while levels.last().map(|l| l.len() > 1).unwrap_or(false) {
            let prev = levels.last().expect("non-empty by loop condition");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(hash_pair(&pair[0], &pair[1]));
                } else {
                    // Odd node promoted unchanged.
                    next.push(pair[0]);
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Root digest; for an empty tree, the hash of the empty string.
    pub fn root(&self) -> Digest {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or_else(|| sha256(b""))
    }

    /// The leaf digests (`H(LEAF_PREFIX || leaf)`), in leaf order. A
    /// verifier holding its own tree checks inclusion proofs against these
    /// instead of re-serializing and rehashing each leaf.
    pub fn leaf_digests(&self) -> &[Digest] {
        self.levels.first().map_or(&[], Vec::as_slice)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map(Vec::len).unwrap_or(0)
    }

    /// True for an empty tree.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inclusion proof for leaf `index`; `None` when out of range.
    pub fn prove(&self, index: usize) -> Option<InclusionProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sib = idx ^ 1;
            siblings.push(level.get(sib).copied());
            idx /= 2;
        }
        Some(InclusionProof { index, siblings })
    }

    /// Proof-size statistic: the number of digests in a proof for `index`.
    pub fn proof_len(&self, index: usize) -> usize {
        self.prove(index)
            .map(|p| p.siblings.iter().flatten().count())
            .unwrap_or(0)
    }
}

/// Seed interior-node hash on the scalar oracle: the reference for
/// [`pair_digest`].
fn hash_pair(l: &Digest, r: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    h.update(l);
    h.update(r);
    h.finalize()
}

/// Interior-node hash `H(NODE_PREFIX || l || r)` on `backend`. The
/// 65-byte message and its padding (`0x80`, zeros, the 520-bit length)
/// fill exactly two blocks, staged once and compressed in one call.
/// Bit-identical to [`hash_pair`].
#[inline]
pub(crate) fn pair_digest(backend: Backend, l: &Digest, r: &Digest) -> Digest {
    let mut blocks = [0u8; 128];
    blocks[0] = NODE_PREFIX;
    blocks[1..33].copy_from_slice(l);
    blocks[33..65].copy_from_slice(r);
    blocks[65] = 0x80;
    blocks[120..].copy_from_slice(&(65u64 * 8).to_be_bytes());
    let mut state = H0;
    compress_blocks(backend, &mut state, &blocks);
    state_digest(&state)
}

/// Worker count for a level of `pairs` pair hashes: 1 below the fan-out
/// threshold (no host query), else the cached host parallelism.
pub(crate) fn auto_threads(pairs: usize) -> usize {
    if pairs < PAR_MIN_PAIRS {
        return 1;
    }
    tao_tensor::kernel::host_threads().min(MAX_HASH_THREADS)
}

/// The 65-byte interior-node message `NODE_PREFIX || l || r` on the stack.
#[inline]
fn pair_message(l: &Digest, r: &Digest) -> [u8; 65] {
    let mut msg = [0u8; 65];
    msg[0] = NODE_PREFIX;
    msg[1..33].copy_from_slice(l);
    msg[33..65].copy_from_slice(r);
    msg
}

/// Fills `out[o]` with the parent of leaves `2(o0+o)` and `2(o0+o)+1` of
/// `prev` for every `o`, batching full pairs through the 8-lane
/// compressor when the backend has one. Pure per-output, so any band
/// decomposition yields identical digests.
fn fill_parents(backend: Backend, prev: &[Digest], o0: usize, out: &mut [Digest]) {
    let lanes = backend.lanes();
    let mut o = 0;
    while o < out.len() {
        let global = o0 + o;
        if 2 * global + 1 >= prev.len() {
            // Odd node promoted unchanged (always the last output).
            out[o] = prev[2 * global];
            o += 1;
            continue;
        }
        // Number of consecutive full pairs from here.
        let full = out.len() - o - usize::from(2 * (o0 + out.len() - 1) + 1 >= prev.len());
        if lanes == 8 && full >= 8 {
            let msgs: [[u8; 65]; 8] = std::array::from_fn(|j| {
                let g = global + j;
                pair_message(&prev[2 * g], &prev[2 * g + 1])
            });
            let refs: [&[u8]; 8] = std::array::from_fn(|j| msgs[j].as_slice());
            out[o..o + 8].copy_from_slice(&sha256_many_equal(backend, refs));
            o += 8;
        } else {
            out[o] = pair_digest(backend, &prev[2 * global], &prev[2 * global + 1]);
            o += 1;
        }
    }
}

/// Computes one interior level from the previous one, fanning bands of
/// parents out over scoped worker threads when the level is large enough.
fn level_up(prev: &[Digest], backend: Backend, threads: usize) -> Vec<Digest> {
    let n_out = prev.len().div_ceil(2);
    let mut next = vec![[0u8; 32]; n_out];
    let workers = threads.clamp(1, MAX_HASH_THREADS).min(n_out.max(1));
    if workers <= 1 || n_out < PAR_MIN_PAIRS {
        fill_parents(backend, prev, 0, &mut next);
        return next;
    }
    let per = n_out.div_ceil(workers);
    std::thread::scope(|scope| {
        for (wi, band) in next.chunks_mut(per).enumerate() {
            scope.spawn(move || fill_parents(backend, prev, wi * per, band));
        }
    });
    next
}

/// Hashes raw leaves (`LEAF_PREFIX || leaf`) into leaf digests, batching
/// equal-length leaves through the 8-lane compressor when the backend has
/// one. Equal to the
/// scalar per-leaf hashing of [`MerkleTree::from_leaves_reference`].
pub fn hash_leaves<B: AsRef<[u8]>>(backend: Backend, leaves: &[B]) -> Vec<Digest> {
    let lanes = backend.lanes();
    if lanes == 1 {
        return leaves
            .iter()
            .map(|l| {
                let mut h = FastSha256::with_backend(backend);
                h.update(&[LEAF_PREFIX]);
                h.update(l.as_ref());
                h.finalize()
            })
            .collect();
    }
    let mut out = vec![[0u8; 32]; leaves.len()];
    let groups = crate::multiway::group_indices_by(leaves.len(), |i| leaves[i].as_ref().len());
    for (_, idxs) in &groups {
        let mut chunks = idxs.chunks_exact(lanes);
        for chunk in &mut chunks {
            let mut h = crate::multiway::MultiSha256::<8>::new(backend);
            h.update_all(&[LEAF_PREFIX]);
            h.update(std::array::from_fn(|j| leaves[chunk[j]].as_ref()));
            for (j, d) in h.finalize().into_iter().enumerate() {
                out[chunk[j]] = d;
            }
        }
        for &i in chunks.remainder() {
            let mut h = FastSha256::with_backend(backend);
            h.update(&[LEAF_PREFIX]);
            h.update(leaves[i].as_ref());
            out[i] = h.finalize();
        }
    }
    out
}

/// Verifies an inclusion proof for raw leaf bytes against a root.
pub fn verify_inclusion(root: &Digest, leaf: &[u8], proof: &InclusionProof) -> bool {
    let mut h = FastSha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(leaf);
    verify_inclusion_digest(root, h.finalize(), proof)
}

/// Verifies an inclusion proof for a precomputed leaf digest, hashing the
/// path on the fastest supported backend.
pub fn verify_inclusion_digest(root: &Digest, leaf_digest: Digest, proof: &InclusionProof) -> bool {
    let backend = Backend::auto();
    path_root(leaf_digest, proof, |l, r| pair_digest(backend, l, r)) == *root
}

/// Seed inclusion check: the same path walk, hashing each interior node
/// on the scalar oracle [`Sha256`].
/// The differential oracle (and microbenchmark baseline) for
/// [`verify_inclusion_digest`].
pub fn verify_inclusion_digest_reference(
    root: &Digest,
    leaf_digest: Digest,
    proof: &InclusionProof,
) -> bool {
    path_root(leaf_digest, proof, hash_pair) == *root
}

/// Folds a proof's sibling path bottom-up from a leaf digest.
fn path_root(
    leaf_digest: Digest,
    proof: &InclusionProof,
    pair: impl Fn(&Digest, &Digest) -> Digest,
) -> Digest {
    let mut acc = leaf_digest;
    let mut idx = proof.index;
    for sib in &proof.siblings {
        // A `None` sibling is a node promoted unchanged.
        if let Some(s) = sib {
            acc = if idx.is_multiple_of(2) {
                pair(&acc, s)
            } else {
                pair(s, &acc)
            };
        }
        idx /= 2;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiway::Backend;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let t = MerkleTree::from_leaves(&leaves(1));
        assert_eq!(t.len(), 1);
        let p = t.prove(0).unwrap();
        assert!(verify_inclusion(&t.root(), b"leaf-0", &p));
    }

    #[test]
    fn all_proofs_verify_for_various_sizes() {
        for n in [2usize, 3, 4, 5, 7, 8, 9, 16, 33] {
            let ls = leaves(n);
            let t = MerkleTree::from_leaves(&ls);
            for (i, leaf) in ls.iter().enumerate() {
                let p = t.prove(i).unwrap();
                assert!(verify_inclusion(&t.root(), leaf, &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let ls = leaves(8);
        let t = MerkleTree::from_leaves(&ls);
        let p = t.prove(3).unwrap();
        assert!(!verify_inclusion(&t.root(), b"leaf-4", &p));
        assert!(!verify_inclusion(&t.root(), b"tampered", &p));
    }

    #[test]
    fn wrong_index_rejected() {
        let ls = leaves(8);
        let t = MerkleTree::from_leaves(&ls);
        let mut p = t.prove(3).unwrap();
        p.index = 4;
        assert!(!verify_inclusion(&t.root(), b"leaf-3", &p));
    }

    #[test]
    fn tampered_sibling_rejected() {
        let ls = leaves(8);
        let t = MerkleTree::from_leaves(&ls);
        let mut p = t.prove(0).unwrap();
        if let Some(Some(s)) = p.siblings.first_mut().map(|s| s.as_mut()) {
            s[0] ^= 0xff;
        }
        assert!(!verify_inclusion(&t.root(), b"leaf-0", &p));
    }

    #[test]
    fn roots_differ_when_any_leaf_differs() {
        let a = MerkleTree::from_leaves(&leaves(5));
        let mut ls = leaves(5);
        ls[2] = b"changed".to_vec();
        let b = MerkleTree::from_leaves(&ls);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn leaf_order_matters() {
        let mut ls = leaves(4);
        let a = MerkleTree::from_leaves(&ls);
        ls.swap(0, 1);
        let b = MerkleTree::from_leaves(&ls);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn domain_separation_leaf_vs_node() {
        // A 2-leaf tree's root must differ from a leaf hash of the
        // concatenated children (second-preimage splice).
        let ls = leaves(2);
        let t = MerkleTree::from_leaves(&ls);
        let mut spliced = vec![0x01u8];
        spliced.extend_from_slice(&sha256(b"leaf-0"));
        spliced.extend_from_slice(&sha256(b"leaf-1"));
        assert_ne!(t.root(), sha256(&spliced));
    }

    #[test]
    fn empty_tree_root_is_defined() {
        let t = MerkleTree::from_leaves::<Vec<u8>>(&[]);
        assert!(t.is_empty());
        assert_eq!(t.root(), sha256(b""));
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn fast_builder_matches_reference_for_every_backend_and_thread_count() {
        for n in [0usize, 1, 2, 3, 5, 8, 9, 33, 64, 65, 257] {
            let ls = leaves(n);
            let oracle = MerkleTree::from_leaves_reference(&ls);
            assert_eq!(MerkleTree::from_leaves(&ls), oracle, "auto n={n}");
            let digests = oracle.levels.first().cloned().unwrap_or_default();
            for backend in Backend::available() {
                for threads in [1usize, 2, 3, 8] {
                    let fast =
                        MerkleTree::from_leaf_digests_with(digests.clone(), backend, threads);
                    assert_eq!(fast, oracle, "{backend:?} threads={threads} n={n}");
                }
            }
        }
    }

    #[test]
    fn parallel_build_crosses_the_fanout_threshold() {
        // Enough leaves that the first level actually fans out.
        let ls = leaves(2 * PAR_MIN_PAIRS + 3);
        let oracle = MerkleTree::from_leaves_reference(&ls);
        for threads in [2usize, 8] {
            let digests = oracle.levels[0].clone();
            let fast = MerkleTree::from_leaf_digests_with(digests, Backend::auto(), threads);
            assert_eq!(fast.root(), oracle.root(), "threads={threads}");
            assert_eq!(fast, oracle);
        }
    }

    #[test]
    fn pair_digest_matches_scalar_oracle_on_every_backend() {
        let digests: Vec<Digest> = (0..6u8).map(|i| sha256(&[i])).collect();
        for backend in Backend::available() {
            for l in &digests {
                for r in &digests {
                    assert_eq!(pair_digest(backend, l, r), hash_pair(l, r), "{backend:?}");
                }
            }
        }
    }

    #[test]
    fn fast_and_reference_inclusion_verdicts_agree() {
        for n in [1usize, 2, 3, 7, 33] {
            let t = MerkleTree::from_leaves(&leaves(n));
            assert_eq!(t.leaf_digests().len(), n);
            for (i, &leaf) in t.leaf_digests().iter().enumerate() {
                let mut p = t.prove(i).unwrap();
                assert!(verify_inclusion_digest(&t.root(), leaf, &p));
                assert!(verify_inclusion_digest_reference(&t.root(), leaf, &p));
                p.index ^= 1;
                assert_eq!(
                    verify_inclusion_digest(&t.root(), leaf, &p),
                    verify_inclusion_digest_reference(&t.root(), leaf, &p),
                    "n={n} i={i}"
                );
            }
        }
        assert!(MerkleTree::from_leaves::<Vec<u8>>(&[]).leaf_digests().is_empty());
    }

    #[test]
    fn proof_depth_logarithmic() {
        let t = MerkleTree::from_leaves(&leaves(1024));
        assert_eq!(t.proof_len(0), 10);
        let t33 = MerkleTree::from_leaves(&leaves(33));
        assert!(t33.proof_len(0) <= 6);
    }
}
