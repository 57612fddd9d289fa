//! Merkle trees with domain separation and inclusion proofs.
//!
//! Tree construction has two implementations with bit-identical output:
//! the seed builder ([`MerkleTree::from_leaf_digests_reference`]), kept
//! in-tree permanently as the differential oracle, and the default builder
//! ([`MerkleTree::from_leaf_digests`]), which walks the same levels but
//! hashes each level's interior nodes as one [`sha256_batch`]. Both run on
//! the calling thread: the largest tree a protocol session builds has a
//! few hundred leaves.

use crate::sha256::{
    compress_blocks, sha256, sha256_batch, state_digest, Digest, FastSha256, Sha256, H0,
};

/// Domain-separation prefix for leaf hashes.
pub(crate) const LEAF_PREFIX: u8 = 0x00;
/// Domain-separation prefix for interior hashes.
pub(crate) const NODE_PREFIX: u8 = 0x01;

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
    /// Builds a tree from raw leaf byte strings; bit-identical to
    /// [`MerkleTree::from_leaves_reference`].
    pub fn from_leaves<B: AsRef<[u8]>>(leaves: &[B]) -> Self {
        Self::from_leaf_digests(hash_leaves(leaves))
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
    /// digests, hashing each level's pairs `NODE_PREFIX || l || r` in one
    /// batch; bit-identical to
    /// [`MerkleTree::from_leaf_digests_reference`].
    pub fn from_leaf_digests(leaf_digests: Vec<Digest>) -> Self {
        let mut levels = vec![leaf_digests];
        while let Some(prev) = levels.last().filter(|l| l.len() > 1) {
            let pairs: Vec<(&[u8], &[u8])> = prev
                .as_flattened()
                .chunks_exact(64)
                .map(|pair| (&[NODE_PREFIX][..], pair))
                .collect();
            let mut next = sha256_batch(&pairs);
            if prev.len() % 2 == 1 {
                // Odd node promoted unchanged.
                next.push(prev[prev.len() - 1]);
            }
            levels.push(next);
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

    /// The leaf digests (`H(LEAF_PREFIX || leaf)`), in leaf order: what
    /// [`verify_inclusion_digest`] takes for a leaf of this tree.
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
        let path = &self.levels[..self.levels.len().saturating_sub(1)];
        let mut siblings = Vec::with_capacity(path.len());
        let mut idx = index;
        for level in path {
            let sib = idx ^ 1;
            siblings.push(level.get(sib).copied());
            idx /= 2;
        }
        Some(InclusionProof { index, siblings })
    }

    /// True when `proof` opens leaf `leaf` of this tree, decided by
    /// comparing the proof with the tree's own nodes instead of hashing its
    /// path. The verdict equals
    /// `verify_inclusion_digest(&self.root(), self.leaf_digests()[leaf], proof)`
    /// unless SHA-256 has a collision; an out-of-range `leaf` is rejected.
    ///
    /// The walk starts at the root and consumes the proof's present
    /// siblings from the top: each must equal the child of the current
    /// node on the side the proof's index bit names, and the walk moves to
    /// the other child (through nodes promoted unchanged from the level
    /// below). Once the siblings are used up, the node reached must be the
    /// leaf's digest. `None` slots and index bits at `None` levels (or past
    /// the tree's depth) are skipped, as the hashing walk skips them. Where
    /// both children are equal, as in duplicate-leaf subtrees, either
    /// index bit compares equal. See ARCHITECTURE.md for the argument.
    pub fn matches_path(&self, leaf: usize, proof: &InclusionProof) -> bool {
        let Some(want) = self.leaf_digests().get(leaf) else {
            return false;
        };
        let (mut level, mut pos) = (self.levels.len() - 1, 0usize);
        for (k, sib) in proof.siblings.iter().enumerate().rev() {
            let Some(sib) = sib else { continue };
            // Descend to the level where the current node is a pair hash.
            while level > 0 && 2 * pos + 1 >= self.levels[level - 1].len() {
                level -= 1;
                pos *= 2;
            }
            // A leaf digest is never a pair hash (domain separation).
            if level == 0 {
                return false;
            }
            // The hashing walk halves the index once per level.
            let bit = if k < usize::BITS as usize {
                (proof.index >> k) & 1
            } else {
                0
            };
            if self.levels[level - 1][2 * pos + (1 - bit)] != *sib {
                return false;
            }
            level -= 1;
            pos = 2 * pos + bit;
        }
        self.levels[level][pos] == *want
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

/// Interior-node hash `H(NODE_PREFIX || l || r)`. The 65-byte message and
/// its padding (`0x80`, zeros, the 520-bit length) fill exactly two
/// blocks, staged once and compressed in one call. Bit-identical to
/// [`hash_pair`].
#[inline]
pub(crate) fn pair_digest(l: &Digest, r: &Digest) -> Digest {
    let mut blocks = [0u8; 128];
    blocks[0] = NODE_PREFIX;
    blocks[1..33].copy_from_slice(l);
    blocks[33..65].copy_from_slice(r);
    blocks[65] = 0x80;
    blocks[120..].copy_from_slice(&(65u64 * 8).to_be_bytes());
    let mut state = H0;
    compress_blocks(&mut state, &blocks);
    state_digest(&state)
}

/// The leaf digest `H(LEAF_PREFIX || leaf)`.
fn leaf_digest(leaf: &[u8]) -> Digest {
    let mut h = FastSha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(leaf);
    h.finalize()
}

/// Hashes raw leaves (`LEAF_PREFIX || leaf`) into leaf digests in one
/// batch. Equal to the scalar per-leaf hashing of
/// [`MerkleTree::from_leaves_reference`].
pub fn hash_leaves<B: AsRef<[u8]>>(leaves: &[B]) -> Vec<Digest> {
    let messages: Vec<(&[u8], &[u8])> = leaves
        .iter()
        .map(|l| (&[LEAF_PREFIX][..], l.as_ref()))
        .collect();
    sha256_batch(&messages)
}

/// Verifies an inclusion proof for raw leaf bytes against a root.
pub fn verify_inclusion(root: &Digest, leaf: &[u8], proof: &InclusionProof) -> bool {
    verify_inclusion_digest(root, leaf_digest(leaf), proof)
}

/// Verifies an inclusion proof for a precomputed leaf digest, hashing the
/// path as [`MerkleTree::from_leaf_digests`] hashes interior nodes.
pub fn verify_inclusion_digest(root: &Digest, leaf_digest: Digest, proof: &InclusionProof) -> bool {
    path_root(leaf_digest, proof, pair_digest) == *root
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
            assert_eq!(MerkleTree::from_leaves(&ls), oracle, "n={n}");
            let digests = oracle.leaf_digests().to_vec();
            assert_eq!(
                MerkleTree::from_leaf_digests(digests),
                oracle,
                "digests n={n}"
            );
        }
    }

    /// Trees with a first level of 16385 pairs (where level fan-out used
    /// to start) equal the seed oracle, also when several threads build
    /// at once.
    #[test]
    fn parallel_build_crosses_the_fanout_threshold() {
        let ls = leaves(2 * 16384 + 3);
        let oracle = MerkleTree::from_leaves_reference(&ls);
        assert_eq!(
            MerkleTree::from_leaf_digests(oracle.leaf_digests().to_vec()),
            oracle
        );
        std::thread::scope(|scope| {
            let builds: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| MerkleTree::from_leaves(&ls)))
                .collect();
            for b in builds {
                let fast = b.join().unwrap();
                assert_eq!(fast.root(), oracle.root());
                assert_eq!(fast, oracle);
            }
        });
    }

    #[test]
    fn pair_digest_matches_scalar_oracle_on_every_backend() {
        let digests: Vec<Digest> = (0..6u8).map(|i| sha256(&[i])).collect();
        for l in &digests {
            for r in &digests {
                assert_eq!(pair_digest(l, r), hash_pair(l, r));
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
        assert!(MerkleTree::from_leaves::<Vec<u8>>(&[])
            .leaf_digests()
            .is_empty());
    }

    #[test]
    fn proof_depth_logarithmic() {
        let t = MerkleTree::from_leaves(&leaves(1024));
        assert_eq!(t.proof_len(0), 10);
        let t33 = MerkleTree::from_leaves(&leaves(33));
        assert!(t33.proof_len(0) <= 6);
    }
}
