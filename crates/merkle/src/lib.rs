//! # tao-merkle
//!
//! Cryptographic commitments for the TAO protocol: a from-scratch FIPS
//! 180-4 SHA-256, injective canonical serialization of tensors and
//! operator signatures, domain-separated Merkle trees with inclusion
//! proofs, and the Phase 0/1 commitment constructions (`r_w`, `r_g`,
//! `r_e`, `C0`).
//!
//! # Examples
//!
//! ```
//! use tao_merkle::{sha256, to_hex, MerkleTree, verify_inclusion};
//!
//! let t = MerkleTree::from_leaves(&[b"a".to_vec(), b"b".to_vec()]);
//! let proof = t.prove(1).unwrap();
//! assert!(verify_inclusion(&t.root(), b"b", &proof));
//! assert_eq!(to_hex(&sha256(b"abc")).len(), 64);
//! ```

pub mod canon;
pub mod commit;
pub mod params;
pub mod sha256;
pub mod stream;
pub mod tree;

pub use canon::{
    canon_param, canon_param_sink, canon_signature, canon_tensor, canon_tensor_len,
    canon_tensor_sink, CanonSink,
};
pub use commit::{
    claim_commitment, commit_model, graph_tree, inputs_hash, tensor_hash, tensor_hash_reference,
    tensor_list_hash, verify_graph_leaf, verify_weight_leaf, weight_tree, weight_tree_reference,
    ClaimMeta, ModelCommitment, TraceCommitment,
};
pub use params::ParamDigests;
pub use sha256::{sha256, to_hex, Digest, FastSha256, Sha256};
pub use stream::{StreamingCommitter, TokenChain};
pub use tree::{
    hash_leaves, verify_inclusion, verify_inclusion_digest, verify_inclusion_digest_reference,
    InclusionProof, MerkleTree,
};
