//! Streamed trace commitments: hash node values *during* the forward pass
//! instead of in a post-hoc pass over the finished trace.
//!
//! [`StreamingCommitter`] implements [`tao_graph::ValueObserver`], so
//! either retention policy ([`tao_graph::execute_observed`] for traced
//! runs, [`tao_graph::forward_observed`] for pooled inference) feeds it
//! each node's final value exactly once, in node order. It hashes the value
//! inline at the observation point, which skips the second traversal of
//! the trace, and finishes by assembling the [`TraceCommitment`] via
//! [`TraceCommitment::from_digests`]. Given a deployment's
//! [`ParamDigests`], it skips rehashing the weights: parameter nodes take
//! their digests from the table. The digests are **bit-identical** to
//! the post-hoc [`TraceCommitment::build`] oracle by contract, asserted by
//! the `commit_equiv` differential suite.
//!
//! [`TokenChain`] extends the same machinery to autoregressive decoding:
//! each decode step appends one leaf binding `(step, token, step trace
//! root)` to a domain-separated rolling chain, so a session `n + 1` tokens
//! long extends the `n`-token commitment with two compression calls and
//! zero prefix rehashing — long sessions stay disputable at token
//! granularity.

use tao_graph::{NodeId, ValueObserver};
use tao_tensor::Tensor;

use crate::commit::{tensor_hash, TraceCommitment};
use crate::params::ParamDigests;
use crate::sha256::{Digest, Sha256};

/// Hashes each observed node value with [`tensor_hash`] (parameter
/// values served from a [`ParamDigests`] table) and assembles the
/// [`TraceCommitment`] at the end of the pass.
pub struct StreamingCommitter {
    slots: Vec<Option<Digest>>,
    params: ParamDigests,
}

impl StreamingCommitter {
    /// A committer for a graph of `len` nodes that hashes every value,
    /// parameters included.
    pub fn new(len: usize) -> Self {
        Self::with_params(len, &ParamDigests::default())
    }

    /// A committer for a graph of `len` nodes that takes parameter digests
    /// from `params` instead of rehashing the weights. Roots are
    /// bit-identical to [`StreamingCommitter::new`]'s for any table.
    pub fn with_params(len: usize, params: &ParamDigests) -> Self {
        StreamingCommitter {
            slots: vec![None; len],
            params: params.clone(),
        }
    }

    /// Number of nodes this committer expects to observe.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the committer expects no observations.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Assembles the commitment.
    ///
    /// # Panics
    ///
    /// Panics if any node was never observed — the executor guarantees the
    /// exactly-once contract, so a miss is a caller bug, not a runtime
    /// condition.
    pub fn finish(self) -> TraceCommitment {
        let digests: Vec<Digest> = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, d)| d.unwrap_or_else(|| panic!("node {i} never observed")))
            .collect();
        TraceCommitment::from_digests(digests)
    }
}

impl ValueObserver for StreamingCommitter {
    fn observe(&mut self, id: NodeId, value: &Tensor<f32>) {
        let digest = self
            .params
            .get(id.0, value)
            .unwrap_or_else(|| tensor_hash(value));
        self.slots[id.0] = Some(digest);
    }
}

/// Domain tags for the decode-time token chain.
const CHAIN_LEAF_DOMAIN: &[u8] = b"tao.v1.decode.leaf";
const CHAIN_NODE_DOMAIN: &[u8] = b"tao.v1.decode.chain";
const CHAIN_GENESIS_DOMAIN: &[u8] = b"tao.v1.decode.genesis";

/// A prefix-stable rolling commitment over an autoregressive decode: leaf
/// `t` binds `(t, token_t, r_t)` where `r_t` is the trace root of step
/// `t`'s forward pass, and the chain root after `t` steps binds the whole
/// prefix. Appending a token costs exactly two hashes — the prefix is
/// never recommitted — so `roots()[..n]` of an `n+1`-token chain equals
/// the `n`-token chain bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenChain {
    leaves: Vec<Digest>,
    roots: Vec<Digest>,
}

impl Default for TokenChain {
    fn default() -> Self {
        Self::new()
    }
}

impl TokenChain {
    /// An empty chain.
    pub fn new() -> Self {
        TokenChain {
            leaves: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// The chain root before any append (domain-separated genesis value).
    pub fn genesis() -> Digest {
        crate::sha256::sha256(CHAIN_GENESIS_DOMAIN)
    }

    /// Appends one decode step and returns the new chain root. `step_root`
    /// is the [`TraceCommitment`] root of the step's forward pass.
    pub fn append(&mut self, token: u64, step_root: &Digest) -> Digest {
        let t = self.leaves.len() as u64;
        let mut h = Sha256::new();
        h.update(CHAIN_LEAF_DOMAIN);
        h.update(&t.to_le_bytes());
        h.update(&token.to_le_bytes());
        h.update(step_root);
        let leaf = h.finalize();
        let mut h = Sha256::new();
        h.update(CHAIN_NODE_DOMAIN);
        h.update(&t.to_le_bytes());
        h.update(&self.root());
        h.update(&leaf);
        let root = h.finalize();
        self.leaves.push(leaf);
        self.roots.push(root);
        root
    }

    /// Rebuilds a chain from scratch over `(token, step_root)` pairs — the
    /// post-hoc differential oracle for the incremental [`append`] path.
    ///
    /// [`append`]: TokenChain::append
    pub fn from_steps(steps: &[(u64, Digest)]) -> Self {
        let mut chain = TokenChain::new();
        for (token, root) in steps {
            chain.append(*token, root);
        }
        chain
    }

    /// The current chain root ([`TokenChain::genesis`] when empty).
    pub fn root(&self) -> Digest {
        self.roots.last().copied().unwrap_or_else(Self::genesis)
    }

    /// The chain root after step `t` (prefix commitment).
    pub fn root_at(&self, t: usize) -> Option<&Digest> {
        self.roots.get(t)
    }

    /// All per-step leaves, in step order.
    pub fn leaves(&self) -> &[Digest] {
        &self.leaves
    }

    /// All per-step chain roots, in step order.
    pub fn roots(&self) -> &[Digest] {
        &self.roots
    }

    /// Number of appended steps.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True when no steps were appended.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_graph::{
        execute, execute_observed, forward_observed, BufferPool, GraphBuilder, OpKind,
    };
    use tao_tensor::KernelConfig;

    fn mlp() -> (tao_graph::Graph, Vec<Tensor<f32>>) {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w1 = b.parameter("w1", Tensor::<f32>::rand_uniform(&[8, 8], -0.5, 0.5, 1));
        let h = b.op("mm1", OpKind::MatMul, &[x, w1]);
        let r = b.op("relu", OpKind::Relu, &[h]);
        let w2 = b.parameter("w2", Tensor::<f32>::rand_uniform(&[8, 8], -0.5, 0.5, 2));
        let m = b.op("mm2", OpKind::MatMul, &[r, w2]);
        let a = b.op("res", OpKind::Add, &[m, x]);
        let g = b.finish(vec![a]).unwrap();
        let inputs = vec![Tensor::<f32>::rand_uniform(&[4, 8], -1.0, 1.0, 9)];
        (g, inputs)
    }

    #[test]
    fn streamed_commitment_equals_post_hoc_oracle_in_both_modes() {
        // Both retention policies: the traced pass and the pooled pass.
        let (g, inputs) = mlp();
        let cfg = KernelConfig::reference();
        let trace = execute(&g, &inputs, &cfg, None).unwrap();
        let oracle = TraceCommitment::build(&trace.values);

        let mut c = StreamingCommitter::new(g.len());
        let streamed_trace = execute_observed(&g, &inputs, &cfg, None, &mut c).unwrap();
        assert_eq!(c.finish(), oracle, "traced");
        assert_eq!(streamed_trace.values.len(), trace.values.len());

        let mut c = StreamingCommitter::new(g.len());
        let mut pool = BufferPool::new();
        let outputs = forward_observed(&g, &inputs, &cfg, &mut pool, &mut c).unwrap();
        assert_eq!(c.finish(), oracle, "pooled");
        assert_eq!(outputs[0].data(), trace.outputs(&g)[0].data());
    }

    #[test]
    fn token_chain_is_prefix_stable_and_matches_oracle() {
        let steps: Vec<(u64, Digest)> = (0..7u64)
            .map(|t| (t * 13 + 1, crate::sha256::sha256(&t.to_le_bytes())))
            .collect();
        let full = TokenChain::from_steps(&steps);
        let mut incremental = TokenChain::new();
        assert_eq!(incremental.root(), TokenChain::genesis());
        for (n, (token, root)) in steps.iter().enumerate() {
            incremental.append(*token, root);
            // The n-step prefix of the full chain is the n-step chain.
            assert_eq!(full.roots()[..=n], incremental.roots()[..], "step {n}");
        }
        assert_eq!(incremental, full);
        // Every field is bound.
        let mut other = TokenChain::from_steps(&steps[..6]);
        other.append(steps[6].0 + 1, &steps[6].1);
        assert_ne!(other.root(), full.root());
    }
}
