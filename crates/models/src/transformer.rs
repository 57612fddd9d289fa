//! Shared transformer building blocks — multi-head attention and FFNs —
//! plus a small post-norm encoder classifier ([`build`]) whose output head
//! is a softmax (the calibration-safe head shape the graph linter checks
//! for).

use tao_graph::{GraphBuilder, NodeId, OpKind};
use tao_tensor::Tensor;

use crate::common::{xavier, Model};

/// Multi-head attention hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AttnDims {
    /// Sequence length.
    pub seq: usize,
    /// Model width.
    pub dim: usize,
    /// Head count (must divide `dim`).
    pub heads: usize,
}

impl AttnDims {
    /// Per-head width.
    pub fn head_dim(&self) -> usize {
        self.dim / self.heads
    }
}

/// Builds multi-head self-attention over a `[seq, dim]` activation.
///
/// `causal_mask` (a `[seq, seq]` parameter with ones above the diagonal)
/// switches on autoregressive masking via `MaskedFill(-1e9)`.
pub fn self_attention(
    b: &mut GraphBuilder,
    prefix: &str,
    x: NodeId,
    d: AttnDims,
    causal_mask: Option<NodeId>,
    seed: u64,
) -> NodeId {
    let (t, dim, h, hd) = (d.seq, d.dim, d.heads, d.head_dim());
    let mut s = seed;
    let mut w = |b: &mut GraphBuilder, name: &str, out: usize| {
        s += 1;
        b.parameter(
            format!("{prefix}.{name}.weight"),
            xavier(&[out, dim], dim, out, s),
        )
    };
    let wq = w(b, "q", dim);
    let wk = w(b, "k", dim);
    let wv = w(b, "v", dim);
    let wo = w(b, "o", dim);

    let q = b.op(format!("{prefix}.q"), OpKind::Linear, &[x, wq]);
    let k = b.op(format!("{prefix}.k"), OpKind::Linear, &[x, wk]);
    let v = b.op(format!("{prefix}.v"), OpKind::Linear, &[x, wv]);

    // [t, dim] -> [h, t, hd].
    let split = |b: &mut GraphBuilder, name: &str, n: NodeId| {
        let r = b.op(
            format!("{prefix}.{name}.split"),
            OpKind::Reshape(vec![t, h, hd]),
            &[n],
        );
        b.op(
            format!("{prefix}.{name}.perm"),
            OpKind::Permute(vec![1, 0, 2]),
            &[r],
        )
    };
    let qh = split(b, "q", q);
    let kh = split(b, "k", k);
    let vh = split(b, "v", v);

    let kt = b.op(format!("{prefix}.k_t"), OpKind::Transpose(1, 2), &[kh]);
    let scores = b.op(format!("{prefix}.scores"), OpKind::MatMul, &[qh, kt]);
    let scale = 1.0 / (hd as f64).sqrt();
    let scaled = b.op(
        format!("{prefix}.scale"),
        OpKind::MulScalar(scale),
        &[scores],
    );
    let masked = match causal_mask {
        Some(m) => b.op(
            format!("{prefix}.mask"),
            OpKind::MaskedFill(-1e9),
            &[scaled, m],
        ),
        None => scaled,
    };
    let attn = b.op(format!("{prefix}.softmax"), OpKind::Softmax, &[masked]);
    let ctx = b.op(format!("{prefix}.ctx"), OpKind::MatMul, &[attn, vh]);
    // [h, t, hd] -> [t, dim].
    let merged = b.op(
        format!("{prefix}.merge.perm"),
        OpKind::Permute(vec![1, 0, 2]),
        &[ctx],
    );
    let flat = b.op(
        format!("{prefix}.merge.reshape"),
        OpKind::Reshape(vec![t, dim]),
        &[merged],
    );
    b.op(format!("{prefix}.o"), OpKind::Linear, &[flat, wo])
}

/// Builds a GELU feed-forward network `Linear → GELU → Linear`.
pub fn gelu_ffn(
    b: &mut GraphBuilder,
    prefix: &str,
    x: NodeId,
    dim: usize,
    hidden: usize,
    seed: u64,
) -> NodeId {
    let w1 = b.parameter(
        format!("{prefix}.fc1.weight"),
        xavier(&[hidden, dim], dim, hidden, seed),
    );
    let b1 = b.parameter(
        format!("{prefix}.fc1.bias"),
        Tensor::<f32>::zeros(&[hidden]),
    );
    let w2 = b.parameter(
        format!("{prefix}.fc2.weight"),
        xavier(&[dim, hidden], hidden, dim, seed + 1),
    );
    let b2 = b.parameter(format!("{prefix}.fc2.bias"), Tensor::<f32>::zeros(&[dim]));
    let h = b.op(format!("{prefix}.fc1"), OpKind::Linear, &[x, w1, b1]);
    let a = b.op(format!("{prefix}.gelu"), OpKind::Gelu, &[h]);
    b.op(format!("{prefix}.fc2"), OpKind::Linear, &[a, w2, b2])
}

/// Builds a SwiGLU feed-forward network
/// `(SiLU(x·W_g) ⊙ (x·W_u)) · W_d` (the Qwen/LLaMA MLP).
pub fn swiglu_ffn(
    b: &mut GraphBuilder,
    prefix: &str,
    x: NodeId,
    dim: usize,
    hidden: usize,
    seed: u64,
) -> NodeId {
    let wg = b.parameter(
        format!("{prefix}.gate.weight"),
        xavier(&[hidden, dim], dim, hidden, seed),
    );
    let wu = b.parameter(
        format!("{prefix}.up.weight"),
        xavier(&[hidden, dim], dim, hidden, seed + 1),
    );
    let wd = b.parameter(
        format!("{prefix}.down.weight"),
        xavier(&[dim, hidden], hidden, dim, seed + 2),
    );
    let gate = b.op(format!("{prefix}.gate"), OpKind::Linear, &[x, wg]);
    let act = b.op(format!("{prefix}.silu"), OpKind::Silu, &[gate]);
    let up = b.op(format!("{prefix}.up"), OpKind::Linear, &[x, wu]);
    let prod = b.op(format!("{prefix}.glu"), OpKind::Mul, &[act, up]);
    b.op(format!("{prefix}.down"), OpKind::Linear, &[prod, wd])
}

/// Encoder-classifier configuration for [`build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length.
    pub seq: usize,
    /// Model width.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder layers.
    pub layers: usize,
}

impl TransformerConfig {
    /// Laptop-scale encoder classifier.
    pub fn small() -> Self {
        TransformerConfig {
            vocab: 64,
            seq: 8,
            dim: 24,
            heads: 4,
            layers: 2,
        }
    }
}

/// Builds a pre-norm transformer encoder with a *softmax* output head:
/// token embeddings, `layers` blocks of LayerNorm → unmasked attention →
/// residual → LayerNorm → GELU FFN → residual, a final LayerNorm, and a
/// per-token vocabulary distribution `[seq, vocab]`. Unlike the other
/// bundled language models, the head is bounded — this is the
/// calibration-safe shape the `tao-analysis` linter certifies clean.
pub fn build(cfg: TransformerConfig, seed: u64) -> Model {
    let mut b = GraphBuilder::new(1);
    let ids = b.input(0, "token_ids");
    let mut s = seed * 20_000;
    let mut next = || {
        s += 1;
        s
    };

    let table = b.parameter(
        "encoder.embed.weight",
        xavier(&[cfg.vocab, cfg.dim], cfg.vocab, cfg.dim, next()),
    );
    let mut cur = b.op("encoder.embed", OpKind::Embedding, &[table, ids]);

    let d = AttnDims {
        seq: cfg.seq,
        dim: cfg.dim,
        heads: cfg.heads,
    };
    for l in 0..cfg.layers {
        let p = format!("encoder.layers{l}");
        let norm1 = layer_norm(&mut b, &format!("{p}.ln1"), cur, cfg.dim);
        let attn = self_attention(&mut b, &format!("{p}.attn"), norm1, d, None, next());
        let res1 = b.op(format!("{p}.residual1"), OpKind::Add, &[attn, cur]);
        let norm2 = layer_norm(&mut b, &format!("{p}.ln2"), res1, cfg.dim);
        let ffn = gelu_ffn(
            &mut b,
            &format!("{p}.ffn"),
            norm2,
            cfg.dim,
            cfg.dim * 4,
            next(),
        );
        cur = b.op(format!("{p}.residual2"), OpKind::Add, &[ffn, res1]);
    }

    let final_norm = layer_norm(&mut b, "encoder.norm", cur, cfg.dim);
    let head = b.parameter(
        "head.weight",
        xavier(&[cfg.vocab, cfg.dim], cfg.dim, cfg.vocab, next()),
    );
    let scores = b.op("head", OpKind::Linear, &[final_norm, head]);
    let probs = b.op("head.softmax", OpKind::Softmax, &[scores]);

    let graph = b
        .finish(vec![probs])
        .expect("transformer graph is well-formed");
    Model {
        name: "transformer-sim".into(),
        graph,
        logits: probs,
        input_shapes: vec![vec![cfg.seq]],
    }
}

/// Samples a valid token-id input for the model.
pub fn sample_ids(cfg: TransformerConfig, seed: u64) -> Tensor<f32> {
    crate::data::zipf_tokens(cfg.seq, cfg.vocab, seed)
}

/// A `[seq, seq]` upper-triangular causal mask (1 above the diagonal).
pub fn causal_mask_tensor(seq: usize) -> Tensor<f32> {
    let mut m = Tensor::<f32>::zeros(&[seq, seq]);
    for i in 0..seq {
        for j in i + 1..seq {
            m.data_mut()[i * seq + j] = 1.0;
        }
    }
    m
}

/// Adds LayerNorm parameters and the op over the last axis.
pub fn layer_norm(b: &mut GraphBuilder, prefix: &str, x: NodeId, dim: usize) -> NodeId {
    let gamma = b.parameter(format!("{prefix}.gamma"), Tensor::<f32>::ones(&[dim]));
    let beta = b.parameter(format!("{prefix}.beta"), Tensor::<f32>::zeros(&[dim]));
    b.op(
        prefix.to_string(),
        OpKind::LayerNorm { eps: 1e-5 },
        &[x, gamma, beta],
    )
}

/// Adds RMSNorm parameters and the op over the last axis.
pub fn rms_norm(b: &mut GraphBuilder, prefix: &str, x: NodeId, dim: usize) -> NodeId {
    let gamma = b.parameter(format!("{prefix}.gamma"), Tensor::<f32>::ones(&[dim]));
    b.op(
        prefix.to_string(),
        OpKind::RmsNorm { eps: 1e-6 },
        &[x, gamma],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_graph::execute;
    use tao_tensor::KernelConfig;

    #[test]
    fn attention_shapes_hold() {
        let d = AttnDims {
            seq: 6,
            dim: 16,
            heads: 4,
        };
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let out = self_attention(&mut b, "attn", x, d, None, 1);
        let g = b.finish(vec![out]).unwrap();
        let input = Tensor::<f32>::randn(&[6, 16], 2);
        let exec = execute(&g, &[input], &KernelConfig::reference(), None).unwrap();
        assert_eq!(exec.value(out).unwrap().dims(), &[6, 16]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let d = AttnDims {
            seq: 4,
            dim: 8,
            heads: 2,
        };
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let mask = b.parameter("mask", causal_mask_tensor(4));
        let out = self_attention(&mut b, "attn", x, d, Some(mask), 3);
        let g = b.finish(vec![out]).unwrap();
        // Find the softmax node to inspect attention weights.
        let sm = g
            .nodes()
            .iter()
            .find(|n| n.name == "attn.softmax")
            .unwrap()
            .id;
        let input = Tensor::<f32>::randn(&[4, 8], 4);
        let exec = execute(&g, &[input], &KernelConfig::reference(), None).unwrap();
        let attn = exec.value(sm).unwrap();
        // attn: [heads, 4, 4]; everything above the diagonal must be ~0.
        for h in 0..2 {
            for i in 0..4 {
                for j in i + 1..4 {
                    let w = attn.at(&[h, i, j]).unwrap();
                    assert!(w < 1e-6, "future weight {w} at ({h},{i},{j})");
                }
            }
        }
    }

    #[test]
    fn ffn_variants_execute() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let g1 = gelu_ffn(&mut b, "ffn", x, 8, 16, 5);
        let g2 = swiglu_ffn(&mut b, "glu", g1, 8, 16, 6);
        let ln = layer_norm(&mut b, "ln", g2, 8);
        let rn = rms_norm(&mut b, "rn", ln, 8);
        let g = b.finish(vec![rn]).unwrap();
        let input = Tensor::<f32>::randn(&[3, 8], 7);
        let exec = execute(&g, &[input], &KernelConfig::reference(), None).unwrap();
        assert_eq!(exec.value(rn).unwrap().dims(), &[3, 8]);
        assert!(exec.value(rn).unwrap().all_finite());
    }

    #[test]
    fn encoder_classifier_outputs_distributions() {
        let cfg = TransformerConfig::small();
        let m = build(cfg, 1);
        let ids = sample_ids(cfg, 2);
        let exec = execute(&m.graph, &[ids], &KernelConfig::reference(), None).unwrap();
        let probs = exec.value(m.logits).unwrap();
        assert_eq!(probs.dims(), &[cfg.seq, cfg.vocab]);
        assert!(probs.all_finite());
        // Softmax head: every row sums to ~1 and is nonnegative.
        for t in 0..cfg.seq {
            let mut sum = 0.0f32;
            for j in 0..cfg.vocab {
                let p = probs.at(&[t, j]).unwrap();
                assert!(p >= 0.0);
                sum += p;
            }
            assert!((sum - 1.0).abs() < 1e-4, "row {t} sums to {sum}");
        }
    }

    #[test]
    fn mask_tensor_strictly_upper() {
        let m = causal_mask_tensor(3);
        assert_eq!(m.data(), &[0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
    }
}
