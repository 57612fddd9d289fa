//! Autoregressive greedy decoding for the Qwen-style decoder — the
//! multi-step text-generation workload of §7.
//!
//! Each step executes the decoder graph on the current window and selects
//! the next token from the last position's logits. Token selection is the
//! discrete decision the paper's tie-break discussion targets: without a
//! committed rule, tolerance-level logit drift can flip an argmax and turn
//! numerical noise into divergent generations.

use std::cmp::Ordering;

use tao_graph::{execute, forward, BufferPool};
use tao_merkle::{Digest, ParamDigests, TokenChain, TraceCommitment};
use tao_tensor::{KernelConfig, Tensor};

use crate::common::Model;
use crate::qwen::QwenConfig;

/// One decoded step: the chosen token and the last-position logits it was
/// chosen from (the step state a temporal commitment would cover).
#[derive(Debug, Clone)]
pub struct DecodeStep {
    /// Selected token id.
    pub token: usize,
    /// The logits lane the selection was made from.
    pub logits: Vec<f32>,
}

/// Token-selection policy for decoding.
pub trait SelectToken {
    /// Chooses a token index from a logits lane at a given step.
    fn select(&self, logits: &[f32], step: u64) -> Option<usize>;
}

/// Plain argmax over the non-NaN logits (ties, `-0.0` against `+0.0`
/// included, resolve to the highest index; *not* drift-stable). A lane
/// with no non-NaN logit selects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Argmax;

impl SelectToken for Argmax {
    fn select(&self, logits: &[f32], _step: u64) -> Option<usize> {
        logits
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(Ordering::Equal))
            .map(|(i, _)| i)
    }
}

/// Greedy-decodes `steps` tokens starting from `prompt` (a full-window
/// token-id tensor). The window slides: the oldest token is dropped and
/// the new one appended, keeping the graph shape static.
///
/// # Errors
///
/// Returns an error when a forward pass fails.
pub fn greedy_decode(
    model: &Model,
    cfg: QwenConfig,
    prompt: &Tensor<f32>,
    steps: usize,
    kernel: &KernelConfig,
    policy: &impl SelectToken,
) -> Result<Vec<DecodeStep>, tao_graph::GraphError> {
    let mut window = prompt.clone();
    let mut out = Vec::with_capacity(steps);
    // The decode loop only reads the logits, so it runs on the pooled
    // outputs-only executor: parameters are Arc-shared (no per-step weight
    // copies) and each step's intermediates recycle through one pool.
    // Bit-identical to the trace executor — same kernels, same order.
    let logits_pos = model
        .graph
        .outputs()
        .iter()
        .position(|&id| id == model.logits);
    let mut pool = BufferPool::new();
    for step in 0..steps {
        let logits_value;
        let logits = match logits_pos {
            Some(pos) => {
                let mut outputs = forward(
                    &model.graph,
                    std::slice::from_ref(&window),
                    kernel,
                    &mut pool,
                )?;
                logits_value = outputs.swap_remove(pos);
                &logits_value
            }
            None => {
                // Logits are not a declared graph output (not the case for
                // the in-tree decoders): fall back to the trace executor.
                let exec = execute(&model.graph, std::slice::from_ref(&window), kernel, None)?;
                logits_value = exec.value(model.logits)?.clone();
                &logits_value
            }
        };
        let lane = logits.data()[logits.len() - cfg.vocab..].to_vec();
        let token = policy.select(&lane, step as u64).unwrap_or(0);
        out.push(DecodeStep {
            token,
            logits: lane,
        });
        // Slide the window.
        let mut ids = window.data()[1..].to_vec();
        ids.push(token as f32);
        window = Tensor::from_vec(ids, &[cfg.seq]).expect("window keeps its shape");
    }
    Ok(out)
}

/// Incremental commitment over a decode session: one per-step trace root
/// plus a prefix-stable [`TokenChain`] binding `(step, token, step_root)`
/// triples in order.
///
/// Appending token `n+1` extends the chain without rehashing the prefix,
/// so a long autoregressive session stays disputable at token granularity:
/// `chain.root_at(t)` commits steps `0..=t`, and any single step can be
/// contested against its own `step_roots[t]` with the usual per-node
/// bisection — no recommitment of earlier tokens required.
#[derive(Debug, Clone)]
pub struct DecodeCommitment {
    /// Per-step trace-commitment roots (one full forward pass each).
    pub step_roots: Vec<Digest>,
    /// Rolling chain over `(step, token, step_root)`; see [`TokenChain`].
    pub chain: TokenChain,
}

/// [`greedy_decode`] plus per-token incremental commitments: each step
/// keeps its forward pass's trace, commits it in one batch
/// ([`TraceCommitment::build_with_params`]) and appends the step root to a
/// prefix-stable [`TokenChain`].
///
/// Decoded tokens and logits are bit-identical to [`greedy_decode`]: both
/// executors evaluate every node with the same kernels.
///
/// # Errors
///
/// Returns an error when a forward pass fails.
pub fn greedy_decode_committed(
    model: &Model,
    cfg: QwenConfig,
    prompt: &Tensor<f32>,
    steps: usize,
    kernel: &KernelConfig,
    policy: &impl SelectToken,
) -> Result<(Vec<DecodeStep>, DecodeCommitment), tao_graph::GraphError> {
    let mut window = prompt.clone();
    let mut out = Vec::with_capacity(steps);
    let mut step_roots = Vec::with_capacity(steps);
    let mut chain = TokenChain::new();
    // The weights are hashed once per call, not once per token.
    let params = ParamDigests::new(&model.graph);
    for step in 0..steps {
        // Each token's forward pass gets its own trace root, so disputes
        // land on one step, not the session.
        let exec = execute(&model.graph, std::slice::from_ref(&window), kernel, None)?;
        let step_root = TraceCommitment::build_with_params(&exec.values, &params).root();
        let logits = exec.value(model.logits)?;
        let lane = logits.data()[logits.len() - cfg.vocab..].to_vec();
        let token = policy.select(&lane, step as u64).unwrap_or(0);
        chain.append(token as u64, &step_root);
        step_roots.push(step_root);
        out.push(DecodeStep {
            token,
            logits: lane,
        });
        let mut ids = window.data()[1..].to_vec();
        ids.push(token as f32);
        window = Tensor::from_vec(ids, &[cfg.seq]).expect("window keeps its shape");
    }
    Ok((out, DecodeCommitment { step_roots, chain }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qwen;

    #[test]
    fn argmax_skips_nan_and_keeps_the_zero_tie_break() {
        let nan = f32::NAN;
        // One NaN among finite logits is skipped, wherever it sits.
        assert_eq!(Argmax.select(&[1.0, nan, 3.0, 2.0], 0), Some(2));
        assert_eq!(Argmax.select(&[nan, 0.5, -1.0], 0), Some(1));
        // A lane with nothing but NaN selects nothing.
        assert_eq!(Argmax.select(&[nan, nan, nan], 0), None);
        // -0.0 and +0.0 compare equal, so the later index wins as it always
        // has; a total order would pick index 0 (+0.0 > -0.0).
        assert_eq!(Argmax.select(&[0.0, -0.0, -1.0], 0), Some(1));
        assert_eq!(Argmax.select(&[-0.0, 0.0, -1.0], 0), Some(1));
    }

    #[test]
    fn decode_is_deterministic_per_kernel() {
        let cfg = QwenConfig::small();
        let model = qwen::build(cfg, 3);
        let prompt = qwen::sample_ids(cfg, 1);
        let k = KernelConfig::reference();
        let a = greedy_decode(&model, cfg, &prompt, 5, &k, &Argmax).unwrap();
        let b = greedy_decode(&model, cfg, &prompt, 5, &k, &Argmax).unwrap();
        let ta: Vec<usize> = a.iter().map(|s| s.token).collect();
        let tb: Vec<usize> = b.iter().map(|s| s.token).collect();
        assert_eq!(ta, tb);
        assert!(ta.iter().all(|&t| t < cfg.vocab));
    }

    #[test]
    fn decode_depends_on_prompt() {
        let cfg = QwenConfig::small();
        let model = qwen::build(cfg, 3);
        let k = KernelConfig::reference();
        let a = greedy_decode(&model, cfg, &qwen::sample_ids(cfg, 1), 6, &k, &Argmax).unwrap();
        let b = greedy_decode(&model, cfg, &qwen::sample_ids(cfg, 2), 6, &k, &Argmax).unwrap();
        let ta: Vec<usize> = a.iter().map(|s| s.token).collect();
        let tb: Vec<usize> = b.iter().map(|s| s.token).collect();
        assert_ne!(ta, tb, "different prompts should rarely decode identically");
    }

    #[test]
    fn committed_decode_matches_plain_and_is_prefix_stable() {
        let cfg = QwenConfig::small();
        let model = qwen::build(cfg, 3);
        let prompt = qwen::sample_ids(cfg, 1);
        let k = KernelConfig::reference();
        let plain = greedy_decode(&model, cfg, &prompt, 5, &k, &Argmax).unwrap();
        let (committed, c5) =
            greedy_decode_committed(&model, cfg, &prompt, 5, &k, &Argmax).unwrap();
        // Observation never perturbs the decode.
        for (a, b) in plain.iter().zip(&committed) {
            assert_eq!(a.token, b.token);
            assert_eq!(a.logits, b.logits);
        }
        assert_eq!(c5.step_roots.len(), 5);
        assert_eq!(c5.chain.len(), 5);
        // Prefix stability: a 4-step session's chain is literally the
        // 5-step session's chain truncated — no prefix rehashing.
        let (_, c4) = greedy_decode_committed(&model, cfg, &prompt, 4, &k, &Argmax).unwrap();
        assert_eq!(c4.step_roots[..], c5.step_roots[..4]);
        assert_eq!(&c4.chain.root(), c5.chain.root_at(3).unwrap());
        // And the rolling chain matches its post-hoc oracle.
        let steps: Vec<(u64, Digest)> = committed
            .iter()
            .zip(&c5.step_roots)
            .map(|(s, r)| (s.token as u64, *r))
            .collect();
        assert_eq!(TokenChain::from_steps(&steps).root(), c5.chain.root());
    }

    #[test]
    fn steps_carry_full_logits_lane() {
        let cfg = QwenConfig::small();
        let model = qwen::build(cfg, 3);
        let k = KernelConfig::reference();
        let steps = greedy_decode(&model, cfg, &qwen::sample_ids(cfg, 5), 3, &k, &Argmax).unwrap();
        assert_eq!(steps.len(), 3);
        for s in &steps {
            assert_eq!(s.logits.len(), cfg.vocab);
            assert_eq!(s.token, Argmax.select(&s.logits, 0).unwrap());
        }
    }
}
