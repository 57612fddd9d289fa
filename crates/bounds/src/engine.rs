//! Per-operator theoretical error-bound templates and graph co-execution.
//!
//! Each traced operator is lowered to its primitive sub-steps and a
//! first-order sensitivity envelope is accumulated across them (§3.1):
//! propagated error `Σ |∂f/∂x_i| ε_i` plus fresh rounding `u·|f̂|`, with
//! reduction steps using `γ_k`/`γ̃_k(λ)` and intrinsics using their
//! documented maximum-ULP errors. Bounds are *operator-local*: inputs are
//! treated as exact, because TAO localizes disputes instead of propagating
//! error across the network.
//!
//! All bound arithmetic runs in f64 (the paper's runtime uses FP64 for
//! error-bound calculations), on the FP32 values of the execution trace.

use tao_tensor::{MathLib, Tensor};

use tao_graph::{Execution, Graph, Node, NodeId, OpKind};

use crate::error::BoundError;
use crate::gamma::{BoundMode, U32};
use crate::Result;

/// Computes element-wise theoretical bounds `τ_theo` for traced operators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundEngine {
    /// Accumulation-factor flavour (deterministic or probabilistic).
    pub mode: BoundMode,
    /// Intrinsic family whose documented ULP errors to charge.
    pub math: MathLib,
}

impl BoundEngine {
    /// Engine with the paper's defaults: probabilistic bounds (`λ = 4`)
    /// against the reference intrinsic family.
    pub fn paper_default() -> Self {
        BoundEngine {
            mode: BoundMode::probabilistic(),
            math: MathLib::Reference,
        }
    }

    /// Engine with deterministic worst-case factors.
    pub fn deterministic() -> Self {
        BoundEngine {
            mode: BoundMode::Deterministic,
            math: MathLib::Reference,
        }
    }

    /// Accumulation factor for a `k`-step chain at binary32 roundoff.
    pub fn gamma(&self, k: usize) -> f64 {
        self.mode.gamma(k, U32)
    }

    /// Relative error budget charged to an intrinsic with `ulp` documented
    /// maximum ULP error (one ULP spans two unit roundoffs).
    fn intrinsic_rel(&self, ulp: f64) -> f64 {
        2.0 * ulp * U32
    }

    /// ULP budget for `exp`: the proposer may legally use any allowed
    /// intrinsic family, so a sound check charges the fleet-worst ULP plus
    /// one ULP for the reference re-execution.
    fn exp_ulp(&self) -> f64 {
        self.math.exp_max_ulp().max(MathLib::exp_fleet_ulp()) + 1.0
    }

    /// ULP budget for `tanh` (fleet-worst plus reference).
    fn tanh_ulp(&self) -> f64 {
        self.math.tanh_max_ulp().max(MathLib::tanh_fleet_ulp()) + 1.0
    }

    /// ULP budget for `ln` (fleet-worst plus reference).
    fn ln_ulp(&self) -> f64 {
        self.math.ln_max_ulp().max(MathLib::ln_fleet_ulp()) + 1.0
    }

    /// ULP budget for `rsqrt` (fleet-worst plus reference).
    fn rsqrt_ulp(&self) -> f64 {
        self.math.rsqrt_max_ulp().max(MathLib::rsqrt_fleet_ulp()) + 1.0
    }

    /// Co-executes bounds for the whole trace: `τ_theo` for every node
    /// (zero tensors for structural operators).
    ///
    /// # Errors
    ///
    /// Returns an error when the trace does not match the graph.
    pub fn co_execute(&self, graph: &Graph, exec: &Execution) -> Result<Vec<Tensor<f64>>> {
        if exec.values.len() != graph.len() {
            return Err(BoundError::TraceMismatch {
                graph_len: graph.len(),
                trace_len: exec.values.len(),
            });
        }
        graph
            .nodes()
            .iter()
            .map(|node| self.node_bound(node, exec))
            .collect()
    }

    /// Element-wise bound `τ_theo` for one node, given the trace.
    ///
    /// The match over [`OpKind`] is exhaustive, so an operator without a
    /// rounding template is a compile error here.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed trace or unsupported shapes.
    #[allow(clippy::too_many_lines)]
    pub fn node_bound(&self, node: &Node, exec: &Execution) -> Result<Tensor<f64>> {
        let val = |id: NodeId| -> Result<Tensor<f64>> {
            Ok(exec.value(id).map_err(BoundError::from)?.cast::<f64>())
        };
        let out = exec.value(node.id).map_err(BoundError::from)?.cast::<f64>();
        let zero = || Tensor::<f64>::zeros(out.dims());
        let fresh = |scale: f64| out.map(|y| scale * U32 * y.abs());

        let bound = match &node.kind {
            // Structural / exact operators contribute no rounding error.
            OpKind::Input(_)
            | OpKind::Parameter(_)
            | OpKind::Neg
            | OpKind::Relu
            | OpKind::MaxAxis(_)
            | OpKind::MaxPool2d { .. }
            | OpKind::UpsampleNearest(_)
            | OpKind::Reshape(_)
            | OpKind::Flatten
            | OpKind::FlattenFrom(_)
            | OpKind::Transpose(_, _)
            | OpKind::Permute(_)
            | OpKind::Slice { .. }
            | OpKind::Concat(_)
            | OpKind::Embedding
            | OpKind::MaskedFill(_)
            | OpKind::Identity => zero(),

            // Quantized operators pin their entire numeric pipeline
            // (integer accumulation, deterministic f64 scale roundings),
            // so every honest device reproduces identical bits at every
            // `KernelConfig`: the cross-device deviation bound is zero and
            // *any* nonzero deviation is adversarial.
            OpKind::QuantMatmul
            | OpKind::QuantLinear
            | OpKind::Quantize { .. }
            | OpKind::Dequantize { .. } => zero(),

            // `scale` fresh roundings on the output: ε ≤ scale·u|out|
            // (elementwise arithmetic at 1, exp(y ln x) chains at 6).
            OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::AddScalar(_)
            | OpKind::MulScalar(_)
            | OpKind::Sqrt => fresh(1.0),
            OpKind::Pow | OpKind::PowScalar(_) => fresh(6.0),

            // Intrinsics: documented max-ULP relative errors.
            OpKind::Rsqrt => fresh(self.intrinsic_rel(self.rsqrt_ulp()) / U32),
            OpKind::Exp => fresh(self.intrinsic_rel(self.exp_ulp()) / U32),
            OpKind::Log => fresh(self.intrinsic_rel(self.ln_ulp()) / U32),
            OpKind::Tanh => fresh(self.intrinsic_rel(self.tanh_ulp()) / U32),
            OpKind::Sin | OpKind::Cos => {
                // |sin|,|cos| ≤ 1: charge 2 ULP absolute at unit scale.
                out.map(|y| 2.0 * U32 * (y.abs() + 1.0))
            }

            OpKind::Sigmoid => {
                // s = 1/(1 + exp(-x)): ε_e = ulp_exp·e, ε_d = ε_e + u·d,
                // ε_s = s²·ε_d + u·s  (|d(1/d)| = 1/d² = s²/…).
                let x = val(node.inputs[0])?;
                let rel_exp = self.intrinsic_rel(self.exp_ulp());
                Tensor::from_vec(
                    x.data()
                        .iter()
                        .map(|&v| {
                            let e = (-v).exp();
                            let d = 1.0 + e;
                            let s = 1.0 / d;
                            let eps_e = rel_exp * e;
                            let eps_d = eps_e + U32 * d;
                            s * s * eps_d + U32 * s
                        })
                        .collect(),
                    x.dims(),
                )?
            }
            OpKind::Silu => {
                // out = x·σ(x): ε = |x| ε_σ + u|out|.
                let x = val(node.inputs[0])?;
                let rel_exp = self.intrinsic_rel(self.exp_ulp());
                Tensor::from_vec(
                    x.data()
                        .iter()
                        .map(|&v| {
                            let e = (-v).exp();
                            let d = 1.0 + e;
                            let s = 1.0 / d;
                            let eps_s = s * s * (rel_exp * e + U32 * d) + U32 * s;
                            v.abs() * eps_s + U32 * (v * s).abs()
                        })
                        .collect(),
                    x.dims(),
                )?
            }
            OpKind::Gelu => {
                // u1 = c(x + kx³): 4 roundings on monomials;
                // t = tanh(u1): ε_t = (1-t²) ε_u1 + ulp_tanh·|t|;
                // out = 0.5x(1+t): ε = 0.5|x| ε_t + 2u|out|.
                let x = val(node.inputs[0])?;
                const C: f64 = 0.797_884_560_802_865_4;
                const K: f64 = 0.044_715;
                let rel_tanh = self.intrinsic_rel(self.tanh_ulp());
                let g4 = self.gamma(4);
                Tensor::from_vec(
                    x.data()
                        .iter()
                        .map(|&v| {
                            let inner = C * (v + K * v * v * v);
                            let t = inner.tanh();
                            let eps_inner = g4 * (C * v.abs() + C * K * v.abs().powi(3));
                            let eps_t = (1.0 - t * t) * eps_inner + rel_tanh * t.abs();
                            let y = 0.5 * v * (1.0 + t);
                            0.5 * v.abs() * eps_t + 2.0 * U32 * y.abs()
                        })
                        .collect(),
                    x.dims(),
                )?
            }

            OpKind::Softmax => self.softmax_bound(&val(node.inputs[0])?)?,

            OpKind::LayerNorm { eps } => {
                let x = val(node.inputs[0])?;
                let gamma_p = val(node.inputs[1])?;
                self.layer_norm_bound(&x, &gamma_p, *eps)?
            }
            OpKind::RmsNorm { eps } => {
                let x = val(node.inputs[0])?;
                let gamma_p = val(node.inputs[1])?;
                self.rms_norm_bound(&x, &gamma_p, *eps)?
            }
            OpKind::BatchNorm2d { eps } => {
                let x = val(node.inputs[0])?;
                let gamma_p = val(node.inputs[1])?;
                let mean = val(node.inputs[3])?;
                let var = val(node.inputs[4])?;
                self.batch_norm_bound(&x, &gamma_p, &mean, &var, *eps)?
            }
            OpKind::GroupNorm { groups, eps } => {
                let x = val(node.inputs[0])?;
                let gamma_p = val(node.inputs[1])?;
                self.group_norm_bound(&x, &gamma_p, *groups, *eps)?
            }

            // Length-k dot products under γ_k accumulation; the geometry
            // (and optional bias rounding) comes back off the node.
            OpKind::MatMul => {
                // |fl(aᵀb) − aᵀb| ≤ γ_k Σ|a_i||b_i| with k the dot length.
                let a = val(node.inputs[0])?.abs();
                let b = val(node.inputs[1])?.abs();
                let k = *a.dims().last().unwrap_or(&1);
                let absprod = a
                    .matmul(&b, &tao_tensor::KernelConfig::reference())
                    .map_err(BoundError::from)?;
                absprod.mul_scalar(self.gamma(k))
            }
            OpKind::Linear => {
                let x = val(node.inputs[0])?.abs();
                let w = val(node.inputs[1])?.abs();
                let k = *x.dims().last().unwrap_or(&1);
                let cfg = tao_tensor::KernelConfig::reference();
                let base = match node.inputs.get(2) {
                    Some(&b) => {
                        let bias = val(b)?.abs();
                        x.linear(&w, Some(&bias), &cfg).map_err(BoundError::from)?
                    }
                    None => x.linear(&w, None, &cfg).map_err(BoundError::from)?,
                };
                base.mul_scalar(self.gamma(k + 1))
            }
            OpKind::Conv2d { stride, padding } => {
                let x = val(node.inputs[0])?.abs();
                let w = val(node.inputs[1])?.abs();
                let patch: usize = w.dims()[1..].iter().product();
                let cfg = tao_tensor::KernelConfig::reference();
                let params = tao_tensor::Conv2dParams {
                    stride: *stride,
                    padding: *padding,
                };
                let base = match node.inputs.get(2) {
                    Some(&b) => {
                        let bias = val(b)?.abs();
                        x.conv2d(&w, Some(&bias), params, &cfg)
                            .map_err(BoundError::from)?
                    }
                    None => x.conv2d(&w, None, params, &cfg).map_err(BoundError::from)?,
                };
                base.mul_scalar(self.gamma(patch + 1))
            }

            OpKind::SumAll => {
                let x = val(node.inputs[0])?;
                let abs_sum: f64 = x.data().iter().map(|v| v.abs()).sum();
                Tensor::scalar(self.gamma(x.len().saturating_sub(1)) * abs_sum)
            }
            OpKind::MeanAll => {
                let x = val(node.inputs[0])?;
                let n = x.len().max(1) as f64;
                let abs_sum: f64 = x.data().iter().map(|v| v.abs()).sum();
                let y = out.data()[0];
                Tensor::scalar(self.gamma(x.len().saturating_sub(1)) * abs_sum / n + U32 * y.abs())
            }
            OpKind::SumAxis(axis) | OpKind::MeanAxis(axis) => {
                let mean = matches!(node.kind, OpKind::MeanAxis(_));
                let x = val(node.inputs[0])?;
                let extent = x.dims()[*axis];
                let g = self.gamma(extent.saturating_sub(1));
                let cfg = tao_tensor::KernelConfig::reference();
                let abs_sums = x.abs().sum_axis(*axis, &cfg).map_err(BoundError::from)?;
                let scale = if mean { 1.0 / extent as f64 } else { 1.0 };
                let mut t = abs_sums.mul_scalar(g * scale);
                if mean {
                    t = t.add(&fresh(1.0)).map_err(BoundError::from)?;
                }
                t
            }
            OpKind::AvgPool2d { kernel, .. } => {
                // Per window: γ_{k²-1}·Σ|window|/k² + u|out|; bound the
                // window abs-sum by k²·max|x| for a cheap envelope.
                let x = val(node.inputs[0])?;
                let k2 = (kernel * kernel) as f64;
                let g = self.gamma(kernel * kernel - 1);
                let max_abs = x.max_abs();
                out.map(|y| g * max_abs * k2 / k2 + U32 * y.abs())
            }
            OpKind::AdaptiveAvgPool1x1 => {
                let x = val(node.inputs[0])?;
                let (h, w) = (x.dims()[2], x.dims()[3]);
                let hw = h * w;
                let g = self.gamma(hw.saturating_sub(1));
                let cfg = tao_tensor::KernelConfig::reference();
                let per_chan = x
                    .abs()
                    .reshape(&[x.dims()[0] * x.dims()[1], hw])
                    .map_err(BoundError::from)?
                    .sum_axis(1, &cfg)
                    .map_err(BoundError::from)?;
                let t = per_chan.mul_scalar(g / hw as f64);
                t.reshape(out.dims())
                    .map_err(BoundError::from)?
                    .add(&fresh(1.0))
                    .map_err(BoundError::from)?
            }
        };
        Ok(bound)
    }

    /// The softmax template of §3.1, elementwise per lane.
    fn softmax_bound(&self, x: &Tensor<f64>) -> Result<Tensor<f64>> {
        let d = x.dims()[x.rank() - 1];
        let g = self.gamma(d.saturating_sub(1));
        let mut out = Vec::with_capacity(x.len());
        for lane in x.data().chunks(d) {
            let m = lane.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let e: Vec<f64> = lane.iter().map(|&v| (v - m).exp()).collect();
            let s: f64 = e.iter().sum();
            // ε_z ≤ u(|x| + |m|);  ε_e ≤ |e| ε_z + 2u|e|.
            let eps_e: Vec<f64> = lane
                .iter()
                .zip(&e)
                .map(|(&v, &ei)| ei * U32 * (v.abs() + m.abs()) + 2.0 * U32 * ei)
                .collect();
            // ε_S ≤ γ̃_{n-1} Σ|e| + (γ̃+1) Σ ε_e.
            let sum_eps_e: f64 = eps_e.iter().sum();
            let eps_s = g * s + (g + 1.0) * sum_eps_e;
            // ε_y ≤ ε_e/S + |e| ε_S / S² + u|y|.
            for (ei, epse) in e.iter().zip(&eps_e) {
                let y = ei / s;
                out.push(epse / s + ei * eps_s / (s * s) + U32 * y.abs());
            }
        }
        Ok(Tensor::from_vec(out, x.dims())?)
    }

    /// LayerNorm template: mean/var reductions, rsqrt intrinsic, affine.
    fn layer_norm_bound(
        &self,
        x: &Tensor<f64>,
        gamma_p: &Tensor<f64>,
        eps: f64,
    ) -> Result<Tensor<f64>> {
        let d = x.dims()[x.rank() - 1];
        let nd = d as f64;
        let g = self.gamma(d.saturating_sub(1));
        let rel_rsqrt = self.intrinsic_rel(self.rsqrt_ulp());
        let mut out = Vec::with_capacity(x.len());
        for lane in x.data().chunks(d) {
            let abs_sum: f64 = lane.iter().map(|v| v.abs()).sum();
            let mean: f64 = lane.iter().sum::<f64>() / nd;
            let eps_mean = g * abs_sum / nd + U32 * mean.abs();
            let centered: Vec<f64> = lane.iter().map(|&v| v - mean).collect();
            let var: f64 = centered.iter().map(|c| c * c).sum::<f64>() / nd;
            let eps_c: Vec<f64> = centered.iter().map(|&c| eps_mean + U32 * c.abs()).collect();
            let sq_abs_sum: f64 = centered.iter().map(|c| c * c).sum();
            let cross: f64 = centered
                .iter()
                .zip(&eps_c)
                .map(|(&c, &e)| 2.0 * c.abs() * e)
                .sum();
            let eps_var = g * sq_abs_sum / nd + cross / nd + U32 * var;
            let denom = var + eps;
            let inv = 1.0 / denom.sqrt();
            let eps_inv = 0.5 * inv / denom * eps_var + rel_rsqrt * inv;
            for (i, (&c, &ec)) in centered.iter().zip(&eps_c).enumerate() {
                let gm = gamma_p.data()[i].abs();
                let y = c * inv * gamma_p.data()[i];
                out.push((c.abs() * eps_inv + inv * ec) * gm + 3.0 * U32 * y.abs());
            }
        }
        Ok(Tensor::from_vec(out, x.dims())?)
    }

    /// RMSNorm template: mean-square reduction, rsqrt intrinsic, scale.
    fn rms_norm_bound(
        &self,
        x: &Tensor<f64>,
        gamma_p: &Tensor<f64>,
        eps: f64,
    ) -> Result<Tensor<f64>> {
        let d = x.dims()[x.rank() - 1];
        let nd = d as f64;
        let g = self.gamma(d.saturating_sub(1));
        let rel_rsqrt = self.intrinsic_rel(self.rsqrt_ulp());
        let mut out = Vec::with_capacity(x.len());
        for lane in x.data().chunks(d) {
            let sq: Vec<f64> = lane.iter().map(|&v| v * v).collect();
            let ms: f64 = sq.iter().sum::<f64>() / nd;
            // Squares carry one fresh rounding each, then the reduction.
            let eps_ms = g * sq.iter().sum::<f64>() / nd
                + sq.iter().map(|s| U32 * s).sum::<f64>() / nd
                + U32 * ms;
            let denom = ms + eps;
            let inv = 1.0 / denom.sqrt();
            let eps_inv = 0.5 * inv / denom * eps_ms + rel_rsqrt * inv;
            for (i, &v) in lane.iter().enumerate() {
                let gm = gamma_p.data()[i].abs();
                let y = v * inv * gamma_p.data()[i];
                out.push(v.abs() * eps_inv * gm + 2.0 * U32 * y.abs());
            }
        }
        Ok(Tensor::from_vec(out, x.dims())?)
    }

    /// Eval-mode BatchNorm: running stats are exact constants, so only the
    /// rsqrt intrinsic and the affine chain contribute.
    fn batch_norm_bound(
        &self,
        x: &Tensor<f64>,
        gamma_p: &Tensor<f64>,
        mean: &Tensor<f64>,
        var: &Tensor<f64>,
        eps: f64,
    ) -> Result<Tensor<f64>> {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let hw = h * w;
        let rel_rsqrt = self.intrinsic_rel(self.rsqrt_ulp());
        let mut out = Vec::with_capacity(x.len());
        for ni in 0..n {
            for ci in 0..c {
                let inv = 1.0 / (var.data()[ci] + eps).sqrt();
                let eps_inv = rel_rsqrt * inv;
                let gm = gamma_p.data()[ci].abs();
                let m = mean.data()[ci];
                let base = (ni * c + ci) * hw;
                for &v in &x.data()[base..base + hw] {
                    let cen = v - m;
                    let y = cen * inv * gamma_p.data()[ci];
                    out.push(
                        (cen.abs() * eps_inv + inv * U32 * (v.abs() + m.abs())) * gm
                            + 3.0 * U32 * y.abs(),
                    );
                }
            }
        }
        Ok(Tensor::from_vec(out, x.dims())?)
    }

    /// GroupNorm template: LayerNorm statistics per channel group.
    fn group_norm_bound(
        &self,
        x: &Tensor<f64>,
        gamma_p: &Tensor<f64>,
        groups: usize,
        eps: f64,
    ) -> Result<Tensor<f64>> {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let cg = c / groups;
        let glen = cg * h * w;
        let nd = glen as f64;
        let g = self.gamma(glen.saturating_sub(1));
        let rel_rsqrt = self.intrinsic_rel(self.rsqrt_ulp());
        let mut out = vec![0.0f64; x.len()];
        for ni in 0..n {
            for gi in 0..groups {
                let base = (ni * c + gi * cg) * h * w;
                let lane = &x.data()[base..base + glen];
                let abs_sum: f64 = lane.iter().map(|v| v.abs()).sum();
                let mean: f64 = lane.iter().sum::<f64>() / nd;
                let eps_mean = g * abs_sum / nd + U32 * mean.abs();
                let centered: Vec<f64> = lane.iter().map(|&v| v - mean).collect();
                let var: f64 = centered.iter().map(|c2| c2 * c2).sum::<f64>() / nd;
                let eps_var = g * centered.iter().map(|c2| c2 * c2).sum::<f64>() / nd
                    + centered
                        .iter()
                        .map(|&c2| 2.0 * c2.abs() * (eps_mean + U32 * c2.abs()))
                        .sum::<f64>()
                        / nd
                    + U32 * var;
                let denom = var + eps;
                let inv = 1.0 / denom.sqrt();
                let eps_inv = 0.5 * inv / denom * eps_var + rel_rsqrt * inv;
                for i in 0..glen {
                    let ch = gi * cg + i / (h * w);
                    let gm = gamma_p.data()[ch].abs();
                    let cen = centered[i];
                    let eps_c = eps_mean + U32 * cen.abs();
                    let y = cen * inv * gamma_p.data()[ch];
                    out[base + i] = (cen.abs() * eps_inv + inv * eps_c) * gm + 3.0 * U32 * y.abs();
                }
            }
        }
        Ok(Tensor::from_vec(out, x.dims())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_graph::{execute, GraphBuilder};
    use tao_tensor::KernelConfig;

    fn run_one(
        kind: OpKind,
        extra_params: Vec<(&str, Tensor<f32>)>,
        input: Tensor<f32>,
    ) -> (Graph, Execution, Vec<Tensor<f64>>) {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let mut args = vec![x];
        for (name, t) in extra_params {
            args.push(b.parameter(name, t));
        }
        let y = b.op("y", kind, &args);
        let g = b.finish(vec![y]).unwrap();
        let exec = execute(&g, &[input], &KernelConfig::reference(), None).unwrap();
        let bounds = BoundEngine::paper_default().co_execute(&g, &exec).unwrap();
        (g, exec, bounds)
    }

    #[test]
    fn structural_ops_zero_bound() {
        let (_, _, b) = run_one(
            OpKind::Relu,
            vec![],
            Tensor::rand_uniform(&[8], -1.0, 1.0, 1),
        );
        assert!(b[1].data().iter().all(|&t| t == 0.0));
    }

    #[test]
    fn add_bound_is_u_out() {
        let (_, exec, b) = run_one(
            OpKind::AddScalar(1.0),
            vec![],
            Tensor::rand_uniform(&[4], 1.0, 2.0, 2),
        );
        for (t, y) in b[1].data().iter().zip(exec.values[1].data()) {
            assert!((t - U32 * (*y as f64).abs()).abs() < 1e-18);
        }
    }

    #[test]
    fn bounds_cover_cross_device_deviation() {
        // The central soundness property: for every operator, the deviation
        // between any two kernel configurations must be within 2·τ_theo
        // (each side deviates at most τ from the exact value).
        use tao_device::Device;
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[64, 64], -1.0, 1.0, 3));
        let m = b.op("m", OpKind::MatMul, &[x, w]);
        let s = b.op("s", OpKind::Softmax, &[m]);
        let g = b.finish(vec![s]).unwrap();
        let input = Tensor::<f32>::rand_uniform(&[8, 64], -1.0, 1.0, 4);

        let reference = execute(
            &g,
            std::slice::from_ref(&input),
            &KernelConfig::reference(),
            None,
        )
        .unwrap();
        let engine = BoundEngine::paper_default();
        let bounds = engine.co_execute(&g, &reference).unwrap();

        for dev in Device::standard_fleet() {
            let other = execute(&g, std::slice::from_ref(&input), dev.config(), None).unwrap();
            for node in [m, s] {
                let tau = &bounds[node.0];
                let a = &reference.values[node.0];
                let bdev = &other.values[node.0];
                for i in 0..a.len() {
                    let dev_err = (a.data()[i] as f64 - bdev.data()[i] as f64).abs();
                    assert!(
                        dev_err <= 2.0 * tau.data()[i] + 1e-12,
                        "{}: node {node} elem {i}: |Δ| {dev_err:e} > 2τ {:e}",
                        dev.name(),
                        2.0 * tau.data()[i]
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_looser_than_probabilistic_for_large_reductions() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[512, 16], -1.0, 1.0, 5));
        let m = b.op("m", OpKind::MatMul, &[x, w]);
        let g = b.finish(vec![m]).unwrap();
        let input = Tensor::<f32>::rand_uniform(&[4, 512], -1.0, 1.0, 6);
        let exec = execute(&g, &[input], &KernelConfig::reference(), None).unwrap();
        let det = BoundEngine::deterministic().co_execute(&g, &exec).unwrap();
        let prob = BoundEngine::paper_default().co_execute(&g, &exec).unwrap();
        let mean = |t: &Tensor<f64>| t.data().iter().sum::<f64>() / t.len() as f64;
        assert!(
            mean(&det[m.0]) > 3.0 * mean(&prob[m.0]),
            "det {:e} vs prob {:e}",
            mean(&det[m.0]),
            mean(&prob[m.0])
        );
    }

    #[test]
    fn softmax_bound_positive_and_small() {
        let (_, exec, b) = run_one(
            OpKind::Softmax,
            vec![],
            Tensor::rand_uniform(&[2, 16], -3.0, 3.0, 7),
        );
        let tau = &b[1];
        for (t, y) in tau.data().iter().zip(exec.values[1].data()) {
            assert!(*t > 0.0);
            // Bound should be tiny relative to a probability output.
            assert!(*t < 1e-3 * (1.0 + (*y as f64).abs()), "bound {t}");
        }
    }

    #[test]
    fn layer_norm_and_rms_norm_bounds_cover_devices() {
        use tao_device::Device;
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let gm = b.parameter("g", Tensor::<f32>::rand_uniform(&[32], 0.5, 1.5, 8));
        let be = b.parameter("be", Tensor::<f32>::zeros(&[32]));
        let ln = b.op("ln", OpKind::LayerNorm { eps: 1e-5 }, &[x, gm, be]);
        let rn = b.op("rn", OpKind::RmsNorm { eps: 1e-6 }, &[ln, gm]);
        let g = b.finish(vec![rn]).unwrap();
        let input = Tensor::<f32>::rand_uniform(&[4, 32], -2.0, 2.0, 9);
        let reference = execute(
            &g,
            std::slice::from_ref(&input),
            &KernelConfig::reference(),
            None,
        )
        .unwrap();
        let bounds = BoundEngine::paper_default()
            .co_execute(&g, &reference)
            .unwrap();
        for dev in Device::standard_fleet() {
            let other = execute(&g, std::slice::from_ref(&input), dev.config(), None).unwrap();
            for node in [ln, rn] {
                for i in 0..reference.values[node.0].len() {
                    let d = (reference.values[node.0].data()[i] as f64
                        - other.values[node.0].data()[i] as f64)
                        .abs();
                    // Interior nodes see slightly perturbed inputs across
                    // devices; allow the 2τ envelope plus input drift.
                    assert!(
                        d <= 2.0 * bounds[node.0].data()[i] + 1e-5,
                        "node {node} elem {i}: {d:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_mismatch_detected() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let g = b.finish(vec![x]).unwrap();
        let bogus = Execution {
            values: vec![],
            flops: vec![],
        };
        assert!(BoundEngine::paper_default().co_execute(&g, &bogus).is_err());
    }

    #[test]
    fn conv_and_pool_bounds_nonnegative() {
        let input = Tensor::<f32>::rand_uniform(&[1, 2, 6, 6], -1.0, 1.0, 10);
        let w = Tensor::<f32>::rand_uniform(&[3, 2, 3, 3], -0.5, 0.5, 11);
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let wp = b.parameter("w", w);
        let c = b.op(
            "c",
            OpKind::Conv2d {
                stride: 1,
                padding: 1,
            },
            &[x, wp],
        );
        let p = b.op(
            "p",
            OpKind::AvgPool2d {
                kernel: 2,
                stride: 2,
            },
            &[c],
        );
        let q = b.op("q", OpKind::AdaptiveAvgPool1x1, &[p]);
        let g = b.finish(vec![q]).unwrap();
        let exec = execute(&g, &[input], &KernelConfig::reference(), None).unwrap();
        let bounds = BoundEngine::paper_default().co_execute(&g, &exec).unwrap();
        for node in [c, p, q] {
            assert!(bounds[node.0]
                .data()
                .iter()
                .all(|&t| t >= 0.0 && t.is_finite()));
            assert!(bounds[node.0].data().iter().any(|&t| t > 0.0));
        }
    }
}
