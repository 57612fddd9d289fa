//! Per-operator shape contracts.
//!
//! Static shape inference ([`infer_shape`]) first checks the input count
//! against [`OpKind::arity`], the table `tao_graph::eval_node` also
//! checks, and then mirrors the runtime validation of `tao-tensor`
//! exactly — an operator admits a shape statically if and only if the
//! kernel would accept tensors of those shapes — which is what lets
//! `tests/tests/analysis_oracle.rs` assert *exact* equality between the
//! static report and `execute_with_stats` measurements.
//!
//! Each operator's rounding-error template lives in the bounds engine
//! (`tao-bounds`), which matches [`OpKind`] itself.

use tao_graph::OpKind;
use tao_tensor::Shape;

/// A static shape-inference failure, phrased for lint output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeIssue(pub String);

impl std::fmt::Display for ShapeIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

type ShapeResult = std::result::Result<Vec<usize>, ShapeIssue>;

fn issue(msg: impl Into<String>) -> ShapeIssue {
    ShapeIssue(msg.into())
}

/// Infers the output shape of `kind` from its input shapes, reproducing
/// the validation rules of the `tao-tensor` kernels (same accept/reject
/// decisions, same output dims). `Input`/`Parameter` shapes come from
/// context and are resolved by the interpreter, not here.
///
/// # Errors
///
/// Returns a [`ShapeIssue`] exactly when the corresponding kernel would
/// reject tensors of these shapes.
#[allow(clippy::too_many_lines)]
pub fn infer_shape(kind: &OpKind, inputs: &[&[usize]]) -> ShapeResult {
    let arity = kind.arity();
    if !arity.admits(inputs.len()) {
        return Err(issue(format!(
            "{kind:?}: arity {arity:?} violated by {} inputs",
            inputs.len()
        )));
    }
    let broadcast = |a: &[usize], b: &[usize]| -> ShapeResult {
        Shape::new(a)
            .broadcast(&Shape::new(b))
            .map(|s| s.dims().to_vec())
            .map_err(|_| issue(format!("{kind:?}: shapes {a:?} and {b:?} do not broadcast")))
    };
    let nchw = |dims: &[usize]| -> std::result::Result<(usize, usize, usize, usize), ShapeIssue> {
        match dims {
            [n, c, h, w] => Ok((*n, *c, *h, *w)),
            _ => Err(issue(format!(
                "{kind:?}: expected NCHW input, got {dims:?}"
            ))),
        }
    };
    let last_axis = |dims: &[usize]| -> std::result::Result<usize, ShapeIssue> {
        match dims.last() {
            Some(&d) if d > 0 => Ok(d),
            Some(_) => Err(issue(format!("{kind:?} over empty last axis"))),
            None => Err(issue(format!("{kind:?} needs rank >= 1"))),
        }
    };
    match kind {
        OpKind::Input(_) | OpKind::Parameter(_) => {
            Err(issue("input/parameter shapes come from context"))
        }

        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Pow => {
            broadcast(inputs[0], inputs[1])
        }
        OpKind::Neg
        | OpKind::AddScalar(_)
        | OpKind::MulScalar(_)
        | OpKind::PowScalar(_)
        | OpKind::Sqrt
        | OpKind::Rsqrt
        | OpKind::Exp
        | OpKind::Log
        | OpKind::Sin
        | OpKind::Cos
        | OpKind::Tanh
        | OpKind::Relu
        | OpKind::Gelu
        | OpKind::Silu
        | OpKind::Sigmoid
        | OpKind::Identity => Ok(inputs[0].to_vec()),

        OpKind::Softmax => {
            last_axis(inputs[0])?;
            Ok(inputs[0].to_vec())
        }
        OpKind::LayerNorm { .. } => {
            let d = last_axis(inputs[0])?;
            if inputs[1] != [d] || inputs[2] != [d] {
                return Err(issue(format!(
                    "layer_norm params {:?}/{:?} must be [{d}]",
                    inputs[1], inputs[2]
                )));
            }
            Ok(inputs[0].to_vec())
        }
        OpKind::RmsNorm { .. } => {
            let d = last_axis(inputs[0])?;
            if inputs[1] != [d] {
                return Err(issue(format!(
                    "rms_norm gamma {:?} must be [{d}]",
                    inputs[1]
                )));
            }
            Ok(inputs[0].to_vec())
        }
        OpKind::BatchNorm2d { .. } => {
            let (_, c, _, _) = nchw(inputs[0])?;
            for p in &inputs[1..5] {
                if **p != [c] {
                    return Err(issue(format!("batch_norm2d param {p:?} must be [{c}]")));
                }
            }
            Ok(inputs[0].to_vec())
        }
        OpKind::GroupNorm { groups, .. } => {
            let (_, c, _, _) = nchw(inputs[0])?;
            if *groups == 0 || c % *groups != 0 {
                return Err(issue(format!(
                    "group_norm: {groups} groups do not divide {c} channels"
                )));
            }
            if inputs[1] != [c] || inputs[2] != [c] {
                return Err(issue(format!(
                    "group_norm params {:?}/{:?} must be [{c}]",
                    inputs[1], inputs[2]
                )));
            }
            Ok(inputs[0].to_vec())
        }

        OpKind::MatMul => {
            let (a, b) = (inputs[0], inputs[1]);
            if a.len() < 2 || b.len() < 2 {
                return Err(issue(format!("matmul needs rank >= 2, got {a:?} @ {b:?}")));
            }
            let (m, ka) = (a[a.len() - 2], a[a.len() - 1]);
            let (kb, n) = (b[b.len() - 2], b[b.len() - 1]);
            if ka != kb {
                return Err(issue(format!("matmul inner dims differ: {a:?} @ {b:?}")));
            }
            let batch_dims = if a.len() == 2 && b.len() > 2 {
                b[..b.len() - 2].to_vec()
            } else if b.len() == 2 && a.len() > 2 {
                a[..a.len() - 2].to_vec()
            } else {
                if a[..a.len() - 2] != b[..b.len() - 2] {
                    return Err(issue(format!("matmul batch dims differ: {a:?} @ {b:?}")));
                }
                a[..a.len() - 2].to_vec()
            };
            let mut out = batch_dims;
            out.push(m);
            out.push(n);
            Ok(out)
        }
        OpKind::Linear => {
            let (x, w) = (inputs[0], inputs[1]);
            if w.len() != 2 {
                return Err(issue(format!("linear weight must be rank 2, got {w:?}")));
            }
            let in_f = *x
                .last()
                .ok_or_else(|| issue("linear input needs rank >= 1"))?;
            let (out_f, w_in) = (w[0], w[1]);
            if w_in != in_f {
                return Err(issue(format!("linear features differ: {x:?} @ {w:?}")));
            }
            if let Some(b) = inputs.get(2) {
                if **b != [out_f] {
                    return Err(issue(format!("linear bias {b:?} must be [{out_f}]")));
                }
            }
            let mut out = x.to_vec();
            *out.last_mut().expect("rank checked") = out_f;
            Ok(out)
        }
        OpKind::QuantMatmul => {
            // Rank-2 only, mirroring the kernel's `quant_matmul_check`.
            let (a, b) = (inputs[0], inputs[1]);
            if a.len() != 2 || b.len() != 2 {
                return Err(issue(format!(
                    "quant_matmul needs rank 2 operands, got {a:?} @ {b:?}"
                )));
            }
            if a[1] != b[0] {
                return Err(issue(format!(
                    "quant_matmul inner dims differ: {a:?} @ {b:?}"
                )));
            }
            Ok(vec![a[0], b[1]])
        }
        OpKind::QuantLinear => {
            let (x, w) = (inputs[0], inputs[1]);
            if w.len() != 2 {
                return Err(issue(format!(
                    "quant_linear weight must be rank 2, got {w:?}"
                )));
            }
            let in_f = *x
                .last()
                .ok_or_else(|| issue("quant_linear input needs rank >= 1"))?;
            let (out_f, w_in) = (w[0], w[1]);
            if w_in != in_f {
                return Err(issue(format!(
                    "quant_linear features differ: {x:?} @ {w:?}"
                )));
            }
            if let Some(b) = inputs.get(2) {
                if **b != [out_f] {
                    return Err(issue(format!("quant_linear bias {b:?} must be [{out_f}]")));
                }
            }
            let mut out = x.to_vec();
            *out.last_mut().expect("rank checked") = out_f;
            Ok(out)
        }
        OpKind::Quantize { scale } | OpKind::Dequantize { scale } => {
            // Mirrors the kernel's `check_scale` so an inadmissible scale
            // is a lint finding, not a runtime surprise.
            if !scale.is_finite() || *scale <= 0.0 {
                return Err(issue(format!(
                    "{kind:?}: scale must be finite and positive, got {scale}"
                )));
            }
            Ok(inputs[0].to_vec())
        }
        OpKind::Conv2d { stride, padding } => {
            let (n, c_in, h, w) = nchw(inputs[0])?;
            let (c_out, wc_in, kh, kw) = nchw(inputs[1])
                .map_err(|_| issue(format!("conv2d weight must be rank 4, got {:?}", inputs[1])))?;
            if wc_in != c_in {
                return Err(issue(format!(
                    "conv2d channels differ: input {:?}, weight {:?}",
                    inputs[0], inputs[1]
                )));
            }
            if let Some(b) = inputs.get(2) {
                if **b != [c_out] {
                    return Err(issue(format!("conv2d bias {b:?} must be [{c_out}]")));
                }
            }
            if *stride == 0 {
                return Err(issue("conv2d stride must be > 0"));
            }
            let ext = |input: usize, kernel: usize| {
                (input + 2 * padding)
                    .checked_sub(kernel)
                    .map(|v| v / stride + 1)
            };
            let oh = ext(h, kh).ok_or_else(|| issue("conv2d: kernel taller than input"))?;
            let ow = ext(w, kw).ok_or_else(|| issue("conv2d: kernel wider than input"))?;
            Ok(vec![n, c_out, oh, ow])
        }

        OpKind::MeanAll | OpKind::SumAll => Ok(vec![]),
        OpKind::SumAxis(axis) | OpKind::MeanAxis(axis) | OpKind::MaxAxis(axis) => {
            let dims = inputs[0];
            if *axis >= dims.len() {
                return Err(issue(format!("axis {axis} out of range for {dims:?}")));
            }
            if dims[*axis] == 0 {
                return Err(issue("reduce over empty axis"));
            }
            let mut out = dims.to_vec();
            out.remove(*axis);
            Ok(out)
        }
        OpKind::MaxPool2d { kernel, stride } | OpKind::AvgPool2d { kernel, stride } => {
            let (n, c, h, w) = nchw(inputs[0])?;
            if *kernel == 0 || *stride == 0 || *kernel > h || *kernel > w {
                return Err(issue(format!(
                    "pool2d: kernel {kernel}/stride {stride} invalid for {h}x{w}"
                )));
            }
            Ok(vec![
                n,
                c,
                (h - kernel) / stride + 1,
                (w - kernel) / stride + 1,
            ])
        }
        OpKind::AdaptiveAvgPool1x1 => {
            let (n, c, _, _) = nchw(inputs[0])?;
            Ok(vec![n, c, 1, 1])
        }
        OpKind::UpsampleNearest(factor) => {
            let (n, c, h, w) = nchw(inputs[0])?;
            if *factor == 0 {
                return Err(issue("upsample factor must be > 0"));
            }
            Ok(vec![n, c, h * factor, w * factor])
        }

        OpKind::Reshape(dims) => {
            let vol: usize = inputs[0].iter().product();
            let new_vol: usize = dims.iter().product();
            if vol != new_vol {
                return Err(issue(format!(
                    "reshape {:?} -> {dims:?} changes volume {vol} -> {new_vol}",
                    inputs[0]
                )));
            }
            Ok(dims.clone())
        }
        OpKind::Flatten => Ok(vec![inputs[0].iter().product()]),
        OpKind::FlattenFrom(axis) => {
            let dims = inputs[0];
            if *axis > dims.len() {
                return Err(issue(format!(
                    "flatten_from axis {axis} out of range for {dims:?}"
                )));
            }
            let mut out = dims[..*axis].to_vec();
            out.push(dims[*axis..].iter().product());
            Ok(out)
        }
        OpKind::Transpose(a, b) => {
            let dims = inputs[0];
            if *a >= dims.len() || *b >= dims.len() {
                return Err(issue(format!(
                    "transpose axes ({a},{b}) out of range for {dims:?}"
                )));
            }
            let mut out = dims.to_vec();
            out.swap(*a, *b);
            Ok(out)
        }
        OpKind::Permute(perm) => {
            let dims = inputs[0];
            let rank = dims.len();
            if perm.len() != rank {
                return Err(issue(format!(
                    "permute {perm:?} rank differs from {dims:?}"
                )));
            }
            let mut seen = vec![false; rank];
            for &p in perm {
                if p >= rank || seen[p] {
                    return Err(issue(format!(
                        "permute: {perm:?} is not a permutation of 0..{rank}"
                    )));
                }
                seen[p] = true;
            }
            Ok(perm.iter().map(|&p| dims[p]).collect())
        }
        OpKind::Slice { axis, start, end } => {
            let dims = inputs[0];
            if *axis >= dims.len() {
                return Err(issue(format!(
                    "slice axis {axis} out of range for {dims:?}"
                )));
            }
            let extent = dims[*axis];
            if start > end || *end > extent {
                return Err(issue(format!(
                    "slice: bounds [{start}, {end}) invalid for extent {extent}"
                )));
            }
            let mut out = dims.to_vec();
            out[*axis] = end - start;
            Ok(out)
        }
        OpKind::Concat(axis) => {
            let first = inputs[0];
            let rank = first.len();
            if *axis >= rank {
                return Err(issue(format!(
                    "concat axis {axis} out of range for {first:?}"
                )));
            }
            let mut total = 0;
            for t in inputs {
                if t.len() != rank {
                    return Err(issue(format!("concat rank differs: {first:?} vs {t:?}")));
                }
                for a in 0..rank {
                    if a != *axis && t[a] != first[a] {
                        return Err(issue(format!(
                            "concat off-axis dims differ: {first:?} vs {t:?}"
                        )));
                    }
                }
                total += t[*axis];
            }
            let mut out = first.to_vec();
            out[*axis] = total;
            Ok(out)
        }
        OpKind::Embedding => {
            let table = inputs[0];
            if table.len() != 2 {
                return Err(issue(format!(
                    "embedding table must be rank 2, got {table:?}"
                )));
            }
            let ids: usize = inputs[1].iter().product();
            Ok(vec![ids, table[1]])
        }
        OpKind::MaskedFill(_) => {
            if !Shape::new(inputs[1]).broadcastable_to(&Shape::new(inputs[0])) {
                return Err(issue(format!(
                    "masked_fill mask {:?} not broadcastable to {:?}",
                    inputs[1], inputs[0]
                )));
            }
            Ok(inputs[0].to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_broadcasts() {
        assert_eq!(
            infer_shape(&OpKind::Add, &[&[2, 3], &[3]]).unwrap(),
            vec![2, 3]
        );
        assert!(infer_shape(&OpKind::Add, &[&[2, 3], &[4]]).is_err());
    }

    #[test]
    fn matmul_batch_rules() {
        assert_eq!(
            infer_shape(&OpKind::MatMul, &[&[4, 2, 3], &[4, 3, 5]]).unwrap(),
            vec![4, 2, 5]
        );
        assert_eq!(
            infer_shape(&OpKind::MatMul, &[&[2, 3], &[4, 3, 5]]).unwrap(),
            vec![4, 2, 5]
        );
        assert!(infer_shape(&OpKind::MatMul, &[&[2, 3], &[4, 5]]).is_err());
        assert!(infer_shape(&OpKind::MatMul, &[&[2, 2, 3], &[4, 3, 5]]).is_err());
    }

    #[test]
    fn conv_geometry_matches_kernel() {
        let k = OpKind::Conv2d {
            stride: 2,
            padding: 1,
        };
        assert_eq!(
            infer_shape(&k, &[&[1, 3, 8, 8], &[8, 3, 3, 3]]).unwrap(),
            vec![1, 8, 4, 4]
        );
        // Kernel taller than the padded input is rejected.
        assert!(infer_shape(&k, &[&[1, 3, 2, 2], &[8, 3, 5, 5]]).is_err());
    }

    #[test]
    fn arity_is_enforced() {
        assert!(infer_shape(&OpKind::Add, &[&[2]]).is_err());
        assert!(infer_shape(&OpKind::Linear, &[&[4, 3], &[5, 3], &[5]]).is_ok());
        assert!(infer_shape(&OpKind::Linear, &[&[4, 3]]).is_err());
    }
}
