//! Operator kinds: the tensor-level primitives a traced model consists of.
//!
//! The list mirrors Appendix A.3 of the paper (the PyTorch operations for
//! which theoretical error bounds are implemented): basic arithmetic and
//! elementwise functions, activations, normalization and softmax, linear
//! algebra and convolution, reductions/pooling/upsampling, and structural
//! (non-arithmetic) data movement.

use tao_tensor::Shape;

/// A primitive tensor operator (one node of the dataflow graph).
///
/// Attributes that affect semantics (stride, eps, axes…) are part of the
/// kind, so the operator *signature* used in Merkle commitments covers
/// them: changing an attribute changes the graph root.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Graph input placeholder (position in the input list).
    Input(usize),
    /// Named model parameter (weight tensor looked up in the state dict).
    Parameter(String),

    // Basic arithmetic (binary, broadcasting).
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise division.
    Div,
    /// Elementwise power with a broadcast exponent operand.
    Pow,

    // Unary elementwise.
    /// Negation.
    Neg,
    /// Adds a compile-time scalar.
    AddScalar(f64),
    /// Multiplies by a compile-time scalar.
    MulScalar(f64),
    /// Raises to a compile-time scalar power.
    PowScalar(f64),
    /// Square root.
    Sqrt,
    /// Reciprocal square root.
    Rsqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Hyperbolic tangent.
    Tanh,

    // Activations.
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Sigmoid linear unit (swish).
    Silu,
    /// Logistic sigmoid.
    Sigmoid,

    // Normalization and softmax.
    /// Softmax along the last axis.
    Softmax,
    /// Layer normalization over the last axis; inputs `(x, gamma, beta)`.
    LayerNorm {
        /// Variance stabilizer.
        eps: f64,
    },
    /// RMS normalization over the last axis; inputs `(x, gamma)`.
    RmsNorm {
        /// Mean-square stabilizer.
        eps: f64,
    },
    /// Inference batch norm over NCHW; inputs `(x, gamma, beta, mean, var)`.
    BatchNorm2d {
        /// Variance stabilizer.
        eps: f64,
    },
    /// Group normalization over NCHW; inputs `(x, gamma, beta)`.
    GroupNorm {
        /// Number of channel groups.
        groups: usize,
        /// Variance stabilizer.
        eps: f64,
    },

    // Linear algebra and convolution.
    /// Matrix or batched-matrix product.
    MatMul,
    /// Affine layer `x @ w^T (+ b)`; inputs `(x, w)` or `(x, w, b)`.
    Linear,
    /// 2-D convolution; inputs `(x, w)` or `(x, w, b)`.
    Conv2d {
        /// Spatial stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },

    // Int8-quantized kernel family. The quantization policy (symmetric
    // scales, round-ties-away, clamp to ±127, widening wrapping-i32
    // accumulation) is exact integer arithmetic, so these operators are
    // cross-device bit-exact at every `KernelConfig` — their calibration
    // envelopes are all-zero and any deviation is an unbounded offense.
    /// Int8-quantized rank-2 matrix product with per-tensor symmetric
    /// scales derived from both operands.
    QuantMatmul,
    /// Int8-quantized affine layer with a per-tensor activation scale and
    /// per-output-channel weight scales; inputs `(x, w)` or `(x, w, b)`.
    QuantLinear,
    /// Fake-quantize to the symmetric int8 grid with a static committed
    /// scale (the scale is part of the operator signature).
    Quantize {
        /// Static quantization step; must be finite and positive.
        scale: f64,
    },
    /// Multiply quantized-grid integers back by a static committed scale.
    Dequantize {
        /// Static quantization step; must be finite and positive.
        scale: f64,
    },

    // Reductions / pooling / resampling.
    /// Mean over all elements (rank-0 output).
    MeanAll,
    /// Sum over all elements (rank-0 output).
    SumAll,
    /// Sum along one axis (axis removed).
    SumAxis(usize),
    /// Mean along one axis (axis removed).
    MeanAxis(usize),
    /// Maximum along one axis (axis removed).
    MaxAxis(usize),
    /// Square max pooling over NCHW.
    MaxPool2d {
        /// Window extent.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Square average pooling over NCHW.
    AvgPool2d {
        /// Window extent.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pool to `1x1` (adaptive avg pool).
    AdaptiveAvgPool1x1,
    /// Nearest-neighbour upsampling by an integer factor.
    UpsampleNearest(usize),

    // Structural / non-arithmetic.
    /// Reshape to a fixed shape.
    Reshape(Vec<usize>),
    /// Flatten to 1-D.
    Flatten,
    /// Flatten all but the leading (batch) axis.
    FlattenFrom(usize),
    /// Swap two axes.
    Transpose(usize, usize),
    /// Permute axes.
    Permute(Vec<usize>),
    /// Slice `[start, end)` along an axis.
    Slice {
        /// Sliced axis.
        axis: usize,
        /// Inclusive start.
        start: usize,
        /// Exclusive end.
        end: usize,
    },
    /// Concatenate all inputs along an axis.
    Concat(usize),
    /// Embedding lookup; inputs `(table, ids)` where `ids` holds
    /// integer-valued floats.
    Embedding,
    /// Replace elements where `mask != 0` with a constant; inputs
    /// `(x, mask)`.
    MaskedFill(f64),
    /// Identity (also eval-mode dropout).
    Identity,
}

impl OpKind {
    /// Short stable mnemonic used in signatures, thresholds, and reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Input(_) => "input",
            OpKind::Parameter(_) => "parameter",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Pow => "pow",
            OpKind::Neg => "neg",
            OpKind::AddScalar(_) => "add_scalar",
            OpKind::MulScalar(_) => "mul_scalar",
            OpKind::PowScalar(_) => "pow_scalar",
            OpKind::Sqrt => "sqrt",
            OpKind::Rsqrt => "rsqrt",
            OpKind::Exp => "exp",
            OpKind::Log => "log",
            OpKind::Sin => "sin",
            OpKind::Cos => "cos",
            OpKind::Tanh => "tanh",
            OpKind::Relu => "relu",
            OpKind::Gelu => "gelu",
            OpKind::Silu => "silu",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Softmax => "softmax",
            OpKind::LayerNorm { .. } => "layer_norm",
            OpKind::RmsNorm { .. } => "rms_norm",
            OpKind::BatchNorm2d { .. } => "batch_norm2d",
            OpKind::GroupNorm { .. } => "group_norm",
            OpKind::MatMul => "matmul",
            OpKind::Linear => "linear",
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::QuantMatmul => "quant_matmul",
            OpKind::QuantLinear => "quant_linear",
            OpKind::Quantize { .. } => "quantize",
            OpKind::Dequantize { .. } => "dequantize",
            OpKind::MeanAll => "mean",
            OpKind::SumAll => "sum",
            OpKind::SumAxis(_) => "sum_axis",
            OpKind::MeanAxis(_) => "mean_axis",
            OpKind::MaxAxis(_) => "max_axis",
            OpKind::MaxPool2d { .. } => "max_pool2d",
            OpKind::AvgPool2d { .. } => "avg_pool2d",
            OpKind::AdaptiveAvgPool1x1 => "adaptive_avg_pool2d",
            OpKind::UpsampleNearest(_) => "interpolate",
            OpKind::Reshape(_) => "reshape",
            OpKind::Flatten => "flatten",
            OpKind::FlattenFrom(_) => "flatten_from",
            OpKind::Transpose(_, _) => "transpose",
            OpKind::Permute(_) => "permute",
            OpKind::Slice { .. } => "slice",
            OpKind::Concat(_) => "cat",
            OpKind::Embedding => "embedding",
            OpKind::MaskedFill(_) => "masked_fill",
            OpKind::Identity => "identity",
        }
    }

    /// True for data-movement operators contributing no floating-point
    /// rounding error (views, indexing, concatenation, embedding lookup).
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            OpKind::Input(_)
                | OpKind::Parameter(_)
                | OpKind::Reshape(_)
                | OpKind::Flatten
                | OpKind::FlattenFrom(_)
                | OpKind::Transpose(_, _)
                | OpKind::Permute(_)
                | OpKind::Slice { .. }
                | OpKind::Concat(_)
                | OpKind::Embedding
                | OpKind::MaskedFill(_)
                | OpKind::Identity
                | OpKind::Neg
        )
    }

    /// How many inputs this operator takes: the one arity table, read by
    /// [`crate::eval_node`] before it dispatches and by static shape
    /// inference.
    pub fn arity(&self) -> Arity {
        match self {
            OpKind::Input(_) | OpKind::Parameter(_) => Arity::Exact(0),
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
            | OpKind::Softmax
            | OpKind::Quantize { .. }
            | OpKind::Dequantize { .. }
            | OpKind::MeanAll
            | OpKind::SumAll
            | OpKind::SumAxis(_)
            | OpKind::MeanAxis(_)
            | OpKind::MaxAxis(_)
            | OpKind::MaxPool2d { .. }
            | OpKind::AvgPool2d { .. }
            | OpKind::AdaptiveAvgPool1x1
            | OpKind::UpsampleNearest(_)
            | OpKind::Reshape(_)
            | OpKind::Flatten
            | OpKind::FlattenFrom(_)
            | OpKind::Transpose(_, _)
            | OpKind::Permute(_)
            | OpKind::Slice { .. }
            | OpKind::Identity => Arity::Exact(1),
            OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Pow
            | OpKind::RmsNorm { .. }
            | OpKind::MatMul
            | OpKind::QuantMatmul
            | OpKind::Embedding
            | OpKind::MaskedFill(_) => Arity::Exact(2),
            OpKind::LayerNorm { .. } | OpKind::GroupNorm { .. } => Arity::Exact(3),
            OpKind::BatchNorm2d { .. } => Arity::Exact(5),
            // An optional bias after two required operands.
            OpKind::Linear | OpKind::Conv2d { .. } | OpKind::QuantLinear => Arity::Range(2, 3),
            OpKind::Concat(_) => Arity::AtLeast(1),
        }
    }

    /// How this operator's output elements relate to its single input's.
    ///
    /// A relayout moves elements without arithmetic, so on any two
    /// devices its per-element errors are exactly its input's: the same
    /// sequence ([`Relayout::InOrder`]) or the same multiset in another
    /// order ([`Relayout::Permuted`]). Calibration profiles each such
    /// multiset once.
    pub fn relayout(&self) -> Relayout {
        match self {
            OpKind::Reshape(_) | OpKind::Flatten | OpKind::FlattenFrom(_) | OpKind::Identity => {
                Relayout::InOrder
            }
            OpKind::Transpose(_, _) | OpKind::Permute(_) => Relayout::Permuted,
            OpKind::Input(_)
            | OpKind::Parameter(_)
            | OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Pow
            | OpKind::Neg
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
            | OpKind::Softmax
            | OpKind::LayerNorm { .. }
            | OpKind::RmsNorm { .. }
            | OpKind::BatchNorm2d { .. }
            | OpKind::GroupNorm { .. }
            | OpKind::MatMul
            | OpKind::Linear
            | OpKind::Conv2d { .. }
            | OpKind::QuantMatmul
            | OpKind::QuantLinear
            | OpKind::Quantize { .. }
            | OpKind::Dequantize { .. }
            | OpKind::MeanAll
            | OpKind::SumAll
            | OpKind::SumAxis(_)
            | OpKind::MeanAxis(_)
            | OpKind::MaxAxis(_)
            | OpKind::MaxPool2d { .. }
            | OpKind::AvgPool2d { .. }
            | OpKind::AdaptiveAvgPool1x1
            | OpKind::UpsampleNearest(_)
            | OpKind::Slice { .. }
            | OpKind::Concat(_)
            | OpKind::Embedding
            | OpKind::MaskedFill(_) => Relayout::Other,
        }
    }

    /// Floating-point operation count given the input shapes (in operand
    /// order) and the output shape, following the usual multiply-add =
    /// 2 FLOPs convention.
    pub fn flops<'s>(
        &self,
        mut inputs: impl Iterator<Item = &'s Shape> + Clone,
        output: &Shape,
    ) -> u64 {
        let out_n = output.volume() as u64;
        match self {
            OpKind::Input(_) | OpKind::Parameter(_) => 0,
            OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Pow => out_n,
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
            | OpKind::Sigmoid => out_n,
            // Tanh-approx GELU: ~10 flops per element; SiLU: ~5.
            OpKind::Gelu => 10 * out_n,
            OpKind::Silu => 5 * out_n,
            // Softmax: max + sub + exp + sum + div ≈ 5 per element.
            OpKind::Softmax => 5 * out_n,
            // LayerNorm: two reductions + normalize ≈ 8 per element.
            OpKind::LayerNorm { .. } => 8 * out_n,
            OpKind::RmsNorm { .. } => 6 * out_n,
            OpKind::BatchNorm2d { .. } => 4 * out_n,
            OpKind::GroupNorm { .. } => 8 * out_n,
            OpKind::MatMul => {
                // [.., m, k] @ [.., k, n]: 2*m*k*n per batch element.
                let k = inputs
                    .next()
                    .map(|s| *s.dims().last().unwrap_or(&1))
                    .unwrap_or(1);
                2 * out_n * k as u64
            }
            OpKind::Linear => {
                let k = inputs
                    .next()
                    .map(|s| *s.dims().last().unwrap_or(&1))
                    .unwrap_or(1);
                2 * out_n * k as u64
            }
            OpKind::Conv2d { .. } => {
                let patch: usize = inputs
                    .nth(1)
                    .map(|w| w.dims()[1..].iter().product())
                    .unwrap_or(1);
                2 * out_n * patch as u64
            }
            // Quantized GEMMs: the integer multiply-accumulates (2*out*k)
            // plus one quantization op per input element and one
            // dequantize(+bias) op per output element.
            OpKind::QuantMatmul | OpKind::QuantLinear => {
                let k = inputs
                    .clone()
                    .next()
                    .map(|s| *s.dims().last().unwrap_or(&1))
                    .unwrap_or(1);
                let in_n: u64 = inputs.map(|s| s.volume() as u64).sum();
                2 * out_n * k as u64 + in_n + out_n
            }
            OpKind::Quantize { .. } | OpKind::Dequantize { .. } => out_n,
            OpKind::MeanAll | OpKind::SumAll => {
                inputs.next().map(|s| s.volume() as u64).unwrap_or(0)
            }
            OpKind::SumAxis(_) | OpKind::MeanAxis(_) | OpKind::MaxAxis(_) => {
                inputs.next().map(|s| s.volume() as u64).unwrap_or(0)
            }
            OpKind::MaxPool2d { kernel, .. } | OpKind::AvgPool2d { kernel, .. } => {
                out_n * (kernel * kernel) as u64
            }
            OpKind::AdaptiveAvgPool1x1 => inputs.next().map(|s| s.volume() as u64).unwrap_or(0),
            OpKind::UpsampleNearest(_)
            | OpKind::Reshape(_)
            | OpKind::Flatten
            | OpKind::FlattenFrom(_)
            | OpKind::Transpose(_, _)
            | OpKind::Permute(_)
            | OpKind::Slice { .. }
            | OpKind::Concat(_)
            | OpKind::Embedding
            | OpKind::MaskedFill(_)
            | OpKind::Identity => 0,
        }
    }
}

/// How many inputs an operator accepts: the answer of [`OpKind::arity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n` inputs.
    Exact(usize),
    /// Between `lo` and `hi` inputs inclusive (an optional bias).
    Range(usize, usize),
    /// At least `n` inputs (variadic concat).
    AtLeast(usize),
}

impl Arity {
    /// Whether `got` inputs satisfy this arity.
    pub fn admits(&self, got: usize) -> bool {
        match *self {
            Arity::Exact(n) => got == n,
            Arity::Range(lo, hi) => (lo..=hi).contains(&got),
            Arity::AtLeast(n) => got >= n,
        }
    }
}

impl core::fmt::Display for Arity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Arity::Exact(n) => write!(f, "{n}"),
            Arity::Range(lo, hi) => write!(f, "{lo} to {hi}"),
            Arity::AtLeast(n) => write!(f, "at least {n}"),
        }
    }
}

/// The answer of [`OpKind::relayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relayout {
    /// The single input's elements in the same order (reshape, flatten,
    /// identity).
    InOrder,
    /// The single input's elements, permuted (transpose, permute).
    Permuted,
    /// Every other operator: it computes, selects, fills, duplicates or
    /// gathers elements, or has no input.
    Other,
}

impl core::fmt::Display for OpKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(OpKind::MatMul.mnemonic(), "matmul");
        assert_eq!(OpKind::LayerNorm { eps: 1e-5 }.mnemonic(), "layer_norm");
        assert_eq!(
            OpKind::Conv2d {
                stride: 1,
                padding: 0
            }
            .mnemonic(),
            "conv2d"
        );
    }

    #[test]
    fn structural_ops_have_zero_flops() {
        let s = Shape::new(&[4, 4]);
        for op in [
            OpKind::Reshape(vec![16]),
            OpKind::Flatten,
            OpKind::Identity,
            OpKind::Transpose(0, 1),
            OpKind::Embedding,
        ] {
            assert!(op.is_structural(), "{op}");
            assert_eq!(op.flops([&s].into_iter(), &s), 0, "{op}");
        }
    }

    #[test]
    fn relayouts_are_the_arithmetic_free_single_input_moves() {
        for op in [
            OpKind::Reshape(vec![16]),
            OpKind::Flatten,
            OpKind::FlattenFrom(1),
            OpKind::Identity,
        ] {
            assert_eq!(op.relayout(), Relayout::InOrder, "{op}");
        }
        for op in [OpKind::Transpose(0, 1), OpKind::Permute(vec![1, 0])] {
            assert_eq!(op.relayout(), Relayout::Permuted, "{op}");
        }
        // Structural ops that select, fill, gather or negate are not.
        for op in [
            OpKind::Input(0),
            OpKind::Parameter("w".into()),
            OpKind::Slice {
                axis: 0,
                start: 0,
                end: 1,
            },
            OpKind::Concat(0),
            OpKind::Embedding,
            OpKind::MaskedFill(0.0),
            OpKind::Neg,
            OpKind::UpsampleNearest(2),
        ] {
            assert_eq!(op.relayout(), Relayout::Other, "{op}");
        }
    }

    #[test]
    fn matmul_flops_formula() {
        let a = Shape::new(&[8, 16]);
        let b = Shape::new(&[16, 4]);
        let out = Shape::new(&[8, 4]);
        assert_eq!(
            OpKind::MatMul.flops([&a, &b].into_iter(), &out),
            2 * 8 * 16 * 4
        );
    }

    #[test]
    fn conv_flops_formula() {
        let x = Shape::new(&[1, 3, 8, 8]);
        let w = Shape::new(&[4, 3, 3, 3]);
        let out = Shape::new(&[1, 4, 6, 6]);
        assert_eq!(
            OpKind::Conv2d {
                stride: 1,
                padding: 0
            }
            .flops([&x, &w].into_iter(), &out),
            2 * (4 * 6 * 6) * (3 * 3 * 3)
        );
    }

    #[test]
    fn arithmetic_is_not_structural() {
        assert!(!OpKind::Add.is_structural());
        assert!(!OpKind::Softmax.is_structural());
        assert!(
            OpKind::Neg.is_structural(),
            "negation is sign-flip only, no rounding"
        );
    }
}
