//! The graph linter: well-formedness and calibration-safety rules.
//!
//! Severities are graded. `Deny` findings mean the graph cannot be
//! admitted (shape mismatches, missing parameters, arity violations —
//! execution would fail). `Warn` findings flag patterns that execute fine
//! but are hazardous in a tolerance-calibrated marketplace: unreachable
//! nodes (dead weight in the commitment), divisions / logs / rsqrts whose
//! argument is not provably positive, and — the PR 6 gotcha — output
//! heads that expose *raw logits* instead of a bounded activation, where
//! per-element thresholds calibrated on unbounded values invite false
//! flags. [`LintConfig::strict`] escalates every warning to `Deny` for CI
//! gating of planted-violation fixtures.
//!
//! Positivity is tracked with a tiny abstract domain folded over the
//! graph: `exp`/`softmax`/`sigmoid` outputs are positive, `relu` is
//! non-negative, parameters are inspected directly, and structural ops
//! pass the class through. It is deliberately conservative — `Unknown`
//! never produces a `Deny` on its own under the default configuration.

use tao_graph::{Graph, NodeId, OpKind};

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Hazardous pattern; admission proceeds under the default config.
    Warn,
    /// Malformed graph; admission must reject.
    Deny,
}

/// Which lint rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintRule {
    /// Node does not reach any graph output.
    Unreachable,
    /// Static shape inference rejected the node (incl. arity violations).
    ShapeMismatch,
    /// `Parameter` node references a name absent from the state dict.
    MissingParameter,
    /// Division / log / rsqrt whose argument is not provably positive.
    UnboundedDenominator,
    /// Output head exposes raw (unbounded) logits; thresholds calibrated
    /// on such heads are a false-flag hazard.
    CalibrationSafety,
}

/// One linter finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// The rule that fired.
    pub rule: LintRule,
    /// Severity after any configured escalation.
    pub severity: Severity,
    /// The offending node, when the finding is node-local.
    pub node: Option<NodeId>,
    /// Human-readable explanation.
    pub message: String,
}

impl LintFinding {
    /// A `Deny` finding.
    pub fn deny(rule: LintRule, node: Option<NodeId>, message: impl Into<String>) -> Self {
        LintFinding {
            rule,
            severity: Severity::Deny,
            node,
            message: message.into(),
        }
    }
}

/// Linter configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// Escalate every `Warn` finding to `Deny` (CI fixture gating).
    pub escalate_warnings: bool,
}

impl LintConfig {
    /// Strict mode: warnings become `Deny`.
    pub fn strict() -> Self {
        LintConfig {
            escalate_warnings: true,
        }
    }
}

/// Positivity abstract domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Positivity {
    Positive,
    NonNegative,
    Unknown,
}

impl Positivity {
    fn meet(self, other: Positivity) -> Positivity {
        use Positivity::*;
        match (self, other) {
            (Positive, Positive) => Positive,
            (Unknown, _) | (_, Unknown) => Unknown,
            _ => NonNegative,
        }
    }

    fn at_least_nonneg(self) -> bool {
        !matches!(self, Positivity::Unknown)
    }
}

/// Folds the positivity domain over the graph. `shapes` gates nothing
/// here; parameters are inspected from the state dict directly.
fn positivity(graph: &Graph) -> Vec<Positivity> {
    use Positivity::*;
    let mut classes: Vec<Positivity> = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let arg =
            |k: usize| -> Positivity { node.inputs.get(k).map_or(Unknown, |id| classes[id.0]) };
        let class = match &node.kind {
            OpKind::Parameter(name) => match graph.param(name) {
                Ok(t) if t.data().iter().all(|&v| v > 0.0) && !t.is_empty() => Positive,
                Ok(t) if t.data().iter().all(|&v| v >= 0.0) => NonNegative,
                _ => Unknown,
            },
            OpKind::Exp | OpKind::Softmax | OpKind::Sigmoid => Positive,
            OpKind::Relu => match arg(0) {
                Positive => Positive,
                _ => NonNegative,
            },
            OpKind::Sqrt => arg(0),
            OpKind::Rsqrt => match arg(0) {
                Positive => Positive,
                _ => Unknown,
            },
            OpKind::AddScalar(s) => {
                if *s > 0.0 && arg(0).at_least_nonneg() {
                    Positive
                } else if *s >= 0.0 {
                    arg(0)
                } else {
                    Unknown
                }
            }
            OpKind::MulScalar(s) => {
                if *s > 0.0 {
                    arg(0)
                } else if *s == 0.0 {
                    NonNegative
                } else {
                    Unknown
                }
            }
            OpKind::Add => match (arg(0), arg(1)) {
                (Positive, b) if b.at_least_nonneg() => Positive,
                (a, Positive) if a.at_least_nonneg() => Positive,
                (NonNegative, NonNegative) => NonNegative,
                _ => Unknown,
            },
            OpKind::Mul => match (arg(0), arg(1)) {
                (Positive, Positive) => Positive,
                (a, b) if a.at_least_nonneg() && b.at_least_nonneg() => NonNegative,
                _ => Unknown,
            },
            OpKind::Div => match (arg(0), arg(1)) {
                (Positive, Positive) => Positive,
                (NonNegative, Positive) => NonNegative,
                _ => Unknown,
            },
            // Sums/means/maxima of non-negative lanes keep the class;
            // pooling and spatial resampling likewise.
            OpKind::SumAll
            | OpKind::MeanAll
            | OpKind::SumAxis(_)
            | OpKind::MeanAxis(_)
            | OpKind::MaxAxis(_)
            | OpKind::MaxPool2d { .. }
            | OpKind::AvgPool2d { .. }
            | OpKind::AdaptiveAvgPool1x1
            | OpKind::UpsampleNearest(_) => arg(0),
            // Structural pass-through.
            OpKind::Reshape(_)
            | OpKind::Flatten
            | OpKind::FlattenFrom(_)
            | OpKind::Transpose(_, _)
            | OpKind::Permute(_)
            | OpKind::Slice { .. }
            | OpKind::Identity => arg(0),
            OpKind::Concat(_) => node
                .inputs
                .iter()
                .map(|id| classes[id.0])
                .fold(Positive, Positivity::meet),
            _ => Unknown,
        };
        classes.push(class);
    }
    classes
}

/// Bounded output heads a calibrated threshold is safe against.
fn bounded_head(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Softmax | OpKind::Sigmoid | OpKind::Tanh | OpKind::Sin | OpKind::Cos
    )
}

/// Runs the graph-level lint rules (reachability, positivity hazards,
/// calibration safety). Shape/arity/parameter findings are produced by
/// the interpreter during shape inference and merged by the caller.
pub fn lint_graph(
    graph: &Graph,
    shapes: &[Option<Vec<usize>>],
    cfg: &LintConfig,
) -> Vec<LintFinding> {
    let _ = shapes;
    let mut findings = Vec::new();
    let warn = |rule, node, message: String| LintFinding {
        rule,
        severity: if cfg.escalate_warnings {
            Severity::Deny
        } else {
            Severity::Warn
        },
        node: Some(node),
        message,
    };

    // Reachability: walk backwards from the outputs.
    let mut live = vec![false; graph.len()];
    let mut stack: Vec<NodeId> = graph.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut live[id.0], true) {
            continue;
        }
        if let Ok(node) = graph.node(id) {
            stack.extend(node.inputs.iter().copied());
        }
    }
    for node in graph.nodes() {
        if !live[node.id.0] {
            findings.push(warn(
                LintRule::Unreachable,
                node.id,
                format!(
                    "node {} ({:?}) does not reach any output; dead weight in the commitment",
                    node.name, node.kind
                ),
            ));
        }
    }

    // Positivity hazards: div/log/rsqrt by a value not provably positive.
    let classes = positivity(graph);
    for node in graph.nodes() {
        let hazard = match &node.kind {
            OpKind::Div => node.inputs.get(1).map(|id| ("denominator", *id)),
            OpKind::Log => node.inputs.first().map(|id| ("log argument", *id)),
            OpKind::Rsqrt => node.inputs.first().map(|id| ("rsqrt argument", *id)),
            _ => None,
        };
        if let Some((what, src)) = hazard {
            if classes[src.0] != Positivity::Positive {
                findings.push(warn(
                    LintRule::UnboundedDenominator,
                    node.id,
                    format!(
                        "node {} ({:?}): {what} is not provably positive; \
                         zero crossings produce inf/nan outside any calibrated envelope",
                        node.name, node.kind
                    ),
                ));
            }
        }
    }

    // Calibration safety: outputs should end in a bounded activation.
    // Structural ops are looked through to the node that computes the
    // head values.
    for &out in graph.outputs() {
        let mut id = out;
        let head = loop {
            match graph.node(id) {
                Ok(n) if n.kind.is_structural() && !n.inputs.is_empty() => {
                    if matches!(n.kind, OpKind::Concat(_) | OpKind::MaskedFill(_)) {
                        break Some(n);
                    }
                    id = n.inputs[0];
                }
                Ok(n) => break Some(n),
                Err(_) => break None,
            }
        };
        if let Some(n) = head {
            if !bounded_head(&n.kind) {
                findings.push(warn(
                    LintRule::CalibrationSafety,
                    n.id,
                    format!(
                        "output head {} ({:?}) exposes raw logits; thresholds calibrated \
                         on unbounded values are a false-flag hazard (prefer a softmax head)",
                        n.name, n.kind
                    ),
                ));
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_graph::GraphBuilder;
    use tao_tensor::Tensor;

    #[test]
    fn unreachable_node_warns() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let _dead = b.op("dead", OpKind::Relu, &[x]);
        let s = b.op("s", OpKind::Softmax, &[x]);
        let g = b.finish(vec![s]).unwrap();
        let f = lint_graph(&g, &[], &LintConfig::default());
        assert!(f
            .iter()
            .any(|f| f.rule == LintRule::Unreachable && f.severity == Severity::Warn));
        let strict = lint_graph(&g, &[], &LintConfig::strict());
        assert!(strict
            .iter()
            .any(|f| f.rule == LintRule::Unreachable && f.severity == Severity::Deny));
    }

    #[test]
    fn softmax_head_is_calibration_safe_through_reshape() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let s = b.op("s", OpKind::Softmax, &[x]);
        let r = b.op("r", OpKind::Reshape(vec![4]), &[s]);
        let g = b.finish(vec![r]).unwrap();
        let f = lint_graph(&g, &[], &LintConfig::strict());
        assert!(
            f.iter().all(|f| f.rule != LintRule::CalibrationSafety),
            "{f:?}"
        );
    }

    #[test]
    fn raw_logit_head_flagged() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::eye(4));
        let y = b.op("y", OpKind::MatMul, &[x, w]);
        let g = b.finish(vec![y]).unwrap();
        let f = lint_graph(&g, &[], &LintConfig::default());
        assert!(f
            .iter()
            .any(|f| f.rule == LintRule::CalibrationSafety && f.severity == Severity::Warn));
    }

    #[test]
    fn division_by_softmax_output_is_positive() {
        let mut b = GraphBuilder::new(2);
        let x = b.input(0, "x");
        let d = b.input(1, "d");
        let sm = b.op("sm", OpKind::Softmax, &[d]);
        let q = b.op("q", OpKind::Div, &[x, sm]);
        let s2 = b.op("out", OpKind::Softmax, &[q]);
        let g = b.finish(vec![s2]).unwrap();
        let f = lint_graph(&g, &[], &LintConfig::default());
        assert!(
            f.iter().all(|f| f.rule != LintRule::UnboundedDenominator),
            "{f:?}"
        );
    }

    #[test]
    fn division_by_raw_input_warns() {
        let mut b = GraphBuilder::new(2);
        let x = b.input(0, "x");
        let d = b.input(1, "d");
        let q = b.op("q", OpKind::Div, &[x, d]);
        let s = b.op("out", OpKind::Softmax, &[q]);
        let g = b.finish(vec![s]).unwrap();
        let f = lint_graph(&g, &[], &LintConfig::default());
        assert!(f.iter().any(|f| f.rule == LintRule::UnboundedDenominator));
    }

    #[test]
    fn positive_parameter_plus_eps_pattern_is_clean() {
        // var + eps then rsqrt: the BatchNorm denominator idiom.
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let var = b.parameter(
            "var",
            Tensor::<f32>::from_vec(vec![0.5, 1.0], &[2]).unwrap(),
        );
        let shifted = b.op("shifted", OpKind::AddScalar(1e-5), &[var]);
        let inv = b.op("inv", OpKind::Rsqrt, &[shifted]);
        let y = b.op("y", OpKind::Mul, &[x, inv]);
        let s = b.op("out", OpKind::Softmax, &[y]);
        let g = b.finish(vec![s]).unwrap();
        let f = lint_graph(&g, &[], &LintConfig::default());
        assert!(
            f.iter().all(|f| f.rule != LintRule::UnboundedDenominator),
            "{f:?}"
        );
    }
}
