//! The static interpreter: folds shape inference and the cost model over
//! a [`Graph`] without executing it, producing a [`StaticReport`].
//!
//! The cost model is pinned to the executor's measurements:
//!
//! - **shapes / FLOPs** — shape inference mirrors the kernel validation
//!   rules and the FLOP rule is literally [`OpKind::flops`] evaluated on
//!   the inferred shapes, so both are *exactly* what
//!   `execute_with_stats` records (asserted per-model in
//!   `tests/tests/analysis_oracle.rs`).
//! - **peak resident bytes** — the trace executor retains every node's
//!   value and deduplicates by buffer: `Arc`-clone operators (reshape,
//!   flatten, identity, parameter/input fan-out) contribute their storage
//!   once. The interpreter reproduces this with alias classes: every
//!   aliasing op joins its producer's class, every materializing op opens
//!   a fresh class, and the peak is the byte sum over classes.
//! - **bytes moved** — a convention (not an oracle-checked quantity):
//!   each materializing operator reads its full input operands and writes
//!   its output once, 4 bytes per element; aliasing ops move nothing.
//!
//! Gas quoting maps the cost vector onto the coordinator's EVM-calibrated
//! schedule: the base is pinned to `tao_protocol::gas::commit_claim()`
//! (checked cross-crate in the oracle tests) and compute/traffic surcharge
//! linearly on top. The deposit bound scales with FLOPs so an admission
//! deposit can never be dwarfed by the work a claim commits to.

use std::collections::HashMap;

use tao_graph::{Graph, OpKind};
use tao_money::Money;
use tao_tensor::Shape;

use crate::contract::infer_shape;
use crate::lint::{lint_graph, LintConfig, LintFinding, LintRule, Severity};

/// Gas base of a claim commitment; equals
/// `tao_protocol::gas::commit_claim()` (one fresh storage slot plus ~160
/// calldata bytes on top of the transaction base cost). Pinned by test.
pub const GAS_BASE: u64 = 21_000 + 22_100 + 160 * 16;

/// FLOPs covered by one unit of quoted gas.
pub const FLOPS_PER_GAS: u64 = 1_000;

/// Bytes of operand traffic covered by one unit of quoted gas.
pub const BYTES_PER_GAS: u64 = 10_000;

/// FLOPs covered by one micro-credit of deposit bound: the bound is
/// `total_flops / FLOPS_PER_DEPOSIT_UNIT` micro-credits, i.e. one
/// millicredit per MFLOP — exact integer arithmetic, small relative to
/// the protocol's flat proposer deposit for the bundled models; claims
/// larger than ~1 GFLOP start scaling the reserve.
pub const FLOPS_PER_DEPOSIT_UNIT: u64 = 1_000;

/// Everything the coordinator needs to price, bound and sanity-check a
/// claim before any forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticReport {
    /// Inferred output shape per node (graph order); `None` when inference
    /// failed upstream (a `Deny` finding explains why).
    pub shapes: Vec<Option<Vec<usize>>>,
    /// Static FLOP count per node, [`OpKind::flops`] on inferred shapes.
    pub flops: Vec<u64>,
    /// Total operand bytes read + written by materializing operators.
    pub bytes_moved: u64,
    /// Bytes resident when the full trace is retained (the trace
    /// executor's `peak_resident_bytes`).
    pub peak_resident_bytes: u64,
    /// Admission gas quote for committing this claim.
    pub gas_quote: u64,
    /// FLOP-proportional lower bound on the proposer deposit, exact.
    pub deposit_bound: Money,
    /// Linter findings (well-formedness + calibration safety).
    pub lint_findings: Vec<LintFinding>,
}

impl StaticReport {
    /// Sum of per-node FLOPs.
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }

    /// Number of `Deny`-severity findings.
    pub fn deny_count(&self) -> usize {
        self.lint_findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Whether the graph passes admission (no `Deny` findings).
    pub fn is_admissible(&self) -> bool {
        self.deny_count() == 0
    }
}

/// [`analyze_with`] under the default lint configuration.
pub fn analyze(graph: &Graph, input_shapes: &[Vec<usize>]) -> StaticReport {
    analyze_with(graph, input_shapes, &LintConfig::default())
}

/// Whether `kind`'s output shares the storage of its first input (or of a
/// graph parameter / caller input): `Arc`-clone ops allocate nothing and
/// move no bytes, which is what the peak-memory model folds over.
fn aliases(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Input(_)
            | OpKind::Parameter(_)
            | OpKind::Reshape(_)
            | OpKind::Flatten
            | OpKind::FlattenFrom(_)
            | OpKind::Identity
    )
}

/// Folds shape inference and the cost model over `graph` given the
/// caller-input shapes, producing the full [`StaticReport`]. Never fails:
/// malformed regions surface as `Deny` findings and downstream shapes
/// degrade to `None` (their costs count as zero).
pub fn analyze_with(graph: &Graph, input_shapes: &[Vec<usize>], cfg: &LintConfig) -> StaticReport {
    let mut shapes: Vec<Option<Vec<usize>>> = Vec::with_capacity(graph.len());
    let mut flops: Vec<u64> = Vec::with_capacity(graph.len());
    let mut findings: Vec<LintFinding> = Vec::new();
    let mut bytes_moved: u64 = 0;
    // Alias class -> resident bytes; keys are the class representative.
    #[derive(Hash, PartialEq, Eq, Clone)]
    enum ClassKey {
        Input(usize),
        Param(String),
        Node(usize),
    }
    let mut class_of: Vec<Option<ClassKey>> = Vec::with_capacity(graph.len());
    let mut resident: HashMap<ClassKey, u64> = HashMap::new();

    for node in graph.nodes() {
        let out_shape: Option<Vec<usize>> = match &node.kind {
            // A leaf with input edges falls through to `infer_shape`,
            // which denies it on arity as `eval_node` refuses it.
            OpKind::Input(idx) if node.inputs.is_empty() => match input_shapes.get(*idx) {
                Some(s) => Some(s.clone()),
                None => {
                    findings.push(LintFinding::deny(
                        LintRule::ShapeMismatch,
                        Some(node.id),
                        format!(
                            "node {} reads input {idx} but only {} input shapes were provided",
                            node.name,
                            input_shapes.len()
                        ),
                    ));
                    None
                }
            },
            OpKind::Parameter(name) if node.inputs.is_empty() => match graph.param(name) {
                Ok(t) => Some(t.dims().to_vec()),
                Err(_) => {
                    findings.push(LintFinding::deny(
                        LintRule::MissingParameter,
                        Some(node.id),
                        format!("node {} references unknown parameter {name:?}", node.name),
                    ));
                    None
                }
            },
            kind => {
                let resolved: Option<Vec<&[usize]>> = node
                    .inputs
                    .iter()
                    .map(|id| shapes[id.0].as_deref())
                    .collect();
                match resolved {
                    // Upstream failure already reported; stay silent to
                    // avoid cascading findings.
                    None => None,
                    Some(ins) => match infer_shape(kind, &ins) {
                        Ok(dims) => Some(dims),
                        Err(e) => {
                            findings.push(LintFinding::deny(
                                LintRule::ShapeMismatch,
                                Some(node.id),
                                format!("node {}: {e}", node.name),
                            ));
                            None
                        }
                    },
                }
            }
        };

        // Costs, only where shapes resolved.
        let node_flops = match &out_shape {
            Some(out) => {
                let in_shapes: Option<Vec<Shape>> = node
                    .inputs
                    .iter()
                    .map(|id| shapes[id.0].as_deref().map(Shape::new))
                    .collect();
                in_shapes.map_or(0, |ins| {
                    let out = Shape::new(out);
                    if !aliases(&node.kind) {
                        let read: usize = ins.iter().map(Shape::volume).sum();
                        bytes_moved += 4 * (read + out.volume()) as u64;
                    }
                    node.kind.flops(ins.iter(), &out)
                })
            }
            None => 0,
        };

        // Alias class for the peak-resident model.
        let key = match &node.kind {
            OpKind::Input(idx) => Some(ClassKey::Input(*idx)),
            OpKind::Parameter(name) => graph
                .param(name)
                .ok()
                .map(|_| ClassKey::Param(name.clone())),
            kind if aliases(kind) => node.inputs.first().and_then(|id| class_of[id.0].clone()),
            _ => Some(ClassKey::Node(node.id.0)),
        };
        if let (Some(k), Some(out)) = (&key, &out_shape) {
            let bytes = 4 * out.iter().product::<usize>() as u64;
            resident.entry(k.clone()).or_insert(bytes);
        }
        class_of.push(key);
        shapes.push(out_shape);
        flops.push(node_flops);
    }

    let peak_resident_bytes: u64 = resident.values().sum();
    let total_flops: u64 = flops.iter().sum();
    let gas_quote = GAS_BASE + total_flops / FLOPS_PER_GAS + bytes_moved / BYTES_PER_GAS;
    let deposit_bound = Money::from_units((total_flops / FLOPS_PER_DEPOSIT_UNIT) as i128);

    findings.extend(lint_graph(graph, &shapes, cfg));

    StaticReport {
        shapes,
        flops,
        bytes_moved,
        peak_resident_bytes,
        gas_quote,
        deposit_bound,
        lint_findings: findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_graph::GraphBuilder;
    use tao_tensor::Tensor;

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::eye(4));
        let y = b.op("y", OpKind::MatMul, &[x, w]);
        let s = b.op("s", OpKind::Softmax, &[y]);
        b.finish(vec![s]).unwrap()
    }

    #[test]
    fn arc_clone_ops_alias_their_input() {
        for kind in [
            OpKind::Reshape(vec![4]),
            OpKind::Flatten,
            OpKind::FlattenFrom(1),
            OpKind::Identity,
        ] {
            assert!(aliases(&kind), "{kind:?} aliases its input");
        }
        assert!(!aliases(&OpKind::Transpose(0, 1)));
    }

    #[test]
    fn shapes_and_flops_fold_over_the_graph() {
        let g = tiny_graph();
        let r = analyze(&g, &[vec![2, 4]]);
        assert!(r.is_admissible(), "{:?}", r.lint_findings);
        assert_eq!(r.shapes[2].as_deref(), Some(&[2usize, 4][..]));
        assert_eq!(r.shapes[3].as_deref(), Some(&[2usize, 4][..]));
        // MatMul: 2*m*n*k = 2*2*4*4; Softmax: 5 per element.
        assert_eq!(r.flops, vec![0, 0, 64, 40]);
        assert_eq!(r.total_flops(), 104);
        // x(32) + w(64) + y(32) + s(32) bytes, all distinct buffers.
        assert_eq!(r.peak_resident_bytes, 160);
        assert!(r.gas_quote >= GAS_BASE);
        // 104 FLOPs / 1_000 FLOPs-per-unit floors to zero micro-credits.
        assert_eq!(r.deposit_bound, Money::from_units(0));
        // A graph past the unit threshold gets a positive exact bound.
        let big = analyze(&g, &[vec![64, 4]]);
        assert_eq!(
            big.deposit_bound,
            Money::from_units((big.total_flops() / FLOPS_PER_DEPOSIT_UNIT) as i128)
        );
        assert!(big.deposit_bound > Money::ZERO);
    }

    #[test]
    fn aliasing_ops_share_their_producer_class() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let r1 = b.op("r1", OpKind::Reshape(vec![4, 2]), &[x]);
        let f = b.op("f", OpKind::Flatten, &[r1]);
        let g = b.finish(vec![f]).unwrap();
        let rep = analyze(&g, &[vec![2, 4]]);
        // One shared 32-byte buffer, not three.
        assert_eq!(rep.peak_resident_bytes, 32);
        assert_eq!(rep.bytes_moved, 0);
    }

    #[test]
    fn missing_input_shape_is_a_deny_finding() {
        let g = tiny_graph();
        let r = analyze(&g, &[]);
        assert!(!r.is_admissible());
        // The input node and everything downstream of it degrades to
        // `None`; the parameter's shape is still known from the state dict.
        assert_eq!(r.shapes[0], None);
        assert_eq!(r.shapes[2], None);
        assert_eq!(r.shapes[3], None);
        assert_eq!(r.total_flops(), 0);
    }

    #[test]
    fn shape_mismatch_reported_once_not_cascaded() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::zeros(&[3, 5]));
        let y = b.op("y", OpKind::MatMul, &[x, w]);
        let s = b.op("s", OpKind::Softmax, &[y]);
        let g = b.finish(vec![s]).unwrap();
        let r = analyze(&g, &[vec![2, 4]]);
        let denies: Vec<_> = r
            .lint_findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .collect();
        assert_eq!(denies.len(), 1, "{denies:?}");
        assert_eq!(r.shapes[2], None);
        assert_eq!(r.shapes[3], None);
    }
}
