//! Static analysis of committed graphs — the admission-time seam of the
//! TAO marketplace.
//!
//! Shape inference ([`infer_shape`]) checks each
//! [`tao_graph::OpKind`]'s [`tao_graph::OpKind::arity`], the table the
//! executor also reads, and then mirrors the `tao-tensor` kernel
//! validation exactly. The interpreter ([`analyze`]) folds shape
//! inference and the cost model over a graph *without executing it*,
//! producing a [`StaticReport`] — inferred shapes, FLOPs, operand
//! traffic, peak resident bytes, an admission gas quote, a deposit bound,
//! and linter findings — that the coordinator uses to price and
//! sanity-check a claim before any forward pass.
//!
//! The report is oracle-checked: `tests/tests/analysis_oracle.rs` asserts
//! exact shape/FLOP/peak-memory equality against `execute_with_stats`
//! measurements on every bundled model and on proptest-random graphs.

#![warn(missing_docs)]

pub mod contract;
pub mod interp;
pub mod lint;

pub use contract::{infer_shape, ShapeIssue};
pub use interp::{
    analyze, analyze_with, StaticReport, BYTES_PER_GAS, FLOPS_PER_DEPOSIT_UNIT, FLOPS_PER_GAS,
    GAS_BASE,
};
pub use lint::{lint_graph, LintConfig, LintFinding, LintRule, Severity};
