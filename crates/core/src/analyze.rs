//! `tao analyze`: static reports and lint gating for the bundled models.
//!
//! This is the library half of the CLI subcommand — building any bundled
//! model by name, folding the analysis contracts over its graph without
//! executing it, and rendering the [`StaticReport`] for a terminal — so
//! integration tests can drive exactly what the binary does.

use tao_analysis::{analyze_with, LintConfig, Severity, StaticReport};
use tao_models::{
    bert, diffusion, qwen, resnet, transformer, BertConfig, DiffusionConfig, Model, QwenConfig,
    ResNetConfig, TransformerConfig,
};

use crate::error::TaoError;
use crate::Result;

/// Every model name [`build_model`] accepts.
pub const MODEL_NAMES: &[&str] = &["transformer", "bert", "qwen", "resnet", "diffusion"];

/// Builds a bundled model by name at its small configuration.
///
/// # Errors
///
/// Returns an error for a name outside [`MODEL_NAMES`].
pub fn build_model(name: &str) -> Result<Model> {
    Ok(match name {
        "transformer" => transformer::build(TransformerConfig::small(), 1),
        "bert" => bert::build(BertConfig::small(), 1),
        "qwen" => qwen::build(QwenConfig::small(), 1),
        "resnet" => resnet::build(ResNetConfig::small(), 1),
        "diffusion" => diffusion::build(DiffusionConfig::small(), 1),
        other => {
            return Err(TaoError::Config(format!(
                "unknown model {other:?} (expected one of {MODEL_NAMES:?})"
            )))
        }
    })
}

/// Builds `name` and folds the analysis contracts over its graph under
/// `cfg`, without executing it.
///
/// # Errors
///
/// Returns an error for an unknown model name.
pub fn analyze_model(name: &str, cfg: &LintConfig) -> Result<(Model, StaticReport)> {
    let model = build_model(name)?;
    let report = analyze_with(&model.graph, &model.input_shapes, cfg);
    Ok((model, report))
}

/// Renders a static report for the terminal: totals, the heaviest
/// operators, and every lint finding.
pub fn render_report(model: &Model, report: &StaticReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "model:               {}", model.name);
    let _ = writeln!(out, "operators:           {}", model.num_ops());
    let _ = writeln!(out, "inputs:              {:?}", model.input_shapes);
    let _ = writeln!(out, "total FLOPs:         {}", report.total_flops());
    let _ = writeln!(out, "bytes moved:         {}", report.bytes_moved);
    let _ = writeln!(out, "peak resident bytes: {}", report.peak_resident_bytes);
    let _ = writeln!(out, "gas quote:           {}", report.gas_quote);
    let _ = writeln!(out, "deposit bound:       {}", report.deposit_bound);
    let _ = writeln!(out, "admissible:          {}", report.is_admissible());

    let mut heavy: Vec<usize> = (0..report.flops.len()).collect();
    heavy.sort_by_key(|&i| std::cmp::Reverse(report.flops[i]));
    heavy.retain(|&i| report.flops[i] > 0);
    heavy.truncate(10);
    if !heavy.is_empty() {
        let _ = writeln!(out, "\nheaviest operators:");
        let _ = writeln!(
            out,
            "{:<6} {:<14} {:>14} {:<18}",
            "node", "op", "flops", "shape"
        );
        for i in heavy {
            let node = &model.graph.nodes()[i];
            let shape = report.shapes[i]
                .as_ref()
                .map_or_else(|| "?".to_string(), |s| format!("{s:?}"));
            let _ = writeln!(
                out,
                "{:<6} {:<14} {:>14} {:<18}",
                i,
                node.kind.mnemonic(),
                report.flops[i],
                shape
            );
        }
    }

    if report.lint_findings.is_empty() {
        let _ = writeln!(out, "\nlint: clean");
    } else {
        let _ = writeln!(out, "\nlint findings:");
        for f in &report.lint_findings {
            let sev = match f.severity {
                Severity::Deny => "DENY",
                Severity::Warn => "warn",
            };
            let _ = writeln!(out, "  [{sev}] {:?}: {}", f.rule, f.message);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bundled_model_is_statically_admissible() {
        for name in MODEL_NAMES {
            let (model, report) = analyze_model(name, &LintConfig::default()).unwrap();
            assert!(report.is_admissible(), "{name}: {:?}", report.lint_findings);
            assert!(report.total_flops() > 0, "{name} must cost something");
            assert!(report.peak_resident_bytes > 0);
            assert!(
                report.shapes.iter().all(Option::is_some),
                "{name}: every shape must resolve"
            );
            assert_eq!(report.shapes.len(), model.graph.len());
        }
    }

    #[test]
    fn transformer_head_is_calibration_safe_even_strict() {
        let (_, report) = analyze_model("transformer", &LintConfig::strict()).unwrap();
        assert!(report.is_admissible(), "{:?}", report.lint_findings);
    }

    #[test]
    fn raw_logit_heads_warn_but_admit_by_default() {
        let (_, report) = analyze_model("bert", &LintConfig::default()).unwrap();
        assert!(report.is_admissible());
        assert!(
            report
                .lint_findings
                .iter()
                .any(|f| f.rule == tao_analysis::LintRule::CalibrationSafety),
            "bert's Linear head must trip the calibration-safety lint"
        );
    }

    #[test]
    fn rendering_mentions_the_essentials() {
        let (model, report) = analyze_model("qwen", &LintConfig::default()).unwrap();
        let text = render_report(&model, &report);
        assert!(text.contains("qwen"));
        assert!(text.contains("gas quote"));
        assert!(text.contains("heaviest operators"));
    }

    #[test]
    fn unknown_model_is_an_error() {
        assert!(build_model("gpt-5").is_err());
    }
}
