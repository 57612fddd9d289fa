//! Static-analysis differential bench: the cost of quoting a claim
//! without executing it, and the drift between the quote and the measured
//! execution — which the oracle contract pins to zero.
//!
//! For every bundled model the bin times [`tao_analysis::analyze`]
//! (contract folding, no kernels) against `execute_with_stats` (the real
//! forward pass), then asserts the drift floor: static FLOPs and peak
//! resident bytes equal the measured values *exactly*, and the pooled
//! executor's working set never exceeds the static peak (which models
//! keep-everything).
//!
//! Run with `cargo run --release -p tao-bench --bin analysis`. Pass
//! `--smoke` for the seconds-scale CI variant. Set `CRITERION_CSV=<path>`
//! to append figure-ready CSV rows.

use std::time::Instant;

use tao_analysis::analyze;
use tao_bench::{export_csv, print_table};
use tao_graph::{execute_with_stats, forward_with_stats, BufferPool};
use tao_models::{
    bert, data, diffusion, qwen, resnet, transformer, BertConfig, DiffusionConfig, Model,
    QwenConfig, ResNetConfig, TransformerConfig,
};
use tao_tensor::{KernelConfig, Tensor};

fn bundled(name: &str) -> (Model, Vec<Tensor<f32>>) {
    match name {
        "transformer" => {
            let cfg = TransformerConfig::small();
            (
                transformer::build(cfg, 1),
                vec![transformer::sample_ids(cfg, 42)],
            )
        }
        "bert" => {
            let cfg = BertConfig::small();
            (bert::build(cfg, 1), vec![bert::sample_ids(cfg, 42)])
        }
        "qwen" => {
            let cfg = QwenConfig::small();
            (qwen::build(cfg, 1), vec![qwen::sample_ids(cfg, 42)])
        }
        "resnet" => {
            let cfg = ResNetConfig::small();
            (
                resnet::build(cfg, 1),
                vec![data::class_image(cfg.in_channels, cfg.image, 3, 42)],
            )
        }
        "diffusion" => {
            let cfg = DiffusionConfig::small();
            let model = diffusion::build(cfg, 1);
            let latent = Tensor::<f32>::randn(&model.input_shapes[0], 42);
            let temb = diffusion::time_embedding(5, cfg.temb);
            (model, vec![latent, temb])
        }
        other => panic!("unknown bundled model {other:?}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 5 };
    let cfg = KernelConfig::reference();
    let mut rows: Vec<Vec<String>> = Vec::new();

    for name in ["transformer", "bert", "qwen", "resnet", "diffusion"] {
        let (model, inputs) = bundled(name);
        let shapes: Vec<Vec<usize>> = inputs.iter().map(|t| t.dims().to_vec()).collect();

        // Static quote: contract folding only, no kernels.
        let t0 = Instant::now();
        let mut report = analyze(&model.graph, &shapes);
        for _ in 1..reps {
            report = analyze(&model.graph, &shapes);
        }
        let static_secs = t0.elapsed().as_secs_f64() / reps as f64;

        // Measured execution: the trace executor with its cost ledger.
        let t0 = Instant::now();
        let (mut exec, mut stats) =
            execute_with_stats(&model.graph, &inputs, &cfg, None).expect("forward");
        for _ in 1..reps {
            (exec, stats) = execute_with_stats(&model.graph, &inputs, &cfg, None).expect("forward");
        }
        let exec_secs = t0.elapsed().as_secs_f64() / reps as f64;

        // Pooled executor working set for the peak comparison.
        let mut pool = BufferPool::new();
        let _ = forward_with_stats(&model.graph, &inputs, &cfg, &mut pool).expect("pooled");
        let (_, pooled) =
            forward_with_stats(&model.graph, &inputs, &cfg, &mut pool).expect("pooled");

        // Drift floor: the quote IS the measurement.
        let measured_flops: u64 = exec.flops.iter().sum();
        assert_eq!(
            report.total_flops(),
            measured_flops,
            "{name}: static FLOPs drifted from measured"
        );
        assert_eq!(
            report.flops, exec.flops,
            "{name}: per-node FLOP ledger drifted"
        );
        assert_eq!(
            report.peak_resident_bytes, stats.peak_resident_bytes,
            "{name}: static peak drifted from the trace executor"
        );
        assert!(
            pooled.peak_resident_bytes <= report.peak_resident_bytes,
            "{name}: pooled working set {} exceeds the static keep-everything peak {}",
            pooled.peak_resident_bytes,
            report.peak_resident_bytes
        );
        assert!(report.is_admissible(), "{name}: bundled model must admit");

        export_csv(
            &format!("analysis/static/{name}"),
            static_secs,
            "elements",
            measured_flops,
        );
        export_csv(
            &format!("analysis/measured/{name}"),
            exec_secs,
            "elements",
            measured_flops,
        );
        rows.push(vec![
            name.into(),
            format!("{measured_flops}"),
            format!("{}", report.gas_quote),
            format!("{}", report.peak_resident_bytes),
            format!("{}", pooled.peak_resident_bytes),
            format!("{:.1}", static_secs * 1e6),
            format!("{:.2}", exec_secs * 1e3),
            format!("{:.0}x", exec_secs / static_secs.max(1e-9)),
        ]);
    }

    print_table(
        &format!(
            "Static quote vs measured execution — {} reps per model, zero drift asserted",
            reps
        ),
        &[
            "model",
            "flops",
            "gas quote",
            "static peak B",
            "pooled peak B",
            "analyze us",
            "execute ms",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\nDrift floor held on all models: static FLOPs/peak equal measured exactly; \
         pooled working set <= static peak."
    );
}
