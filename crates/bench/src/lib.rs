//! # tao-bench
//!
//! Shared infrastructure for the experiment binaries that regenerate every
//! table and figure of the TAO paper's evaluation (one binary per
//! artifact; see `src/bin/`), plus Criterion micro-benchmarks under
//! `benches/`.
//!
//! Experiments run at laptop scale on the simulated device fleet; the
//! *shape* of each result (who wins, tightness gaps, scaling trends) is
//! the reproduction target, not the absolute numbers from the authors'
//! GPU testbed.

pub mod attacks;
pub mod disputes;

use std::io::Write as _;

use tao::{deploy, Deployment};
use tao_calib::DEFAULT_ALPHA;
use tao_device::Fleet;
use tao_models::{bert, data, diffusion, qwen, resnet};
use tao_models::{BertConfig, DiffusionConfig, Model, QwenConfig, ResNetConfig};
use tao_tensor::Tensor;

/// Scale knob: experiment binaries read `TAO_BENCH_SCALE` (default 1) to
/// multiply sample counts; CI can leave it unset and a full reproduction
/// can set 4+.
pub fn scale() -> usize {
    std::env::var("TAO_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// A prepared evaluation workload: deployed model plus fresh test inputs.
pub struct Workload {
    /// Paper model this stands in for.
    pub paper_name: &'static str,
    /// The deployment (model + thresholds + commitments).
    pub deployment: Deployment,
    /// Held-out inputs (not used during calibration).
    pub test_inputs: Vec<Vec<Tensor<f32>>>,
}

impl Workload {
    /// The traced model.
    pub fn model(&self) -> &Model {
        &self.deployment.model
    }
}

fn calib_samples_for(model_kind: &str, n: usize) -> Vec<Vec<Tensor<f32>>> {
    match model_kind {
        "bert" => data::token_dataset(n, BertConfig::small().seq, BertConfig::small().vocab, 1_000),
        "qwen" => data::token_dataset(n, QwenConfig::small().seq, QwenConfig::small().vocab, 2_000),
        "resnet" => {
            let c = ResNetConfig::small();
            data::image_dataset(n, c.in_channels, c.image, c.classes, 3_000)
        }
        _ => unreachable!("unknown model kind"),
    }
}

fn test_inputs_for(model_kind: &str, n: usize) -> Vec<Vec<Tensor<f32>>> {
    match model_kind {
        "bert" => data::token_dataset(n, BertConfig::small().seq, BertConfig::small().vocab, 9_000),
        "qwen" => data::token_dataset(n, QwenConfig::small().seq, QwenConfig::small().vocab, 9_500),
        "resnet" => {
            let c = ResNetConfig::small();
            data::image_dataset(n, c.in_channels, c.image, c.classes, 9_800)
        }
        _ => unreachable!("unknown model kind"),
    }
}

/// Builds the BERT-large stand-in workload.
pub fn bert_workload(calib_n: usize, test_n: usize) -> Workload {
    let model = bert::build(BertConfig::small(), 11);
    let deployment = deploy(
        model,
        Fleet::standard(),
        &calib_samples_for("bert", calib_n),
        DEFAULT_ALPHA,
    )
    .expect("bert deployment");
    Workload {
        paper_name: "BERT-large",
        deployment,
        test_inputs: test_inputs_for("bert", test_n),
    }
}

/// Builds the Qwen3-8B stand-in workload.
pub fn qwen_workload(calib_n: usize, test_n: usize) -> Workload {
    let model = qwen::build(QwenConfig::small(), 13);
    let deployment = deploy(
        model,
        Fleet::standard(),
        &calib_samples_for("qwen", calib_n),
        DEFAULT_ALPHA,
    )
    .expect("qwen deployment");
    Workload {
        paper_name: "Qwen3-8B",
        deployment,
        test_inputs: test_inputs_for("qwen", test_n),
    }
}

/// Builds the ResNet-152 stand-in workload.
pub fn resnet_workload(calib_n: usize, test_n: usize) -> Workload {
    let model = resnet::build(ResNetConfig::small(), 17);
    let deployment = deploy(
        model,
        Fleet::standard(),
        &calib_samples_for("resnet", calib_n),
        DEFAULT_ALPHA,
    )
    .expect("resnet deployment");
    Workload {
        paper_name: "ResNet-152",
        deployment,
        test_inputs: test_inputs_for("resnet", test_n),
    }
}

/// Builds the Stable Diffusion stand-in (UNet) workload; inputs are
/// (latent, time-embedding) pairs.
pub fn diffusion_workload(calib_n: usize, test_n: usize) -> Workload {
    let cfg = DiffusionConfig::small();
    let model = diffusion::build(cfg, 19);
    let mk = |seed: u64| {
        vec![
            Tensor::<f32>::randn(&model.input_shapes[0], seed),
            diffusion::time_embedding((seed % 50) as usize + 1, cfg.temb),
        ]
    };
    let samples: Vec<_> = (0..calib_n).map(|i| mk(4_000 + i as u64)).collect();
    let tests: Vec<_> = (0..test_n).map(|i| mk(9_900 + i as u64)).collect();
    let deployment =
        deploy(model, Fleet::standard(), &samples, DEFAULT_ALPHA).expect("diffusion deployment");
    Workload {
        paper_name: "Stable Diffusion v1-5",
        deployment,
        test_inputs: tests,
    }
}

/// Builds a deeper BERT-style workload whose graph size pushes dispute
/// depth toward the paper's 11-13 round regime.
pub fn deep_bert_workload(layers: usize, calib_n: usize, test_n: usize) -> Workload {
    let cfg = BertConfig::deep(layers);
    let model = bert::build(cfg, 29);
    let samples = data::token_dataset(calib_n, cfg.seq, cfg.vocab, 1_500);
    let tests = data::token_dataset(test_n, cfg.seq, cfg.vocab, 9_600);
    let deployment =
        deploy(model, Fleet::standard(), &samples, DEFAULT_ALPHA).expect("deep bert deployment");
    Workload {
        paper_name: "BERT-large",
        deployment,
        test_inputs: tests,
    }
}

/// Builds a deeper Qwen-style workload (see [`deep_bert_workload`]).
pub fn deep_qwen_workload(layers: usize, calib_n: usize, test_n: usize) -> Workload {
    let cfg = QwenConfig::deep(layers);
    let model = qwen::build(cfg, 31);
    let samples = data::token_dataset(calib_n, cfg.seq, cfg.vocab, 2_500);
    let tests = data::token_dataset(test_n, cfg.seq, cfg.vocab, 9_700);
    let deployment =
        deploy(model, Fleet::standard(), &samples, DEFAULT_ALPHA).expect("deep qwen deployment");
    Workload {
        paper_name: "Qwen3-8B",
        deployment,
        test_inputs: tests,
    }
}

/// Builds a deeper ResNet-style workload (see [`deep_bert_workload`]).
pub fn deep_resnet_workload(blocks: usize, calib_n: usize, test_n: usize) -> Workload {
    let cfg = ResNetConfig::deep(blocks);
    let model = resnet::build(cfg, 37);
    let samples = data::image_dataset(calib_n, cfg.in_channels, cfg.image, cfg.classes, 3_500);
    let tests = data::image_dataset(test_n, cfg.in_channels, cfg.image, cfg.classes, 9_750);
    let deployment =
        deploy(model, Fleet::standard(), &samples, DEFAULT_ALPHA).expect("deep resnet deployment");
    Workload {
        paper_name: "ResNet-152",
        deployment,
        test_inputs: tests,
    }
}

/// Seconds of one run of `f`.
fn secs<R>(f: &mut impl FnMut() -> R) -> f64 {
    let t0 = std::time::Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// A seed-vs-fast pair timed as alternating repetitions (see [`paired`]).
pub struct Paired {
    /// Median seconds of the seed side.
    pub seed: f64,
    /// Median seconds of the fast side.
    pub fast: f64,
    /// Median of the per-repetition `seed / fast` ratios.
    pub speedup: f64,
}

/// Times `seed` against `fast` as `samples` alternating repetitions (one
/// warm-up run of each side first; the side that runs first alternates),
/// so a drift in host speed moves both sides of a ratio together.
pub fn paired<A, B>(
    samples: usize,
    mut seed: impl FnMut() -> A,
    mut fast: impl FnMut() -> B,
) -> Paired {
    std::hint::black_box(seed());
    std::hint::black_box(fast());
    let reps: Vec<(f64, f64)> = (0..samples)
        .map(|i| {
            if i % 2 == 0 {
                let s = secs(&mut seed);
                (s, secs(&mut fast))
            } else {
                let f = secs(&mut fast);
                (secs(&mut seed), f)
            }
        })
        .collect();
    Paired {
        seed: median(reps.iter().map(|r| r.0).collect()),
        fast: median(reps.iter().map(|r| r.1).collect()),
        speedup: median(reps.iter().map(|r| r.0 / r.1).collect()),
    }
}

/// Appends one row in the criterion stub's CSV schema to the file named
/// by `CRITERION_CSV`, writing the header first when the file is new; a
/// no-op when the variable is unset or empty. `unit` names what
/// `per_iter` counts (`flops`, `bytes`, `elements`).
pub fn export_csv(id: &str, secs: f64, unit: &str, per_iter: u64) {
    let Ok(path) = std::env::var("CRITERION_CSV") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let exists = std::path::Path::new(&path).exists();
    let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    else {
        eprintln!("CSV export to {path} failed to open");
        return;
    };
    if !exists {
        let _ = writeln!(
            file,
            "id,samples,min_ns,mean_ns,median_ns,stddev_ns,throughput_unit,throughput_per_iter,outliers_rejected"
        );
    }
    let ns = (secs * 1e9) as u128;
    let _ = writeln!(
        file,
        "{},1,{ns},{ns},{ns},0,{unit},{per_iter},0",
        id.replace(',', ";")
    );
}

/// Prints a simple aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float in compact scientific notation.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_and_hold_out_test_inputs() {
        let w = bert_workload(3, 2);
        assert_eq!(w.test_inputs.len(), 2);
        assert!(!w.deployment.thresholds.operators.is_empty());
        assert_eq!(w.paper_name, "BERT-large");
    }

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }

    #[test]
    fn sci_formats() {
        assert_eq!(sci(0.0), "0");
        assert!(sci(1.234e-5).contains("e-5"));
    }
}
