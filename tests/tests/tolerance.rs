//! Integration tests for the tolerance semantics: theoretical-bound
//! soundness over whole models and empirical-threshold coverage of honest
//! heterogeneity.

use tao_bounds::{check_within_bound, BoundEngine};
use tao_calib::{calibrate, error_profile, DEFAULT_EPS};
use tao_device::{Device, Fleet};
use tao_graph::{eval_node, execute, BufferPool};
use tao_models::{bert, data, qwen, resnet, BertConfig, QwenConfig, ResNetConfig};
use tao_tensor::KernelConfig;

#[test]
fn theoretical_bounds_cover_every_operator_of_every_model() {
    // The soundness property at model scale: re-executing each operator on
    // any device from the reference trace's inputs stays within 2 tau.
    let models = [
        bert::build(
            BertConfig {
                layers: 1,
                ..BertConfig::small()
            },
            1,
        ),
        qwen::build(
            QwenConfig {
                layers: 1,
                ..QwenConfig::small()
            },
            1,
        ),
        resnet::build(
            ResNetConfig {
                blocks: 1,
                ..ResNetConfig::small()
            },
            1,
        ),
    ];
    let inputs: Vec<Vec<tao_tensor::Tensor<f32>>> = vec![
        vec![bert::sample_ids(BertConfig::small(), 11)],
        vec![qwen::sample_ids(QwenConfig::small(), 12)],
        vec![data::class_image(3, 16, 2, 13)],
    ];
    let engine = BoundEngine::paper_default();
    for (model, input) in models.iter().zip(&inputs) {
        let reference = execute(&model.graph, input, &KernelConfig::reference(), None).unwrap();
        let bounds = engine.co_execute(&model.graph, &reference).unwrap();
        for dev in Device::standard_fleet() {
            for node in model.graph.nodes() {
                // Re-execute this single operator from the reference trace
                // inputs under the device's kernels (operator-local check).
                let device_out = eval_node(
                    &model.graph,
                    node,
                    &reference.values,
                    input,
                    dev.config(),
                    &mut BufferPool::new(),
                )
                .unwrap();
                let report = check_within_bound(
                    &device_out,
                    &reference.values[node.id.0],
                    &bounds[node.id.0],
                    2.0,
                );
                assert!(
                    report.passed,
                    "{}: node {} ({}) violates 2tau on {} ({} violations, worst {:.2})",
                    model.name,
                    node.id,
                    node.kind.mnemonic(),
                    dev.name(),
                    report.violations,
                    report.worst_ratio
                );
            }
        }
    }
}

#[test]
fn empirical_thresholds_cover_unseen_devices_pairings_and_inputs() {
    let cfg = QwenConfig {
        layers: 1,
        ..QwenConfig::small()
    };
    let model = qwen::build(cfg, 5);
    let samples = data::token_dataset(40, cfg.seq, cfg.vocab, 400);
    let record = calibrate(&model.graph, &samples, &Fleet::standard()).unwrap();
    let bundle = record.into_thresholds(3.0);
    // Fresh inputs across every ordered device pair.
    let fleet = Fleet::standard();
    for s in 0..4u64 {
        let input = vec![qwen::sample_ids(cfg, 5_000 + s)];
        let traces: Vec<_> = fleet
            .devices()
            .iter()
            .map(|d| execute(&model.graph, &input, d.config(), None).unwrap())
            .collect();
        for i in 0..traces.len() {
            for j in 0..traces.len() {
                if i == j {
                    continue;
                }
                for op in &bundle.operators {
                    let prof = error_profile(
                        &traces[i].values[op.node.0],
                        &traces[j].values[op.node.0],
                        DEFAULT_EPS,
                    );
                    let exc = bundle.exceedance(op.node, &prof).unwrap();
                    assert!(
                        exc <= 1.0,
                        "false positive at node {} ({}) pair ({i},{j}): {exc}",
                        op.node,
                        op.mnemonic
                    );
                }
            }
        }
    }
}

#[test]
fn empirical_thresholds_are_orders_tighter_than_theoretical() {
    // The Fig. 7 headline: empirical envelopes sit far below worst-case
    // theory for transformer reductions.
    let cfg = BertConfig {
        layers: 1,
        ..BertConfig::small()
    };
    let model = bert::build(cfg, 6);
    let samples = data::token_dataset(8, cfg.seq, cfg.vocab, 800);
    let record = calibrate(&model.graph, &samples, &Fleet::standard()).unwrap();
    let engine = BoundEngine::paper_default();
    let input = vec![bert::sample_ids(cfg, 31)];
    let exec = execute(&model.graph, &input, &KernelConfig::reference(), None).unwrap();
    let bounds = engine.co_execute(&model.graph, &exec).unwrap();

    let mut ratios = Vec::new();
    for (idx, &node) in record.nodes.iter().enumerate() {
        let kind = model.graph.node(node).unwrap().kind.mnemonic();
        if kind != "matmul" && kind != "linear" {
            continue;
        }
        let emp = record.envelopes[idx].abs.last().copied().unwrap_or(0.0);
        let theo = bounds[node.0].data().iter().cloned().fold(0.0f64, f64::max);
        if emp > 0.0 {
            ratios.push(theo / emp);
        }
    }
    assert!(!ratios.is_empty());
    let geo = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    // The gap grows with the reduction depth k; the paper's 1e2-1e3x holds
    // at k ~ 1024-8192, while our laptop-scale models use k ~ 32-128, so a
    // single-decade gap is the correct shape at this scale.
    assert!(geo > 3.0, "expected a multi-x tightness gap, got {geo:.1}x");
}
