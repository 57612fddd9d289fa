//! Weights packed once per graph: `Graph::new` packs every `Linear` and
//! `Conv2d` weight parameter into its GEMM operand layout, and the executor
//! uses that pack only when the operand is the graph's own parameter tensor
//! (same buffer, same dims). These tests pin that rule:
//!
//! * on every bundled model and several kernel configurations, each
//!   `Linear`/`Conv2d` node's traced value equals the scalar
//!   `linear_reference`/`conv2d_reference` oracle on its traced operands,
//!   bit for bit, and every weight parameter actually hit its pack;
//! * a perturbed or copied weight misses the pack and is used as given;
//! * cloning and equality see only what the graph was built from.

use std::collections::BTreeMap;

use tao_graph::{execute, forward, BufferPool, Graph, GraphBuilder, NodeId, OpKind, Perturbations};
use tao_models::{
    bert, data, diffusion, qwen, resnet, transformer, BertConfig, DiffusionConfig, Model,
    QwenConfig, ResNetConfig, TransformerConfig,
};
use tao_tensor::{AccumMode, Conv2dParams, KernelConfig, MathLib, Tensor};

fn bundled_models() -> Vec<(&'static str, Model, Vec<Tensor<f32>>)> {
    let tcfg = TransformerConfig::small();
    let bcfg = BertConfig::small();
    let qcfg = QwenConfig::small();
    let rcfg = ResNetConfig::small();
    let dcfg = DiffusionConfig::small();
    let diffusion = diffusion::build(dcfg, 1);
    let latent = Tensor::<f32>::randn(&diffusion.input_shapes[0], 42);
    vec![
        (
            "transformer",
            transformer::build(tcfg, 1),
            vec![transformer::sample_ids(tcfg, 42)],
        ),
        (
            "bert",
            bert::build(bcfg, 1),
            vec![bert::sample_ids(bcfg, 42)],
        ),
        (
            "qwen",
            qwen::build(qcfg, 1),
            vec![qwen::sample_ids(qcfg, 42)],
        ),
        (
            "resnet",
            resnet::build(rcfg, 1),
            vec![data::class_image(rcfg.in_channels, rcfg.image, 3, 42)],
        ),
        (
            "diffusion",
            diffusion,
            vec![latent, diffusion::time_embedding(5, dcfg.temb)],
        ),
    ]
}

fn configs() -> Vec<KernelConfig> {
    let mut cfgs = vec![KernelConfig::reference()];
    for (accum, math) in [
        (AccumMode::Blocked(32), MathLib::VariantA),
        (AccumMode::Pairwise, MathLib::VariantA),
        (AccumMode::Blocked(7), MathLib::VariantB),
    ] {
        cfgs.push(KernelConfig {
            accum,
            fma: true,
            math,
        });
    }
    cfgs
}

fn bits_eq(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn graph_packed_execution_equals_reference_oracles_on_every_bundled_model() {
    for (name, model, inputs) in bundled_models() {
        let graph = &model.graph;
        let mut gemm_nodes = 0;
        let mut hits = 0;
        for cfg in configs() {
            let exec = execute(graph, &inputs, &cfg, None).unwrap();
            for node in graph.nodes() {
                let conv = match node.kind {
                    OpKind::Linear => None,
                    OpKind::Conv2d { stride, padding } => Some(Conv2dParams { stride, padding }),
                    _ => continue,
                };
                let arg = |i: usize| &exec.values[node.inputs[i].0];
                let (x, w, b) = (arg(0), arg(1), node.inputs.get(2).map(|_| arg(2)));
                let oracle = match conv {
                    None => x.linear_reference(w, b, &cfg).unwrap(),
                    Some(params) => x.conv2d_reference(w, b, params, &cfg).unwrap(),
                };
                assert!(
                    bits_eq(&exec.values[node.id.0], &oracle),
                    "{name}: {} drifted from its scalar oracle under {cfg:?}",
                    node.name
                );
                gemm_nodes += 1;
                let w_id = node.inputs[1];
                if matches!(graph.nodes()[w_id.0].kind, OpKind::Parameter(_)) {
                    let hit = match conv {
                        None => graph.linear_pack(w_id, w).is_some(),
                        Some(_) => graph.conv_pack(w_id, w).is_some(),
                    };
                    assert!(hit, "{name}: weight of {} missed its pack", node.name);
                    hits += 1;
                }
            }
            // The pooled executor reads the same packs.
            let pooled = forward(graph, &inputs, &cfg, &mut BufferPool::new()).unwrap();
            for (got, want) in pooled.iter().zip(exec.outputs(graph)) {
                assert!(bits_eq(got, &want), "{name}: pooled forward drifted");
            }
        }
        assert!(gemm_nodes > 0, "{name}: no Linear or Conv2d node");
        assert!(hits > 0, "{name}: no weight parameter was packed");
    }
}

/// `x [4, 6] -> Linear(w [5, 6], b [5])`, plus the ids of `w` and the output.
fn one_linear() -> (Graph, NodeId, NodeId) {
    let mut b = GraphBuilder::new(1);
    let x = b.input(0, "x");
    let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[5, 6], -1.0, 1.0, 1));
    let bias = b.parameter("b", Tensor::<f32>::rand_uniform(&[5], -1.0, 1.0, 2));
    let y = b.op("y", OpKind::Linear, &[x, w, bias]);
    (b.finish(vec![y]).unwrap(), w, y)
}

#[test]
fn perturbed_linear_weight_is_used_instead_of_the_graph_pack() {
    let (graph, w_id, y_id) = one_linear();
    let cfg = KernelConfig {
        accum: AccumMode::Blocked(4),
        fma: true,
        math: MathLib::VariantA,
    };
    let x = Tensor::<f32>::rand_uniform(&[4, 6], -1.0, 1.0, 3);
    let w = graph.param("w").unwrap();
    let bias = graph.param("b").unwrap();
    let delta = Tensor::<f32>::full(&[5, 6], 0.25);
    let mut p = Perturbations::new();
    p.insert(w_id, delta.clone());

    let honest = execute(&graph, std::slice::from_ref(&x), &cfg, None).unwrap();
    let evil = execute(&graph, std::slice::from_ref(&x), &cfg, Some(&p)).unwrap();
    let w_evil = &evil.values[w_id.0];
    assert!(graph.linear_pack(w_id, w).is_some());
    assert!(graph.linear_pack(w_id, w_evil).is_none());

    let want = x
        .linear_reference(&w.add(&delta).unwrap(), Some(bias), &cfg)
        .unwrap();
    assert!(
        bits_eq(&evil.values[y_id.0], &want),
        "perturbed weight ignored"
    );
    assert!(!bits_eq(&evil.values[y_id.0], &honest.values[y_id.0]));
    let honest_want = x.linear_reference(w, Some(bias), &cfg).unwrap();
    assert!(bits_eq(&honest.values[y_id.0], &honest_want));

    // An equal-valued copy (a weight revealed in adjudication, say) and a
    // reshaped view of the same buffer both miss the pack.
    let copy = Tensor::from_vec(w.data().to_vec(), w.dims()).unwrap();
    assert!(graph.linear_pack(w_id, &copy).is_none());
    assert!(graph
        .linear_pack(w_id, &w.reshape(&[6, 5]).unwrap())
        .is_none());
    // So does the right tensor asked for under another node's id.
    assert!(graph.linear_pack(y_id, w).is_none());
    assert!(graph.conv_pack(w_id, w).is_none());
}

#[test]
fn perturbed_conv_weight_is_used_instead_of_the_graph_pack() {
    let mut b = GraphBuilder::new(1);
    let x = b.input(0, "x");
    let w = b.parameter(
        "w",
        Tensor::<f32>::rand_uniform(&[4, 2, 3, 3], -1.0, 1.0, 4),
    );
    let y = b.op(
        "y",
        OpKind::Conv2d {
            stride: 1,
            padding: 1,
        },
        &[x, w],
    );
    let graph = b.finish(vec![y]).unwrap();
    let cfg = KernelConfig::reference();
    let img = Tensor::<f32>::rand_uniform(&[1, 2, 5, 5], -1.0, 1.0, 5);
    let delta = Tensor::<f32>::full(&[4, 2, 3, 3], -0.5);
    let mut p = Perturbations::new();
    p.insert(w, delta.clone());
    let evil = execute(&graph, std::slice::from_ref(&img), &cfg, Some(&p)).unwrap();
    let weight = graph.param("w").unwrap();
    assert!(graph.conv_pack(w, weight).is_some());
    assert!(graph.conv_pack(w, &evil.values[w.0]).is_none());
    let params = Conv2dParams {
        stride: 1,
        padding: 1,
    };
    let want = img
        .conv2d_reference(&weight.add(&delta).unwrap(), None, params, &cfg)
        .unwrap();
    assert!(
        bits_eq(&evil.values[y.0], &want),
        "perturbed weight ignored"
    );
}

#[test]
fn graph_clone_and_equality_see_only_what_the_graph_was_built_from() {
    let (graph, w_id, _) = one_linear();
    let clone = graph.clone();
    assert_eq!(clone, graph);
    let w = graph.param("w").unwrap();
    assert!(clone.param("w").unwrap().shares_buffer(w));
    assert!(clone.linear_pack(w_id, w).is_some());

    // Rebuilt from the same parts: equal, though its table is its own.
    let params: BTreeMap<String, Tensor<f32>> = graph.params().clone();
    let rebuilt = Graph::new(
        graph.nodes().to_vec(),
        params.clone(),
        graph.num_inputs(),
        graph.outputs().to_vec(),
    )
    .unwrap();
    assert_eq!(rebuilt, graph);

    // Different weights: unequal, and the old weight misses the new pack.
    let mut other = params;
    other.insert("w".into(), Tensor::<f32>::zeros(&[5, 6]));
    let changed = Graph::new(
        graph.nodes().to_vec(),
        other,
        graph.num_inputs(),
        graph.outputs().to_vec(),
    )
    .unwrap();
    assert_ne!(changed, graph);
    assert!(changed.linear_pack(w_id, w).is_none());
    assert!(changed
        .linear_pack(w_id, changed.param("w").unwrap())
        .is_some());
}
