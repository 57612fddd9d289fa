//! Differential equivalence harness for the integer-key percentile profile.
//!
//! `grid_profile` sorts the `to_bits()` keys of the finite values and must
//! stay **bit-identical** to `grid_profile_reference`, the seed's stable
//! `partial_cmp` sort: the committed thresholds (`r_e`), every screening
//! verdict and every dispute descent read these numbers. The suite checks
//! the two paths against each other on adversarial samples, checks the
//! fused error kernel behind `error_profile` against the element-wise
//! oracle, pins the threshold roots of every bundled model to the values
//! the seed sort produced, and mutates committed threshold leaves bit by
//! bit to show the decoder fails closed. `calibrate`, which profiles each
//! distinct error multiset once, must also produce the record of
//! `calibrate_reference`, which profiles every node in every device pair.

use proptest::prelude::*;
use tao::deploy;
use tao_calib::{
    calibrate, calibrate_reference, elementwise_errors, error_profile, grid_profile,
    grid_profile_reference, threshold_from_json, threshold_to_json, CalibError, CalibrationRecord,
    OperatorThreshold, PercentilePair, TailEstimator, DEFAULT_EPS, PERCENTILE_GRID,
};
use tao_device::Fleet;
use tao_graph::{Graph, GraphBuilder, NodeId, OpKind, Relayout};
use tao_merkle::{sha256, to_hex};
use tao_models::{
    bert, data, diffusion, quantize_linears, qwen, resnet, transformer, BertConfig,
    DiffusionConfig, Model, QwenConfig, ResNetConfig, TransformerConfig,
};
use tao_tensor::Tensor;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One sample value drawn from `code`: ties, `+0.0`, subnormals, `f64::MAX`,
/// NaN (both signs) and `±inf` always. `signs` 1 turns half the zeros
/// into `-0.0`; `signs` 2 also negates a quarter of the values. Both take
/// the reference fallback.
fn sample_value(code: u64, signs: u8) -> f64 {
    let payload = code >> 8;
    let v = match code % 12 {
        0 => 0.0,
        1 => [0.25, 0.5, 1.0][(payload % 3) as usize],
        2 => f64::from_bits(1 + payload % ((1 << 52) - 1)), // subnormal
        3 => f64::MAX,
        4 => f64::NAN,
        5 => f64::from_bits(0xfff8_0000_0000_0000 | (payload & 0xffff)), // -NaN
        6 => f64::INFINITY,
        7 => f64::NEG_INFINITY,
        8 => f64::from_bits(payload % 0x7ff0_0000_0000_0000), // any finite >= +0
        _ => (payload % 1_000_000) as f64 * 1e-9,
    };
    match (signs, (code >> 4) % 4) {
        (1 | 2, 0 | 1) if v == 0.0 => -0.0,
        (2, 2) => -v,
        _ => v,
    }
}

/// One f32 tensor element: ordinary values, exact ties, `±0.0`,
/// subnormals, NaN and `±inf`.
fn element(code: u64) -> f32 {
    let payload = (code >> 8) as u32;
    match code % 10 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::from_bits(1 + payload % ((1 << 23) - 1)),
        6 => [1.0, -1.0, 0.5][(payload % 3) as usize],
        _ => (payload % 2_000_001) as f32 * 1e-6 - 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The key sort reads the same 23 grid values, bit for bit, as the
    /// stable float sort, on samples with ties, zeros, subnormals,
    /// `f64::MAX` and filtered non-finite values; samples holding `-0.0` or
    /// a negative value (taking the fallback) agree too. Empty and
    /// single-value samples are in range of the length draw.
    #[test]
    fn grid_profile_is_bit_equal_to_the_reference(
        codes in prop::collection::vec(0u64..u64::MAX, 0..300),
        signs in 0u8..3,
    ) {
        let values: Vec<f64> = codes.iter().map(|&c| sample_value(c, signs)).collect();
        let fast = grid_profile(&values);
        let oracle = grid_profile_reference(&values);
        prop_assert_eq!(fast.len(), PERCENTILE_GRID.len());
        prop_assert_eq!(bits(&fast), bits(&oracle), "values {:?}", values);
    }

    /// `error_profile` (fused key kernel + key sort) equals the element-wise
    /// oracle followed by the reference sort, bit for bit, for tensors with
    /// NaN and inf elements and `eps` of zero, the default, or negative (a
    /// negative `eps` makes negative relative errors: the fallback path).
    /// On the oracle side too, a pair whose bits differ while one of the
    /// two is not finite (two NaNs agree) makes the whole profile `+inf`;
    /// `agree` ties every non-finite element in half the cases, so agreeing
    /// NaN and inf pairs reach the element-wise comparison.
    #[test]
    fn error_profile_is_bit_equal_to_elementwise_then_reference(
        len in 0usize..200,
        codes in prop::collection::vec(0u64..u64::MAX, 400),
        tie in prop::collection::vec(0u8..4, 200),
        eps_kind in 0usize..4,
        agree in 0u8..2,
    ) {
        let eps = [0.0, DEFAULT_EPS, -1e-3, -0.75][eps_kind];
        let a: Vec<f32> = codes[..len].iter().map(|&c| element(c)).collect();
        // A quarter of the claimed elements agree exactly (zero errors).
        let b: Vec<f32> = (0..len)
            .map(|i| {
                let other = element(codes[200 + i]);
                let finite = a[i].is_finite() && other.is_finite();
                if tie[i] == 0 || (agree == 1 && !finite) { a[i] } else { other }
            })
            .collect();
        let disagree = a.iter().zip(&b).any(|(x, y)| {
            !(x.is_finite() && y.is_finite())
                && x.to_bits() != y.to_bits()
                && !(x.is_nan() && y.is_nan())
        });
        let a = Tensor::from_vec(a, &[len]).unwrap();
        let b = Tensor::from_vec(b, &[len]).unwrap();
        let fast = error_profile(&a, &b, eps);
        let (abs, rel) = elementwise_errors(&a, &b, eps);
        let (abs, rel) = if disagree {
            let inf = vec![f64::INFINITY; PERCENTILE_GRID.len()];
            (inf.clone(), inf)
        } else {
            (grid_profile_reference(&abs), grid_profile_reference(&rel))
        };
        prop_assert_eq!(bits(&fast.abs), bits(&abs));
        prop_assert_eq!(bits(&fast.rel), bits(&rel));
    }

    /// Every single-bit mutant of a committed threshold leaf either decodes
    /// to a threshold that re-encodes and decodes back to itself, or fails
    /// with `CalibError::Json`. None panics.
    #[test]
    fn threshold_leaf_bit_flips_decode_or_fail_typed(
        node in 0usize..1_000_000,
        codes in prop::collection::vec(0u32..0x11_0000, 0..6),
        abs in prop::collection::vec(0u64..u64::MAX, 0..6),
        rel in prop::collection::vec(0u64..u64::MAX, 0..6),
        mae in 0u64..u64::MAX,
    ) {
        let finite = |b: u64| {
            let v = f64::from_bits(b);
            if v.is_finite() { v } else { f64::from_bits(b ^ (1 << 62)) }
        };
        let leaf = threshold_to_json(&OperatorThreshold {
            node: NodeId(node),
            mnemonic: codes.iter().filter_map(|&c| char::from_u32(c)).collect(),
            thresholds: PercentilePair {
                abs: abs.iter().map(|&b| finite(b)).collect(),
                rel: rel.iter().map(|&b| finite(b)).collect(),
            },
            mean_abs_error: finite(mae),
        });
        for bit in 0..leaf.len() * 8 {
            let mut mutant = leaf.clone();
            mutant[bit / 8] ^= 1 << (bit % 8);
            let decoded = std::panic::catch_unwind(|| {
                threshold_from_json(&mutant).map(|t| {
                    let again = threshold_from_json(&threshold_to_json(&t));
                    (t, again)
                })
            });
            let Ok(decoded) = decoded else {
                return Err(format!("bit {bit} of {:?} panicked", String::from_utf8_lossy(&leaf)));
            };
            match decoded {
                Ok((t, again)) => prop_assert_eq!(again, Ok(t), "bit {}", bit),
                Err(e) => prop_assert!(matches!(e, CalibError::Json(_)), "bit {bit}: {e:?}"),
            }
        }
    }
}

#[test]
fn outputs_of_different_shapes_profile_to_infinity() {
    let a = Tensor::<f32>::rand_uniform(&[2, 16], -1.0, 1.0, 5);
    let inf = vec![f64::INFINITY; PERCENTILE_GRID.len()];
    for b in [
        Tensor::from_vec(a.data()[..16].to_vec(), &[1, 16]).unwrap(),
        Tensor::<f32>::zeros(&[0]),
        a.reshape(&[32]).unwrap(),
        a.reshape(&[16, 2]).unwrap(),
    ] {
        for (x, y) in [(&a, &b), (&b, &a)] {
            let p = error_profile(x, y, DEFAULT_EPS);
            assert_eq!(p.abs, inf, "{:?} vs {:?}", x.dims(), y.dims());
            assert_eq!(p.rel, inf, "{:?} vs {:?}", x.dims(), y.dims());
        }
    }
    // Equal shapes, even empty ones, still profile normally.
    let empty = Tensor::<f32>::zeros(&[0]);
    assert_eq!(
        error_profile(&empty, &empty, DEFAULT_EPS),
        PercentilePair::zero()
    );
}

/// A named model with its calibration samples.
type Calibrated = (&'static str, Model, Vec<Vec<Tensor<f32>>>);

/// Every bundled model family at a small configuration, plus the int8
/// transformer, with a few calibration samples each.
fn calibration_zoo() -> Vec<Calibrated> {
    let bert_cfg = BertConfig {
        layers: 1,
        ..BertConfig::small()
    };
    let qwen_cfg = QwenConfig {
        layers: 1,
        ..QwenConfig::small()
    };
    let resnet_cfg = ResNetConfig {
        blocks: 1,
        ..ResNetConfig::small()
    };
    let tf_cfg = TransformerConfig {
        layers: 1,
        ..TransformerConfig::small()
    };
    let diffusion_cfg = DiffusionConfig::small();
    let diffusion_model = diffusion::build(diffusion_cfg, 5);
    let diffusion_samples = (0..4)
        .map(|i| {
            vec![
                Tensor::<f32>::randn(&diffusion_model.input_shapes[0], 60 + i),
                diffusion::time_embedding(i as usize * 7, diffusion_cfg.temb),
            ]
        })
        .collect();
    vec![
        (
            "bert",
            bert::build(bert_cfg, 1),
            data::token_dataset(4, bert_cfg.seq, bert_cfg.vocab, 10),
        ),
        (
            "qwen",
            qwen::build(qwen_cfg, 2),
            data::token_dataset(4, qwen_cfg.seq, qwen_cfg.vocab, 20),
        ),
        (
            "resnet",
            resnet::build(resnet_cfg, 3),
            data::image_dataset(
                4,
                resnet_cfg.in_channels,
                resnet_cfg.image,
                resnet_cfg.classes,
                30,
            ),
        ),
        (
            "transformer",
            transformer::build(tf_cfg, 4),
            data::token_dataset(4, tf_cfg.seq, tf_cfg.vocab, 40),
        ),
        ("diffusion", diffusion_model, diffusion_samples),
        (
            "transformer-int8",
            quantize_linears(&transformer::build(tf_cfg, 6)),
            data::token_dataset(4, tf_cfg.seq, tf_cfg.vocab, 50),
        ),
    ]
}

/// `r_e` roots and digests of the pretty-printed bundles, as the seed's
/// stable float sort calibrated them. The key sort must reproduce the
/// committed threshold JSON byte for byte.
const GOLDEN: [(&str, &str, &str); 6] = [
    (
        "bert",
        "9aefee4fbf78903b29e8cec74f3e24cdbb62e0ecd7f451908d261fb45c6d4b64",
        "745e488549f95d306071bb9502c0db967f59dc144515e4ca892cf8defb686ab2",
    ),
    (
        "qwen",
        "c5cc61a85bb3cda69a522dae5a0158e158eec697edb4047f2aa0b02e8f05971e",
        "f83d92b230e3794a172336138cd1a6b3d8bb73d495431991b049966ef80fe865",
    ),
    (
        "resnet",
        "78f5a0c75e770fb4d86de5d2d1057b8d642dafd47f75e082db4e5f416f5850c9",
        "4ee7202af0fae6118d5e81b4feef3a0d80e0d3460982be22d974d565645a4580",
    ),
    (
        "transformer",
        "d90b3221212268cfa349588016096688c749da3bd4772af6d5768c914ec91e91",
        "650992d970c787f28b78580177a7e9ad90b64392fde343f186a993f3af9f9406",
    ),
    (
        "diffusion",
        "65c76f811ec2893ed028d8a15cc675ea32f2365adce1a4371593274fd19750cc",
        "ab571cf714c4f271f2691954d918532e970f44ebaef99f02e9587baa8633ab24",
    ),
    (
        "transformer-int8",
        "1db1ea1844db0c97847fff2603de72761325d732b0b47ce8517589067605ca5d",
        "2ba2fb610ad98e60840c8b5e13110d10b6bfdbf85f5acd2d125ecb0610f50974",
    ),
];

#[test]
fn threshold_roots_match_the_seed_sort_for_every_bundled_model() {
    for ((name, model, samples), (golden_name, root, json)) in
        calibration_zoo().into_iter().zip(GOLDEN)
    {
        assert_eq!(name, golden_name);
        let d = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
        assert_eq!(to_hex(&d.commitment.threshold_root), root, "{name}: r_e");
        let pretty = tao_calib::bundle_to_json_pretty(&d.thresholds);
        assert_eq!(
            to_hex(&sha256(pretty.as_bytes())),
            json,
            "{name}: threshold JSON"
        );
    }
}

/// Asserts that `fast` equals `oracle` field by field, floats by their bits.
fn assert_records_bit_equal(name: &str, fast: &CalibrationRecord, oracle: &CalibrationRecord) {
    assert_eq!(fast.nodes, oracle.nodes, "{name}: nodes");
    assert_eq!(fast.mnemonics, oracle.mnemonics, "{name}: mnemonics");
    assert_eq!(fast.envelopes.len(), oracle.envelopes.len(), "{name}");
    assert_eq!(fast.sequences.len(), oracle.sequences.len(), "{name}");
    assert_eq!(fast.mean_abs.len(), oracle.mean_abs.len(), "{name}");
    let pair_bits = |p: &PercentilePair| (bits(&p.abs), bits(&p.rel));
    for (i, (f, o)) in fast.envelopes.iter().zip(&oracle.envelopes).enumerate() {
        assert_eq!(
            pair_bits(f),
            pair_bits(o),
            "{name}: envelope of {}",
            fast.nodes[i]
        );
    }
    for node in &oracle.nodes {
        let seq =
            |r: &CalibrationRecord| r.sequences[node].iter().map(pair_bits).collect::<Vec<_>>();
        assert_eq!(seq(fast), seq(oracle), "{name}: sequences of {node}");
        assert_eq!(
            fast.mean_abs[node].to_bits(),
            oracle.mean_abs[node].to_bits(),
            "{name}: mean_abs of {node}"
        );
    }
    assert!(
        fast.bit_eq(oracle),
        "{name}: bit_eq disagrees with the field check"
    );
}

#[test]
fn calibration_reusing_relayout_profiles_equals_the_reference() {
    let fleet = Fleet::standard();
    for (name, model, samples) in calibration_zoo() {
        let graph = &model.graph;
        let fast = calibrate(graph, &samples, &fleet).unwrap();
        let oracle = calibrate_reference(graph, &samples, &fleet).unwrap();
        assert_records_bit_equal(name, &fast, &oracle);
        for estimator in [TailEstimator::RawMax, TailEstimator::SmoothedTail { k: 4 }] {
            assert_eq!(
                fast.clone()
                    .into_thresholds_with(3.0, estimator)
                    .to_leaves(),
                oracle
                    .clone()
                    .into_thresholds_with(3.0, estimator)
                    .to_leaves(),
                "{name}: {estimator:?} leaves"
            );
        }
    }
}

/// A graph of every relayout: the chain Reshape→Permute→Transpose→
/// Identity→Flatten→FlattenFrom over a matmul, relayouts of an input and
/// of a parameter (no traced source: profiled on their own), and a
/// `MaskedFill(-inf)` feeding a Permute (its non-finite errors are
/// dropped from the keys and make its sum NaN).
fn relayout_graph() -> Graph {
    let mut b = GraphBuilder::new(1);
    let x = b.input(0, "x");
    // The last column 2^52 times the others: the small errors sit near
    // the ulp of a sum holding a large one, so the f64 sum depends on
    // whether they are added before or after it.
    let mut w = Tensor::<f32>::rand_uniform(&[24, 24], -1.0, 1.0, 7);
    for (i, v) in w.data_mut().iter_mut().enumerate() {
        *v *= 2f32.powi(if i % 24 == 23 { 20 } else { -32 });
    }
    let w = b.parameter("w", w);
    let mut mask = Tensor::<f32>::zeros(&[4, 24]);
    for (i, m) in mask.data_mut().iter_mut().enumerate() {
        *m = (i % 5 == 0) as u8 as f32;
    }
    let mask = b.parameter("mask", mask);
    let m = b.op("m", OpKind::MatMul, &[x, w]);
    let r = b.op("r", OpKind::Reshape(vec![4, 4, 6]), &[m]);
    let p = b.op("p", OpKind::Permute(vec![2, 0, 1]), &[r]);
    let t = b.op("t", OpKind::Transpose(0, 2), &[p]);
    let i = b.op("i", OpKind::Identity, &[t]);
    let f = b.op("f", OpKind::Flatten, &[i]);
    let ff = b.op("ff", OpKind::FlattenFrom(1), &[f]);
    let xt = b.op("xt", OpKind::Transpose(0, 1), &[x]);
    let wr = b.op("wr", OpKind::Reshape(vec![576]), &[w]);
    let filled = b.op("filled", OpKind::MaskedFill(f64::NEG_INFINITY), &[m, mask]);
    let fp = b.op("fp", OpKind::Permute(vec![1, 0]), &[filled]);
    b.finish(vec![ff, xt, wr, fp]).unwrap()
}

#[test]
fn relayout_chains_and_non_finite_errors_equal_the_reference() {
    let graph = relayout_graph();
    let samples: Vec<_> = (0..5)
        .map(|i| vec![Tensor::<f32>::rand_uniform(&[4, 24], -2.0, 2.0, 70 + i)])
        .collect();
    let fleet = Fleet::standard();
    let fast = calibrate(&graph, &samples, &fleet).unwrap();
    let oracle = calibrate_reference(&graph, &samples, &fleet).unwrap();
    assert_records_bit_equal("relayout graph", &fast, &oracle);
    let node = |name: &str| {
        graph
            .nodes()
            .iter()
            .find(|n| n.name == name)
            .map(|n| n.id)
            .unwrap()
    };
    let mean = |name: &str| oracle.mean_abs[&node(name)].to_bits();
    // The permute's errors add up, in its order, to another sum than its
    // source's: reusing the source's sum would fail the check above.
    assert_eq!(
        graph.node(node("p")).unwrap().kind.relayout(),
        Relayout::Permuted
    );
    assert_ne!(
        mean("p"),
        mean("r"),
        "the permuted sum must differ in order"
    );
    assert!(f64::from_bits(mean("m")) > 0.0);
    assert!(f64::from_bits(mean("fp")).is_nan());
    // The masked fill's finite errors still profile to real percentiles.
    let filled = oracle
        .nodes
        .iter()
        .position(|&n| n == node("filled"))
        .unwrap();
    assert!(oracle.envelopes[filled].abs.iter().any(|&v| v > 0.0));
}
