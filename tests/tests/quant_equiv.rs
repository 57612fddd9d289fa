//! Equivalence harness for the int8-quantized operator family.
//!
//! The int8 GEMM must equal the exact sum of its widened products at every
//! shape: integer multiply-accumulate is exact, so evaluation order cannot
//! change a bit. That exactness is what the protocol leans on — quantized
//! operators calibrate to all-zero envelopes and dispute with
//! zero-tolerance strictness, so a single flipped bit on a quantized
//! operator is an infinite-exceedance offense this suite plants and
//! localizes end-to-end.

use proptest::prelude::*;
use tao::{default_coordinator, deploy, ProposerBehavior, SessionBuilder, SharedCoordinator};
use tao_device::{Device, Fleet};
use tao_graph::{execute, execute_with_stats, OpKind, Perturbations};
use tao_models::{data, quantize_linears, transformer, TransformerConfig};
use tao_protocol::{ClaimStatus, DisputeResult, LeafVerdict, Party};
use tao_tensor::quant::{quant_gemm, quantize_symmetric, quantize_value, symmetric_scale};
use tao_tensor::Tensor;

fn operand(dims: &[usize], seed: u64) -> Tensor<f32> {
    Tensor::<f32>::rand_uniform(dims, -4.0, 4.0, seed)
}

fn assert_f32_bits_eq(fast: &Tensor<f32>, slow: &Tensor<f32>, what: &str) {
    assert_eq!(fast.dims(), slow.dims(), "{what}: dims");
    for (i, (f, s)) in fast.data().iter().zip(slow.data()).enumerate() {
        assert_eq!(
            f.to_bits(),
            s.to_bits(),
            "{what}: element {i} fast {f:e} vs oracle {s:e}"
        );
    }
}

/// Every product of the row-major `[m, k]` `a` and `[k, n]` `b`, summed
/// in `i64`: the int8 GEMM computed without sharing a line with it.
fn i64_products(a: &[i8], m: usize, k: usize, b: &[i8], n: usize) -> Vec<i64> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            out.push(
                (0..k)
                    .map(|kk| i64::from(a[i * k + kk]) * i64::from(b[kk * n + j]))
                    .sum(),
            );
        }
    }
    out
}

fn quantized(dims: &[usize], seed: u64) -> Vec<i8> {
    quantize_symmetric(operand(dims, seed).data()).0
}

// ---------------------------------------------------------------------------
// Raw int8 GEMM against the exact i64 sum, ragged and empty shapes.
// ---------------------------------------------------------------------------

/// The shapes straddle the 8-wide rhs panel, the 4-row register block and
/// the odd-`k` tail of the int8 tiles this crate once had, plus empty
/// operands: edges where a blocked GEMM drops or repeats a lane.
#[test]
fn quant_gemm_bit_equal_at_panel_and_tile_boundaries() {
    for &(m, k, n) in &[
        (1, 1, 1),
        (3, 7, 5),
        (4, 8, 8),
        (5, 9, 17),
        (5, 33, 9),
        (4, 64, 16),
        (7, 129, 17),
        (13, 33, 19),
        (16, 96, 24),
        (3, 0, 4),
        (2, 5, 0),
        (0, 6, 3),
    ] {
        let qa = quantized(&[m, k], 900 + k as u64);
        let qb = quantized(&[k, n], 901 + n as u64);
        let got: Vec<i64> = quant_gemm(&qa, m, k, &qb, n)
            .into_iter()
            .map(i64::from)
            .collect();
        assert_eq!(
            got,
            i64_products(&qa, m, k, &qb, n),
            "quant gemm {m}x{k}x{n}"
        );
    }
}

/// A model whose quantized operators consume only graph inputs, parameters
/// and other quantized operators: with no float-accumulation op upstream,
/// every device feeds them identical bits, so the integer kernels make the
/// whole chain cross-device exact. (Quantized operators *inside* a float
/// model are only as reproducible as their inputs — a 1-ULP upstream
/// wobble can cross a rounding boundary and move an output by a full
/// quantization step, which calibration duly records.)
fn quantized_chain_model() -> tao_models::Model {
    use tao_graph::GraphBuilder;
    let mut b = GraphBuilder::new(1);
    let x = b.input(0, "x"); // [4, 16]
    let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[6, 16], -1.0, 1.0, 91));
    let bias = b.parameter("bias", Tensor::<f32>::rand_uniform(&[6], -0.5, 0.5, 92));
    let w2 = b.parameter("w2", Tensor::<f32>::rand_uniform(&[6, 8], -1.0, 1.0, 93));
    let ql = b.op("ql", OpKind::QuantLinear, &[x, w, bias]);
    let qm = b.op("qm", OpKind::QuantMatmul, &[ql, w2]);
    let qz = b.op("qz", OpKind::Quantize { scale: 0.02 }, &[qm]);
    let dq = b.op("dq", OpKind::Dequantize { scale: 0.02 }, &[qz]);
    let head = b.op("head", OpKind::Softmax, &[dq]);
    tao_models::Model {
        name: "quant-chain".into(),
        graph: b.finish(vec![head]).unwrap(),
        logits: head,
        input_shapes: vec![vec![4, 16]],
    }
}

fn chain_samples(n: usize, seed: u64) -> Vec<Vec<Tensor<f32>>> {
    (0..n)
        .map(|i| vec![operand(&[4, 16], seed + i as u64)])
        .collect()
}

/// The fleet's `KernelConfig`s differ in accumulation order and FMA — none
/// of which the integer kernels consult. On identical inputs every device
/// must produce the same bits at every quantized operator: this is the
/// cross-device exactness that makes their calibrated envelopes all-zero.
#[test]
fn quantized_chain_is_bit_exact_across_every_fleet_device() {
    let m = quantized_chain_model();
    let inputs = vec![operand(&[4, 16], 5)];
    let fleet = Fleet::standard();
    let traces: Vec<_> = fleet
        .devices()
        .iter()
        .map(|d| execute(&m.graph, &inputs, d.config(), None).unwrap())
        .collect();
    let quant_nodes: Vec<_> = m
        .graph
        .nodes()
        .iter()
        .filter(|n| {
            matches!(
                n.kind,
                OpKind::QuantLinear
                    | OpKind::QuantMatmul
                    | OpKind::Quantize { .. }
                    | OpKind::Dequantize { .. }
            )
        })
        .map(|n| n.id)
        .collect();
    assert_eq!(quant_nodes.len(), 4);
    for &node in &quant_nodes {
        let first = &traces[0].values[node.0];
        for (di, t) in traces.iter().enumerate().skip(1) {
            assert_f32_bits_eq(
                first,
                &t.values[node.0],
                &format!("node {node} on device {di}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rounding policy and round-trip bounds.
// ---------------------------------------------------------------------------

#[test]
fn quantize_round_trip_stays_within_half_a_step() {
    let x = operand(&[1024], 77);
    let (q, scale) = quantize_symmetric(x.data());
    for (i, (&orig, &qi)) in x.data().iter().zip(&q).enumerate() {
        let back = (f64::from(qi) * scale) as f32;
        let err = f64::from((orig - back).abs());
        assert!(
            err <= scale * 0.5 + 1e-6,
            "element {i}: {orig} -> {qi} -> {back}, err {err} vs step {scale}"
        );
    }
}

#[test]
fn static_scale_ops_invert_exactly_on_grid_points() {
    // Inputs already on the quantization grid survive the fake-quant pair
    // bit-for-bit; -128 is never produced.
    let scale = 0.25f64;
    let data: Vec<f32> = (-127..128).map(|q| (f64::from(q) * scale) as f32).collect();
    let t = Tensor::<f32>::from_vec(data.clone(), &[255]).unwrap();
    let round = t
        .quantize_static(scale)
        .unwrap()
        .dequantize_static(scale)
        .unwrap();
    assert_f32_bits_eq(&round, &t, "grid round-trip");
    for &v in t.quantize_static(scale).unwrap().data() {
        assert!((-127.0..=127.0).contains(&v));
    }
}

// ---------------------------------------------------------------------------
// Proptests: shapes × scales, jointly sampled.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn prop_quant_gemm_bit_equal(
        m in 0usize..20,
        k in 0usize..130,
        n in 0usize..20,
        seed in 0u64..1_000_000,
    ) {
        let qa = quantized(&[m, k], seed);
        let qb = quantized(&[k, n], seed ^ 0xbeef);
        let got: Vec<i64> = quant_gemm(&qa, m, k, &qb, n)
            .into_iter()
            .map(i64::from)
            .collect();
        prop_assert_eq!(got, i64_products(&qa, m, k, &qb, n), "quant gemm {}x{}x{}", m, k, n);
    }

    #[test]
    fn prop_rounding_is_ties_away_and_clamped(
        num in -2_000_000i64..2_000_000,
        scale_mil in 1u32..5_000,
    ) {
        let scale = f64::from(scale_mil) / 1_000.0;
        let x = (num as f64 / 1_000.0) as f32;
        let q = quantize_value(x, scale);
        let expected = (f64::from(x) / scale).round().clamp(-127.0, 127.0) as i8;
        prop_assert_eq!(q, expected);
        prop_assert!(q >= -127, "quantizer must never emit -128");
    }

    #[test]
    fn prop_symmetric_scale_covers_max(max_mil in 1u32..4_000_000) {
        let max = f64::from(max_mil) as f32 / 1_000.0;
        let s = symmetric_scale(max);
        // The largest-magnitude value always lands on ±127 (no clamping
        // ever loses range).
        prop_assert_eq!(quantize_value(max, s), 127);
        prop_assert_eq!(quantize_value(-max, s), -127);
    }
}

// ---------------------------------------------------------------------------
// End-to-end: quantized transformer calibrates, screens and disputes.
// ---------------------------------------------------------------------------

/// Runs a malicious session with the given planted perturbation and
/// asserts the dispute localizes it to `target` with cached digests,
/// verified reveals and a challenger win.
fn assert_dispute_localizes(
    deployment: &tao::Deployment,
    inputs: Vec<Tensor<f32>>,
    target: tao_graph::NodeId,
    p: Perturbations,
    what: &str,
) {
    let coord = SharedCoordinator::new(default_coordinator().unwrap());
    let report = SessionBuilder::new(deployment, inputs)
        .behavior(ProposerBehavior::Malicious(p))
        .run(&coord)
        .unwrap();
    assert!(report.challenged, "{what}: cheat must not pass screening");
    let dispute = report.dispute.expect("dispute ran");
    assert_eq!(dispute.result, DisputeResult::Leaf(target), "{what}");
    assert!(
        dispute.reveal_checks > 0,
        "{what}: reveals must be verified"
    );
    assert_eq!(report.verdict.unwrap().1, LeafVerdict::Fraud, "{what}");
    assert!(
        matches!(
            report.final_status,
            ClaimStatus::Settled {
                winner: Party::Challenger
            }
        ),
        "{what}"
    );
}

/// Deploys the purely-quantized chain: its operators calibrate to exactly
/// zero envelopes (they are cross-device bit-exact), so flipping a single
/// int8 LSB on one element — the smallest deviation a corrupted
/// accumulator can produce after dequantization — is an
/// infinite-exceedance offense the dispute pins to the cheating node.
#[test]
fn quantized_chain_zero_envelopes_catch_a_single_lsb_flip() {
    let model = quantized_chain_model();
    let deployment = deploy(model, Fleet::standard(), &chain_samples(16, 500), 3.0).unwrap();
    let inputs = vec![operand(&[4, 16], 77)];

    let quant_nodes: Vec<_> = deployment
        .model
        .graph
        .nodes()
        .iter()
        .filter(|n| {
            matches!(
                n.kind,
                OpKind::QuantLinear
                    | OpKind::QuantMatmul
                    | OpKind::Quantize { .. }
                    | OpKind::Dequantize { .. }
            )
        })
        .map(|n| n.id)
        .collect();
    for &node in &quant_nodes {
        let thr = deployment.thresholds.for_node(node).unwrap();
        assert!(
            thr.thresholds
                .abs
                .iter()
                .chain(&thr.thresholds.rel)
                .all(|&v| v == 0.0),
            "quantized node {node} calibrated a nonzero envelope"
        );
    }

    // One int8 LSB on one element of the *last* quantized operator (the
    // dequantize): exactly its static scale. Screening only sees the model
    // output, so the cheat must be planted where no later quantizer can
    // re-absorb a sub-step deviation — an interior flip that rounds away
    // downstream is not an observable lie about the committed output. The
    // softmax head transmits the step loudly, screening flags the claim,
    // and the dispute walks back to the zero-envelope node.
    let target = *quant_nodes.last().unwrap();
    let step = 0.02f32;
    let mut delta = vec![0.0f32; 4 * 8];
    delta[0] = step;
    let mut p = Perturbations::new();
    p.insert(target, Tensor::<f32>::from_vec(delta, &[4, 8]).unwrap());

    assert_dispute_localizes(&deployment, inputs, target, p, "chain lsb flip");
}

/// Plants an int8 cheat on the first `QuantLinear` of a fully quantized
/// transformer and runs the complete protocol — calibrate, screen,
/// dispute — and pins the admission seam: the static gas quote and FLOP
/// ledger equal the measured execution exactly.
#[test]
fn quantized_transformer_dispute_localizes_planted_int8_cheat() {
    let cfg = TransformerConfig {
        layers: 1,
        ..TransformerConfig::small()
    };
    let model = quantize_linears(&transformer::build(cfg, 3));
    let samples = data::token_dataset(16, cfg.seq, cfg.vocab, 30);
    let deployment = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    let inputs = vec![transformer::sample_ids(cfg, 44)];

    // Static gas quote == measured gas, exactly: the same FLOP formula
    // feeds both sides of the admission seam.
    let (exec, stats) = execute_with_stats(
        &deployment.model.graph,
        &inputs,
        Device::rtx4090_like().config(),
        None,
    )
    .unwrap();
    assert_eq!(deployment.static_report.flops, exec.flops);
    assert_eq!(
        deployment.static_report.peak_resident_bytes,
        stats.peak_resident_bytes
    );
    assert_eq!(
        deployment.static_report.gas_quote,
        tao_analysis::GAS_BASE
            + deployment.static_report.total_flops() / tao_analysis::FLOPS_PER_GAS
            + deployment.static_report.bytes_moved / tao_analysis::BYTES_PER_GAS
    );

    // An in-model quantized operator calibrates a small nonzero envelope
    // (its *inputs* wobble across devices, and one boundary-crossing
    // element moves by a whole quantization step), so the planted cheat is
    // a visible accumulator corruption, not a single LSB.
    let target = deployment
        .model
        .graph
        .nodes()
        .iter()
        .find(|n| matches!(n.kind, OpKind::QuantLinear))
        .map(|n| n.id)
        .expect("quantized model has a QuantLinear node");
    let shape = exec.values[target.0].dims().to_vec();
    let delta = Tensor::<f32>::randn(&shape, 4_242).mul_scalar(0.05);
    let mut p = Perturbations::new();
    p.insert(target, delta);

    assert_dispute_localizes(&deployment, inputs, target, p, "transformer int8 cheat");
}
