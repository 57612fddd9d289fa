//! Cross-crate property tests on protocol invariants.

use proptest::prelude::*;
use tao_calib::{CapCurve, PercentilePair, PERCENTILE_GRID};
use tao_graph::partition;
use tao_merkle::MerkleTree;
use tao_protocol::EconParams;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_is_exact_cover(start in 0usize..50, len in 1usize..60, n in 1usize..12) {
        let parts = partition(start, start + len, n);
        prop_assert!(!parts.is_empty());
        prop_assert_eq!(parts.first().unwrap().0, start);
        prop_assert_eq!(parts.last().unwrap().1, start + len);
        let mut covered = 0usize;
        for (i, &(s, e)) in parts.iter().enumerate() {
            prop_assert!(s < e, "empty slice at {i}");
            covered += e - s;
            if i > 0 {
                prop_assert_eq!(parts[i - 1].1, s);
            }
        }
        prop_assert_eq!(covered, len);
        // Near-equal: sizes differ by at most one.
        let sizes: Vec<usize> = parts.iter().map(|&(s, e)| e - s).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn merkle_proofs_verify_for_random_sizes(n in 1usize..80, probe in 0usize..80) {
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8, (i * 7) as u8]).collect();
        let tree = MerkleTree::from_leaves(&leaves);
        let idx = probe % n;
        let proof = tree.prove(idx).unwrap();
        prop_assert!(tao_merkle::verify_inclusion(&tree.root(), &leaves[idx], &proof));
        // A proof never verifies a different leaf.
        if n > 1 {
            let other = (idx + 1) % n;
            prop_assert!(!tao_merkle::verify_inclusion(&tree.root(), &leaves[other], &proof));
        }
    }

    #[test]
    fn cap_projection_is_idempotent_and_feasible(
        base in 1e-9f64..1e-4,
        raw_scale in 0.1f32..100.0,
        n in 1usize..64,
    ) {
        let thresholds = PercentilePair {
            abs: PERCENTILE_GRID.iter().map(|&p| base * (1.0 + p)).collect(),
            rel: vec![0.0; PERCENTILE_GRID.len()],
        };
        let curve = CapCurve::from_thresholds(&thresholds);
        let raw: Vec<f32> = (0..n)
            .map(|i| raw_scale * (base as f32) * (i as f32 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let once = curve.project(&raw);
        let mags: Vec<f64> = once.iter().map(|v| v.abs() as f64).collect();
        prop_assert!(curve.admits(&mags));
        let twice = curve.project(&once);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() <= f32::EPSILON * a.abs().max(1e-30));
        }
    }

    #[test]
    fn feasible_region_slash_satisfies_all_constraints(
        phi in 0.01f64..0.5,
        phi_ch in 0.0f64..0.4,
        eps1 in 0.0f64..0.5,
        c_gap in 1.0f64..20.0,
    ) {
        let p = EconParams {
            phi,
            phi_ch,
            eps1,
            c_p: 10.0 + c_gap,
            c_p_cheap: 10.0,
            d_p: 1e7,
            ..EconParams::default_market()
        };
        if let Some((lo, hi)) = p.feasible_slash_region() {
            let s = (lo + hi) / 2.0;
            prop_assert!(p.u_proposer_honest(s) > p.u_proposer_cheap(s));
            prop_assert!(p.u_challenger_guilty(s) > 0.0);
            prop_assert!(p.u_committee_guilty(s) > 0.0);
            prop_assert!(p.u_challenger_clean() < 0.0);
        }
    }

    #[test]
    fn exceedance_monotone_in_observation(scale in 1.0f64..10.0) {
        use tao_graph::NodeId;
        use tao_calib::{OperatorThreshold, ThresholdBundle};
        let bundle = ThresholdBundle {
            grid: PERCENTILE_GRID.to_vec(),
            alpha: 3.0,
            operators: vec![OperatorThreshold {
                node: NodeId(0),
                mnemonic: "matmul".into(),
                thresholds: PercentilePair {
                    abs: vec![1e-6; PERCENTILE_GRID.len()],
                    rel: vec![1e-5; PERCENTILE_GRID.len()],
                },
                mean_abs_error: 0.0,
            }],
        };
        let small = PercentilePair {
            abs: vec![1e-7; PERCENTILE_GRID.len()],
            rel: vec![1e-6; PERCENTILE_GRID.len()],
        };
        let big = PercentilePair {
            abs: small.abs.iter().map(|v| v * scale).collect(),
            rel: small.rel.iter().map(|v| v * scale).collect(),
        };
        let e_small = bundle.exceedance(NodeId(0), &small).unwrap();
        let e_big = bundle.exceedance(NodeId(0), &big).unwrap();
        prop_assert!(e_big >= e_small);
        prop_assert!((e_big / e_small - scale).abs() < 1e-9);
    }

    /// The canonical threshold JSON decodes every finite threshold back to
    /// itself and re-encodes it byte for byte: any bit pattern (subnormals
    /// and -0.0 included) and any mnemonic (quotes, backslashes, control
    /// characters, non-ASCII).
    #[test]
    fn threshold_json_roundtrips_any_finite_threshold(
        node in 0usize..1_000_000,
        codes in prop::collection::vec(0u32..0x11_0000, 0..12),
        abs in prop::collection::vec(0u64..u64::MAX, 0..8),
        rel in prop::collection::vec(0u64..u64::MAX, 0..8),
        mae in 0u64..u64::MAX,
    ) {
        use tao_calib::{threshold_from_json, threshold_to_json, OperatorThreshold};
        use tao_graph::NodeId;
        // Flipping the top exponent bit of an inf/NaN pattern makes it finite.
        let finite = |bits: u64| {
            let v = f64::from_bits(bits);
            if v.is_finite() { v } else { f64::from_bits(bits ^ (1 << 62)) }
        };
        let o = OperatorThreshold {
            node: NodeId(node),
            mnemonic: codes.iter().filter_map(|&c| char::from_u32(c)).collect(),
            thresholds: PercentilePair {
                abs: abs.iter().map(|&b| finite(b)).collect(),
                rel: rel.iter().map(|&b| finite(b)).collect(),
            },
            mean_abs_error: finite(mae),
        };
        let bytes = threshold_to_json(&o);
        let back = threshold_from_json(&bytes).unwrap();
        prop_assert_eq!(&threshold_to_json(&back), &bytes);
        prop_assert_eq!(back, o);
    }
}

mod dispute_localization {
    use super::*;
    use std::sync::OnceLock;
    use tao::Deployment;
    use tao_device::{Device, Fleet};
    use tao_graph::{execute, Perturbations};
    use tao_models::{bert, data, BertConfig};
    use tao_protocol::{
        run_dispute, screen_claim, ChallengerView, ClaimCheck, DisputeConfig, DisputeResult,
        ProposerView, Screening,
    };
    use tao_tensor::Tensor;

    /// One deployment, one input, and the challenger's screening of that
    /// input — shared across all proptest cases. The screening trace
    /// depends only on the challenger device and the inputs, never on the
    /// proposer's perturbation, so every dispute below reuses it exactly
    /// as the session runtime does.
    fn deployment() -> &'static (Deployment, Vec<Tensor<f32>>, Screening) {
        static CELL: OnceLock<(Deployment, Vec<Tensor<f32>>, Screening)> = OnceLock::new();
        CELL.get_or_init(|| {
            let cfg = BertConfig {
                layers: 1,
                ..BertConfig::small()
            };
            let model = bert::build(cfg, 8);
            let samples = data::token_dataset(8, cfg.seq, cfg.vocab, 77);
            let d = tao::deploy(model, Fleet::standard(), &samples, 3.0).expect("deploy");
            let inputs = vec![bert::sample_ids(cfg, 55)];
            let honest = execute(
                &d.model.graph,
                &inputs,
                Device::rtx4090_like().config(),
                None,
            )
            .expect("forward");
            let claim = ClaimCheck {
                inputs: &inputs,
                claimed_output: honest.value(d.model.logits).expect("logits"),
            };
            let screening = screen_claim(
                &d.model.graph,
                d.model.logits,
                &d.thresholds,
                claim,
                &Device::h100_like(),
            )
            .expect("challenger screening");
            (d, inputs, screening)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For any perturbed compute node and any partition width, the
        /// dispute game localizes to exactly the perturbed operator.
        #[test]
        fn dispute_localizes_any_perturbed_node(which in 0usize..100, n_way in 2usize..9, seed in 0u64..1000) {
            let (d, inputs, screening) = deployment();
            let nodes = d.model.graph.compute_nodes();
            let target = nodes[which % nodes.len()];
            let proposer = Device::rtx4090_like();
            let honest = execute(&d.model.graph, inputs, proposer.config(), None).expect("forward");
            let shape = honest.values[target.0].dims().to_vec();
            let delta = Tensor::<f32>::randn(&shape, seed).mul_scalar(0.05);
            let mut p = Perturbations::new();
            p.insert(target, delta);
            let trace = execute(&d.model.graph, inputs, proposer.config(), Some(&p)).expect("forward");
            let challenger_dev = Device::h100_like();
            let proposer_commitment = tao_merkle::TraceCommitment::build(&trace.values);
            let trace_root = proposer_commitment.root();
            let outcome = run_dispute(
                &d.model.graph, d.dispute_anchors().with_trace_root(&trace_root),
                ProposerView::new(&trace).with_commitment(&proposer_commitment), inputs,
                ChallengerView::from_screening(&challenger_dev, screening),
                &d.thresholds,
                DisputeConfig { n_way },
            ).expect("dispute");
            prop_assert!(outcome.reveal_checks > 0);
            // A perturbation can be numerically absorbed downstream (e.g.
            // a near-uniform delta into softmax); when it is observable at
            // all, the game must land exactly on the perturbed operator.
            if let DisputeResult::Leaf(leaf) = outcome.result {
                prop_assert_eq!(leaf, target, "N = {}", n_way);
            }
        }
    }
}
