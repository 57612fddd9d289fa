//! Multi-step workloads (§7): temporal commitment over a DDIM sampling
//! trajectory with prefix finality — bisect across time to the earliest
//! offending step, then dispute within that step's graph.

use tao_calib::{calibrate, error_profile, DEFAULT_EPS};
use tao_device::{Device, Fleet};
use tao_graph::execute;
use tao_merkle::{tensor_hash, MerkleTree, TokenChain, TraceCommitment};
use tao_models::{
    diffusion, greedy_decode, greedy_decode_committed, qwen, Argmax, DiffusionConfig, QwenConfig,
};
use tao_tensor::{KernelConfig, Tensor};

/// Re-runs the sampler on the challenger device and returns the earliest
/// step whose latent deviates beyond a tolerance from the proposer's
/// committed trajectory.
fn earliest_offending_step(
    proposer: &[Tensor<f32>],
    challenger: &[Tensor<f32>],
    tol: f64,
) -> Option<usize> {
    proposer.iter().zip(challenger).position(|(a, b)| {
        let (abs, _) = tao_calib::elementwise_errors(a, b, DEFAULT_EPS);
        abs.iter().cloned().fold(0.0f64, f64::max) > tol
    })
}

#[test]
fn honest_trajectories_agree_within_tolerance_across_devices() {
    let cfg = DiffusionConfig::small();
    let model = diffusion::build(cfg, 1);
    let steps = 5;
    let a = diffusion::ddim_sample(&model, cfg, steps, 9, Device::rtx4090_like().config()).unwrap();
    let b = diffusion::ddim_sample(&model, cfg, steps, 9, Device::h100_like().config()).unwrap();
    // Cross-device drift compounds across steps but stays small.
    assert_eq!(earliest_offending_step(&a, &b, 1e-2), None);
    // The drift is nonzero (kernels really differ).
    assert_ne!(a.last().unwrap().data(), b.last().unwrap().data());
}

#[test]
fn temporal_bisection_finds_tampered_step() {
    let cfg = DiffusionConfig::small();
    let model = diffusion::build(cfg, 1);
    let steps = 6;
    let dev = Device::rtx4090_like();
    let honest = diffusion::ddim_sample(&model, cfg, steps, 4, dev.config()).unwrap();
    // A malicious proposer swaps out step 3's latent (content injection).
    let mut tampered = honest.clone();
    tampered[3] = tampered[3].add_scalar(0.05);
    // Later steps in a real attack would be recomputed from the tampered
    // latent; the earliest offense is still step 3.
    let offending = earliest_offending_step(&tampered, &honest, 1e-3);
    assert_eq!(offending, Some(3));
    // Prefix finality: steps before 3 agree bit-for-bit.
    for i in 0..3 {
        assert_eq!(tampered[i].data(), honest[i].data());
    }
}

#[test]
fn trajectory_commitment_is_a_merkle_chain() {
    let cfg = DiffusionConfig::small();
    let model = diffusion::build(cfg, 1);
    let traj = diffusion::ddim_sample(&model, cfg, 4, 2, Device::reference().config()).unwrap();
    let leaves: Vec<Vec<u8>> = traj.iter().map(|t| tensor_hash(t).to_vec()).collect();
    let tree = MerkleTree::from_leaves(&leaves);
    // Any step's latent can be proven against the trajectory root.
    for (i, leaf) in leaves.iter().enumerate() {
        let proof = tree.prove(i).unwrap();
        assert!(tao_merkle::verify_inclusion(&tree.root(), leaf, &proof));
    }
    // Tampering one step changes the root.
    let mut tampered = leaves.clone();
    tampered[2][0] ^= 0xff;
    assert_ne!(tree.root(), MerkleTree::from_leaves(&tampered).root());
}

#[test]
fn batch_screening_amortizes_one_deployment_across_steps() {
    // A multi-step trajectory is many claims over ONE committed UNet
    // deployment: batch-screen every step's (latent, t-emb) -> eps claim
    // in a single call and reuse the committed thresholds throughout.
    let cfg = DiffusionConfig::small();
    let model = diffusion::build(cfg, 1);
    let samples: Vec<Vec<Tensor<f32>>> = (0..12)
        .map(|i| {
            vec![
                Tensor::<f32>::randn(&model.input_shapes[0], 300 + i),
                diffusion::time_embedding(i as usize % 6 + 1, cfg.temb),
            ]
        })
        .collect();
    let deployment = tao::deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
    let proposer = Device::rtx4090_like();
    let challenger = Device::h100_like();

    // Per-step claims: honest proposer outputs, with step 1 tampered.
    let step_inputs: Vec<Vec<Tensor<f32>>> = (0..3)
        .map(|step| {
            vec![
                Tensor::<f32>::randn(&deployment.model.input_shapes[0], 900 + step),
                diffusion::time_embedding(step as usize + 1, cfg.temb),
            ]
        })
        .collect();
    let mut outputs: Vec<Tensor<f32>> = step_inputs
        .iter()
        .map(|inputs| {
            execute(&deployment.model.graph, inputs, proposer.config(), None)
                .unwrap()
                .value(deployment.model.logits)
                .unwrap()
                .clone()
        })
        .collect();
    outputs[1] = outputs[1].add_scalar(0.05);

    let claims: Vec<tao_protocol::ClaimCheck<'_>> = step_inputs
        .iter()
        .zip(&outputs)
        .map(|(inputs, claimed_output)| tao_protocol::ClaimCheck {
            inputs,
            claimed_output,
        })
        .collect();
    let screenings = tao_protocol::screen_batch(
        &deployment.model.graph,
        deployment.model.logits,
        &deployment.thresholds,
        &claims,
        &challenger,
    )
    .unwrap();
    assert_eq!(screenings.len(), 3);
    for (step, s) in screenings.iter().enumerate() {
        assert_eq!(
            s.flagged,
            step == 1,
            "step {step}: exceedance {}",
            s.exceedance
        );
        // Each screening keeps its trace so a dispute on the flagged step
        // would start with zero recomputation.
        assert_eq!(s.trace.values.len(), deployment.model.graph.len());
    }
}

#[test]
fn decode_sessions_are_disputable_at_token_granularity() {
    // A long autoregressive session carries one trace root per token plus
    // a prefix-stable rolling chain: contesting token t needs only
    // step_roots[t] and the chain prefix — earlier tokens are never
    // recommitted.
    let cfg = QwenConfig::small();
    let model = qwen::build(cfg, 3);
    let prompt = qwen::sample_ids(cfg, 11);
    let k = KernelConfig::reference();
    let (steps, commit) = greedy_decode_committed(&model, cfg, &prompt, 6, &k, &Argmax).unwrap();
    // Commitment never perturbs the decode.
    let plain = greedy_decode(&model, cfg, &prompt, 6, &k, &Argmax).unwrap();
    let plain_tokens: Vec<usize> = plain.iter().map(|s| s.token).collect();
    let tokens: Vec<usize> = steps.iter().map(|s| s.token).collect();
    assert_eq!(tokens, plain_tokens);
    // Decode commitments are seed-deterministic: a re-run reproduces every
    // step root and the chain bit-for-bit (whatever committer mode the
    // host picks).
    let (_, again) = greedy_decode_committed(&model, cfg, &prompt, 6, &k, &Argmax).unwrap();
    assert_eq!(commit.step_roots, again.step_roots);
    assert_eq!(commit.chain.root(), again.chain.root());
    // Extending the session from 6 to 7 tokens rehashes no prefix state:
    // the first six step roots and every intermediate chain root match.
    let (_, longer) = greedy_decode_committed(&model, cfg, &prompt, 7, &k, &Argmax).unwrap();
    assert_eq!(&longer.step_roots[..6], &commit.step_roots[..]);
    for t in 0..6 {
        assert_eq!(longer.chain.root_at(t), commit.chain.root_at(t), "t={t}");
    }
    // Every step root equals the seed oracle over a traced execution of
    // that step's window (the prompt shifted left by the tokens so far).
    let mut window = prompt.clone();
    for (t, step) in steps.iter().enumerate() {
        let trace = execute(&model.graph, std::slice::from_ref(&window), &k, None).unwrap();
        assert_eq!(
            commit.step_roots[t],
            TraceCommitment::reference(&trace.values).root(),
            "step {t}"
        );
        let mut ids = window.data()[1..].to_vec();
        ids.push(step.token as f32);
        window = Tensor::from_vec(ids, &[cfg.seq]).unwrap();
    }
    // Tampering one step's root breaks the chain from that point on while
    // the prefix stays final — the temporal-bisection property at token
    // granularity.
    let mut forged: Vec<(u64, tao_merkle::Digest)> = steps
        .iter()
        .zip(&commit.step_roots)
        .map(|(s, r)| (s.token as u64, *r))
        .collect();
    forged[3].1[0] ^= 0x01;
    let forged_chain = TokenChain::from_steps(&forged);
    for t in 0..3 {
        assert_eq!(
            forged_chain.root_at(t),
            commit.chain.root_at(t),
            "prefix t={t}"
        );
    }
    for t in 3..6 {
        assert_ne!(
            forged_chain.root_at(t),
            commit.chain.root_at(t),
            "suffix t={t}"
        );
    }
}

#[test]
fn per_step_unet_disputes_work_like_single_inference() {
    // Within a disputed step, the UNet graph behaves exactly like any
    // other model under the dispute pipeline: calibrate, perturb, detect.
    let cfg = DiffusionConfig::small();
    let model = diffusion::build(cfg, 1);
    let samples: Vec<Vec<Tensor<f32>>> = (0..12)
        .map(|i| {
            vec![
                Tensor::<f32>::randn(&model.input_shapes[0], 100 + i),
                diffusion::time_embedding(i as usize % 6 + 1, cfg.temb),
            ]
        })
        .collect();
    let record = calibrate(&model.graph, &samples, &Fleet::standard()).unwrap();
    let bundle = record.into_thresholds(3.0);
    let input = vec![
        Tensor::<f32>::randn(&model.input_shapes[0], 999),
        diffusion::time_embedding(3, cfg.temb),
    ];
    let a = execute(&model.graph, &input, Device::rtx4090_like().config(), None).unwrap();
    let b = execute(&model.graph, &input, Device::a100_like().config(), None).unwrap();
    for op in &bundle.operators {
        let prof = error_profile(&a.values[op.node.0], &b.values[op.node.0], DEFAULT_EPS);
        assert!(
            bundle.exceedance(op.node, &prof).unwrap() <= 1.0,
            "honest UNet op {} flagged",
            op.node
        );
    }
}
