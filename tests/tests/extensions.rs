//! Integration tests for the §7 / §5.5 extensions: temporal disputes over
//! DDIM trajectories, tie-break rules at decode time, and the randomized
//! audit channel.

use tao_device::Device;
use tao_graph::{execute, GraphBuilder, OpKind};
use tao_merkle::{sha256, tensor_hash, verify_inclusion, ClaimMeta, MerkleTree};
use tao_models::{diffusion, qwen, DiffusionConfig, QwenConfig};
use tao_protocol::{
    earliest_offense, states_agree, tie_seed, ClaimStatus, Coordinator, EconParams, Party,
    TemporalVerdict, TieBreakRule,
};
use tao_tensor::Tensor;

#[test]
fn temporal_dispute_over_ddim_trajectory() {
    let cfg = DiffusionConfig::small();
    let model = diffusion::build(cfg, 3);
    let steps = 6;
    let dev = Device::rtx4090_like();
    let honest = diffusion::ddim_sample(&model, cfg, steps, 11, dev.config()).expect("sampling");

    // Proposer tampers from step 4 on: in a real attack every later step
    // is computed from the tampered state, so disagreement persists (the
    // monotonicity the time-first bisection relies on).
    let mut claimed = honest.clone();
    for state in claimed.iter_mut().skip(4) {
        *state = state.add_scalar(0.2);
    }
    // The trajectory root is a Merkle tree over the step states' hashes.
    let commitment = MerkleTree::from_leaves(&claimed.iter().map(tensor_hash).collect::<Vec<_>>());

    // Challenger re-samples on its own device and bisects across time.
    let challenger = diffusion::ddim_sample(&model, cfg, steps, 11, Device::h100_like().config())
        .expect("sampling");
    let verdict = earliest_offense(steps, |i| states_agree(&claimed[i], &challenger[i], 1e-2));
    let TemporalVerdict::OffenseAt { step, probes } = verdict else {
        panic!("tampered trajectory must offend");
    };
    assert_eq!(step, 4);
    assert!(probes <= 5, "O(log n) probes, got {probes}");

    // The disputed step state is provable against the temporal root, so
    // the per-step operator dispute starts from committed data.
    let proof = commitment.prove(step).expect("in range");
    assert!(verify_inclusion(
        &commitment.root(),
        &tensor_hash(&claimed[step]),
        &proof
    ));
    // Prefix finality: earlier steps agree across devices.
    for i in 0..step {
        assert!(states_agree(&claimed[i], &challenger[i], 1e-2));
    }
}

#[test]
fn tie_break_rules_make_decoding_deterministic_across_devices() {
    // Two honest devices decode the same prompt; the committed tie-break
    // rule must pick the same next token even when logits drift within
    // tolerance.
    let cfg = QwenConfig::small();
    let model = qwen::build(cfg, 7);
    let ids = qwen::sample_ids(cfg, 17);
    let rule = TieBreakRule::Lexicographic { margin: 1e-4 };
    let seed = tie_seed(&sha256(b"prompt"), 0);

    let mut picks = Vec::new();
    for dev in Device::standard_fleet() {
        let exec =
            execute(&model.graph, std::slice::from_ref(&ids), dev.config(), None).expect("forward");
        let logits = exec.value(model.logits).expect("logits");
        let lane = &logits.data()[logits.len() - cfg.vocab..];
        picks.push(rule.select(lane, &seed).expect("nonempty"));
    }
    assert!(
        picks.windows(2).all(|w| w[0] == w[1]),
        "devices must decode identically: {picks:?}"
    );

    // The hash-seeded rule is equally consistent.
    let hashed = TieBreakRule::HashSeeded { margin: 1e-4 };
    let mut picks2 = Vec::new();
    for dev in Device::standard_fleet() {
        let exec =
            execute(&model.graph, std::slice::from_ref(&ids), dev.config(), None).expect("forward");
        let logits = exec.value(model.logits).expect("logits");
        let lane = &logits.data()[logits.len() - cfg.vocab..];
        picks2.push(hashed.select(lane, &seed).expect("nonempty"));
    }
    assert!(picks2.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn randomized_audit_channel_enforces_like_a_challenge() {
    let econ = EconParams::default_market();
    let (lo, hi) = econ.feasible_slash_region().expect("region");
    let coord = Coordinator::new(econ, (lo + hi) / 2.0).expect("feasible");
    coord.fund("prop", 10_000);
    let meta = ClaimMeta {
        device: "sim-a100".into(),
        kernel: "pairwise".into(),
        dtype: "f32".into(),
        challenge_window: 10,
    };
    // Every claim posts under the static quote of a one-matmul graph.
    let report = {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::eye(8));
        let y = b.op("y", OpKind::MatMul, &[x, w]);
        let s = b.op("s", OpKind::Softmax, &[y]);
        tao_analysis::analyze(&b.finish(vec![s]).expect("graph"), &[vec![4, 8]])
    };
    // Submit many claims; audit-selected ones get frozen and adjudicated.
    let mut audited = 0;
    for i in 0..200u32 {
        let id = coord
            .submit_claim_quoted(
                "prop",
                sha256(format!("claim-{i}").as_bytes()),
                &meta,
                &report,
            )
            .expect("funded");
        if coord.audit_selected(id, 42).expect("known claim") {
            coord.open_audit(id).expect("pending claim");
            audited += 1;
            // Audit rules the claim clean: the proposer is made whole and
            // the committee is paid from fees.
            coord.settle(id, Party::Proposer, 3).expect("disputed");
            assert!(matches!(
                coord.claim(id).expect("known").status,
                ClaimStatus::Settled {
                    winner: Party::Proposer
                }
            ));
        } else {
            coord.advance(11);
        }
    }
    assert!(audited > 0, "phi = 0.05 over 200 claims should audit some");
    assert!(audited < 40, "audit rate should be near phi");
    assert!(coord.balance("committee-pool") > tao_protocol::Money::ZERO);
}

/// Adapter: a committed tie-break rule as a decoding policy.
struct CommittedRule {
    rule: TieBreakRule,
    input_hash: tao_merkle::Digest,
}

impl tao_models::SelectToken for CommittedRule {
    fn select(&self, logits: &[f32], step: u64) -> Option<usize> {
        self.rule.select(logits, &tie_seed(&self.input_hash, step))
    }
}

#[test]
fn committed_decoding_converges_across_devices_and_commits_temporally() {
    use tao_models::greedy_decode;
    let cfg = QwenConfig::small();
    let model = qwen::build(cfg, 13);
    let prompt = qwen::sample_ids(cfg, 71);
    let policy = CommittedRule {
        rule: TieBreakRule::Lexicographic { margin: 1e-4 },
        input_hash: tao_merkle::tensor_hash(&prompt),
    };

    // Every fleet device decodes the same token sequence under the
    // committed rule, despite bit-level logit drift.
    let mut sequences = Vec::new();
    let mut trajectories = Vec::new();
    for dev in Device::standard_fleet() {
        let steps =
            greedy_decode(&model, cfg, &prompt, 6, dev.config(), &policy).expect("decoding");
        sequences.push(steps.iter().map(|s| s.token).collect::<Vec<_>>());
        trajectories.push(
            steps
                .iter()
                .map(|s| Tensor::from_vec(s.logits.clone(), &[cfg.vocab]).expect("lane"))
                .collect::<Vec<_>>(),
        );
    }
    assert!(
        sequences.windows(2).all(|w| w[0] == w[1]),
        "devices diverged: {sequences:?}"
    );

    // The per-step logits form a temporal commitment chain; honest
    // trajectories agree within tolerance step by step.
    let c = MerkleTree::from_leaves(&trajectories[0].iter().map(tensor_hash).collect::<Vec<_>>());
    assert_eq!(c.len(), 6);
    let verdict = earliest_offense(6, |i| {
        states_agree(&trajectories[0][i], &trajectories[1][i], 1e-3)
    });
    assert_eq!(verdict, TemporalVerdict::AllAgree);
}
