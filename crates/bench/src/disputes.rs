//! Shared dispute-game driver for the Fig. 8 / Table 3 binaries.

use std::time::Instant;

use tao_device::Device;
use tao_graph::{execute, NodeId, Perturbations};
use tao_merkle::TraceCommitment;
use tao_protocol::{
    run_dispute, screen_claim, ChallengerView, ClaimCheck, DisputeConfig, DisputeOutcome,
    ProposerView,
};
use tao_tensor::Tensor;

use crate::Workload;

/// A dispute run with wall-clock timing, split into the challenger's
/// screening pass (paid once, before the game) and the localization game
/// itself (which reuses the screening trace).
pub struct TimedDispute {
    /// Protocol outcome.
    pub outcome: DisputeOutcome,
    /// Wall-clock seconds of the challenger's screening forward pass.
    pub screen_seconds: f64,
    /// Wall-clock seconds for the localization game (trace reused; no
    /// challenger forward pass inside).
    pub seconds: f64,
    /// Forward FLOPs of the proposer execution (Cost Ratio denominator).
    pub forward_flops: u64,
}

/// Spreads `count` perturbation targets evenly across the compute nodes
/// (the paper perturbs eight operators through the model).
pub fn spread_targets(w: &Workload, count: usize) -> Vec<NodeId> {
    let nodes = w.deployment.model.graph.compute_nodes();
    if nodes.is_empty() {
        return Vec::new();
    }
    (0..count.min(nodes.len()))
        .map(|i| nodes[i * nodes.len() / count.min(nodes.len()).max(1)])
        .collect()
}

/// Runs one dispute against a proposer that perturbed `target` by
/// `magnitude` (uniform additive), with partition width `n_way`. The
/// challenger screens first (as in the real protocol) and the dispute
/// reuses that screening trace.
pub fn run_perturbed_dispute(
    w: &Workload,
    input: &[Tensor<f32>],
    target: NodeId,
    magnitude: f32,
    n_way: usize,
) -> TimedDispute {
    let proposer = Device::rtx4090_like();
    let challenger = Device::h100_like();
    let graph = &w.deployment.model.graph;
    let honest = execute(graph, input, proposer.config(), None).expect("honest forward");
    let shape = honest.values[target.0].dims().to_vec();
    let mut p = Perturbations::new();
    p.insert(target, Tensor::full(&shape, magnitude));
    // The proposer commits its kept trace as a session does, and the
    // root anchors the dispute below.
    let trace = execute(graph, input, proposer.config(), Some(&p)).expect("perturbed forward");
    let proposer_commitment =
        TraceCommitment::build_with_params(&trace.values, &w.deployment.param_digests);
    let claimed_output = trace
        .value(w.deployment.model.logits)
        .expect("logits traced");
    let screen_start = Instant::now();
    let screening = screen_claim(
        graph,
        w.deployment.model.logits,
        &w.deployment.thresholds,
        ClaimCheck {
            inputs: input,
            claimed_output,
        },
        &challenger,
    )
    .expect("screening");
    let screen_seconds = screen_start.elapsed().as_secs_f64();
    let trace_root = proposer_commitment.root();
    let start = Instant::now();
    let outcome = run_dispute(
        graph,
        w.deployment.dispute_anchors().with_trace_root(&trace_root),
        ProposerView::new(&trace).with_commitment(&proposer_commitment),
        input,
        ChallengerView::from_screening(&challenger, &screening),
        &w.deployment.thresholds,
        DisputeConfig { n_way },
    )
    .expect("dispute");
    assert!(
        outcome.reveal_checks > 0,
        "anchored disputes must verify reveals against the committed root"
    );
    TimedDispute {
        outcome,
        screen_seconds,
        seconds: start.elapsed().as_secs_f64(),
        forward_flops: honest.total_flops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bert_workload;
    use tao_protocol::DisputeResult;

    #[test]
    fn perturbed_dispute_reaches_leaf() {
        let w = bert_workload(5, 1);
        let targets = spread_targets(&w, 3);
        let d = run_perturbed_dispute(&w, &w.test_inputs[0], targets[1], 0.05, 2);
        assert!(matches!(d.outcome.result, DisputeResult::Leaf(_)));
        assert!(d.forward_flops > 0);
        assert!(d.seconds >= 0.0);
        assert!(d.screen_seconds > 0.0);
    }

    #[test]
    fn spread_targets_are_distinct_and_ordered() {
        let w = bert_workload(3, 0);
        let t = spread_targets(&w, 8);
        for pair in t.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
