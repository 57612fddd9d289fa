//! User-side verification utilities: receipt construction and the
//! commitment-binding check a result consumer can run *without* playing
//! the dispute game. To screen a returned output, a consumer calls
//! [`tao_protocol::screen_claim`] like any challenger.

use tao_merkle::{claim_commitment, inputs_hash, tensor_hash, ClaimMeta, Digest};
use tao_tensor::Tensor;

use crate::deploy::Deployment;

/// A verifiable receipt the proposer hands the user alongside the output.
#[derive(Debug, Clone, PartialEq)]
pub struct Receipt {
    /// The claim commitment `C0` as posted on the coordinator.
    pub commitment: Digest,
    /// Execution metadata bound into the commitment.
    pub meta: ClaimMeta,
    /// Domain-separated hash of the full ordered input list the proposer
    /// claims to have served.
    pub input_hash: Digest,
    /// Hash of the returned output.
    pub output_hash: Digest,
    /// Root of the proposer's per-node trace commitment, bound into `C0`
    /// so dispute reveals are verifiable against what was claimed.
    pub trace_root: Digest,
}

/// Builds a receipt for a served request, binding every input tensor and
/// the proposer's trace-commitment root.
pub fn make_receipt(
    deployment: &Deployment,
    inputs: &[Tensor<f32>],
    output: &Tensor<f32>,
    trace_root: Digest,
    meta: ClaimMeta,
) -> Receipt {
    let input_hash = inputs_hash(inputs);
    let output_hash = tensor_hash(output);
    let commitment = claim_commitment(
        &deployment.commitment,
        &input_hash,
        &output_hash,
        &trace_root,
        &meta,
    );
    Receipt {
        commitment,
        meta,
        input_hash,
        output_hash,
        trace_root,
    }
}

/// Checks that a receipt binds the given inputs/output to the deployment's
/// committed model: recomputes `C0` from first principles and compares.
pub fn verify_receipt(
    deployment: &Deployment,
    receipt: &Receipt,
    inputs: &[Tensor<f32>],
    output: &Tensor<f32>,
) -> bool {
    inputs_hash(inputs) == receipt.input_hash
        && tensor_hash(output) == receipt.output_hash
        && claim_commitment(
            &deployment.commitment,
            &receipt.input_hash,
            &receipt.output_hash,
            &receipt.trace_root,
            &receipt.meta,
        ) == receipt.commitment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::deploy;
    use tao_device::{Device, Fleet};
    use tao_graph::execute;
    use tao_merkle::TraceCommitment;
    use tao_models::{bert, data, BertConfig};
    use tao_protocol::{screen_claim, ClaimCheck};

    fn setup() -> (Deployment, Vec<Tensor<f32>>, Tensor<f32>, Digest) {
        let cfg = BertConfig {
            layers: 1,
            ..BertConfig::small()
        };
        let model = bert::build(cfg, 1);
        let samples = data::token_dataset(16, cfg.seq, cfg.vocab, 50);
        let d = deploy(model, Fleet::standard(), &samples, 3.0).unwrap();
        let inputs = vec![bert::sample_ids(cfg, 5)];
        let exec = execute(&d.model.graph, &inputs, Device::a100_like().config(), None).unwrap();
        let output = exec.value(d.model.logits).unwrap().clone();
        let trace_root = TraceCommitment::build(&exec.values).root();
        (d, inputs, output, trace_root)
    }

    fn meta() -> ClaimMeta {
        ClaimMeta {
            device: "sim-a100".into(),
            kernel: "pairwise".into(),
            dtype: "f32".into(),
            challenge_window: 10,
        }
    }

    #[test]
    fn receipt_roundtrip() {
        let (d, inputs, output, rt) = setup();
        let r = make_receipt(&d, &inputs, &output, rt, meta());
        assert!(verify_receipt(&d, &r, &inputs, &output));
    }

    #[test]
    fn receipt_rejects_swapped_output() {
        let (d, inputs, output, rt) = setup();
        let r = make_receipt(&d, &inputs, &output, rt, meta());
        let mut other = output.clone();
        other.data_mut()[0] += 1e-3;
        assert!(!verify_receipt(&d, &r, &inputs, &other));
        // And a swapped input.
        let other_inputs = vec![inputs[0].add_scalar(1.0)];
        assert!(!verify_receipt(&d, &r, &other_inputs, &output));
        // And a different input arity.
        let padded: Vec<Tensor<f32>> = vec![inputs[0].clone(), inputs[0].clone()];
        assert!(!verify_receipt(&d, &r, &padded, &output));
    }

    #[test]
    fn receipt_rejects_forged_meta() {
        let (d, inputs, output, rt) = setup();
        let mut r = make_receipt(&d, &inputs, &output, rt, meta());
        r.meta.challenge_window = 1; // Shortened window forgery.
        assert!(!verify_receipt(&d, &r, &inputs, &output));
    }

    #[test]
    fn receipt_rejects_forged_trace_root() {
        // A proposer that swaps the trace root after posting loses the
        // binding: C0 no longer recomputes.
        let (d, inputs, output, rt) = setup();
        let mut r = make_receipt(&d, &inputs, &output, rt, meta());
        r.trace_root[0] ^= 0x01;
        assert!(!verify_receipt(&d, &r, &inputs, &output));
    }

    /// Screens a returned output the way a consumer does: with
    /// [`screen_claim`] on the deployment's logits.
    fn screen(
        d: &Deployment,
        inputs: &[Tensor<f32>],
        claimed_output: &Tensor<f32>,
    ) -> tao_protocol::Screening {
        let claim = ClaimCheck {
            inputs,
            claimed_output,
        };
        screen_claim(
            &d.model.graph,
            d.model.logits,
            &d.thresholds,
            claim,
            &Device::h100_like(),
        )
        .unwrap()
    }

    #[test]
    fn screening_accepts_honest_flags_tampered() {
        let (d, inputs, output, _) = setup();
        let ok = screen(&d, &inputs, &output);
        assert!(!ok.flagged, "exceedance {}", ok.exceedance);
        let tampered = output.add_scalar(0.01);
        let bad = screen(&d, &inputs, &tampered);
        assert!(bad.flagged);
        assert!(bad.exceedance > ok.exceedance);
    }

    #[test]
    fn screening_challenges_outputs_of_the_wrong_shape() {
        let (d, inputs, output, _) = setup();
        let n = output.len();
        for claimed in [
            Tensor::from_vec(output.data()[..n / 2].to_vec(), &[n / 2]).unwrap(),
            Tensor::<f32>::zeros(&[0]),
            output.reshape(&[n]).unwrap(),
        ] {
            let report = screen(&d, &inputs, &claimed);
            assert!(report.flagged, "{:?}", claimed.dims());
            assert_eq!(report.exceedance, f64::INFINITY);
        }
    }
}
