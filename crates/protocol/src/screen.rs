//! The challenger's Phase 2 trigger as a protocol primitive: re-execute a
//! claim on the challenger's device and compare the final-output error
//! percentiles against the committed thresholds (§2.2, Eq. 15).
//!
//! Screening is where the challenger pays its one unavoidable forward
//! pass; the resulting [`Screening`] carries the full execution trace, and
//! a dispute plays from it
//! ([`ChallengerView::from_screening`](crate::ChallengerView::from_screening))
//! instead of recomputing. [`screen_batch`] amortizes one committed
//! deployment across many claims, fanning the per-claim forward passes out
//! over scoped threads.

use tao_calib::{error_profile, ThresholdBundle, DEFAULT_EPS};
use tao_device::Device;
use tao_graph::{execute, Execution, Graph, NodeId};
use tao_merkle::TraceCommitment;
use tao_tensor::Tensor;

use crate::error::ProtocolError;
use crate::Result;

/// One claim to screen: the inputs the proposer claims to have served and
/// the output it posted.
#[derive(Debug, Clone, Copy)]
pub struct ClaimCheck<'a> {
    /// The claimed model inputs, in graph input order.
    pub inputs: &'a [Tensor<f32>],
    /// The proposer's posted output at the screened node.
    pub claimed_output: &'a Tensor<f32>,
}

/// The outcome of screening one claim, including the challenger's own
/// execution trace (reusable in a dispute at zero extra forward cost).
///
/// Only the proposer commits to a trace: the challenger re-executes and
/// compares, so a screening carries no commitment of its own.
#[derive(Debug, Clone)]
pub struct Screening {
    /// The Eq. 15 exceedance of the claimed output versus the challenger's
    /// re-execution (`> 1` means some percentile broke its threshold).
    pub exceedance: f64,
    /// True when the claim should be challenged.
    pub flagged: bool,
    /// The challenger's full execution trace of the claimed inputs.
    pub trace: Execution,
}

impl Screening {
    /// Always `None`: the challenger builds no trace commitment. Kept only
    /// because the benchmark's traced replica still reads it; the next
    /// benchmark change deletes it.
    pub fn commitment(&self) -> Option<&TraceCommitment> {
        None
    }

    /// Re-evaluates this screening's claim under an *alternative* threshold
    /// bundle, reusing the already-computed trace (no forward pass). This
    /// is the calibration A/B hook: a campaign screens once against the
    /// committed bundle and can then ask what a variant estimator (e.g. the
    /// smoothed tail vs the raw max envelope) would have decided for the
    /// same claim.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MissingThreshold`] when `bundle` has no
    /// entry for `output_node`, or a graph error if the trace lacks a value
    /// for the node.
    pub fn exceedance_under(
        &self,
        bundle: &ThresholdBundle,
        output_node: NodeId,
        claimed_output: &Tensor<f32>,
    ) -> Result<f64> {
        let prof = error_profile(claimed_output, self.trace.value(output_node)?, DEFAULT_EPS);
        bundle
            .exceedance(output_node, &prof)
            .ok_or(ProtocolError::MissingThreshold(output_node))
    }
}

/// Screens one claim: re-executes `claim.inputs` on `device` and compares
/// the claimed output against the committed threshold at `output_node`.
///
/// # Errors
///
/// Returns an error when re-execution fails or when `output_node` has no
/// committed threshold ([`ProtocolError::MissingThreshold`]) — a missing
/// threshold is a deployment bug, not fraud.
pub fn screen_claim(
    graph: &Graph,
    output_node: NodeId,
    thresholds: &ThresholdBundle,
    claim: ClaimCheck<'_>,
    device: &Device,
) -> Result<Screening> {
    let trace = execute(graph, claim.inputs, device.config(), None)?;
    let prof = error_profile(claim.claimed_output, trace.value(output_node)?, DEFAULT_EPS);
    let exceedance = thresholds
        .exceedance(output_node, &prof)
        .ok_or(ProtocolError::MissingThreshold(output_node))?;
    Ok(Screening {
        exceedance,
        flagged: exceedance > 1.0,
        trace,
    })
}

/// Screens many claims against one committed deployment, running the
/// per-claim forward passes on scoped threads ([`crate::parallel_map`]).
/// Results are returned in claim order.
///
/// # Errors
///
/// Returns the first (by claim index) error any screening produced.
pub fn screen_batch(
    graph: &Graph,
    output_node: NodeId,
    thresholds: &ThresholdBundle,
    claims: &[ClaimCheck<'_>],
    device: &Device,
) -> Result<Vec<Screening>> {
    // Forward passes are compute-bound: stay at the compute cap rather
    // than MAX_WORKERS.
    let threads = claims.len().min(crate::par::MAX_PAR_THREADS);
    crate::parallel_map(claims.to_vec(), threads, |claim| {
        screen_claim(graph, output_node, thresholds, claim, device)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_calib::{calibrate, DEFAULT_ALPHA};
    use tao_device::Fleet;
    use tao_graph::{GraphBuilder, OpKind};

    fn setup() -> (Graph, ThresholdBundle, NodeId) {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[16, 16], -0.4, 0.4, 3));
        let m = b.op("mm", OpKind::MatMul, &[x, w]);
        let a = b.op("act", OpKind::Gelu, &[m]);
        let sm = b.op("softmax", OpKind::Softmax, &[a]);
        let g = b.finish(vec![sm]).unwrap();
        let samples: Vec<Vec<Tensor<f32>>> = (0..8)
            .map(|i| vec![Tensor::<f32>::rand_uniform(&[2, 16], -1.0, 1.0, 40 + i)])
            .collect();
        let bundle = calibrate(&g, &samples, &Fleet::standard())
            .unwrap()
            .into_thresholds(DEFAULT_ALPHA);
        (g, bundle, sm)
    }

    #[test]
    fn batch_screening_flags_only_tampered_claims() {
        let (g, bundle, out) = setup();
        let proposer = Device::rtx4090_like();
        let challenger = Device::h100_like();
        let inputs: Vec<Vec<Tensor<f32>>> = (0..4)
            .map(|i| vec![Tensor::<f32>::rand_uniform(&[2, 16], -1.0, 1.0, 90 + i)])
            .collect();
        let mut outputs: Vec<Tensor<f32>> = inputs
            .iter()
            .map(|input| {
                execute(&g, input, proposer.config(), None)
                    .unwrap()
                    .value(out)
                    .unwrap()
                    .clone()
            })
            .collect();
        outputs[2] = outputs[2].add_scalar(0.05); // tamper one claim
        let claims: Vec<ClaimCheck<'_>> = inputs
            .iter()
            .zip(&outputs)
            .map(|(inputs, claimed_output)| ClaimCheck {
                inputs,
                claimed_output,
            })
            .collect();
        let screenings = screen_batch(&g, out, &bundle, &claims, &challenger).unwrap();
        assert_eq!(screenings.len(), 4);
        for (i, s) in screenings.iter().enumerate() {
            assert_eq!(s.flagged, i == 2, "claim {i}: exceedance {}", s.exceedance);
            // The trace is complete and reusable in a dispute.
            assert_eq!(s.trace.values.len(), g.len());
        }
    }

    #[test]
    fn exceedance_under_reuses_trace_for_ab_bundles() {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[16, 16], -0.4, 0.4, 3));
        let m = b.op("mm", OpKind::MatMul, &[x, w]);
        let sm = b.op("softmax", OpKind::Softmax, &[m]);
        let g = b.finish(vec![sm]).unwrap();
        let samples: Vec<Vec<Tensor<f32>>> = (0..8)
            .map(|i| vec![Tensor::<f32>::rand_uniform(&[2, 16], -1.0, 1.0, 40 + i)])
            .collect();
        let record = calibrate(&g, &samples, &Fleet::standard()).unwrap();
        let raw = record.clone().into_thresholds(DEFAULT_ALPHA);
        let smoothed = record
            .into_thresholds_with(DEFAULT_ALPHA, tao_calib::TailEstimator::smoothed_default());

        let input = vec![Tensor::<f32>::rand_uniform(&[2, 16], -1.0, 1.0, 91)];
        let claimed = execute(&g, &input, Device::rtx4090_like().config(), None)
            .unwrap()
            .value(sm)
            .unwrap()
            .clone();
        let screening = screen_claim(
            &g,
            sm,
            &raw,
            ClaimCheck {
                inputs: &input,
                claimed_output: &claimed,
            },
            &Device::h100_like(),
        )
        .unwrap();
        // Same bundle reproduces the screening's own exceedance exactly.
        let same = screening.exceedance_under(&raw, sm, &claimed).unwrap();
        assert_eq!(same, screening.exceedance);
        // Smoothed thresholds dominate pointwise, so exceedance shrinks.
        let alt = screening.exceedance_under(&smoothed, sm, &claimed).unwrap();
        assert!(alt <= same, "smoothed exceedance {alt} above raw {same}");
        // A bundle without the node is a deployment error, not fraud.
        assert!(matches!(
            screening.exceedance_under(&raw, NodeId(0), &claimed),
            Err(ProtocolError::MissingThreshold(_))
        ));
    }

    #[test]
    fn wrong_shape_claims_are_flagged_at_every_entry_point() {
        let (g, bundle, out) = setup();
        let challenger = Device::h100_like();
        let input = vec![Tensor::<f32>::rand_uniform(&[2, 16], -1.0, 1.0, 91)];
        let honest = execute(&g, &input, Device::rtx4090_like().config(), None)
            .unwrap()
            .value(out)
            .unwrap()
            .clone();
        let mut malformed = vec![
            Tensor::from_vec(honest.data()[..16].to_vec(), &[1, 16]).unwrap(),
            Tensor::<f32>::zeros(&[0]),
            honest.reshape(&[32]).unwrap(),
        ];
        // Non-finite claims of the right shape: all NaN or ±inf, and every
        // second element replaced.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            malformed.push(Tensor::full(honest.dims(), bad));
            let mut half = honest.clone();
            half.data_mut().iter_mut().step_by(2).for_each(|x| *x = bad);
            malformed.push(half);
        }
        for claimed in &malformed {
            let claim = ClaimCheck {
                inputs: &input,
                claimed_output: claimed,
            };
            let dims = (claimed.dims(), claimed.data().first());
            let screenings = [
                screen_claim(&g, out, &bundle, claim, &challenger).unwrap(),
                screen_batch(&g, out, &bundle, &[claim], &challenger)
                    .unwrap()
                    .remove(0),
            ];
            for s in &screenings {
                assert!(s.flagged, "{dims:?}: exceedance {}", s.exceedance);
                assert_eq!(s.exceedance, f64::INFINITY, "{dims:?}");
            }
            // Re-scoring the honest screening's trace against the
            // malformed claim rejects it too.
            let honest_screening = screen_claim(
                &g,
                out,
                &bundle,
                ClaimCheck {
                    inputs: &input,
                    claimed_output: &honest,
                },
                &challenger,
            )
            .unwrap();
            assert!(!honest_screening.flagged);
            assert_eq!(
                honest_screening
                    .exceedance_under(&bundle, out, claimed)
                    .unwrap(),
                f64::INFINITY,
                "{dims:?}"
            );
        }
    }

    #[test]
    fn empty_batch_screens_to_nothing() {
        let (g, bundle, out) = setup();
        let screenings = screen_batch(&g, out, &bundle, &[], &Device::h100_like()).unwrap();
        assert!(screenings.is_empty());
    }

    #[test]
    fn missing_threshold_is_an_error_not_fraud() {
        let (g, bundle, _) = setup();
        let device = Device::h100_like();
        let input = vec![Tensor::<f32>::rand_uniform(&[2, 16], -1.0, 1.0, 7)];
        let claimed = Tensor::<f32>::ones(&[2, 16]);
        // Node 0 is the graph input: structural, never calibrated.
        let err = screen_claim(
            &g,
            NodeId(0),
            &bundle,
            ClaimCheck {
                inputs: &input,
                claimed_output: &claimed,
            },
            &device,
        )
        .unwrap_err();
        assert_eq!(err, ProtocolError::MissingThreshold(NodeId(0)));
    }
}
