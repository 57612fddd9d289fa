//! Phase 0: model deployment — calibration and commitments.

use std::ops::Deref;
use std::sync::Arc;

use tao_analysis::StaticReport;
use tao_calib::{calibrate, CalibrationRecord, TailEstimator, ThresholdBundle};
use tao_device::Fleet;
use tao_merkle::{graph_tree, weight_tree, MerkleTree, ModelCommitment, ParamDigests};
use tao_models::Model;
use tao_protocol::{DisputeAnchors, DisputePlans};
use tao_tensor::Tensor;

use crate::error::TaoError;
use crate::Result;

/// The Phase 0 artifacts of a deployed model: the traced graph plus
/// everything the protocol needs — calibrated thresholds, Merkle trees and
/// the on-coordinator commitment.
#[derive(Debug)]
pub struct DeploymentArtifacts {
    /// The traced model.
    pub model: Model,
    /// The calibration fleet.
    pub fleet: Fleet,
    /// Committed empirical thresholds (α-inflated envelopes).
    pub thresholds: ThresholdBundle,
    /// Raw calibration record (kept for stability diagnostics and plots).
    pub calibration: CalibrationRecord,
    /// Weight Merkle tree `T_w`.
    pub weight_tree: MerkleTree,
    /// Graph-structure Merkle tree `T_g`.
    pub graph_tree: MerkleTree,
    /// The Phase 0 commitment `(r_w, r_g, r_e)`.
    pub commitment: ModelCommitment,
    /// Each parameter node's tensor digest, hashed once here so every
    /// trace commitment over this deployment skips rehashing the weights.
    pub param_digests: ParamDigests,
    /// Static analysis of the committed graph: shapes, costs, gas quote,
    /// deposit bound and lint findings. Claim admission
    /// ([`crate::PendingSession::submit`]) prices claims from this report.
    pub static_report: StaticReport,
    /// The dispute plans of this deployment, one per partition width,
    /// each built by the first dispute at that width and shared by every
    /// later one through [`Deployment::dispute_anchors`].
    pub dispute_plans: DisputePlans,
}

/// A shared handle to a deployed model.
///
/// Deployments are immutable once committed, so the handle is an `Arc`
/// around [`DeploymentArtifacts`]: cloning is a reference-count bump, and
/// any number of concurrent sessions (see [`crate::Scheduler`]) can hold
/// the same deployment without copying model weights or Merkle trees. The
/// artifacts are reachable through `Deref`, so `deployment.model`,
/// `deployment.thresholds` etc. read as direct field accesses.
#[derive(Debug, Clone)]
pub struct Deployment {
    inner: Arc<DeploymentArtifacts>,
}

impl Deployment {
    /// Wraps already-built artifacts into a shareable handle.
    pub fn new(artifacts: DeploymentArtifacts) -> Self {
        Deployment {
            inner: Arc::new(artifacts),
        }
    }

    /// Borrowed view of the underlying artifacts.
    pub fn artifacts(&self) -> &DeploymentArtifacts {
        &self.inner
    }

    /// The dispute anchors (Merkle trees, committed roots and dispute
    /// plans) of this deployment, in the shape [`tao_protocol::run_dispute`]
    /// consumes.
    pub fn dispute_anchors(&self) -> DisputeAnchors<'_> {
        DisputeAnchors {
            graph_tree: &self.inner.graph_tree,
            weight_tree: &self.inner.weight_tree,
            graph_root: &self.inner.commitment.graph_root,
            weight_root: &self.inner.commitment.weight_root,
            // The trace root is per-claim, not per-deployment: the session
            // attaches it via `with_trace_root` once `C0` is prepared.
            trace_root: None,
            plans: &self.inner.dispute_plans,
        }
    }
}

impl Deref for Deployment {
    type Target = DeploymentArtifacts;

    fn deref(&self) -> &DeploymentArtifacts {
        &self.inner
    }
}

/// Runs Phase 0: offline cross-device calibration over `samples`, α
/// inflation, and Merkle commitment of weights, graph and thresholds.
///
/// # Errors
///
/// Returns an error when calibration fails (empty fleet or samples).
pub fn deploy(
    model: Model,
    fleet: Fleet,
    samples: &[Vec<Tensor<f32>>],
    alpha: f64,
) -> Result<Deployment> {
    deploy_with(model, fleet, samples, alpha, TailEstimator::RawMax)
}

/// [`deploy`] with an explicit tail estimator for the committed
/// thresholds: [`TailEstimator::RawMax`] is the paper's max envelope,
/// [`TailEstimator::SmoothedTail`] adds tail slack (the calibration
/// variant campaigns A/B against the raw envelope). The chosen estimator's
/// bundle is what gets Merkle-committed — screening, disputes and
/// committees all operate against it.
///
/// # Errors
///
/// Returns an error when calibration fails (empty fleet or samples).
pub fn deploy_with(
    model: Model,
    fleet: Fleet,
    samples: &[Vec<Tensor<f32>>],
    alpha: f64,
    estimator: TailEstimator,
) -> Result<Deployment> {
    if alpha < 1.0 {
        return Err(TaoError::Config(format!(
            "safety factor alpha {alpha} must be >= 1"
        )));
    }
    // Static analysis gates deployment: a graph the interpreter rejects
    // (shape mismatches, missing parameters) would fail calibration anyway
    // — fail fast with the linter's explanation instead.
    let static_report = tao_analysis::analyze(&model.graph, &model.input_shapes);
    if !static_report.is_admissible() {
        let first = static_report
            .lint_findings
            .iter()
            .find(|f| f.severity == tao_analysis::Severity::Deny)
            .expect("deny_count > 0");
        return Err(TaoError::Config(format!(
            "model fails static analysis ({} deny finding(s); first: {})",
            static_report.deny_count(),
            first.message
        )));
    }
    let calibration = calibrate(&model.graph, samples, &fleet)?;
    let thresholds = calibration.clone().into_thresholds_with(alpha, estimator);
    // `r_w` and `r_g` are the roots of the trees the deployment keeps
    // (`commit_model` would build both again).
    let wt = weight_tree(&model.graph);
    let gt = graph_tree(&model.graph);
    let commitment = ModelCommitment {
        weight_root: wt.root(),
        graph_root: gt.root(),
        threshold_root: MerkleTree::from_leaves(&thresholds.to_leaves()).root(),
    };
    let param_digests = ParamDigests::new(&model.graph);
    Ok(Deployment::new(DeploymentArtifacts {
        model,
        fleet,
        thresholds,
        calibration,
        weight_tree: wt,
        graph_tree: gt,
        commitment,
        param_digests,
        static_report,
        dispute_plans: DisputePlans::default(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_calib::DEFAULT_ALPHA;
    use tao_models::{bert, BertConfig};

    #[test]
    fn deploy_produces_consistent_commitments() {
        let cfg = BertConfig {
            layers: 1,
            ..BertConfig::small()
        };
        let model = bert::build(cfg, 1);
        let samples = tao_models::data::token_dataset(4, cfg.seq, cfg.vocab, 10);
        let d = deploy(model, Fleet::standard(), &samples, DEFAULT_ALPHA).unwrap();
        assert_eq!(d.commitment.weight_root, d.weight_tree.root());
        assert_eq!(d.commitment.graph_root, d.graph_tree.root());
        // The roots taken from the kept trees equal a from-scratch commit.
        assert_eq!(
            d.commitment,
            tao_merkle::commit_model(&d.model.graph, &d.thresholds.to_leaves())
        );
        assert_eq!(d.param_digests.len(), d.model.graph.len());
        assert_eq!(d.thresholds.alpha, DEFAULT_ALPHA);
        assert!(!d.thresholds.operators.is_empty());
    }

    #[test]
    fn deployment_clones_share_artifacts() {
        let cfg = BertConfig {
            layers: 1,
            ..BertConfig::small()
        };
        let model = bert::build(cfg, 1);
        let samples = tao_models::data::token_dataset(2, cfg.seq, cfg.vocab, 10);
        let d = deploy(model, Fleet::standard(), &samples, DEFAULT_ALPHA).unwrap();
        let d2 = d.clone();
        // Same allocation, not a deep copy.
        assert!(std::ptr::eq(d.artifacts(), d2.artifacts()));
        let anchors = d2.dispute_anchors();
        assert_eq!(*anchors.graph_root, d.commitment.graph_root);
    }

    #[test]
    fn smoothed_deployment_commits_the_smoothed_bundle() {
        let cfg = BertConfig {
            layers: 1,
            ..BertConfig::small()
        };
        let samples = tao_models::data::token_dataset(4, cfg.seq, cfg.vocab, 10);
        let raw = deploy(
            bert::build(cfg, 1),
            Fleet::standard(),
            &samples,
            DEFAULT_ALPHA,
        )
        .unwrap();
        let smoothed = deploy_with(
            bert::build(cfg, 1),
            Fleet::standard(),
            &samples,
            DEFAULT_ALPHA,
            TailEstimator::smoothed_default(),
        )
        .unwrap();
        // The variant bundle dominates pointwise and is what got committed
        // (the threshold leaves differ, so the r_e root differs).
        for (r, s) in raw
            .thresholds
            .operators
            .iter()
            .zip(&smoothed.thresholds.operators)
        {
            for (a, b) in r.thresholds.abs.iter().zip(&s.thresholds.abs) {
                assert!(b >= a);
            }
        }
        assert_ne!(
            raw.commitment.threshold_root, smoothed.commitment.threshold_root,
            "estimator choice must be visible in the commitment"
        );
    }

    #[test]
    fn alpha_below_one_rejected() {
        let cfg = BertConfig {
            layers: 1,
            ..BertConfig::small()
        };
        let model = bert::build(cfg, 1);
        let samples = tao_models::data::token_dataset(2, cfg.seq, cfg.vocab, 10);
        assert!(deploy(model, Fleet::standard(), &samples, 0.5).is_err());
    }
}
