//! Phase 3: single-operator adjudication (§5.4).

use std::collections::HashMap;

use tao_bounds::{check_within_bound, BoundEngine, CheckReport};
use tao_calib::{error_profile_into, ThresholdBundle, DEFAULT_EPS};
use tao_device::Device;
use tao_graph::{eval_node, BufferPool, Execution, Graph, NodeId};
use tao_tensor::Tensor;

use crate::error::ProtocolError;
use crate::Result;

/// Which Phase 3 path the routing policy selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjudicationPath {
    /// The claimed output broke the theoretical cap: cheap sound check.
    Theoretical,
    /// Within the theoretical cap: tighter committee vote.
    Committee,
}

/// Leaf verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafVerdict {
    /// The proposer's leaf output is accepted.
    Accepted,
    /// The proposer is convicted and slashed.
    Fraud,
}

/// Outcome of a committee vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteOutcome {
    /// Per-member votes (`true` = within thresholds).
    pub votes: Vec<bool>,
    /// Majority decision.
    pub verdict: LeafVerdict,
}

/// The disputed leaf with its committed context.
#[derive(Debug)]
pub struct LeafCase<'a> {
    /// The traced model.
    pub graph: &'a Graph,
    /// The localized operator.
    pub leaf: NodeId,
    /// Proposer trace carrying the committed leaf inputs and output.
    pub proposer_trace: &'a Execution,
    /// Graph inputs (committed by `H(x)`).
    pub inputs: &'a [Tensor<f32>],
}

impl<'a> LeafCase<'a> {
    /// Re-executes the leaf operator under a device's kernels, from the
    /// committed inputs.
    ///
    /// # Errors
    ///
    /// Returns an error when evaluation fails.
    pub fn reexecute(&self, device: &Device) -> Result<Tensor<f32>> {
        let node = self.graph.node(self.leaf)?;
        Ok(eval_node(
            self.graph,
            node,
            &self.proposer_trace.values,
            self.inputs,
            device.config(),
            &mut BufferPool::new(),
        )?)
    }

    /// The proposer's claimed leaf output.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range leaf id.
    pub fn claimed(&self) -> Result<&Tensor<f32>> {
        Ok(self.proposer_trace.value(self.leaf)?)
    }
}

/// The routing policy: recompute a reference and compare against the
/// theoretical cap; any element outside routes to the (decisive)
/// theoretical path, otherwise to the committee.
///
/// # Errors
///
/// Returns an error when re-execution or bound computation fails.
pub fn route(case: &LeafCase<'_>, engine: &BoundEngine) -> Result<AdjudicationPath> {
    let report = theoretical_check(case, engine, 1.0)?;
    Ok(if report.passed {
        AdjudicationPath::Committee
    } else {
        AdjudicationPath::Theoretical
    })
}

/// Path (i): the sound element-wise IEEE-754 bound check. The reference is
/// recomputed under the canonical configuration and `τ_theo` from the
/// committed inputs; `scale` is the diagnostic `α` (1 in production).
///
/// # Errors
///
/// Returns an error when re-execution or bound computation fails.
pub fn theoretical_check(
    case: &LeafCase<'_>,
    engine: &BoundEngine,
    scale: f64,
) -> Result<CheckReport> {
    let reference = case.reexecute(&Device::reference())?;
    let node = case.graph.node(case.leaf)?;
    let tau = engine.node_bound(node, case.proposer_trace)?;
    Ok(check_within_bound(case.claimed()?, &reference, &tau, scale))
}

/// Converts a theoretical check into a verdict: violations convict.
pub fn theoretical_verdict(report: &CheckReport) -> LeafVerdict {
    if report.passed {
        LeafVerdict::Accepted
    } else {
        LeafVerdict::Fraud
    }
}

/// Path (ii): committee vote against the committed empirical thresholds.
/// Each member re-executes the leaf on its own device, forms the error
/// percentile profile versus the claimed output, and votes "within" iff
/// the profile stays under the thresholds (structural leaves require a
/// bit-for-bit match). `dishonest[i]` flips member `i`'s vote, for fault-injection
/// tests of the honest-majority assumption.
///
/// # Errors
///
/// Returns an error for an empty or even-sized committee, or when a
/// member's re-execution fails.
pub fn committee_vote(
    case: &LeafCase<'_>,
    thresholds: &ThresholdBundle,
    committee: &[Device],
    dishonest: &[bool],
) -> Result<VoteOutcome> {
    if committee.is_empty() || committee.len().is_multiple_of(2) {
        return Err(ProtocolError::BadCommittee(format!(
            "need an odd, nonzero committee, got {}",
            committee.len()
        )));
    }
    let claimed = case.claimed()?;
    let mut votes = Vec::with_capacity(committee.len());
    let mut keys = ProfileKeys::default();
    for (i, member) in committee.iter().enumerate() {
        let reference = case.reexecute(member)?;
        let honest_vote =
            node_exceedance(thresholds, case.leaf, claimed, &reference, &mut keys) <= 1.0;
        let flipped = dishonest.get(i).copied().unwrap_or(false);
        votes.push(honest_vote != flipped);
    }
    let accepts = votes.iter().filter(|&&v| v).count();
    let verdict = if accepts * 2 > votes.len() {
        LeafVerdict::Accepted
    } else {
        LeafVerdict::Fraud
    };
    Ok(VoteOutcome { votes, verdict })
}

/// Reusable `(abs, rel)` error-key buffers for [`node_exceedance`].
pub(crate) type ProfileKeys = (Vec<u64>, Vec<u64>);

/// The one node-exceedance rule of the dispute descent (its own-trace
/// screen and its live-out confirmation) and the committee vote: the
/// Eq. 15 exceedance of `claimed` over `reference` against `node`'s
/// committed thresholds, or, for a node without one (an input or a
/// parameter), 0 when the two are [`bit_identical`] and `+inf` otherwise.
/// The profile's error keys go through `keys`, which one dispute or vote
/// reuses for every node it profiles.
pub(crate) fn node_exceedance(
    thresholds: &ThresholdBundle,
    node: NodeId,
    claimed: &Tensor<f32>,
    reference: &Tensor<f32>,
    keys: &mut ProfileKeys,
) -> f64 {
    match thresholds.for_node(node) {
        Some(entry) => entry.exceedance(&error_profile_into(
            claimed,
            reference,
            DEFAULT_EPS,
            &mut keys.0,
            &mut keys.1,
        )),
        None if bit_identical(claimed, reference) => 0.0,
        None => f64::INFINITY,
    }
}

/// Structural agreement, the one rule for nodes without a threshold
/// (inputs and parameters) in both the dispute descent and the committee
/// vote: equal dims and equal element bits. Unlike `==`, `-0.0` differs
/// from `+0.0` and a NaN equals its own bit pattern, which is exactly what
/// equal canonical serializations (equal trace digests) mean.
pub(crate) fn bit_identical(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Samples an odd committee of size `n` from a pool, seeded (the
/// coordinator's randomized sortition).
pub fn sample_committee(pool: &[Device], n: usize, seed: u64) -> Vec<Device> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut n = n.min(pool.len()).max(1);
    if n.is_multiple_of(2) {
        n -= 1; // Round even requests down to odd.
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut picks: Vec<Device> = pool.to_vec();
    picks.shuffle(&mut rng);
    picks.truncate(n);
    picks
}

/// Convenience: full Phase 3 — route, then adjudicate on the chosen path.
///
/// Returns the path taken and the verdict.
///
/// # Errors
///
/// Returns an error when any re-execution fails.
pub fn adjudicate(
    case: &LeafCase<'_>,
    engine: &BoundEngine,
    thresholds: &ThresholdBundle,
    committee: &[Device],
) -> Result<(AdjudicationPath, LeafVerdict)> {
    match route(case, engine)? {
        AdjudicationPath::Theoretical => {
            let report = theoretical_check(case, engine, 1.0)?;
            Ok((AdjudicationPath::Theoretical, theoretical_verdict(&report)))
        }
        AdjudicationPath::Committee => {
            let dishonest = vec![false; committee.len()];
            let outcome = committee_vote(case, thresholds, committee, &dishonest)?;
            Ok((AdjudicationPath::Committee, outcome.verdict))
        }
    }
}

/// Builds a leaf case from a dispute trace (helper for drivers).
pub fn leaf_case<'a>(
    graph: &'a Graph,
    leaf: NodeId,
    proposer_trace: &'a Execution,
    inputs: &'a [Tensor<f32>],
) -> LeafCase<'a> {
    LeafCase {
        graph,
        leaf,
        proposer_trace,
        inputs,
    }
}

/// A `HashMap` alias for callers assembling custom boundaries.
pub type Boundary = HashMap<NodeId, Tensor<f32>>;

#[cfg(test)]
mod tests {
    use super::*;
    use tao_calib::{calibrate, DEFAULT_ALPHA};
    use tao_device::Fleet;
    use tao_graph::{execute, GraphBuilder, OpKind, Perturbations};

    fn model() -> (Graph, ThresholdBundle, Vec<Tensor<f32>>) {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[48, 48], -0.4, 0.4, 3));
        let m = b.op("m", OpKind::MatMul, &[x, w]);
        let s = b.op("s", OpKind::Softmax, &[m]);
        let g = b.finish(vec![s]).unwrap();
        let samples: Vec<Vec<Tensor<f32>>> = (0..6)
            .map(|i| vec![Tensor::<f32>::rand_uniform(&[4, 48], -1.0, 1.0, 60 + i)])
            .collect();
        let bundle = calibrate(&g, &samples, &Fleet::standard())
            .unwrap()
            .into_thresholds(DEFAULT_ALPHA);
        let input = vec![Tensor::<f32>::rand_uniform(&[4, 48], -1.0, 1.0, 99)];
        (g, bundle, input)
    }

    #[test]
    fn honest_leaf_accepted_by_both_paths() {
        let (g, bundle, inputs) = model();
        let trace = execute(&g, &inputs, Device::a100_like().config(), None).unwrap();
        let leaf = NodeId(2); // The matmul.
        let case = leaf_case(&g, leaf, &trace, &inputs);
        let engine = BoundEngine::paper_default();
        assert_eq!(route(&case, &engine).unwrap(), AdjudicationPath::Committee);
        let committee = sample_committee(Fleet::standard().devices(), 3, 1);
        let (_, verdict) = adjudicate(&case, &engine, &bundle, &committee).unwrap();
        assert_eq!(verdict, LeafVerdict::Accepted);
    }

    #[test]
    fn large_perturbation_convicted_theoretically() {
        let (g, bundle, inputs) = model();
        let leaf = NodeId(2);
        let honest = execute(&g, &inputs, Device::a100_like().config(), None).unwrap();
        let shape = honest.values[leaf.0].dims().to_vec();
        let mut p = Perturbations::new();
        p.insert(leaf, Tensor::full(&shape, 0.5));
        let trace = execute(&g, &inputs, Device::a100_like().config(), Some(&p)).unwrap();
        let case = leaf_case(&g, leaf, &trace, &inputs);
        let engine = BoundEngine::paper_default();
        assert_eq!(
            route(&case, &engine).unwrap(),
            AdjudicationPath::Theoretical
        );
        let (path, verdict) = adjudicate(&case, &engine, &bundle, &[]).unwrap();
        assert_eq!(path, AdjudicationPath::Theoretical);
        assert_eq!(verdict, LeafVerdict::Fraud);
    }

    #[test]
    fn sneaky_perturbation_convicted_by_committee() {
        let (g, bundle, inputs) = model();
        let leaf = NodeId(2);
        let honest = execute(&g, &inputs, Device::a100_like().config(), None).unwrap();
        let shape = honest.values[leaf.0].dims().to_vec();
        // Inside the loose theoretical cap for a 48-deep dot product but
        // far above the ~1e-7 empirical thresholds.
        let mut p = Perturbations::new();
        p.insert(leaf, Tensor::full(&shape, 3e-5));
        let trace = execute(&g, &inputs, Device::a100_like().config(), Some(&p)).unwrap();
        let case = leaf_case(&g, leaf, &trace, &inputs);
        let committee = sample_committee(Fleet::standard().devices(), 3, 2);
        let outcome = committee_vote(&case, &bundle, &committee, &[false; 3]).unwrap();
        assert_eq!(outcome.verdict, LeafVerdict::Fraud);
    }

    /// A claimed leaf with one NaN element has no finite error to bound:
    /// both paths convict it.
    #[test]
    fn a_nan_leaf_is_convicted_on_both_paths() {
        let (g, bundle, inputs) = model();
        let leaf = NodeId(2);
        let mut trace = execute(&g, &inputs, Device::a100_like().config(), None).unwrap();
        trace.values[leaf.0].data_mut()[5] = f32::NAN;
        let case = leaf_case(&g, leaf, &trace, &inputs);
        let engine = BoundEngine::paper_default();
        let report = theoretical_check(&case, &engine, 1.0).unwrap();
        assert_eq!(theoretical_verdict(&report), LeafVerdict::Fraud);
        assert_eq!(report.worst_ratio, f64::INFINITY);
        let committee = sample_committee(Fleet::standard().devices(), 3, 2);
        let outcome = committee_vote(&case, &bundle, &committee, &[false; 3]).unwrap();
        assert_eq!(outcome.votes, vec![false; 3]);
        assert_eq!(outcome.verdict, LeafVerdict::Fraud);
    }

    #[test]
    fn honest_majority_overrides_dishonest_member() {
        let (g, bundle, inputs) = model();
        let leaf = NodeId(2);
        let trace = execute(&g, &inputs, Device::a100_like().config(), None).unwrap();
        let case = leaf_case(&g, leaf, &trace, &inputs);
        let committee = sample_committee(Fleet::standard().devices(), 3, 3);
        // One liar cannot flip an honest-majority acceptance.
        let outcome = committee_vote(&case, &bundle, &committee, &[true, false, false]).unwrap();
        assert_eq!(outcome.verdict, LeafVerdict::Accepted);
        // Two liars can — the honest-majority assumption is load-bearing.
        let outcome2 = committee_vote(&case, &bundle, &committee, &[true, true, false]).unwrap();
        assert_eq!(outcome2.verdict, LeafVerdict::Fraud);
    }

    #[test]
    fn committee_must_be_odd_and_nonempty() {
        let (g, bundle, inputs) = model();
        let trace = execute(&g, &inputs, Device::a100_like().config(), None).unwrap();
        let case = leaf_case(&g, NodeId(2), &trace, &inputs);
        assert!(committee_vote(&case, &bundle, &[], &[]).is_err());
        let even = vec![Device::a100_like(), Device::h100_like()];
        assert!(committee_vote(&case, &bundle, &even, &[false, false]).is_err());
    }

    #[test]
    fn sample_committee_is_seeded_and_odd() {
        let pool = Fleet::standard().devices().to_vec();
        let a = sample_committee(&pool, 3, 7);
        let b = sample_committee(&pool, 3, 7);
        assert_eq!(
            a.iter().map(Device::name).collect::<Vec<_>>(),
            b.iter().map(Device::name).collect::<Vec<_>>()
        );
        assert_eq!(a.len() % 2, 1);
        let c = sample_committee(&pool, 4, 7);
        assert_eq!(c.len() % 2, 1, "even requests are rounded to odd");
    }
}
