//! The N-way, Merkle-anchored, threshold-guided dispute game (§5.3).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use tao_calib::ThresholdBundle;
use tao_device::Device;
use tao_graph::{execute_subgraph, partition, Execution, Graph, NodeId};
use tao_merkle::{Digest, MerkleTree, TraceCommitment};
use tao_tensor::Tensor;

use crate::adjudicate::{bit_identical, node_exceedance, ProfileKeys};
use crate::error::ProtocolError;
use crate::gas::{self, GasMeter};
use crate::plan::{DisputePlan, DisputePlans};
use crate::record::{verify_record_anchored, OpenedReveals};
use crate::screen::Screening;
use crate::Result;

/// Dispute-game configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisputeConfig {
    /// Partition width `N` per round.
    pub n_way: usize,
}

impl Default for DisputeConfig {
    fn default() -> Self {
        DisputeConfig { n_way: 2 }
    }
}

/// Slack factor for the live-in pruning gate of the child-selection scan.
///
/// A child whose committed live-in deviates from the challenger's own
/// trace by more than this multiple of the committed thresholds is almost
/// certainly downstream of the real divergence (honest fresh-input tails
/// at small calibration scale sit just above 1; propagated fraud sits
/// orders of magnitude higher), so its re-execution is deferred. The gate
/// is purely a cost optimization: if no gated candidate confirms, every
/// deferred child is re-executed in an ungated second pass.
const LIVE_IN_SLACK: f64 = 16.0;

/// The Phase 0 and claim commitments a dispute is anchored to: the Merkle
/// trees the proposer proves records against, the on-coordinator roots
/// the challenger verifies them with, the trace root bound into the
/// claim's `C0` that every revealed interface digest must open against,
/// and the deployment's [`DisputePlans`], from which both sides read every
/// record's slice and provenance proofs.
///
/// # Soundness precondition
///
/// The challenger verifies each posted op and parameter proof by comparing
/// it with the path of its own tree ([`MerkleTree::matches_path`]) instead
/// of re-serializing the node signature or parameter tensor and hashing
/// the proof's path. That is equivalent to the rehashing oracle
/// ([`crate::verify_record`]) only when both trees are the verifier's own,
/// built from the same `graph` passed to [`run_dispute`] (as `deploy`
/// builds them), and on their committed roots; then a proof opens the
/// root exactly when it matches the tree's path, unless SHA-256 has a
/// collision. [`run_dispute`] checks each tree's root against its
/// committed root once per dispute (and every anchored record check
/// again) and refuses a mismatch with [`ProtocolError::AnchorMismatch`];
/// whether the trees were built from `graph` is the caller's
/// responsibility, and so is that `plans` holds plans of that graph only
/// (as [`DisputePlans`] built over these trees from it do).
#[derive(Debug, Clone, Copy)]
pub struct DisputeAnchors<'a> {
    /// Graph-structure Merkle tree `T_g`.
    pub graph_tree: &'a MerkleTree,
    /// Weight Merkle tree `T_w`.
    pub weight_tree: &'a MerkleTree,
    /// Committed graph root `r_g`.
    pub graph_root: &'a Digest,
    /// Committed weight root `r_w`.
    pub weight_root: &'a Digest,
    /// Trace root `r_t` bound into the claim commitment `C0` at prepare
    /// time. It is per claim while the rest is per deployment, so a
    /// deployment's anchors leave it out and [`Self::with_trace_root`]
    /// attaches it; [`run_dispute`] refuses anchors without one
    /// ([`ProtocolError::Unanchored`]).
    pub trace_root: Option<&'a Digest>,
    /// The deployment's dispute plans, one per partition width, built on
    /// first use from the graph and the two trees above and shared by
    /// every dispute over the deployment.
    pub plans: &'a DisputePlans,
}

impl<'a> DisputeAnchors<'a> {
    /// Anchors the dispute to the trace root the claim's `C0` binds.
    #[must_use]
    pub fn with_trace_root(mut self, root: &'a Digest) -> Self {
        self.trace_root = Some(root);
        self
    }

    /// Checks that each tree has its committed root and that a trace root
    /// is attached, and returns the trace root.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::AnchorMismatch`] naming the first tree
    /// whose root differs, then [`ProtocolError::Unanchored`] without a
    /// trace root.
    pub(crate) fn check(&self) -> Result<&'a Digest> {
        if self.graph_tree.root() != *self.graph_root {
            return Err(ProtocolError::AnchorMismatch { tree: "graph" });
        }
        if self.weight_tree.root() != *self.weight_root {
            return Err(ProtocolError::AnchorMismatch { tree: "weight" });
        }
        self.trace_root.ok_or(ProtocolError::Unanchored)
    }

    /// The plan for width `n_way` over these anchors' trees, built from
    /// `graph` on first use.
    ///
    /// # Errors
    ///
    /// As [`DisputePlan::build`].
    pub fn plan(&self, graph: &Graph, n_way: usize) -> Result<Arc<DisputePlan>> {
        self.plans
            .get(graph, self.graph_tree, self.weight_tree, n_way)
    }
}

/// The proposer's side of a dispute: the committed execution trace and the
/// [`TraceCommitment`] built over it at claim time, from which every
/// record's interface digests and their reveals are read (no activation
/// tensor is rehashed inside the dispute).
#[derive(Debug, Clone, Copy)]
pub struct ProposerView<'a> {
    trace: &'a Execution,
    commitment: Option<&'a TraceCommitment>,
}

impl<'a> ProposerView<'a> {
    /// The proposer's trace, to be given its commitment with
    /// [`Self::with_commitment`]. A proposer that withholds it reveals
    /// nothing, which the dispute attributes to it as a
    /// [`DisputeResult::CommitmentBreach`] at round 0.
    pub fn new(trace: &'a Execution) -> Self {
        ProposerView {
            trace,
            commitment: None,
        }
    }

    /// Attaches the trace commitment built at claim time.
    #[must_use]
    pub fn with_commitment(mut self, commitment: &'a TraceCommitment) -> Self {
        self.commitment = Some(commitment);
        self
    }

    /// The proposer's committed trace.
    pub fn trace(&self) -> &Execution {
        self.trace
    }
}

/// The challenger's side of a dispute: its device and the execution trace
/// it produced when it screened the claim.
///
/// Screening is the challenger's one full forward pass; the dispute clears
/// agreeing children against that trace at zero re-execution cost and
/// runs no forward pass of its own.
#[derive(Debug, Clone, Copy)]
pub struct ChallengerView<'a> {
    device: &'a Device,
    trace: &'a Execution,
}

impl<'a> ChallengerView<'a> {
    /// A challenger reusing a [`Screening`]'s trace.
    ///
    /// The screening must be [`screen_claim`](crate::screen_claim)'s on
    /// `device` for the disputed graph and inputs: the dispute clears
    /// children against its trace, and round 0 takes the values of children
    /// without live-ins from it instead of re-executing them (debug builds
    /// re-execute them too and panic on a difference).
    pub fn from_screening(device: &'a Device, screening: &'a Screening) -> Self {
        ChallengerView {
            device,
            trace: &screening.trace,
        }
    }

    /// The challenger's device.
    pub fn device(&self) -> &Device {
        self.device
    }
}

/// Statistics for one dispute round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// Round index `k`.
    pub round: usize,
    /// Disputed range at the start of the round.
    pub range: (usize, usize),
    /// Number of children posted.
    pub children: usize,
    /// Index of the selected (most offending) child.
    pub chosen: usize,
    /// Proposer-side work: bytes of records built and posted.
    pub partition_bytes: u64,
    /// Challenger-side work: FLOPs of every child examined during
    /// selection (the DCR accounting), whether its values were re-executed
    /// or taken from the parent range's re-execution.
    pub selection_flops: u64,
    /// FLOPs the challenger actually evaluated this round: those of the
    /// examined children re-executed by [`execute_subgraph`]. Never above
    /// `selection_flops`.
    pub reexecuted_flops: u64,
    /// Merkle proof verifications this round.
    pub merkle_checks: u64,
}

/// Terminal state of the localization game.
#[derive(Debug, Clone, PartialEq)]
pub enum DisputeResult {
    /// Disagreement localized to a single operator.
    Leaf(NodeId),
    /// No child exceeded its thresholds: the challenge does not reproduce
    /// and the challenger forfeits.
    NoOffendingChild {
        /// Round at which the search went cold.
        round: usize,
    },
    /// A revealed digest failed to open against the trace root bound into
    /// `C0` (or a mandatory reveal was missing): the proposer's commitment
    /// is withheld, tampered or stale, and because only the proposer could
    /// have produced `C0`, the breach is attributed to it — the proposer
    /// loses without further descent.
    CommitmentBreach {
        /// Round at which the breach surfaced.
        round: usize,
        /// First node whose reveal was rejected.
        node: NodeId,
    },
}

/// Full outcome of Phase 2.
#[derive(Debug, Clone, PartialEq)]
pub struct DisputeOutcome {
    /// Terminal state.
    pub result: DisputeResult,
    /// Per-round statistics.
    pub rounds: Vec<RoundStats>,
    /// Total challenger FLOPs (the paper's DCR numerator).
    pub challenger_flops: u64,
    /// Total Merkle proof verifications.
    pub merkle_checks: u64,
    /// Revealed interface digests verified against the trace root bound
    /// into `C0`.
    pub reveal_checks: u64,
    /// Always 0: the challenger's forward pass is its screening's, never
    /// the dispute's. Kept only because the benchmark still builds and
    /// reads this field; its next change deletes it.
    pub challenger_forward_passes: u64,
    /// Always 0: record digests are read from the proposer's trace
    /// commitment, never rehashed. Kept only because the benchmark still
    /// builds and reads this field; its next change deletes it.
    pub rehashed_leaves: u64,
    /// Coordinator gas consumed by the dispute interaction.
    pub gas: GasMeter,
}

impl DisputeOutcome {
    /// `DCR / forward FLOPs` (the paper's Cost Ratio).
    pub fn cost_ratio(&self, forward_flops: u64) -> f64 {
        self.challenger_flops as f64 / forward_flops.max(1) as f64
    }
}

/// Runs the dispute localization game.
///
/// The proposer's trace supplies the committed per-operator outputs; the
/// challenger re-executes each candidate child *from the proposer's
/// committed live-in values* on its own device and selects the **most
/// offending** child — the one whose live-out error percentiles exceed the
/// committed thresholds by the largest ratio (Eq. 15). Selecting the
/// maximum rather than the first offender keeps the descent pointed at the
/// real divergence when an honest child's fresh-input tail marginally
/// exceeds its max-envelope tau at small calibration scale. Structural
/// operators (absent from the bundle) must reproduce exactly. The game
/// ends at a single operator, when no child offends, or at the first
/// record whose reveals do not open against the anchored trace root.
///
/// The challenger already re-executed the whole model when it screened the
/// claim, and the dispute reuses that trace: children whose proposer
/// live-outs agree with it are cleared at zero re-execution cost, and only
/// suspect children are re-executed from the proposer's committed
/// boundaries. This keeps the DCR (total challenger FLOPs) around one
/// forward pass, matching Table 3.
///
/// A suspect child need not be re-executed either when its live-ins all
/// precede the disputed range's start: it then reads nothing the range's
/// own re-execution did not read, so its values are that re-execution's,
/// bit for bit (see [`execute_subgraph`]). The game keeps the chosen
/// child's values for the next round, and round 0's range, which has no
/// live-ins, takes them from the challenger's own trace. This covers the
/// first child of every range. Such a child is still examined and
/// accounted in [`RoundStats::selection_flops`]; only
/// [`RoundStats::reexecuted_flops`] omits it.
///
/// What does not depend on the claim is not rebuilt per dispute: every
/// record's slice and graph- and weight-tree proofs come from the
/// deployment's [`DisputePlan`] for `cfg.n_way` (built by the first
/// dispute at that width), a reveal identical to one that already opened
/// is not hashed again ([`OpenedReveals`]), and a child whose values are
/// the challenger's own trace reads its live-out exceedances from the
/// screening memo.
///
/// # Errors
///
/// Returns [`ProtocolError::BadWidth`] when `cfg.n_way < 2`,
/// [`ProtocolError::AnchorMismatch`] when an anchor tree does not have its
/// committed root, [`ProtocolError::Unanchored`] when the anchors carry no
/// trace root, [`ProtocolError::PlanMismatch`] when an anchor tree's leaf
/// count does not fit `graph`, and an error if record construction or
/// verification fails or a re-execution hits a kernel error.
pub fn run_dispute(
    graph: &Graph,
    anchors: DisputeAnchors<'_>,
    proposer: ProposerView<'_>,
    inputs: &[Tensor<f32>],
    challenger: ChallengerView<'_>,
    thresholds: &ThresholdBundle,
    cfg: DisputeConfig,
) -> Result<DisputeOutcome> {
    if cfg.n_way < 2 {
        return Err(ProtocolError::BadWidth { n_way: cfg.n_way });
    }
    anchors.check()?;
    let plan = anchors.plan(graph, cfg.n_way)?;
    let proposer_trace = proposer.trace;
    let own_trace = challenger.trace;
    let mut gas = GasMeter::new();
    gas.charge("open_challenge", gas::open_challenge());

    // Cheap screen against the challenger's own trace: exceedance of a
    // committed node value vs the challenger's own (structural nodes are
    // bit-strict). It depends only on the two values and the thresholds,
    // so it is memoized per node for the whole dispute: a node is one
    // child's live-out, the next child's live-in, again in the ungated
    // second pass and again in later rounds, and each profile is a
    // whole-tensor scan. Every profile of the dispute shares one pair of
    // key buffers.
    let mut keys = ProfileKeys::default();
    let mut screen_cache: HashMap<NodeId, f64> = HashMap::new();
    let mut screen_exc = |id: NodeId, keys: &mut ProfileKeys| -> Result<f64> {
        if let Some(&exc) = screen_cache.get(&id) {
            return Ok(exc);
        }
        let exc = node_exceedance(
            thresholds,
            id,
            proposer_trace.value(id)?,
            own_trace.value(id)?,
            keys,
        );
        screen_cache.insert(id, exc);
        Ok(exc)
    };

    // Every reveal that opened against the trace root: a frontier node is
    // revealed again in later rounds, and an identical reveal is not
    // hashed twice.
    let mut opened = OpenedReveals::default();

    let mut rounds = Vec::new();
    let mut total_flops = 0u64;
    let mut total_checks = 0u64;
    let mut total_reveals = 0u64;
    let (mut start, mut end) = (0usize, graph.len());
    let mut round = 0usize;
    // The challenger's values of the disputed range `[start, end)`,
    // re-executed from the proposer's committed live-ins: node `i` at
    // `known[i - known_start]`. Round 0's range has no live-ins, so they
    // are the challenger's own trace.
    let mut known: Cow<'_, [Tensor<f32>]> = Cow::Borrowed(&own_trace.values);
    let mut known_start = 0usize;

    let result = loop {
        if end - start <= 1 {
            gas.charge(
                "leaf_adjudication",
                gas::leaf_adjudication(3, anchors.graph_tree.proof_len(start)),
            );
            break DisputeResult::Leaf(NodeId(start));
        }
        let slices = partition(start, end, cfg.n_way);
        // Proposer: post one record per child, read from its plan.
        let mut records = Vec::with_capacity(slices.len());
        let mut partition_bytes = 0u64;
        for &range in &slices {
            let rec = plan.record(range, proposer.commitment)?;
            partition_bytes += rec.byte_size() as u64;
            records.push(rec);
        }
        gas.charge("partition_post", gas::partition_post(records.len()));
        gas.charge("round_bonds", gas::round_bonds());
        // `chosen` stays `usize::MAX` in a round that ends the game.
        let mut stats = RoundStats {
            round,
            range: (start, end),
            children: records.len(),
            chosen: usize::MAX,
            partition_bytes,
            selection_flops: 0,
            reexecuted_flops: 0,
            merkle_checks: 0,
        };

        // Challenger: verify records, then select the *most offending*
        // candidate child (max confirmed exceedance, Eq. 15) rather than
        // the first offending one. With max-envelope thresholds at small
        // calibration scale an honest child's fresh-input tail can
        // marginally exceed its own tau (exceedance just above 1); picking
        // the maximum keeps the descent pointed at the real divergence,
        // whose exceedance sits orders of magnitude higher.
        let mut breach: Option<NodeId> = None;
        for rec in &records {
            match verify_record_anchored(&anchors, &plan, &mut opened, rec) {
                Ok((checks, reveals)) => {
                    stats.merkle_checks += checks;
                    total_reveals += reveals;
                }
                Err(ProtocolError::RevealMismatch { node, .. }) => {
                    // Attributable: the reveal disagrees with the root the
                    // proposer itself bound into C0. Stop descending — the
                    // records are garbage by construction.
                    breach = Some(node);
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        total_checks += stats.merkle_checks;
        if let Some(node) = breach {
            rounds.push(stats);
            break DisputeResult::CommitmentBreach { round, node };
        }
        let mut examined = vec![false; records.len()];
        // (child index, confirmed exceedance) of every confirmed offender.
        let mut confirmed: Vec<(usize, f64)> = Vec::new();
        // Each confirmed child's re-executed values (`None` when they are
        // in `known`), kept for the next round.
        let mut child_values: Vec<Option<Vec<Tensor<f32>>>> = vec![None; records.len()];
        for pass in 0..2 {
            for (ci, rec) in records.iter().enumerate() {
                if examined[ci] {
                    continue;
                }
                let mut suspect = false;
                for &id in &rec.sub.live_out {
                    if screen_exc(id, &mut keys)? > 1.0 {
                        suspect = true;
                        break;
                    }
                }
                if !suspect {
                    continue;
                }
                if pass == 0 {
                    // Pruning heuristic, zero re-execution cost: the
                    // disagreement *originates* in a child whose committed
                    // live-in still roughly agrees with the challenger's
                    // trace. Children downstream of a large divergence
                    // inherit it in their live-in and are deferred, which
                    // keeps the DCR near one forward pass. The margin is
                    // loose (LIVE_IN_SLACK) because honest fresh-input
                    // tails can marginally exceed tau at small calibration
                    // scale; the ungated second pass below makes the gate a
                    // cost optimization, never a soundness assumption.
                    let mut gated = false;
                    for &id in &rec.sub.live_in {
                        if screen_exc(id, &mut keys)? > LIVE_IN_SLACK {
                            gated = true;
                            break;
                        }
                    }
                    if gated {
                        continue;
                    }
                }
                examined[ci] = true;
                // Confirm with the candidate child re-executed from the
                // proposer's committed live-in values (the agreed inputs of
                // Eq. 15). A child whose live-ins all precede the range's
                // start has those values in `known` already; only the
                // others cost fresh FLOPs. Both are accounted from the
                // proposer trace's ledger (same shapes, same operator set).
                let (s, e) = (rec.sub.start, rec.sub.end);
                let child_flops = proposer_trace.flops[s..e].iter().sum::<u64>();
                stats.selection_flops += child_flops;
                let reexecute = || {
                    execute_subgraph(
                        graph,
                        &rec.sub,
                        &proposer_trace.values,
                        inputs,
                        challenger.device.config(),
                    )
                };
                let reexecuted = if rec.sub.live_in.iter().all(|id| id.0 < start) {
                    None
                } else {
                    stats.reexecuted_flops += child_flops;
                    Some(reexecute()?)
                };
                let local = match &reexecuted {
                    Some(values) => values.as_slice(),
                    None => &known[s - known_start..e - known_start],
                };
                // Inheritance is exact (see `execute_subgraph`): debug
                // builds re-execute the child anyway and compare.
                if cfg!(debug_assertions) && reexecuted.is_none() {
                    let oracle = reexecute()?;
                    assert!(
                        local.len() == oracle.len()
                            && local.iter().zip(&oracle).all(|(a, b)| bit_identical(a, b)),
                        "inherited values of [{s}, {e}) differ from its re-execution"
                    );
                }
                // Values that are the challenger's own trace have their
                // exceedances in the screening memo already.
                let own_values = reexecuted.is_none() && matches!(known, Cow::Borrowed(_));
                let mut child_exceedance = 0.0f64;
                for &id in &rec.sub.live_out {
                    let exc = if own_values {
                        screen_exc(id, &mut keys)?
                    } else {
                        node_exceedance(
                            thresholds,
                            id,
                            proposer_trace.value(id)?,
                            &local[id.0 - s],
                            &mut keys,
                        )
                    };
                    child_exceedance = child_exceedance.max(exc);
                }
                if child_exceedance > 1.0 {
                    confirmed.push((ci, child_exceedance));
                    child_values[ci] = reexecuted;
                }
            }
            if !confirmed.is_empty() {
                // The origin was confirmed among the gated candidates; the
                // deferred (clearly-downstream) children stay unexecuted.
                break;
            }
        }
        // Most-offending-child selection: the largest confirmed exceedance
        // wins; ties (e.g. two structural mismatches, where the later one
        // is propagation) resolve to the earliest child in topological
        // order.
        let chosen: Option<usize> = confirmed
            .iter()
            .fold(None::<(usize, f64)>, |best, &(ci, exc)| match best {
                Some((_, be)) if exc <= be => best,
                _ => Some((ci, exc)),
            })
            .map(|(ci, _)| ci);
        gas.charge("selection_post", gas::selection_post());
        total_flops += stats.selection_flops;
        let Some(ci) = chosen else {
            rounds.push(stats);
            break DisputeResult::NoOffendingChild { round };
        };
        rounds.push(RoundStats {
            chosen: ci,
            ..stats
        });
        (start, end) = slices[ci];
        // The chosen child's values are the next range's; an inherited
        // child's are already in `known`.
        if let Some(values) = child_values[ci].take() {
            known = Cow::Owned(values);
            known_start = start;
        }
        round += 1;
    };

    gas.charge("settlement", gas::settlement());
    Ok(DisputeOutcome {
        result,
        rounds,
        challenger_flops: total_flops,
        merkle_checks: total_checks,
        reveal_checks: total_reveals,
        challenger_forward_passes: 0,
        rehashed_leaves: 0,
        gas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screen::{screen_claim, ClaimCheck};
    use tao_calib::{calibrate, DEFAULT_ALPHA};
    use tao_device::Fleet;
    use tao_graph::{execute, GraphBuilder, OpKind, Perturbations};
    use tao_merkle::{graph_tree as build_gt, weight_tree as build_wt};

    fn chain_model(depth: usize) -> Graph {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let mut cur = x;
        for i in 0..depth {
            let w = b.parameter(
                format!("w{i}"),
                Tensor::<f32>::rand_uniform(&[32, 32], -0.3, 0.3, i as u64),
            );
            let m = b.op(format!("mm{i}"), OpKind::MatMul, &[cur, w]);
            cur = b.op(format!("act{i}"), OpKind::Gelu, &[m]);
        }
        let sm = b.op("softmax", OpKind::Softmax, &[cur]);
        b.finish(vec![sm]).unwrap()
    }

    fn setup(depth: usize) -> (Graph, ThresholdBundle, Vec<Tensor<f32>>) {
        let g = chain_model(depth);
        let samples: Vec<Vec<Tensor<f32>>> = (0..6)
            .map(|i| vec![Tensor::<f32>::rand_uniform(&[4, 32], -1.0, 1.0, 50 + i)])
            .collect();
        let record = calibrate(&g, &samples, &Fleet::standard()).unwrap();
        let bundle = record.into_thresholds(DEFAULT_ALPHA);
        let input = vec![Tensor::<f32>::rand_uniform(&[4, 32], -1.0, 1.0, 77)];
        (g, bundle, input)
    }

    fn dispute_against(
        g: &Graph,
        bundle: &ThresholdBundle,
        inputs: &[Tensor<f32>],
        perturb: Option<&Perturbations>,
        n_way: usize,
    ) -> DisputeOutcome {
        try_dispute_against(g, bundle, inputs, perturb, n_way).unwrap()
    }

    fn try_dispute_against(
        g: &Graph,
        bundle: &ThresholdBundle,
        inputs: &[Tensor<f32>],
        perturb: Option<&Perturbations>,
        n_way: usize,
    ) -> Result<DisputeOutcome> {
        let trace = execute(g, inputs, Device::rtx4090_like().config(), perturb).unwrap();
        let commitment = TraceCommitment::build(&trace.values);
        let root = commitment.root();
        let challenger_dev = Device::h100_like();
        let screening = screen(g, bundle, inputs, &trace, &challenger_dev);
        let gt = build_gt(g);
        let wt = build_wt(g);
        run_dispute(
            g,
            DisputeAnchors {
                graph_tree: &gt,
                weight_tree: &wt,
                graph_root: &gt.root(),
                weight_root: &wt.root(),
                trace_root: Some(&root),
                plans: &DisputePlans::default(),
            },
            ProposerView::new(&trace).with_commitment(&commitment),
            inputs,
            ChallengerView::from_screening(&challenger_dev, &screening),
            bundle,
            DisputeConfig { n_way },
        )
    }

    /// The challenger's screening of `trace`'s claimed output.
    fn screen(
        g: &Graph,
        bundle: &ThresholdBundle,
        inputs: &[Tensor<f32>],
        trace: &Execution,
        device: &Device,
    ) -> Screening {
        let out = g.outputs()[0];
        let claim = ClaimCheck {
            inputs,
            claimed_output: trace.value(out).unwrap(),
        };
        screen_claim(g, out, bundle, claim, device).unwrap()
    }

    /// A planted 0.05 cheat on `act2` of the 4-layer chain.
    fn planted_act2_cheat(g: &Graph, inputs: &[Tensor<f32>]) -> Perturbations {
        let target = g.nodes().iter().find(|n| n.name == "act2").unwrap().id;
        let ref_exec = execute(g, inputs, Device::rtx4090_like().config(), None).unwrap();
        let mut p = Perturbations::new();
        p.insert(target, Tensor::full(ref_exec.values[target.0].dims(), 0.05));
        p
    }

    /// `N = 0` posts no children, so the cheat would go unlocalized.
    #[test]
    fn partition_width_zero_is_a_typed_error() {
        let (g, bundle, inputs) = setup(4);
        let p = planted_act2_cheat(&g, &inputs);
        assert_eq!(
            try_dispute_against(&g, &bundle, &inputs, Some(&p), 0),
            Err(ProtocolError::BadWidth { n_way: 0 })
        );
    }

    /// `N = 1` posts the range itself as its only child, so the descent
    /// would never end.
    #[test]
    fn partition_width_one_is_a_typed_error() {
        let (g, bundle, inputs) = setup(4);
        let p = planted_act2_cheat(&g, &inputs);
        assert_eq!(
            try_dispute_against(&g, &bundle, &inputs, Some(&p), 1),
            Err(ProtocolError::BadWidth { n_way: 1 })
        );
    }

    #[test]
    fn dispute_localizes_injected_perturbation() {
        let (g, bundle, inputs) = setup(4);
        // Perturb a mid-graph GELU output far beyond any tolerance.
        let target = g
            .nodes()
            .iter()
            .find(|n| n.name == "act2")
            .map(|n| n.id)
            .unwrap();
        let ref_exec = execute(&g, &inputs, Device::rtx4090_like().config(), None).unwrap();
        let shape = ref_exec.values[target.0].dims().to_vec();
        let mut p = Perturbations::new();
        p.insert(target, Tensor::full(&shape, 0.05));
        let outcome = dispute_against(&g, &bundle, &inputs, Some(&p), 2);
        assert_eq!(outcome.result, DisputeResult::Leaf(target));
        assert!(!outcome.rounds.is_empty());
        assert!(outcome.merkle_checks > 0);
        assert!(outcome.challenger_flops > 0);
    }

    #[test]
    fn screening_trace_reuse_skips_the_forward_pass() {
        let (g, bundle, inputs) = setup(4);
        let target = g.nodes().iter().find(|n| n.name == "act1").unwrap().id;
        let ref_exec = execute(&g, &inputs, Device::rtx4090_like().config(), None).unwrap();
        let shape = ref_exec.values[target.0].dims().to_vec();
        let mut p = Perturbations::new();
        p.insert(target, Tensor::full(&shape, 0.05));
        let outcome = dispute_against(&g, &bundle, &inputs, Some(&p), 2);
        assert_eq!(outcome.result, DisputeResult::Leaf(target));
        // Every revealed digest opened against the anchored trace root.
        assert!(outcome.reveal_checks > 0, "reveals must be verified");
        // Agreeing children are cleared against the screening trace, so
        // the dispute evaluates less than one forward pass.
        let reexecuted: u64 = outcome.rounds.iter().map(|r| r.reexecuted_flops).sum();
        assert!(
            reexecuted < ref_exec.total_flops(),
            "re-executed {reexecuted} of {}",
            ref_exec.total_flops()
        );
    }

    #[test]
    fn honest_trace_yields_no_offense() {
        let (g, bundle, inputs) = setup(3);
        let outcome = dispute_against(&g, &bundle, &inputs, None, 2);
        assert!(
            matches!(outcome.result, DisputeResult::NoOffendingChild { .. }),
            "honest proposer must not be localized: {:?}",
            outcome.result
        );
    }

    #[test]
    fn rounds_scale_logarithmically_with_n() {
        let (g, bundle, inputs) = setup(6);
        let target = g
            .nodes()
            .iter()
            .find(|n| n.name == "act3")
            .map(|n| n.id)
            .unwrap();
        let ref_exec = execute(&g, &inputs, Device::rtx4090_like().config(), None).unwrap();
        let shape = ref_exec.values[target.0].dims().to_vec();
        let mut p = Perturbations::new();
        p.insert(target, Tensor::full(&shape, 0.05));
        let r2 = dispute_against(&g, &bundle, &inputs, Some(&p), 2)
            .rounds
            .len();
        let r8 = dispute_against(&g, &bundle, &inputs, Some(&p), 8)
            .rounds
            .len();
        assert!(
            r8 < r2,
            "N=8 ({r8} rounds) must need fewer rounds than N=2 ({r2})"
        );
        // Both reach the same leaf.
        assert_eq!(
            dispute_against(&g, &bundle, &inputs, Some(&p), 8).result,
            DisputeResult::Leaf(target)
        );
    }

    #[test]
    fn gas_in_paper_band_for_deep_models() {
        let (g, bundle, inputs) = setup(8);
        let mid = g.compute_nodes()[g.compute_nodes().len() / 2];
        let ref_exec = execute(&g, &inputs, Device::rtx4090_like().config(), None).unwrap();
        let shape = ref_exec.values[mid.0].dims().to_vec();
        let mut p = Perturbations::new();
        p.insert(mid, Tensor::full(&shape, 0.05));
        let outcome = dispute_against(&g, &bundle, &inputs, Some(&p), 2);
        let kgas = outcome.gas.kgas();
        assert!((300.0..3_000.0).contains(&kgas), "kgas {kgas}");
    }

    /// Leaf adjudication verifies three graph-tree proofs for the leaf, so
    /// its charge is priced by that leaf's proof length: pinned on the
    /// 8-layer chain, and never falling as the graph grows.
    #[test]
    fn leaf_adjudication_gas_is_priced_by_the_leafs_proof_length() {
        let mut last = 0u64;
        // From depth 2, so a matmul (not the shift-invariant softmax)
        // consumes the constant perturbation.
        for depth in 2..=8 {
            let (g, bundle, inputs) = setup(depth);
            let target = g.nodes().iter().find(|n| n.name == "act0").unwrap().id;
            let ref_exec = execute(&g, &inputs, Device::rtx4090_like().config(), None).unwrap();
            let mut p = Perturbations::new();
            p.insert(target, Tensor::full(ref_exec.values[target.0].dims(), 0.05));
            let outcome = dispute_against(&g, &bundle, &inputs, Some(&p), 2);
            assert_eq!(outcome.result, DisputeResult::Leaf(target), "depth {depth}");
            let charged: Vec<u64> = outcome
                .gas
                .log
                .iter()
                .filter(|e| e.action == "leaf_adjudication")
                .map(|e| e.gas)
                .collect();
            let proof_len = build_gt(&g).proof_len(target.0);
            assert_eq!(
                charged,
                vec![gas::leaf_adjudication(3, proof_len)],
                "depth {depth}"
            );
            if depth == 8 {
                // 26 nodes: a 5-level tree, and leaf 3 has a sibling on each.
                assert_eq!((g.len(), proof_len), (26, 5));
                assert_eq!(charged[0], 110_436);
            }
            assert!(charged[0] >= last, "depth {depth}: {} < {last}", charged[0]);
            last = charged[0];
        }
    }

    #[test]
    fn cost_ratio_order_of_forward_pass() {
        let (g, bundle, inputs) = setup(5);
        let target = g.nodes().iter().find(|n| n.name == "act2").unwrap().id;
        let ref_exec = execute(&g, &inputs, Device::rtx4090_like().config(), None).unwrap();
        let shape = ref_exec.values[target.0].dims().to_vec();
        let mut p = Perturbations::new();
        p.insert(target, Tensor::full(&shape, 0.05));
        let outcome = dispute_against(&g, &bundle, &inputs, Some(&p), 2);
        let ratio = outcome.cost_ratio(ref_exec.total_flops());
        assert!(
            (0.2..2.0).contains(&ratio),
            "cost ratio {ratio} out of the paper's ~0.39–1.24 regime"
        );
    }
}
