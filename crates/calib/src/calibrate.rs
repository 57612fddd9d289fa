//! Cross-device calibration sweep (§3.2, Eq. 1–7).

use std::collections::HashMap;

use tao_device::Fleet;
use tao_graph::{execute, Execution, Graph, NodeId, Relayout};
use tao_tensor::kernel::{host_threads, MAX_PAR_THREADS};
use tao_tensor::Tensor;

use crate::error::CalibError;
use crate::percentile::grid_profile_keys;
use crate::profile::{
    abs_error_sum, error_keys_into, OperatorThreshold, PercentilePair, ThresholdBundle, DEFAULT_EPS,
};
use crate::Result;

/// Raw calibration output: per-operator envelopes, per-sample sequences
/// (for the stability diagnostics), and mean-error summaries.
#[derive(Debug, Clone)]
pub struct CalibrationRecord {
    /// Compute-node ids in canonical order.
    pub nodes: Vec<NodeId>,
    /// Operator mnemonics, parallel to `nodes`.
    pub mnemonics: Vec<String>,
    /// Max-envelope percentile profiles across devices and samples
    /// (Eq. 5–6), parallel to `nodes`.
    pub envelopes: Vec<PercentilePair>,
    /// Per-sample profiles (envelope across device pairs within each
    /// sample), keyed by node: the sequences Appendix B's diagnostics run
    /// over.
    pub sequences: HashMap<NodeId, Vec<PercentilePair>>,
    /// Mean element-wise absolute cross-device error per node.
    pub mean_abs: HashMap<NodeId, f64>,
}

impl CalibrationRecord {
    /// True when `other` has the same nodes and mnemonics and, bit for
    /// bit, the same envelopes, sequences and mean errors.
    pub fn bit_eq(&self, other: &CalibrationRecord) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let pairs_eq = |a: &[PercentilePair], b: &[PercentilePair]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| bits(&x.abs) == bits(&y.abs) && bits(&x.rel) == bits(&y.rel))
        };
        self.nodes == other.nodes
            && self.mnemonics == other.mnemonics
            && pairs_eq(&self.envelopes, &other.envelopes)
            && self.sequences.len() == other.sequences.len()
            && self.sequences.iter().all(|(node, seq)| {
                other
                    .sequences
                    .get(node)
                    .is_some_and(|theirs| pairs_eq(seq, theirs))
            })
            && self.mean_abs.len() == other.mean_abs.len()
            && self.mean_abs.iter().all(|(node, mean)| {
                other
                    .mean_abs
                    .get(node)
                    .is_some_and(|theirs| theirs.to_bits() == mean.to_bits())
            })
    }

    /// Builds the committed threshold bundle with safety factor `alpha`
    /// from the raw max envelope (Eq. 5–7).
    pub fn into_thresholds(self, alpha: f64) -> ThresholdBundle {
        self.into_thresholds_with(alpha, crate::estimator::TailEstimator::RawMax)
    }

    /// Builds the committed threshold bundle with safety factor `alpha`
    /// using the given tail estimator. [`TailEstimator::RawMax`] reproduces
    /// [`CalibrationRecord::into_thresholds`] exactly; the smoothed-tail
    /// variant recomputes each envelope from the per-sample sequences and
    /// dominates the raw envelope pointwise.
    ///
    /// [`TailEstimator::RawMax`]: crate::estimator::TailEstimator::RawMax
    pub fn into_thresholds_with(
        self,
        alpha: f64,
        estimator: crate::estimator::TailEstimator,
    ) -> ThresholdBundle {
        let operators = self
            .nodes
            .iter()
            .zip(&self.mnemonics)
            .zip(&self.envelopes)
            .map(|((&node, mnemonic), raw)| {
                let mut env = match estimator {
                    crate::estimator::TailEstimator::RawMax => raw.clone(),
                    crate::estimator::TailEstimator::SmoothedTail { k } => {
                        crate::estimator::smoothed_envelope(
                            self.sequences.get(&node).map_or(&[][..], Vec::as_slice),
                            k,
                        )
                    }
                };
                // Float safety net: the smoothed estimate dominates the max
                // envelope by construction; make that exact.
                env.envelope(raw);
                OperatorThreshold {
                    node,
                    mnemonic: mnemonic.clone(),
                    thresholds: env.inflate(alpha),
                    mean_abs_error: self.mean_abs.get(&node).copied().unwrap_or(0.0),
                }
            })
            .collect();
        ThresholdBundle {
            grid: crate::percentile::PERCENTILE_GRID.to_vec(),
            alpha,
            operators,
        }
    }
}

/// Runs the offline cross-device calibration: every sample is executed on
/// every fleet device, and per-operator error percentile profiles are
/// collected over every unordered device pair (Eq. 1–6). Each pair
/// `(j, k)` with `j` before `k` in fleet order is visited once, and its
/// relative errors are taken relative to device `j`'s output.
///
/// Each distinct error multiset is profiled once. A relayout node
/// ([`OpKind::relayout`]) whose input is a traced node has its input's
/// errors in every device pair, so it takes its input's profile; an
/// in-order relayout takes its input's error sum too, and a permuting one
/// adds its own errors up in its own element order, as
/// [`calibrate_reference`] does. The record is bit-identical to that
/// oracle's.
///
/// Samples are swept in parallel (scoped threads), each worker owning a
/// contiguous chunk of samples. Workers return their results through their
/// join handles and the merge runs after the scope: envelopes are
/// max-folds (order-free), and each sample's error sum is added in sample
/// order, so the record is the same for any thread count.
///
/// [`OpKind::relayout`]: tao_graph::OpKind::relayout
///
/// # Errors
///
/// Returns an error for an empty fleet/sample set or if execution fails.
pub fn calibrate(
    graph: &Graph,
    samples: &[Vec<Tensor<f32>>],
    fleet: &Fleet,
) -> Result<CalibrationRecord> {
    calibrate_with_threads(graph, samples, fleet, default_threads())
}

/// [`calibrate`] on at most `threads` workers.
pub(crate) fn calibrate_with_threads(
    graph: &Graph,
    samples: &[Vec<Tensor<f32>>],
    fleet: &Fleet,
    threads: usize,
) -> Result<CalibrationRecord> {
    let nodes = graph.traced_nodes();
    let sources = relayout_sources(graph, &nodes);
    sweep(graph, samples, fleet, &nodes, threads, |traces| {
        sample_errors(traces, &nodes, &sources)
    })
}

/// The seed calibration, which profiles every node in every device pair:
/// the oracle [`calibrate`] must match bit for bit.
///
/// # Errors
///
/// As [`calibrate`].
pub fn calibrate_reference(
    graph: &Graph,
    samples: &[Vec<Tensor<f32>>],
    fleet: &Fleet,
) -> Result<CalibrationRecord> {
    let nodes = graph.traced_nodes();
    sweep(graph, samples, fleet, &nodes, default_threads(), |traces| {
        sample_errors_reference(traces, &nodes)
    })
}

fn default_threads() -> usize {
    host_threads().min(MAX_PAR_THREADS)
}

/// The sweep both calibrations share: executes every sample on every
/// device, hands each sample's traces to `profile`, and merges the
/// per-sample results into the record.
fn sweep(
    graph: &Graph,
    samples: &[Vec<Tensor<f32>>],
    fleet: &Fleet,
    compute_nodes: &[NodeId],
    threads: usize,
    profile: impl Fn(&[Execution]) -> Result<SampleErrors> + Sync,
) -> Result<CalibrationRecord> {
    if fleet.len() < 2 {
        return Err(CalibError::NotEnoughDevices(fleet.len()));
    }
    if samples.is_empty() {
        return Err(CalibError::NoSamples);
    }
    let mnemonics: Vec<String> = compute_nodes
        .iter()
        .map(|&id| graph.node(id).map(|n| n.kind.mnemonic().to_string()))
        .collect::<core::result::Result<_, _>>()
        .map_err(|e| CalibError::Graph(e.to_string()))?;

    let chunk = samples.len().div_ceil(threads);
    let profile = &profile;
    let run_sample = |sample: &[Tensor<f32>]| {
        let traces = fleet
            .devices()
            .iter()
            .map(|dev| execute(graph, sample, dev.config(), None))
            .collect::<core::result::Result<Vec<_>, _>>()
            .map_err(|e| CalibError::Graph(e.to_string()))?;
        profile(&traces)
    };
    // Joining every handle inside the scope keeps a worker panic from
    // propagating; it surfaces as `CalibError::Worker` below.
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .chunks(chunk)
            .map(|sample_chunk| {
                let run_sample = &run_sample;
                scope.spawn(move || {
                    sample_chunk
                        .iter()
                        .map(|sample| run_sample(sample))
                        .collect::<Result<Vec<_>>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut per_sample: Vec<SampleErrors> = Vec::with_capacity(samples.len());
    for worker in joined {
        per_sample.extend(worker.map_err(|_| CalibError::Worker)??);
    }

    let mut envelopes = vec![PercentilePair::zero(); compute_nodes.len()];
    let mut sums = vec![(0.0f64, 0u64); compute_nodes.len()];
    for sample in &per_sample {
        for (ci, (profile, (sum, count))) in sample.iter().enumerate() {
            envelopes[ci].envelope(profile);
            sums[ci].0 += sum;
            sums[ci].1 += count;
        }
    }
    let sequences = compute_nodes
        .iter()
        .enumerate()
        .map(|(ci, &node)| (node, per_sample.iter().map(|s| s[ci].0.clone()).collect()))
        .collect();
    let mean_abs = compute_nodes
        .iter()
        .zip(&sums)
        .map(|(&node, &(sum, count))| (node, if count == 0 { 0.0 } else { sum / count as f64 }))
        .collect();
    Ok(CalibrationRecord {
        nodes: compute_nodes.to_vec(),
        mnemonics,
        envelopes,
        sequences,
        mean_abs,
    })
}

/// One sample's result per compute node: its profile envelope across the
/// unordered device pairs, and the `(sum, count)` of its absolute errors.
type SampleErrors = Vec<(PercentilePair, (f64, u64))>;

/// Per compute node, the relayout it is and the position in
/// `compute_nodes` of the traced input whose errors it shares, or `None`
/// for a node profiled on its own (every other op, and a relayout of an
/// input or a parameter, which has no trace to share). Inputs precede
/// their consumers, so a source always sits earlier than its node.
fn relayout_sources(graph: &Graph, compute_nodes: &[NodeId]) -> Vec<Option<(Relayout, usize)>> {
    let mut position = vec![None; graph.len()];
    for (ci, &id) in compute_nodes.iter().enumerate() {
        position[id.0] = Some(ci);
    }
    compute_nodes
        .iter()
        .map(|&id| {
            let node = &graph.nodes()[id.0];
            match node.kind.relayout() {
                Relayout::Other => None,
                relayout => Some((relayout, position[node.inputs.first()?.0]?)),
            }
        })
        .collect()
}

fn shape_mismatch(node: NodeId, a: &Tensor<f32>, b: &Tensor<f32>) -> CalibError {
    CalibError::Graph(format!(
        "node {node}: devices disagree on its shape ({:?} vs {:?})",
        a.dims(),
        b.dims()
    ))
}

/// Folds one sample's per-node error profiles over the device pairs,
/// profiling each distinct error multiset once (see [`calibrate`]). One
/// pair of key buffers serves every device pair and node.
fn sample_errors(
    traces: &[Execution],
    compute_nodes: &[NodeId],
    sources: &[Option<(Relayout, usize)>],
) -> Result<SampleErrors> {
    let mut out = vec![(PercentilePair::zero(), (0.0, 0)); compute_nodes.len()];
    let (mut abs, mut rel) = (Vec::new(), Vec::new());
    for j in 0..traces.len() {
        for k in j + 1..traces.len() {
            for ((slot, &node), source) in out.iter_mut().zip(compute_nodes).zip(sources) {
                let a = &traces[j].values[node.0];
                let b = &traces[k].values[node.0];
                let sum = match source {
                    Some((Relayout::InOrder, _)) => continue,
                    Some(_) => abs_error_sum(a, b),
                    None => error_keys_into(a, b, DEFAULT_EPS, &mut abs, &mut rel).inspect(|_| {
                        slot.0.envelope(&PercentilePair {
                            abs: grid_profile_keys(&mut abs),
                            rel: grid_profile_keys(&mut rel),
                        })
                    }),
                }
                .ok_or_else(|| shape_mismatch(node, a, b))?;
                slot.1 .0 += sum;
                slot.1 .1 += a.len() as u64;
            }
        }
    }
    // Every device pair gave a relayout its source's profile, so the
    // envelopes over the pairs are equal too; node order resolves chains.
    for ci in 0..out.len() {
        match sources[ci] {
            Some((Relayout::InOrder, src)) => out[ci] = out[src].clone(),
            Some((_, src)) => out[ci].0 = out[src].0.clone(),
            None => {}
        }
    }
    Ok(out)
}

/// The seed body of [`sample_errors`]: every node profiled in every
/// device pair.
fn sample_errors_reference(traces: &[Execution], compute_nodes: &[NodeId]) -> Result<SampleErrors> {
    let mut out = vec![(PercentilePair::zero(), (0.0, 0)); compute_nodes.len()];
    let (mut abs, mut rel) = (Vec::new(), Vec::new());
    for j in 0..traces.len() {
        for k in j + 1..traces.len() {
            for (slot, &node) in out.iter_mut().zip(compute_nodes) {
                let a = &traces[j].values[node.0];
                let b = &traces[k].values[node.0];
                let sum = error_keys_into(a, b, DEFAULT_EPS, &mut abs, &mut rel)
                    .ok_or_else(|| shape_mismatch(node, a, b))?;
                slot.0.envelope(&PercentilePair {
                    abs: grid_profile_keys(&mut abs),
                    rel: grid_profile_keys(&mut rel),
                });
                slot.1 .0 += sum;
                slot.1 .1 += a.len() as u64;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::error_profile;
    use crate::profile::DEFAULT_ALPHA;
    use tao_graph::{GraphBuilder, OpKind};

    fn small_model() -> Graph {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[96, 32], -1.0, 1.0, 1));
        let m = b.op("m", OpKind::MatMul, &[x, w]);
        let s = b.op("s", OpKind::Softmax, &[m]);
        b.finish(vec![s]).unwrap()
    }

    fn dataset(n: usize) -> Vec<Vec<Tensor<f32>>> {
        (0..n)
            .map(|i| {
                vec![Tensor::<f32>::rand_uniform(
                    &[4, 96],
                    -2.0,
                    2.0,
                    100 + i as u64,
                )]
            })
            .collect()
    }

    #[test]
    fn calibration_produces_nonzero_thresholds() {
        let g = small_model();
        let record = calibrate(&g, &dataset(6), &Fleet::standard()).unwrap();
        assert_eq!(record.nodes.len(), 2);
        // The matmul has a real reduction: cross-device errors must appear.
        let matmul_env = &record.envelopes[0];
        assert!(
            matmul_env.abs.iter().any(|&v| v > 0.0),
            "matmul envelope all zero: {:?}",
            matmul_env.abs
        );
        let bundle = record.into_thresholds(DEFAULT_ALPHA);
        assert_eq!(bundle.alpha, 3.0);
        assert_eq!(bundle.operators.len(), 2);
    }

    #[test]
    fn thresholds_cover_fresh_honest_executions() {
        // False-positive check at calibration scale: an unseen honest input
        // on any fleet device stays within the α-inflated thresholds.
        let g = small_model();
        let fleet = Fleet::standard();
        let record = calibrate(&g, &dataset(12), &fleet).unwrap();
        let bundle = record.into_thresholds(DEFAULT_ALPHA);
        let fresh = vec![Tensor::<f32>::rand_uniform(&[4, 96], -2.0, 2.0, 999)];
        let a = execute(&g, &fresh, fleet.devices()[0].config(), None).unwrap();
        let b = execute(&g, &fresh, fleet.devices()[3].config(), None).unwrap();
        for &node in &bundle.operators.iter().map(|o| o.node).collect::<Vec<_>>() {
            let prof = error_profile(&a.values[node.0], &b.values[node.0], DEFAULT_EPS);
            let exc = bundle.exceedance(node, &prof).unwrap();
            assert!(exc <= 1.0, "node {node}: exceedance {exc}");
        }
    }

    #[test]
    fn sequences_have_one_entry_per_sample() {
        let g = small_model();
        let record = calibrate(&g, &dataset(5), &Fleet::standard()).unwrap();
        for seq in record.sequences.values() {
            assert_eq!(seq.len(), 5);
        }
    }

    #[test]
    fn smoothed_estimator_dominates_raw_max() {
        use crate::estimator::TailEstimator;
        let g = small_model();
        let record = calibrate(&g, &dataset(8), &Fleet::standard()).unwrap();
        let raw = record
            .clone()
            .into_thresholds_with(DEFAULT_ALPHA, TailEstimator::RawMax);
        let exact = record.clone().into_thresholds(DEFAULT_ALPHA);
        assert_eq!(raw, exact, "RawMax estimator must match into_thresholds");
        let smoothed =
            record.into_thresholds_with(DEFAULT_ALPHA, TailEstimator::smoothed_default());
        for (r, s) in raw.operators.iter().zip(&smoothed.operators) {
            assert_eq!(r.node, s.node);
            for (a, b) in r.thresholds.abs.iter().zip(&s.thresholds.abs) {
                assert!(b >= a, "smoothed abs threshold {b} below raw {a}");
            }
            for (a, b) in r.thresholds.rel.iter().zip(&s.thresholds.rel) {
                assert!(b >= a, "smoothed rel threshold {b} below raw {a}");
            }
        }
        // The matmul tail must gain real slack, not just tie the max.
        let (r0, s0) = (&raw.operators[0], &smoothed.operators[0]);
        assert!(
            s0.thresholds.abs.iter().sum::<f64>() > r0.thresholds.abs.iter().sum::<f64>(),
            "smoothed-tail estimator added no slack over the raw envelope"
        );
    }

    #[test]
    fn mean_abs_equals_a_serial_sample_order_reference() {
        // Whatever the host's thread count, the mean must be the one a
        // single thread gets folding samples (and device pairs) in order.
        let g = small_model();
        let fleet = Fleet::standard();
        let samples = dataset(7);
        let record = calibrate(&g, &samples, &fleet).unwrap();
        let mut want: HashMap<NodeId, (f64, u64)> = HashMap::new();
        for sample in &samples {
            let traces: Vec<_> = fleet
                .devices()
                .iter()
                .map(|d| execute(&g, sample, d.config(), None).unwrap())
                .collect();
            for &node in &record.nodes {
                let mut sum = 0.0;
                let mut count = 0;
                for j in 0..traces.len() {
                    for k in j + 1..traces.len() {
                        let (abs, _) = crate::profile::elementwise_errors(
                            &traces[j].values[node.0],
                            &traces[k].values[node.0],
                            DEFAULT_EPS,
                        );
                        sum += abs.iter().sum::<f64>();
                        count += abs.len() as u64;
                    }
                }
                let acc = want.entry(node).or_insert((0.0, 0));
                acc.0 += sum;
                acc.1 += count;
            }
        }
        for node in &record.nodes {
            let (sum, count) = want[node];
            assert_eq!(
                record.mean_abs[node].to_bits(),
                (sum / count as f64).to_bits(),
                "node {node}"
            );
        }
    }

    #[test]
    fn record_is_the_same_at_every_worker_count() {
        // A relayout chain over the matmul, so reused profiles and sums
        // are merged across workers too.
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::rand_uniform(&[96, 32], -1.0, 1.0, 1));
        let m = b.op("m", OpKind::MatMul, &[x, w]);
        let t = b.op("t", OpKind::Transpose(0, 1), &[m]);
        let r = b.op("r", OpKind::Reshape(vec![8, 16]), &[t]);
        let s = b.op("s", OpKind::Softmax, &[r]);
        let g = b.finish(vec![s]).unwrap();
        let (samples, fleet) = (dataset(8), Fleet::standard());
        let want = calibrate_reference(&g, &samples, &fleet).unwrap();
        for threads in [1, 2, 3, 8] {
            let got = calibrate_with_threads(&g, &samples, &fleet, threads).unwrap();
            assert!(got.bit_eq(&want), "{threads} workers");
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let g = small_model();
        assert!(matches!(
            calibrate(
                &g,
                &dataset(2),
                &Fleet::new(vec![tao_device::Device::reference()])
            ),
            Err(CalibError::NotEnoughDevices(1))
        ));
        assert!(matches!(
            calibrate(&g, &[], &Fleet::standard()),
            Err(CalibError::NoSamples)
        ));
    }

    #[test]
    fn mean_abs_is_positive_for_reductions() {
        let g = small_model();
        let record = calibrate(&g, &dataset(4), &Fleet::standard()).unwrap();
        let matmul = record.nodes[0];
        assert!(record.mean_abs[&matmul] > 0.0);
        assert!(record.mean_abs[&matmul] < 1e-3);
    }
}
