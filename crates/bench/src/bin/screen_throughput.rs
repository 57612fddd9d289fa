//! Screening throughput: full `screen_batch` sessions/sec over a deployed
//! model — the always-on verification path a marketplace pays per claim.
//!
//! Times two configurations over one committed deployment: per-claim
//! serial screening (`screen_claim` in a loop) and batched screening
//! (`screen_batch`, scoped-thread fan-out). A flagged claim costs the same
//! as an unflagged one: the challenger commits to nothing. Batched results
//! are asserted identical to serial, and a conservative floor catches
//! pathological regressions without being sensitive to host speed: batch
//! throughput at least half of serial.
//!
//! Run with `cargo run --release -p tao-bench --bin screen_throughput`.
//! Pass `--smoke` for a seconds-scale CI variant. Set
//! `CRITERION_CSV=<path>` to append figure-ready CSV rows.

use std::time::Instant;

use tao_bench::{bert_workload, export_csv, print_table};
use tao_graph::execute;
use tao_protocol::{screen_batch, screen_claim, ClaimCheck};
use tao_tensor::Tensor;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (claims, reps) = if smoke { (4, 1) } else { (12, 3) };
    let w = bert_workload(if smoke { 4 } else { 8 }, claims);
    let graph = &w.deployment.model.graph;
    let logits = w.deployment.model.logits;
    let proposer = tao_device::Device::rtx4090_like();
    let challenger = tao_device::Device::h100_like();

    // Honest proposer outputs for every claim.
    let outputs: Vec<Tensor<f32>> = w
        .test_inputs
        .iter()
        .map(|input| {
            execute(graph, input, proposer.config(), None)
                .expect("proposer forward")
                .value(logits)
                .expect("logits traced")
                .clone()
        })
        .collect();
    let claim_checks: Vec<ClaimCheck<'_>> = w
        .test_inputs
        .iter()
        .zip(&outputs)
        .map(|(inputs, claimed_output)| ClaimCheck {
            inputs,
            claimed_output,
        })
        .collect();

    // Serial screening baseline.
    let t0 = Instant::now();
    let mut serial = Vec::new();
    for _ in 0..reps {
        serial = claim_checks
            .iter()
            .map(|c| {
                screen_claim(graph, logits, &w.deployment.thresholds, *c, &challenger)
                    .expect("serial screen")
            })
            .collect();
    }
    let serial_secs = t0.elapsed().as_secs_f64() / reps as f64;

    // Batched screening.
    let t0 = Instant::now();
    let mut batched = Vec::new();
    for _ in 0..reps {
        batched = screen_batch(
            graph,
            logits,
            &w.deployment.thresholds,
            &claim_checks,
            &challenger,
        )
        .expect("batch screen");
    }
    let batch_secs = t0.elapsed().as_secs_f64() / reps as f64;

    assert_eq!(serial.len(), batched.len());
    for (i, (s, b)) in serial.iter().zip(&batched).enumerate() {
        assert_eq!(s.flagged, b.flagged, "claim {i}");
        assert_eq!(
            s.exceedance.to_bits(),
            b.exceedance.to_bits(),
            "claim {i}: batched screening must equal serial"
        );
        assert!(!s.flagged, "honest claims must not be flagged");
    }

    let serial_rate = claim_checks.len() as f64 / serial_secs;
    let batch_rate = claim_checks.len() as f64 / batch_secs;
    export_csv(
        "screen/serial",
        serial_secs,
        "elements",
        claim_checks.len() as u64,
    );
    export_csv(
        "screen/batch",
        batch_secs,
        "elements",
        claim_checks.len() as u64,
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    print_table(
        &format!(
            "Screening throughput — BERT-small deployment, {} claims x {reps} reps, {cores} cores",
            claim_checks.len()
        ),
        &["path", "sessions/sec", "vs serial"],
        &[
            vec![
                "screen_claim serial".into(),
                format!("{serial_rate:.2}"),
                "1.00x".into(),
            ],
            vec![
                "screen_batch".into(),
                format!("{batch_rate:.2}"),
                format!("{:.2}x", batch_rate / serial_rate),
            ],
        ],
    );
    println!("\nBatched screenings bit-identical to serial: OK.");
    if smoke {
        println!("(smoke mode: throughput floor not asserted)");
    } else {
        assert!(
            batch_rate >= 0.5 * serial_rate,
            "screen_batch throughput {batch_rate:.2}/s fell below half of serial {serial_rate:.2}/s"
        );
    }
}
