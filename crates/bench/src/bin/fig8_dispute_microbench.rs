//! Fig. 8 reproduction: dispute-game microbenchmarks on the BERT-style
//! model — average rounds, dispute time, and Merkle checks as the
//! partition width N varies, plus per-round substep statistics across
//! eight perturbed operators.
//!
//! Each cell plays the same eight disputes [`REPS`] times after one
//! warm-up dispute and reports the median repetition's mean times; rounds
//! and Merkle checks are deterministic and identical in every repetition.
//!
//! Run with `cargo run --release -p tao-bench --bin fig8_dispute_microbench`.

use tao_bench::disputes::{run_perturbed_dispute, spread_targets};
use tao_bench::{bert_workload, print_table};
use tao_calib::median;
use tao_protocol::DisputeResult;

/// Repetitions of each cell's eight disputes.
const REPS: usize = 5;

fn main() {
    let w = bert_workload(6, 1);
    let input = &w.test_inputs[0];
    let targets = spread_targets(&w, 8);
    let n_values = [2usize, 4, 6, 8, 12, 16];

    // Warm-up: the first dispute pays one-time costs (page faults, lazily
    // initialized tables) that would otherwise land in the first cell.
    run_perturbed_dispute(&w, input, targets[0], 0.05, n_values[0]);

    let mut rows = Vec::new();
    let mut per_round_n4: Vec<(u64, u64)> = Vec::new(); // (partition bytes, selection flops) by round.
    for &n in &n_values {
        let mut counts = None;
        let mut dispute_ms = Vec::with_capacity(REPS);
        let mut screen_ms = Vec::with_capacity(REPS);
        for rep in 0..REPS {
            let mut rounds = 0usize;
            let mut secs = 0.0;
            let mut screen_secs = 0.0;
            let mut checks = 0u64;
            let mut runs = 0usize;
            for &t in &targets {
                let d = run_perturbed_dispute(&w, input, t, 0.05, n);
                if !matches!(d.outcome.result, DisputeResult::Leaf(_)) {
                    continue;
                }
                rounds += d.outcome.rounds.len();
                secs += d.seconds;
                screen_secs += d.screen_seconds;
                checks += d.outcome.merkle_checks;
                runs += 1;
                if n == 4 && rep == 0 {
                    for r in &d.outcome.rounds {
                        if per_round_n4.len() <= r.round {
                            per_round_n4.resize(r.round + 1, (0, 0));
                        }
                        per_round_n4[r.round].0 += r.partition_bytes;
                        per_round_n4[r.round].1 += r.selection_flops;
                    }
                }
            }
            let cell = (rounds, checks, runs);
            assert!(
                *counts.get_or_insert(cell) == cell,
                "N={n}: repetition {rep} played different disputes"
            );
            let runs = runs.max(1) as f64;
            dispute_ms.push(1e3 * secs / runs);
            screen_ms.push(1e3 * screen_secs / runs);
        }
        let (rounds, checks, runs) = counts.expect("REPS > 0");
        let runs = runs.max(1) as f64;
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", rounds as f64 / runs),
            format!("{:.1}ms", median(&dispute_ms)),
            format!("{:.1}ms", median(&screen_ms)),
            format!("{:.0}", checks as f64 / runs),
        ]);
    }
    print_table(
        &format!(
            "Fig. 8 — dispute microbenchmarks vs partition width N (BERT-style, median of {REPS} repetitions)"
        ),
        &[
            "N",
            "avg rounds",
            "avg dispute time",
            "avg screen time",
            "avg Merkle checks",
        ],
        &rows,
    );

    let round_rows: Vec<Vec<String>> = per_round_n4
        .iter()
        .enumerate()
        .map(|(i, (bytes, flops))| {
            vec![
                i.to_string(),
                format!("{:.1}KB", *bytes as f64 / 8.0 / 1024.0),
                format!("{:.2}MFLOP", *flops as f64 / 8.0 / 1e6),
            ]
        })
        .collect();
    print_table(
        "Fig. 8 (right) — per-round substep work at N=4 (mean over 8 perturbed ops)",
        &["round", "proposer partition", "challenger selection"],
        &round_rows,
    );
    println!(
        "\nExpected shape: rounds fall like O(log_N |V|) (~halving from N=2 to\n\
         N>=12); time drops sharply to N~6-8 then plateaus; Merkle checks shrink\n\
         monotonically; both substep costs decay with the round index because the\n\
         first round covers the largest subgraph. Screen time is the challenger's\n\
         one forward pass, paid before the game and reused inside it (the dispute\n\
         itself recomputes zero full passes)."
    );
}
