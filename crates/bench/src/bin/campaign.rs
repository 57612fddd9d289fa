//! Adversarial campaign at scale: mixed adversary populations driven
//! through the concurrent scheduler, re-validating the paper's security
//! claims under load and A/B-ing the smoothed-tail threshold estimator
//! against the raw max envelope.
//!
//! Run with `cargo run --release -p tao-bench --bin campaign`. Flags:
//!
//! - `--smoke` — small population, two epochs (the fail-fast CI variant);
//! - `--seed <u64>` — master seed (default 42);
//! - `--epochs <n>` — campaign epochs;
//! - `--workers <n>` — scheduler worker threads (default 8, up to 32+);
//! - `--estimator raw|smoothed` — which tail estimator gets committed
//!   (the other becomes the A/B shadow);
//! - `--csv <path>` — write the per-epoch campaign CSV log there.
//!
//! Set `CRITERION_CSV=<path>` to additionally append a figure-style
//! timing row. The security floors (all planted cheats caught, zero
//! false flags, honest operators in the black, adversaries in the red)
//! are asserted on every run, smoke included — this binary failing IS the
//! regression signal.

use std::time::Instant;

use tao_bench::{export_csv, print_table};
use tao_calib::TailEstimator;
use tao_campaign::{Campaign, CampaignConfig};

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = parse_flag(&args, "--seed").unwrap_or(42);
    let mut cfg = if smoke {
        CampaignConfig::smoke(seed)
    } else {
        CampaignConfig::new(seed)
    };
    if let Some(epochs) = parse_flag(&args, "--epochs") {
        cfg.epochs = epochs;
    }
    if let Some(workers) = parse_flag(&args, "--workers") {
        cfg.workers = workers;
    }
    match parse_flag::<String>(&args, "--estimator").as_deref() {
        Some("smoothed") => cfg.estimator = TailEstimator::smoothed_default(),
        Some("raw") | None => cfg.estimator = TailEstimator::RawMax,
        Some(other) => {
            eprintln!("campaign: unknown --estimator {other} (want raw|smoothed)");
            std::process::exit(2);
        }
    }

    let t0 = Instant::now();
    let report = Campaign::new(cfg.clone()).run().expect("campaign run");
    let secs = t0.elapsed().as_secs_f64();
    let claims = report.outcomes.len();

    if let Some(path) = parse_flag::<String>(&args, "--csv") {
        std::fs::write(&path, report.to_csv()).expect("campaign CSV write");
        println!("campaign: epoch log written to {path}");
    }
    export_csv(
        &format!("campaign/workers{}", report.workers),
        secs,
        "elements",
        claims as u64,
    );

    let pop = report.population;
    let nets = report.final_nets;
    let last = report.epochs.last().expect("at least one epoch");
    print_table(
        &format!(
            "Adversarial campaign — seed {}, {} epochs x {} claims, {} workers, committed {} (shadow {})",
            report.seed,
            report.epochs.len(),
            pop.claimants(),
            report.workers,
            report.committed,
            report.shadow,
        ),
        &["metric", "value", "floor"],
        &[
            vec![
                "planted cheats caught".into(),
                format!("{}/{}", report.caught(), report.planted()),
                "all".into(),
            ],
            vec![
                "false flags (honest claims)".into(),
                format!("{}", report.false_flags()),
                "0".into(),
            ],
            vec![
                "admissible PGD flips".into(),
                format!("{}", report.admissible_flips),
                "0".into(),
            ],
            vec![
                "honest coverage raw / smoothed".into(),
                format!("{:.4} / {:.4}", last.cov_raw, last.cov_smoothed),
                "smoothed >= raw".into(),
            ],
            vec![
                "worst honest operator net".into(),
                format!("{:+.2}", report.min_honest_operator_net),
                ">= 0".into(),
            ],
            vec![
                "honest / watchtower net".into(),
                format!("{:+.2} / {:+.2}", nets.honest, nets.watchtower),
                "-".into(),
            ],
            vec![
                "evasion / spam / collusion / griefer net".into(),
                format!(
                    "{:+.2} / {:+.2} / {:+.2} / {:+.2}",
                    nets.evasion, nets.spam, nets.collusion, nets.griefer
                ),
                "all < 0".into(),
            ],
            vec![
                "ledger conservation (micro-credit drift)".into(),
                format!("{}", last.conservation_err_units),
                "== 0".into(),
            ],
            vec![
                "wall clock".into(),
                format!("{secs:.2}s ({:.1} claims/s)", claims as f64 / secs),
                "-".into(),
            ],
        ],
    );

    report.assert_floors();
    println!(
        "\nAll campaign floors hold ({} claims, detection rate {:.2}).",
        claims,
        report.detection_rate()
    );
}
