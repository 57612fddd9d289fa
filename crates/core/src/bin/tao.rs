//! `tao` — command-line driver for the TAO verification pipeline.
//!
//! ```text
//! tao demo [model]              end-to-end honest + malicious session
//! tao sessions [model] [workers] run a mixed batch concurrently on the scheduler
//! tao analyze [model|--all]  print the static analysis report (no execution)
//! tao calibrate [model]     run the cross-device calibration and print thresholds
//! tao commit [model]        print the Phase 0 Merkle roots
//! tao econ                  print the economic feasibility region
//! tao models                list available model stand-ins
//! ```
//!
//! Models: `bert` (default), `qwen`, `resnet`; `analyze` additionally
//! accepts `transformer` and `diffusion`, or `--all` to lint every
//! bundled model (exiting nonzero on any deny finding).

use tao::analysis::LintConfig;
use tao::{
    analyze_model, default_coordinator, deploy, render_report, Deployment, ProposerBehavior,
    Scheduler, SessionBuilder, SharedCoordinator, MODEL_NAMES,
};
use tao_device::{Device, Fleet};
use tao_graph::{execute, Perturbations};
use tao_merkle::to_hex;
use tao_models::{bert, data, qwen, resnet, BertConfig, QwenConfig, ResNetConfig};
use tao_tensor::Tensor;

fn usage() -> ! {
    eprintln!(
        "usage: tao <command> [model] [workers]\n\
         commands: demo | sessions | analyze | calibrate | commit | econ | models\n\
         models:   bert (default) | qwen | resnet; analyze also: transformer | diffusion | --all\n\
         workers:  scheduler pool size for `sessions` (default: host parallelism)"
    );
    std::process::exit(2)
}

fn build_deployment(model: &str) -> (Deployment, Vec<Tensor<f32>>) {
    match model {
        "bert" => {
            let cfg = BertConfig::small();
            let samples = data::token_dataset(24, cfg.seq, cfg.vocab, 100);
            let d = deploy(bert::build(cfg, 1), Fleet::standard(), &samples, 3.0)
                .expect("calibration succeeds");
            (d, vec![bert::sample_ids(cfg, 42)])
        }
        "qwen" => {
            let cfg = QwenConfig::small();
            let samples = data::token_dataset(24, cfg.seq, cfg.vocab, 200);
            let d = deploy(qwen::build(cfg, 1), Fleet::standard(), &samples, 3.0)
                .expect("calibration succeeds");
            (d, vec![qwen::sample_ids(cfg, 42)])
        }
        "resnet" => {
            let cfg = ResNetConfig::small();
            let samples = data::image_dataset(24, cfg.in_channels, cfg.image, cfg.classes, 300);
            let d = deploy(resnet::build(cfg, 1), Fleet::standard(), &samples, 3.0)
                .expect("calibration succeeds");
            (
                d,
                vec![data::class_image(cfg.in_channels, cfg.image, 3, 42)],
            )
        }
        other => {
            eprintln!("unknown model {other:?}");
            usage()
        }
    }
}

fn mid_node_perturbation(
    deployment: &Deployment,
    inputs: &[Tensor<f32>],
    seed: u64,
) -> Perturbations {
    let nodes = deployment.model.graph.compute_nodes();
    let target = nodes[nodes.len() / 2];
    let trace = execute(
        &deployment.model.graph,
        inputs,
        Device::rtx4090_like().config(),
        None,
    )
    .expect("forward");
    let shape = trace.values[target.0].dims().to_vec();
    let mut p = Perturbations::new();
    p.insert(target, Tensor::<f32>::randn(&shape, seed).mul_scalar(0.05));
    p
}

fn cmd_demo(model: &str) {
    let (deployment, inputs) = build_deployment(model);
    let coordinator = SharedCoordinator::new(default_coordinator().expect("economics feasible"));

    println!("-- honest session --");
    let honest = SessionBuilder::new(&deployment, inputs.clone())
        .run(&coordinator)
        .expect("session runs");
    println!(
        "challenged: {}; status: {:?}",
        honest.challenged, honest.final_status
    );

    println!("\n-- malicious session --");
    let p = mid_node_perturbation(&deployment, &inputs, 7);
    let evil = SessionBuilder::new(&deployment, inputs)
        .behavior(ProposerBehavior::Malicious(p))
        .run(&coordinator)
        .expect("session runs");
    println!(
        "challenged: {}; status: {:?}",
        evil.challenged, evil.final_status
    );
    if let Some(dispute) = &evil.dispute {
        println!(
            "dispute: {} rounds, {} Merkle checks, {:.1} kgas, result {:?}",
            dispute.rounds.len(),
            dispute.merkle_checks,
            dispute.gas.kgas(),
            dispute.result
        );
    }
    if let Some((path, verdict)) = evil.verdict {
        println!("adjudication: {path:?} -> {verdict:?}");
    }
}

fn cmd_sessions(model: &str, workers: Option<usize>) {
    let (deployment, inputs) = build_deployment(model);
    let coordinator = SharedCoordinator::new(default_coordinator().expect("economics feasible"));
    let scheduler = match workers {
        Some(n) => Scheduler::with_threads(n),
        None => Scheduler::new(),
    };
    let jobs = 6;
    println!(
        "running {jobs} sessions concurrently (1 cheat) on a {}-worker scheduler...",
        scheduler.threads()
    );
    let builders: Vec<SessionBuilder> = (0..jobs)
        .map(|i| {
            let b = SessionBuilder::new(&deployment, inputs.clone());
            if i == jobs / 2 {
                b.behavior(ProposerBehavior::Malicious(mid_node_perturbation(
                    &deployment,
                    &inputs,
                    40 + i as u64,
                )))
            } else {
                b
            }
        })
        .collect();
    let start = std::time::Instant::now();
    let reports = scheduler.run(&coordinator, builders).expect("sessions run");
    let secs = start.elapsed().as_secs_f64();
    for r in &reports {
        println!(
            "claim #{}: challenged {}; exceedance {:.3}; status {:?}",
            r.claim_id, r.challenged, r.exceedance, r.final_status
        );
    }
    println!(
        "\n{jobs} sessions in {secs:.2}s; proposer balance {}, challenger balance {}",
        coordinator.balance("proposer"),
        coordinator.balance("challenger"),
    );
    // Seal the batch as one epoch: the canonical settlement+gas log is
    // Merkle-committed, and the root is identical for any worker count.
    let epoch = coordinator.coordinator().seal_epoch();
    println!(
        "epoch {} root: {} ({} gas events)",
        epoch.index,
        tao_merkle::to_hex(&epoch.root),
        epoch.entries.len()
    );
}

fn cmd_analyze(model: &str) {
    if model == "--all" {
        // The CI lint gate: every bundled model must carry zero deny
        // findings under the default configuration.
        let mut denies = 0usize;
        for name in MODEL_NAMES {
            let (_, report) = analyze_model(name, &LintConfig::default()).expect("bundled model");
            let warns = report.lint_findings.len() - report.deny_count();
            println!(
                "{name:<12} flops {:>12}  peak {:>10} B  gas {:>8}  deny {}  warn {}",
                report.total_flops(),
                report.peak_resident_bytes,
                report.gas_quote,
                report.deny_count(),
                warns
            );
            denies += report.deny_count();
        }
        if denies > 0 {
            eprintln!("lint gate FAILED: {denies} deny finding(s)");
            std::process::exit(1);
        }
        println!("lint gate passed: zero deny findings");
        return;
    }
    let (m, report) = analyze_model(model, &LintConfig::default()).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    print!("{}", render_report(&m, &report));
    if !report.is_admissible() {
        std::process::exit(1);
    }
}

fn cmd_calibrate(model: &str) {
    let (deployment, _) = build_deployment(model);
    println!(
        "calibrated {} operators (alpha = {})",
        deployment.thresholds.operators.len(),
        deployment.thresholds.alpha
    );
    println!(
        "{:<6} {:<14} {:>12} {:>12}",
        "node", "op", "tau_abs(p50)", "tau_abs(p99)"
    );
    for op in deployment.thresholds.operators.iter().take(20) {
        let grid = &deployment.thresholds.grid;
        let p50 = grid.iter().position(|&p| p == 50.0).expect("grid");
        let p99 = grid.iter().position(|&p| p == 99.0).expect("grid");
        println!(
            "{:<6} {:<14} {:>12.3e} {:>12.3e}",
            op.node.to_string(),
            op.mnemonic,
            op.thresholds.abs[p50],
            op.thresholds.abs[p99]
        );
    }
    if deployment.thresholds.operators.len() > 20 {
        println!("... ({} more)", deployment.thresholds.operators.len() - 20);
    }
}

fn cmd_commit(model: &str) {
    let (deployment, _) = build_deployment(model);
    println!("model:          {}", deployment.model.name);
    println!("operators:      {}", deployment.model.num_ops());
    println!("parameters:     {}", deployment.model.graph.param_count());
    println!(
        "weight root     r_w = {}",
        to_hex(&deployment.commitment.weight_root)
    );
    println!(
        "graph root      r_g = {}",
        to_hex(&deployment.commitment.graph_root)
    );
    println!(
        "threshold root  r_e = {}",
        to_hex(&deployment.commitment.threshold_root)
    );
}

fn cmd_econ() {
    let econ = tao_protocol::EconParams::default_market();
    match econ.feasible_slash_region() {
        Some((lo, hi)) => {
            println!("detection probability d = {:.3}", econ.detection_prob());
            println!("feasible S_slash region: ({lo:.2}, {hi:.2}]");
            let s = (lo + hi) / 2.0;
            println!("at S_slash = {s:.2}:");
            println!(
                "  u_p(honest) - u_p(cheap cheat) = {:.2}",
                econ.u_proposer_honest(s) - econ.u_proposer_cheap(s)
            );
            println!("  u_ch(guilty)  = {:.2}", econ.u_challenger_guilty(s));
            println!(
                "  u_ch(clean)   = {:.2} (spam deterred)",
                econ.u_challenger_clean()
            );
            println!("  u_cm(guilty)  = {:.2}", econ.u_committee_guilty(s));
        }
        None => println!("feasible region is EMPTY under default parameters"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cmd = args.get(1).map(String::as_str).unwrap_or("demo");
    let model = args.get(2).map(String::as_str).unwrap_or("bert");
    let workers = args.get(3).map(|w| {
        w.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("workers must be a number, got {w:?}");
            usage()
        })
    });
    match cmd {
        "demo" => cmd_demo(model),
        "sessions" => cmd_sessions(model, workers),
        "analyze" => cmd_analyze(model),
        "calibrate" => cmd_calibrate(model),
        "commit" => cmd_commit(model),
        "econ" => cmd_econ(),
        "models" => println!("bert\nqwen\nresnet"),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command {other:?}");
            usage()
        }
    }
}
