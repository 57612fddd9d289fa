//! Inference-marketplace simulation: a stream of jobs served by a mix of
//! honest and cheating proposers, with voluntary challengers enforcing the
//! §5.5 economics. The whole batch runs *concurrently* on the session
//! scheduler over one shared deployment and coordinator — claim ids and
//! settlement outcomes are identical to a serial run.
//!
//! Run with `cargo run --release -p tao-examples --example marketplace_sim`;
//! pass a worker count as the first argument to size the scheduler pool
//! (default: host parallelism).

use rand::Rng;
use rand::SeedableRng;
use tao::{deploy, ProposerBehavior, Scheduler, SessionBuilder, SharedCoordinator};
use tao_device::{Device, Fleet};
use tao_graph::{execute, Perturbations};
use tao_models::{data, resnet, ResNetConfig};
use tao_protocol::{Coordinator, EconParams};
use tao_tensor::Tensor;

fn main() {
    println!("TAO marketplace simulation\n");
    let cfg = ResNetConfig::small();
    let model = resnet::build(cfg, 2);
    // 24 calibration samples and alpha = 3. Max-envelope thresholds are
    // max-statistics, so at this scale an honest operator's fresh-input
    // tail can marginally exceed its own tau (exceedance ~1.5); the
    // dispute game's most-offending-child selection keeps the descent
    // pointed at the real cheat anyway (its exceedance sits orders of
    // magnitude higher), which is what let this sim drop the PR 2
    // workaround of 48 samples + alpha = 5. The honest-coverage sweep
    // lives in tests/tests/coverage.rs.
    let samples = data::image_dataset(24, cfg.in_channels, cfg.image, cfg.classes, 600);
    let deployment = deploy(model, Fleet::standard(), &samples, 3.0).expect("deployment");

    let econ = EconParams::default_market();
    let (lo, hi) = econ.feasible_slash_region().expect("nonempty region");
    let slash = (lo + hi) / 2.0;
    println!("economics: feasible S_slash region ({lo:.1}, {hi:.1}], using {slash:.1}");
    let coordinator = Coordinator::new(econ, slash).expect("feasible");
    // Concurrent sessions escrow all their deposits at once, so accounts
    // are funded for the whole batch up front.
    coordinator.fund("proposer", 50_000);
    coordinator.fund("challenger", 5_000);
    let coordinator = SharedCoordinator::new(coordinator);

    // Draw the job stream first (same RNG sequence as the old serial
    // loop), then hand the whole batch to the scheduler.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
    let jobs = 12;
    let mut cheats = Vec::new();
    let mut builders = Vec::new();
    for job in 0..jobs {
        let inputs = vec![data::class_image(
            cfg.in_channels,
            cfg.image,
            job % cfg.classes,
            7_000 + job as u64,
        )];
        // 1-in-3 jobs are served by a cheat that perturbs a random op.
        let cheat = rng.gen_ratio(1, 3);
        let behavior = if cheat {
            let nodes = deployment.model.graph.compute_nodes();
            let victim = nodes[rng.gen_range(0..nodes.len())];
            let honest = execute(
                &deployment.model.graph,
                &inputs,
                Device::rtx4090_like().config(),
                None,
            )
            .expect("forward");
            let shape = honest.values[victim.0].dims().to_vec();
            // Non-uniform cheat: a uniform constant upstream of a softmax
            // would be absorbed by shift invariance and change nothing.
            let delta = Tensor::<f32>::randn(&shape, 8_000 + job as u64).mul_scalar(0.05);
            let mut p = Perturbations::new();
            p.insert(victim, delta);
            ProposerBehavior::Malicious(p)
        } else {
            ProposerBehavior::Honest
        };
        cheats.push(cheat);
        builders.push(SessionBuilder::new(&deployment, inputs).behavior(behavior));
    }

    let scheduler = match std::env::args().nth(1) {
        Some(w) => Scheduler::with_threads(w.parse().expect("worker count")),
        None => Scheduler::new(),
    };
    println!("scheduler pool: {} workers", scheduler.threads());
    let start = std::time::Instant::now();
    let reports = scheduler.run(&coordinator, builders).expect("sessions run");
    let secs = start.elapsed().as_secs_f64();

    let mut caught = 0;
    let mut finalized = 0;
    let cheated = cheats.iter().filter(|&&c| c).count();
    for (job, (report, &cheat)) in reports.iter().zip(&cheats).enumerate() {
        assert_eq!(report.claim_id, job as u64, "deterministic claim ids");
        let outcome = if report.proposer_prevailed() {
            finalized += 1;
            "finalized"
        } else {
            caught += 1;
            "SLASHED"
        };
        println!(
            "job {job:2}: {}  -> {outcome}",
            if cheat {
                "cheating proposer"
            } else {
                "honest proposer  "
            }
        );
    }
    println!(
        "\n{jobs} jobs in {secs:.2}s on the scheduler: {finalized} finalized, \
         {caught}/{cheated} cheats caught"
    );
    println!(
        "balances: proposer {}, challenger {}, committee pool {}",
        coordinator.balance("proposer"),
        coordinator.balance("challenger"),
        coordinator.balance("committee-pool"),
    );
    println!(
        "coordinator gas ledger: {:.1} kgas across all interactions",
        coordinator.coordinator().gas().kgas()
    );
    assert_eq!(caught, cheated, "every cheat must be caught");
    // Value conservation: whatever the settlement interleaving, the
    // fixed-point ledger balances out against its injected supply exactly.
    let ledger = coordinator.coordinator().ledger();
    assert_eq!(
        ledger.total_value(),
        ledger.injected(),
        "ledger conservation violated"
    );
}
