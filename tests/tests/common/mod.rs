//! Shared harness for the coordinator concurrency tests
//! (`coordinator_invariants.rs`, `coordinator_stress.rs`): forced worker
//! counts, the deadlock watchdog, and the common claim/economics setup.
//! Cargo skips subdirectories of `tests/`, so this compiles only as a
//! module of each test binary that declares `mod common;`.

use std::sync::{mpsc, OnceLock};
use std::time::Duration;

use tao_analysis::StaticReport;
use tao_graph::{GraphBuilder, OpKind};
use tao_merkle::ClaimMeta;
use tao_protocol::EconParams;
use tao_tensor::Tensor;

/// Challenge-window length used by every generated claim.
pub const WINDOW: u64 = 10;
/// Committee size used by every settlement.
pub const COMMITTEE: usize = 3;

/// Forced worker counts: `TAO_TEST_WORKERS=<n>` pins one (the CI
/// fail-fast step runs 2, 8 and 32), default sweeps all three.
pub fn worker_counts() -> Vec<usize> {
    match std::env::var("TAO_TEST_WORKERS") {
        Ok(v) => vec![v.parse().expect("TAO_TEST_WORKERS must be a number")],
        Err(_) => vec![2, 8, 32],
    }
}

/// Runs `f` on a helper thread and fails the test if it has not finished
/// within 60 s — a deadlock in the coordinator would otherwise hang the
/// suite forever.
pub fn with_deadlock_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("deadlock watchdog: parallel coordinator phase exceeded 60s")
}

/// Claim metadata shared by every generated claim.
pub fn meta() -> ClaimMeta {
    ClaimMeta {
        device: "sim-a100".into(),
        kernel: "pairwise".into(),
        dtype: "f32".into(),
        challenge_window: WINDOW,
    }
}

/// The admission quote every generated claim posts under: the static
/// report of a one-matmul graph, whose deposit bound is far below `D_p`,
/// so every claim escrows exactly `D_p`.
pub fn claim_report() -> &'static StaticReport {
    static REPORT: OnceLock<StaticReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let mut b = GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", Tensor::<f32>::eye(8));
        let y = b.op("y", OpKind::MatMul, &[x, w]);
        let s = b.op("s", OpKind::Softmax, &[y]);
        let graph = b.finish(vec![s]).expect("well-formed graph");
        tao_analysis::analyze(&graph, &[vec![4, 8]])
    })
}

/// Default market economics with a mid-region slash.
pub fn econ_and_slash() -> (EconParams, f64) {
    let econ = EconParams::default_market();
    let (lo, hi) = econ.feasible_slash_region().unwrap();
    (econ, (lo + hi) / 2.0)
}

/// A per-test-distinct claim commitment.
pub fn commitment(tag: &str, i: usize) -> tao_merkle::Digest {
    tao_merkle::sha256(format!("{tag}-{i}").as_bytes())
}
