//! Differential concurrency invariants for the coordinator.
//!
//! The contract: for any batch of sessions, the [`Coordinator`] driven
//! **in parallel** is observationally equivalent to the serial oracle
//! ([`SerialCoordinator`]) driven **serially** —
//! same claim statuses, same winners, **bit-exact** final balances and
//! escrow (`==`, no tolerance anywhere), the same canonical gas log to
//! the byte, and the same per-epoch settlement Merkle root — and the
//! ledger conserves value (`Σ balances + Σ escrow == injected supply`)
//! **exactly** at every phase boundary.
//!
//! Sessions here are protocol-level abstractions (the expensive
//! model-level flags/winners equivalence lives in
//! `tests/tests/scheduler.rs` and `tests/tests/scheduler_stress.rs`,
//! which drive real forward passes through the same coordinator): a spec
//! says who proposes, who challenges, and how the session resolves —
//! honest (finalizes by window elapse), fraud (challenger wins the
//! dispute), spam (proposer wins and takes the challenger deposit), or
//! underfunded (the submission itself must bounce, identically on both
//! paths). A serial proptest pins the pending-deadline index behind
//! `Coordinator::advance` to the oracle's full scan, with per-claim
//! windows so deadlines interleave across ids.
//!
//! Worker counts are forced via `TAO_TEST_WORKERS` (CI runs 2, 8 and 32
//! as a fail-fast step); without it every count is swept. A 60 s
//! watchdog turns any deadlock into a test failure instead of a hang. Set `TAO_EPOCH_CSV` to a path to export the canonical epoch
//! log as CSV (the artifact CI uploads).

mod common;

use std::sync::Arc;

use common::{
    claim_report, commitment as tagged_commitment, econ_and_slash, meta, with_deadlock_watchdog,
    worker_counts, COMMITTEE, WINDOW,
};
use proptest::prelude::*;
use tao_protocol::{
    canonical_log, encode_log, epoch_root, parallel_map, ClaimStatus, Coordinator, Money, Party,
    SerialCoordinator,
};

const PROPOSERS: [&str; 4] = ["alice", "bob", "carol", "dave"];
const CHALLENGERS: [&str; 3] = ["eve", "frank", "grace"];
const PAUPER: &str = "pauper";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Honest,
    Fraud,
    Spam,
    Underfunded,
}

#[derive(Debug, Clone)]
struct Spec {
    proposer: &'static str,
    challenger: &'static str,
    kind: Kind,
}

/// Decodes one generated integer into a session spec; 48 codes cover
/// every (proposer, challenger, kind) combination.
fn decode(code: usize) -> Spec {
    let kind = match (code / 12) % 4 {
        0 => Kind::Honest,
        1 => Kind::Fraud,
        2 => Kind::Spam,
        _ => Kind::Underfunded,
    };
    Spec {
        proposer: if kind == Kind::Underfunded {
            PAUPER
        } else {
            PROPOSERS[code % 4]
        },
        challenger: CHALLENGERS[(code / 4) % 3],
        kind,
    }
}

fn fund_serial(c: &mut SerialCoordinator) {
    for p in PROPOSERS {
        c.fund(p, 20_000);
    }
    for ch in CHALLENGERS {
        c.fund(ch, 10_000);
    }
    c.fund(PAUPER, 1);
}

fn fund_coordinator(c: &Coordinator) {
    for p in PROPOSERS {
        c.fund(p, 20_000);
    }
    for ch in CHALLENGERS {
        c.fund(ch, 10_000);
    }
    c.fund(PAUPER, 1);
}

fn commitment(i: usize) -> tao_merkle::Digest {
    tagged_commitment("claim", i)
}

/// Every account the batch can touch.
fn accounts() -> Vec<&'static str> {
    let mut all: Vec<&str> = PROPOSERS.into_iter().chain(CHALLENGERS).collect();
    all.push(PAUPER);
    all.push("committee-pool");
    all
}

/// Drives the batch serially through the oracle,
/// phase by phase in the scheduler's protocol-event order. Returns the
/// per-spec claim ids (None when the submission bounced).
fn run_serial_oracle(specs: &[Spec], oracle: &mut SerialCoordinator) -> Vec<Option<u64>> {
    let ids: Vec<Option<u64>> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            oracle
                .submit_claim_quoted(s.proposer, commitment(i), &meta(), claim_report())
                .ok()
        })
        .collect();
    for (s, id) in specs.iter().zip(&ids) {
        if let Some(id) = id {
            if matches!(s.kind, Kind::Fraud | Kind::Spam) {
                oracle.open_challenge(*id, s.challenger).unwrap();
            }
        }
    }
    for (s, id) in specs.iter().zip(&ids) {
        let Some(id) = id else { continue };
        match s.kind {
            Kind::Fraud => oracle.settle(*id, Party::Challenger, COMMITTEE).unwrap(),
            Kind::Spam => oracle.settle(*id, Party::Proposer, COMMITTEE).unwrap(),
            Kind::Honest => {
                oracle.advance(WINDOW + 1);
            }
            Kind::Underfunded => unreachable!("underfunded submissions bounce"),
        }
    }
    ids
}

/// Drives the same batch against the coordinator: serial submit
/// (deterministic ids, as the scheduler does), then parallel challenge
/// and parallel settle phases on `workers` threads.
fn run_parallel(
    specs: Vec<Spec>,
    coordinator: Arc<Coordinator>,
    workers: usize,
) -> Vec<Option<u64>> {
    let ids: Vec<Option<u64>> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            coordinator
                .submit_claim_quoted(s.proposer, commitment(i), &meta(), claim_report())
                .ok()
        })
        .collect();
    let jobs: Vec<(Spec, Option<u64>)> = specs.into_iter().zip(ids.iter().copied()).collect();
    with_deadlock_watchdog(move || {
        let coord = coordinator.clone();
        let challenged = parallel_map(jobs, workers, move |(s, id)| {
            if let Some(id) = id {
                if matches!(s.kind, Kind::Fraud | Kind::Spam) {
                    coord.open_challenge(id, s.challenger).unwrap();
                }
            }
            (s, id)
        });
        // Phase boundary: every deposit escrowed, nothing settled yet.
        // The fixed-point ledger conserves exactly — no tolerance.
        let ledger = coordinator.ledger();
        assert_eq!(
            ledger.total_value(),
            ledger.injected(),
            "conservation violated after the challenge phase"
        );
        let coord = coordinator.clone();
        parallel_map(challenged, workers, move |(s, id)| {
            let Some(id) = id else { return };
            match s.kind {
                Kind::Fraud => coord.settle(id, Party::Challenger, COMMITTEE).unwrap(),
                Kind::Spam => coord.settle(id, Party::Proposer, COMMITTEE).unwrap(),
                Kind::Honest => {
                    coord.advance(WINDOW + 1);
                }
                Kind::Underfunded => unreachable!("underfunded submissions bounce"),
            }
        });
    });
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed batches: coordinator-parallel ≡ oracle-serial on
    /// statuses, winners, balances, escrow, canonical gas logs and epoch
    /// roots — all bit-exact — at every forced worker count, with value
    /// conserved exactly at phase boundaries.
    #[test]
    fn sharded_parallel_is_equivalent_to_single_mutex_serial(
        codes in prop::collection::vec(0usize..48, 1..25),
    ) {
        let specs: Vec<Spec> = codes.into_iter().map(decode).collect();
        let (econ, slash) = econ_and_slash();

        let mut oracle = SerialCoordinator::new(econ, slash).unwrap();
        fund_serial(&mut oracle);
        let serial_ids = run_serial_oracle(&specs, &mut oracle);
        let serial_log = canonical_log(&oracle.gas);

        for workers in worker_counts() {
            let coordinator = Arc::new(Coordinator::new(econ, slash).unwrap());
            fund_coordinator(&coordinator);
            let ids = run_parallel(specs.clone(), coordinator.clone(), workers);

            prop_assert_eq!(&ids, &serial_ids, "claim-id assignment ({workers} workers)");
            for (i, (spec, id)) in specs.iter().zip(&ids).enumerate() {
                let Some(id) = id else {
                    prop_assert_eq!(spec.kind, Kind::Underfunded,
                        "only underfunded submissions may bounce");
                    continue;
                };
                let status = coordinator.claim(*id).unwrap().status;
                let expected = match spec.kind {
                    Kind::Honest => ClaimStatus::Finalized,
                    Kind::Fraud => ClaimStatus::Settled { winner: Party::Challenger },
                    Kind::Spam => ClaimStatus::Settled { winner: Party::Proposer },
                    Kind::Underfunded => unreachable!(),
                };
                prop_assert_eq!(&status, &expected, "spec {i} final status");
                prop_assert_eq!(
                    &status,
                    &oracle.claim(*id).unwrap().status,
                    "spec {i}: coordinator vs serial status"
                );
            }
            for account in accounts() {
                prop_assert_eq!(
                    oracle.balance(account),
                    coordinator.balance(account),
                    "{account} balance: serial vs coordinator ({workers} workers)"
                );
                prop_assert_eq!(
                    oracle.escrowed(account),
                    coordinator.escrowed(account),
                    "{account} escrow: serial vs coordinator ({workers} workers)"
                );
            }
            let ledger = coordinator.ledger();
            prop_assert_eq!(
                ledger.total_value(),
                ledger.injected(),
                "conservation after settlement"
            );
            // The canonical settlement+gas log is byte-identical to the
            // serial oracle's, and so is its Merkle commitment.
            let parallel_log = canonical_log(&coordinator.gas());
            prop_assert_eq!(
                encode_log(&serial_log),
                encode_log(&parallel_log),
                "canonical log bytes diverged ({workers} workers)"
            );
            prop_assert_eq!(
                epoch_root(&serial_log),
                epoch_root(&parallel_log),
                "epoch root diverged ({workers} workers)"
            );
        }
    }
}

/// Determinism check for the epoch commitment layer: the same
/// fixed mixed batch driven at 2, 8 and 32 workers (and serially through
/// the oracle) produces byte-identical canonical log encodings and the
/// **identical** sealed epoch Merkle root. When `TAO_EPOCH_CSV` is set,
/// the canonical epoch log is exported as CSV — the artifact CI uploads.
#[test]
fn epoch_root_is_identical_across_worker_counts() {
    let specs: Vec<Spec> = (0..48).map(decode).collect();
    let (econ, slash) = econ_and_slash();
    let mut oracle = SerialCoordinator::new(econ, slash).unwrap();
    fund_serial(&mut oracle);
    run_serial_oracle(&specs, &mut oracle);
    let serial_epoch = oracle.seal_epoch();
    assert!(
        !serial_epoch.entries.is_empty(),
        "the batch must log gas events"
    );

    let mut roots = vec![serial_epoch.root];
    for workers in [2usize, 8, 32] {
        let coordinator = Arc::new(Coordinator::new(econ, slash).unwrap());
        fund_coordinator(&coordinator);
        run_parallel(specs.clone(), coordinator.clone(), workers);
        let epoch = coordinator.seal_epoch();
        assert_eq!(
            encode_log(&serial_epoch.entries),
            encode_log(&epoch.entries),
            "canonical log bytes diverged at {workers} workers"
        );
        assert_eq!(
            serial_epoch.root, epoch.root,
            "epoch root diverged at {workers} workers"
        );
        assert_eq!(coordinator.epoch_roots(), vec![epoch.root]);
        roots.push(epoch.root);
    }
    assert!(roots.windows(2).all(|w| w[0] == w[1]));

    if let Ok(path) = std::env::var("TAO_EPOCH_CSV") {
        if !path.is_empty() {
            let csv = tao_protocol::log_csv(serial_epoch.index, &serial_epoch.entries);
            std::fs::write(&path, csv).expect("write TAO_EPOCH_CSV artifact");
        }
    }
}

/// The audit channel goes through the same transitions as a voluntary
/// challenge (deposit-free freeze, then settlement); the proptest above
/// covers challenges exhaustively, this covers the audit transitions and
/// conservation.
#[test]
fn audit_lifecycle_settles_and_conserves_on_shards() {
    let (econ, slash) = econ_and_slash();
    let coordinator = Coordinator::new(econ, slash).unwrap();
    coordinator.fund("prop", 5_000);

    let id = coordinator
        .submit_claim_quoted("prop", commitment(0), &meta(), claim_report())
        .unwrap();
    coordinator.open_audit(id).unwrap();
    coordinator.settle(id, Party::Proposer, COMMITTEE).unwrap();
    assert!(matches!(
        coordinator.claim(id).unwrap().status,
        ClaimStatus::Settled {
            winner: Party::Proposer
        }
    ));
    // Committee fees paid, proposer made whole plus reward — exactly.
    assert!(coordinator.balance("committee-pool") > Money::ZERO);
    assert!(coordinator.balance("prop") > Money::from_credits(5_000));
    assert_eq!(coordinator.escrowed("prop"), Money::ZERO);
    let ledger = coordinator.ledger();
    assert_eq!(ledger.total_value(), ledger.injected());
}

/// One serially applied coordinator operation of the pending-index
/// proptest.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Post a claim with its own challenge window.
    Submit { proposer: usize, window: u64 },
    /// Advance the clock.
    Advance(u64),
    /// Challenge the `pick`-th (mod count) pending claim.
    Challenge { pick: usize, challenger: usize },
    /// Settle the `pick`-th (mod count) disputed claim.
    Settle { pick: usize, winner: Party },
}

/// Decodes one generated integer into an operation: windows 0–20,
/// advances of 0–14 ticks.
fn decode_op(code: u64) -> Op {
    let arg = code / 4;
    match code % 4 {
        0 => Op::Submit {
            proposer: (arg % 4) as usize,
            window: (arg / 4) % 21,
        },
        1 => Op::Advance(arg % 15),
        2 => Op::Challenge {
            pick: (arg / 3) as usize,
            challenger: (arg % 3) as usize,
        },
        _ => Op::Settle {
            pick: (arg / 2) as usize,
            winner: if arg.is_multiple_of(2) {
                Party::Challenger
            } else {
                Party::Proposer
            },
        },
    }
}

/// The ids of the oracle's claims whose status matches `wanted`.
fn ids_where(
    oracle: &SerialCoordinator,
    claims: u64,
    wanted: impl Fn(&ClaimStatus) -> bool,
) -> Vec<u64> {
    (0..claims)
        .filter(|&id| wanted(&oracle.claim(id).unwrap().status))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pending-deadline index behind `Coordinator::advance` finalizes
    /// exactly what the oracle's full scan does: per-claim windows make
    /// deadlines cross ids, and challenges pull claims out of the index
    /// between advances. Every operation's result and every advance's
    /// finalized ids match, then statuses, balances, escrow and the
    /// canonical gas log.
    #[test]
    fn pending_index_matches_serial_scan(
        codes in prop::collection::vec(0u64..u64::MAX, 1..120),
    ) {
        let (econ, slash) = econ_and_slash();
        let mut oracle = SerialCoordinator::new(econ, slash).unwrap();
        let coordinator = Coordinator::new(econ, slash).unwrap();
        for p in PROPOSERS {
            oracle.fund(p, 100_000);
            coordinator.fund(p, 100_000);
        }
        for ch in CHALLENGERS {
            oracle.fund(ch, 10_000);
            coordinator.fund(ch, 10_000);
        }
        let mut claims = 0u64;
        for (step, op) in codes.into_iter().map(decode_op).enumerate() {
            match op {
                Op::Submit { proposer, window } => {
                    let meta = tao_merkle::ClaimMeta {
                        challenge_window: window,
                        ..meta()
                    };
                    let c = commitment(step);
                    let expected = oracle
                        .submit_claim_quoted(PROPOSERS[proposer], c, &meta, claim_report());
                    let got = coordinator
                        .submit_claim_quoted(PROPOSERS[proposer], c, &meta, claim_report());
                    prop_assert_eq!(&got, &expected, "step {step}: submit");
                    claims += 1;
                }
                Op::Advance(ticks) => {
                    prop_assert_eq!(
                        coordinator.advance(ticks),
                        oracle.advance(ticks),
                        "step {step}: finalized ids"
                    );
                }
                Op::Challenge { pick, challenger } => {
                    let pending = ids_where(&oracle, claims, |s| *s == ClaimStatus::Pending);
                    let Some(&id) = pending.get(pick % pending.len().max(1)) else { continue };
                    prop_assert_eq!(
                        coordinator.open_challenge(id, CHALLENGERS[challenger]),
                        oracle.open_challenge(id, CHALLENGERS[challenger]),
                        "step {step}: challenge #{id}"
                    );
                }
                Op::Settle { pick, winner } => {
                    let disputed = ids_where(&oracle, claims, |s| {
                        matches!(s, ClaimStatus::Disputed { .. })
                    });
                    let Some(&id) = disputed.get(pick % disputed.len().max(1)) else { continue };
                    prop_assert_eq!(
                        coordinator.settle(id, winner, COMMITTEE),
                        oracle.settle(id, winner, COMMITTEE),
                        "step {step}: settle #{id}"
                    );
                }
            }
        }
        prop_assert_eq!(coordinator.now(), oracle.now());
        for id in 0..claims {
            prop_assert_eq!(
                &coordinator.claim(id).unwrap(),
                oracle.claim(id).unwrap(),
                "claim #{id}"
            );
        }
        for account in accounts() {
            prop_assert_eq!(coordinator.balance(account), oracle.balance(account), "{account} balance");
            prop_assert_eq!(coordinator.escrowed(account), oracle.escrowed(account), "{account} escrow");
        }
        prop_assert_eq!(
            encode_log(&canonical_log(&coordinator.gas())),
            encode_log(&canonical_log(&oracle.gas)),
            "canonical log bytes"
        );
    }
}
