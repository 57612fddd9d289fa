//! Seeded-interleaving stress for opposite-direction settles — the
//! deadlock / lost-update trap.
//!
//! Six accounts form every ordered (proposer, challenger) pair, so for
//! each pair `(a, b)` the reversed pair `(b, a)` is also in the batch:
//! proposer-win settlements fire `escrow_transfer(challenger → proposer)`
//! in **both directions between the same two accounts at the same time**.
//! Any per-account locking would have to order its locks to avoid the
//! classic ABBA deadlock, and sloppy locking loses updates; the
//! coordinator's one lock must show neither. The test drives the
//! settle/challenge phases from forced thread counts (2/8/32, or
//! `TAO_TEST_WORKERS` in CI's fail-fast step) under a 60 s watchdog and
//! asserts balance conservation — `Σ balances + Σ escrowed deposits`
//! equals the ledger's injected supply **exactly** — **after every
//! phase**, plus bit-exact equivalence to the single-mutex serial oracle
//! at the end.

mod common;

use std::sync::Arc;

use common::{
    claim_report, commitment as tagged_commitment, econ_and_slash, meta, with_deadlock_watchdog,
    worker_counts, COMMITTEE, WINDOW,
};
use tao_protocol::{parallel_map, ClaimStatus, Coordinator, Money, Party, SerialCoordinator};

const ACCOUNTS: [&str; 6] = ["n0", "n1", "n2", "n3", "n4", "n5"];
/// Claims per ordered account pair (6·5 pairs → 90 claims).
const CLAIMS_PER_LANE: usize = 3;

/// SplitMix64: a tiny deterministic stream for seeding winners.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One claim lane: proposer, challenger, and the seeded dispute winner.
#[derive(Debug, Clone, Copy)]
struct Lane {
    proposer: &'static str,
    challenger: &'static str,
    winner: Party,
}

/// Every ordered pair of distinct accounts, `CLAIMS_PER_LANE` times, with
/// seeded winners. Even lane indices force `Party::Proposer` so reversed
/// pairs are guaranteed to run escrow transfers in both directions.
fn lanes(seed: u64) -> Vec<Lane> {
    let mut state = seed;
    let mut lanes = Vec::new();
    for _ in 0..CLAIMS_PER_LANE {
        for (i, proposer) in ACCOUNTS.into_iter().enumerate() {
            for (j, challenger) in ACCOUNTS.into_iter().enumerate() {
                if i == j {
                    continue;
                }
                let winner = if lanes.len() % 2 == 0 || splitmix(&mut state).is_multiple_of(2) {
                    Party::Proposer
                } else {
                    Party::Challenger
                };
                lanes.push(Lane {
                    proposer,
                    challenger,
                    winner,
                });
            }
        }
    }
    lanes
}

fn commitment(i: usize) -> tao_merkle::Digest {
    tagged_commitment("stress", i)
}

/// Asserts `Σ balances + Σ escrow == injected` on the ledger —
/// exactly, in micro-credits.
fn assert_conserved(c: &Coordinator, phase: &str) {
    let ledger = c.ledger();
    let (value, injected) = (ledger.total_value(), ledger.injected());
    assert_eq!(
        value, injected,
        "conservation violated after {phase}: value {value} vs injected {injected}"
    );
}

#[test]
fn overlapping_pair_settlement_conserves_and_matches_serial() {
    let (econ, slash) = econ_and_slash();
    let lanes = lanes(0xC0FFEE);

    // Serial oracle: the same protocol events, one at a time on the
    // single-mutex arbiter.
    let mut oracle = SerialCoordinator::new(econ, slash).unwrap();
    for account in ACCOUNTS {
        oracle.fund(account, 30_000);
    }
    for (i, lane) in lanes.iter().enumerate() {
        let id = oracle
            .submit_claim_quoted(lane.proposer, commitment(i), &meta(), claim_report())
            .unwrap();
        assert_eq!(id, i as u64);
    }
    for (i, lane) in lanes.iter().enumerate() {
        oracle.open_challenge(i as u64, lane.challenger).unwrap();
    }
    for (i, lane) in lanes.iter().enumerate() {
        oracle.settle(i as u64, lane.winner, COMMITTEE).unwrap();
    }

    for workers in worker_counts() {
        let coordinator = Arc::new(Coordinator::new(econ, slash).unwrap());
        for account in ACCOUNTS {
            coordinator.fund(account, 30_000);
        }
        assert_conserved(&coordinator, "funding");

        // Serial submit (deterministic ids), as the scheduler does.
        for (i, lane) in lanes.iter().enumerate() {
            let id = coordinator
                .submit_claim_quoted(lane.proposer, commitment(i), &meta(), claim_report())
                .unwrap();
            assert_eq!(id, i as u64, "dense deterministic claim ids");
        }
        assert_conserved(&coordinator, "submission");
        let escrowed: Money = ACCOUNTS.iter().map(|a| coordinator.escrowed(a)).sum();
        assert_eq!(
            escrowed,
            coordinator.amounts().d_p * lanes.len() as u64,
            "every proposer deposit escrowed exactly once"
        );

        // Parallel challenge phase at the forced worker count.
        let jobs: Vec<(u64, Lane)> = lanes
            .iter()
            .enumerate()
            .map(|(i, l)| (i as u64, *l))
            .collect();
        let coord = coordinator.clone();
        let challenged = with_deadlock_watchdog(move || {
            let inner = coord.clone();
            parallel_map(jobs, workers, move |(id, lane)| {
                inner.open_challenge(id, lane.challenger).unwrap();
                (id, lane)
            })
        });
        assert_conserved(&coordinator, "parallel challenge");

        // Parallel settle phase: reversed pairs settle concurrently, so
        // escrow transfers run in both directions between the same
        // accounts.
        let coord = coordinator.clone();
        with_deadlock_watchdog(move || {
            parallel_map(challenged, workers, move |(id, lane)| {
                coord.settle(id, lane.winner, COMMITTEE).unwrap();
            });
        });
        assert_conserved(&coordinator, "parallel settlement");

        // Every claim settled with its seeded winner, no escrow left.
        for (i, lane) in lanes.iter().enumerate() {
            assert_eq!(
                coordinator.claim(i as u64).unwrap().status,
                ClaimStatus::Settled {
                    winner: lane.winner
                },
                "claim {i} ({workers} workers)"
            );
        }
        for account in ACCOUNTS {
            assert_eq!(
                coordinator.escrowed(account),
                Money::ZERO,
                "{account} escrow drained"
            );
            let (serial, parallel) = (oracle.balance(account), coordinator.balance(account));
            assert_eq!(
                serial, parallel,
                "{account}: serial {serial} vs parallel {parallel} ({workers} workers)"
            );
        }
        assert_eq!(
            oracle.balance("committee-pool"),
            coordinator.balance("committee-pool"),
            "committee-pool: serial vs parallel"
        );
    }
}

/// Settles and window-elapse advances racing together: honest claims
/// finalize exactly once (one deposit release, one reward) no matter how
/// many concurrent `advance` calls race for the elapsed windows.
#[test]
fn concurrent_advances_finalize_each_claim_exactly_once() {
    let (econ, slash) = econ_and_slash();
    for workers in worker_counts() {
        let coordinator = Arc::new(Coordinator::new(econ, slash).unwrap());
        coordinator.fund("prop", 60_000);
        let n = 64u64;
        for i in 0..n {
            coordinator
                .submit_claim_quoted("prop", commitment(i as usize), &meta(), claim_report())
                .unwrap();
        }
        let coord = coordinator.clone();
        let finalized: Vec<u64> = with_deadlock_watchdog(move || {
            parallel_map((0..workers).collect(), workers, move |_| {
                coord.advance(WINDOW + 1)
            })
            .into_iter()
            .flatten()
            .collect()
        });
        // Exactly one advance wins each claim.
        let mut sorted = finalized.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), finalized.len(), "no double finalization");
        assert_eq!(sorted, (0..n).collect::<Vec<u64>>(), "all claims finalized");
        // One deposit release + one reward per claim, exactly.
        let expected = Money::from_credits(60_000) + coordinator.amounts().r_p * n;
        assert_eq!(
            coordinator.balance("prop"),
            expected,
            "one release + one reward per claim"
        );
        assert_eq!(coordinator.escrowed("prop"), Money::ZERO);
        assert_conserved(&coordinator, "concurrent advances");
    }
}
