//! # tao-protocol
//!
//! The TAO optimistic verification protocol (§2, §5): an authenticated
//! coordinator with logical-clock challenge windows and escrowed bonds, the
//! N-way Merkle-anchored threshold-guided dispute game that localizes a
//! disagreement to a single operator in `O(log_N |V|)` rounds, Phase 3
//! single-operator adjudication (sound theoretical-bound check or
//! honest-majority committee vote), the §5.5 economic mechanism, and an
//! EVM-calibrated gas model reproducing the paper's ~2 Mgas dispute
//! footprints.

pub mod adjudicate;
pub mod coordinator;
pub mod dispute;
pub mod econ;
pub mod epoch;
pub mod error;
pub mod gas;
pub mod par;
pub mod plan;
pub mod record;
pub mod screen;
pub mod temporal;
pub mod tiebreak;

pub use adjudicate::{
    adjudicate, committee_vote, leaf_case, route, sample_committee, theoretical_check,
    theoretical_verdict, AdjudicationPath, LeafCase, LeafVerdict, VoteOutcome,
};
pub use coordinator::{
    reference::SerialCoordinator, Claim, ClaimStatus, Coordinator, Party, AUDIT_ACCOUNT,
};
pub use dispute::{
    run_dispute, ChallengerView, DisputeAnchors, DisputeConfig, DisputeOutcome, DisputeResult,
    ProposerView, RoundStats,
};
pub use econ::{EconAmounts, EconParams, Ledger};
pub use epoch::{canonical_log, encode_event, encode_log, epoch_root, log_csv, EpochCommitment};
pub use error::ProtocolError;
pub use gas::{GasEvent, GasMeter};
pub use par::{parallel_map, MAX_PAR_THREADS, MAX_WORKERS};
pub use plan::{DisputePlan, DisputePlans};
pub use record::{verify_record, verify_record_anchored, OpenedReveals, SubgraphRecord};
pub use screen::{screen_batch, screen_claim, ClaimCheck, Screening};
pub use tao_money::{Money, Ppm};
pub use temporal::{earliest_offense, states_agree, TemporalVerdict};
pub use tiebreak::{tie_seed, TieBreakRule};

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, ProtocolError>;
