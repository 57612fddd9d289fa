//! Deterministic gas metering with EVM-calibrated constants.
//!
//! The paper instantiates the coordinator as Ethereum (Holesky) contracts
//! and reports dispute footprints of ≈2 Mgas at `N = 2`. This module
//! reproduces that cost model deterministically: every coordinator action
//! is priced from the standard EVM schedule (tx base cost, storage writes,
//! calldata bytes, hashing words), so dispute-game footprints land in the
//! paper's regime and scale the same way with round count and `N`.

/// Base cost of any transaction.
pub const G_TX: u64 = 21_000;
/// Storage write to a fresh slot (`SSTORE` zero → nonzero).
pub const G_SSTORE_NEW: u64 = 22_100;
/// Storage update to an existing slot.
pub const G_SSTORE_UPDATE: u64 = 5_000;
/// Per nonzero calldata byte.
pub const G_CALLDATA_BYTE: u64 = 16;
/// Per 32-byte word hashed on-chain.
pub const G_HASH_WORD: u64 = 60;

/// Size of one posted child commitment: indices, live-in/out hashes, and a
/// compact inclusion-proof segment (bytes of calldata).
pub const CHILD_RECORD_BYTES: u64 = 900;

use tao_money::Money;

/// One metered protocol action: what happened, to which claim, in what
/// per-claim order, for how much gas, and how much money it moved.
///
/// `(claim, seq)` is the canonical sort key: `seq` is allocated from the
/// claim's own monotone counter **in the same critical section as the
/// state transition**, so the canonical order of a claim's events is fixed
/// by protocol causality no matter how settle threads interleave their
/// meter appends. Events with `claim: None` belong to the coordinator lane
/// (model registration, dispute-game metering) and keep a meter-local
/// sequence; the coordinator only emits them from serial phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GasEvent {
    /// The claim this event belongs to; `None` for coordinator-lane
    /// actions not tied to any claim.
    pub claim: Option<u64>,
    /// Monotone per-claim (or per-lane) sequence number.
    pub seq: u32,
    /// Action mnemonic (`"commit_claim"`, `"settle"`, …).
    pub action: String,
    /// Gas consumed.
    pub gas: u64,
    /// The characteristic money amount of the action (deposit reserved,
    /// amount slashed, reward minted, …); [`Money::ZERO`] for pure-gas
    /// actions.
    pub amount: Money,
}

/// A metered ledger of gas spent, by action.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GasMeter {
    /// Total gas consumed.
    pub total: u64,
    /// Itemized event log in meter-append order. Append order is *not*
    /// deterministic under parallel settlement — canonicalize with
    /// [`crate::epoch::canonical_log`] before comparing or committing.
    pub log: Vec<GasEvent>,
    /// Next coordinator-lane sequence number (events with `claim: None`).
    lane_seq: u32,
}

impl GasMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a coordinator-lane action (no claim, no money moved).
    pub fn charge(&mut self, action: impl Into<String>, gas: u64) {
        let seq = self.lane_seq;
        self.lane_seq += 1;
        self.total += gas;
        self.log.push(GasEvent {
            claim: None,
            seq,
            action: action.into(),
            gas,
            amount: Money::ZERO,
        });
    }

    /// Records a claim-scoped action. `seq` must come from the claim's
    /// own monotone counter (allocated with the claim's state transition);
    /// the meter itself imposes no ordering.
    pub fn charge_claim(
        &mut self,
        claim: u64,
        seq: u32,
        action: impl Into<String>,
        gas: u64,
        amount: Money,
    ) {
        self.total += gas;
        self.log.push(GasEvent {
            claim: Some(claim),
            seq,
            action: action.into(),
            gas,
            amount,
        });
    }

    /// Gas in thousands (the paper reports kgas).
    pub fn kgas(&self) -> f64 {
        self.total as f64 / 1_000.0
    }
}

/// Gas for the proposer's result commitment (Phase 1).
pub fn commit_claim() -> u64 {
    // One fresh slot for C0 plus ~160 bytes of calldata.
    G_TX + G_SSTORE_NEW + 160 * G_CALLDATA_BYTE
}

/// Gas for opening a challenge: freeze collateral, initialize game state.
pub fn open_challenge() -> u64 {
    G_TX + 3 * G_SSTORE_NEW + 128 * G_CALLDATA_BYTE
}

/// Gas for the proposer's per-round partition post with `n` children.
pub fn partition_post(n: usize) -> u64 {
    G_TX + G_SSTORE_NEW + n as u64 * CHILD_RECORD_BYTES * G_CALLDATA_BYTE
}

/// Gas for the challenger's per-round selection post.
pub fn selection_post() -> u64 {
    G_TX + 2 * G_SSTORE_UPDATE + 64 * G_CALLDATA_BYTE
}

/// Gas for the per-round bond escrow updates of both parties.
pub fn round_bonds() -> u64 {
    2 * G_SSTORE_NEW
}

/// Gas for leaf adjudication: on-chain verification of `proofs` Merkle
/// inclusion proofs of the given depth, plus the verdict write.
pub fn leaf_adjudication(proofs: usize, depth: usize) -> u64 {
    let hash_gas = (proofs * depth) as u64 * G_HASH_WORD * 2;
    G_TX + G_SSTORE_NEW + hash_gas + 4_096 * G_CALLDATA_BYTE
}

/// Gas for one committee vote transaction.
pub fn committee_vote() -> u64 {
    G_TX + G_SSTORE_UPDATE + 64 * G_CALLDATA_BYTE
}

/// Gas for the final settlement (slash / release / reward transfers).
pub fn settlement() -> u64 {
    G_TX + 4 * G_SSTORE_UPDATE + 64 * G_CALLDATA_BYTE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_logs() {
        let mut m = GasMeter::new();
        m.charge("a", 100);
        m.charge("b", 50);
        assert_eq!(m.total, 150);
        assert_eq!(m.log.len(), 2);
        assert!((m.kgas() - 0.15).abs() < 1e-12);
        // Lane events get their own monotone sequence.
        assert_eq!(m.log[0].seq, 0);
        assert_eq!(m.log[1].seq, 1);
        assert_eq!(m.log[1].claim, None);
    }

    #[test]
    fn claim_events_carry_their_key_and_amount() {
        let mut m = GasMeter::new();
        m.charge_claim(7, 0, "commit_claim", 100, Money::from_credits(500));
        m.charge_claim(7, 1, "settle", 50, Money::from_credits(120));
        assert_eq!(m.total, 150);
        assert_eq!(m.log[0].claim, Some(7));
        assert_eq!(m.log[1].seq, 1);
        assert_eq!(m.log[1].amount, Money::from_credits(120));
    }

    #[test]
    fn partition_scales_with_n() {
        assert!(partition_post(8) > partition_post(2));
        let delta = partition_post(3) - partition_post(2);
        assert_eq!(delta, CHILD_RECORD_BYTES * G_CALLDATA_BYTE);
    }

    #[test]
    fn dispute_footprint_in_paper_regime() {
        // An 11–13 round N=2 dispute must land in the ~1.8–2.3 Mgas band
        // the paper reports for its four models.
        for rounds in [11u64, 12, 13] {
            let per_round = partition_post(2) + selection_post() + round_bonds();
            let total =
                open_challenge() + rounds * per_round + leaf_adjudication(3, 12) + settlement();
            let kgas = total as f64 / 1000.0;
            assert!(
                (1_700.0..2_400.0).contains(&kgas),
                "rounds {rounds}: {kgas} kgas"
            );
        }
    }

    #[test]
    fn leaf_adjudication_scales_with_proof_depth() {
        assert!(leaf_adjudication(3, 20) > leaf_adjudication(3, 10));
    }
}
