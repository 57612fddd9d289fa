//! The coordinator: an authenticated state machine with a logical clock,
//! escrowed bonds, challenge windows, per-round timeouts, and settlement.
//!
//! The paper instantiates this layer as Ethereum smart contracts; TAO
//! itself only needs tamper-evident commitments, fair timeouts and bond
//! management, which this in-process coordinator provides with identical
//! semantics and a deterministic gas ledger.
//!
//! # Exact money
//!
//! Every balance, deposit and fee is an exact fixed-point
//! [`Money`]; incentive *analysis* stays in f64 ([`EconParams`]) but the
//! amounts the coordinator moves are derived once at construction into
//! an [`EconAmounts`] and all settlement arithmetic is integer. Settle
//! amounts are computed from per-claim state (`slashed = min(S_slash,
//! deposit)`) rather than from live aggregate escrow, so every money
//! movement is a pure function of the claim — independent of the order
//! in which concurrent settles run — and parallel callers end
//! **bit-exact** against the serial reference.
//!
//! # One lock
//!
//! Like the contract it stands in for, the coordinator is a serial state
//! machine: the clock, the claims, the [`Ledger`], the model registry,
//! the gas meter and the sealed epochs sit in one struct behind one
//! mutex, and each operation runs alone under it. Every method takes
//! `&self`, so worker threads share the coordinator directly. Claims are
//! stored by their dense ids, and every pending claim is also indexed by
//! `(deadline, id)`, so [`Coordinator::advance`] touches only the claims
//! whose windows elapsed, however many claims were posted before.
//!
//! # Canonical gas log and epoch commitments
//!
//! Each claim-scoped gas event carries a `(claim, seq)` key whose
//! sequence number is allocated from the claim's own counter in the same
//! critical section that performs the state transition, so per-claim
//! event order is protocol causality, not the order in which threads
//! reached the lock. [`Coordinator::seal_epoch`] drains the meter into a
//! canonically sorted, Merkle-committed [`EpochCommitment`] (see
//! [`crate::epoch`]) whose root is identical across worker counts.
//!
//! The contract, enforced differentially by
//! `tests/tests/coordinator_invariants.rs`: any batch of coordinator
//! interactions driven in parallel is **observationally equivalent** to
//! the same batch driven serially through the
//! [`reference::SerialCoordinator`] (same statuses, winners, balances,
//! canonical gas log and epoch roots — all compared with `==`), and
//! `Σ balances + Σ escrow == injected()` holds exactly at phase
//! boundaries.

use std::collections::BTreeSet;

use parking_lot::Mutex;

use tao_merkle::{ClaimMeta, Digest, ModelCommitment};
use tao_money::{slash_split, Money};

use crate::econ::{EconAmounts, EconParams, Ledger};
use crate::epoch::{epoch_root, sort_canonical, EpochCommitment};
use crate::error::ProtocolError;
use crate::gas::{self, GasMeter};
use crate::Result;

/// The challenger of record of an audited claim. Audits post no deposit,
/// so no voluntary challenger may use this name and no watchtower may
/// adopt an audit.
pub const AUDIT_ACCOUNT: &str = "audit-committee";

/// A protocol party.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Party {
    /// The compute provider that posted the claim.
    Proposer,
    /// The disputing verifier.
    Challenger,
}

/// Lifecycle of a claim.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimStatus {
    /// Inside the challenge window.
    Pending,
    /// Window elapsed unchallenged: economically final.
    Finalized,
    /// Under an active dispute.
    Disputed {
        /// The challenging account.
        challenger: String,
    },
    /// Dispute settled.
    Settled {
        /// The prevailing party.
        winner: Party,
    },
}

/// A posted claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Claim id.
    pub id: u64,
    /// Proposer account.
    pub proposer: String,
    /// The commitment `C0`.
    pub commitment: Digest,
    /// Posting tick.
    pub posted_at: u64,
    /// Challenge-window length in ticks.
    pub window: u64,
    /// Proposer deposit escrowed for this claim: at least `D_p`, scaled up
    /// by the static FLOP bound (see [`Coordinator::submit_claim_quoted`]).
    pub deposit: Money,
    /// Current status.
    pub status: ClaimStatus,
    /// Number of gas events logged against this claim — the claim's
    /// monotone sequence counter, bumped with each state transition so
    /// the canonical gas log reflects protocol causality.
    pub events: u32,
}

impl Claim {
    /// Last tick at which a challenge is accepted. Saturates, so a window
    /// too long to add to the posting tick stays open instead of wrapping
    /// into an already-elapsed deadline.
    pub fn deadline(&self) -> u64 {
        self.posted_at.saturating_add(self.window)
    }

    /// Allocates the next gas-event sequence number for this claim.
    fn next_seq(&mut self) -> u32 {
        let seq = self.events;
        self.events += 1;
        seq
    }
}

/// Everything the coordinator mutates, behind its one lock.
#[derive(Debug, Default)]
struct State {
    tick: u64,
    /// Claims by id: ids are dense, so claim `id` sits at index `id`.
    claims: Vec<Claim>,
    /// `(deadline, id)` of every pending claim, earliest deadline first.
    pending: BTreeSet<(u64, u64)>,
    ledger: Ledger,
    models: Vec<ModelCommitment>,
    gas: GasMeter,
    epochs: Vec<EpochCommitment>,
}

impl State {
    fn claim(&self, id: u64) -> Result<&Claim> {
        self.claims
            .get(id as usize)
            .ok_or(ProtocolError::UnknownClaim(id))
    }

    /// Checks that claim `id` is pending and its window still open.
    fn check_challengeable(&self, id: u64) -> Result<()> {
        let claim = self.claim(id)?;
        if !matches!(claim.status, ClaimStatus::Pending) {
            return Err(ProtocolError::BadState(format!(
                "claim #{id} is not pending"
            )));
        }
        if self.tick > claim.deadline() {
            return Err(ProtocolError::WindowClosed {
                claim: id,
                now: self.tick,
                deadline: claim.deadline(),
            });
        }
        Ok(())
    }

    /// Moves a checked pending claim into a dispute with `challenger` of
    /// record; returns the transition's sequence number.
    fn freeze(&mut self, id: u64, challenger: &str) -> u32 {
        let claim = &mut self.claims[id as usize];
        self.pending.remove(&(claim.deadline(), id));
        claim.status = ClaimStatus::Disputed {
            challenger: challenger.to_string(),
        };
        claim.next_seq()
    }
}

/// The in-process coordinator: one lock over all of its state (see the
/// module docs). Every method takes `&self`, so the coordinator is shared
/// across worker threads directly.
#[derive(Debug)]
pub struct Coordinator {
    state: Mutex<State>,
    econ: EconParams,
    amounts: EconAmounts,
    slash: Money,
}

impl Coordinator {
    /// Creates a coordinator with the given economics and slash amount.
    ///
    /// # Errors
    ///
    /// Returns an error when `slash` is outside the feasible region of the
    /// economic parameters or the parameters yield no exact amounts.
    pub fn new(econ: EconParams, slash: f64) -> Result<Self> {
        let (amounts, slash) = check_economics(&econ, slash)?;
        Ok(Coordinator {
            state: Mutex::default(),
            econ,
            amounts,
            slash,
        })
    }

    /// Current logical tick (block height).
    pub fn now(&self) -> u64 {
        self.state.lock().tick
    }

    /// The exact protocol amounts (deposits, reward, fee, split rates).
    pub fn amounts(&self) -> EconAmounts {
        self.amounts
    }

    /// The exact slash amount `S_slash`.
    pub fn slash_amount(&self) -> Money {
        self.slash
    }

    /// The f64 economic parameters the coordinator was built from.
    pub fn econ_params(&self) -> &EconParams {
        &self.econ
    }

    /// Credits an account. Accepts whole credits (`fund("p", 10_000)`)
    /// or an exact [`Money`].
    pub fn fund(&self, account: &str, amount: impl Into<Money>) {
        self.state.lock().ledger.mint(account, amount.into());
    }

    /// Free (non-escrowed) balance of an account.
    pub fn balance(&self, account: &str) -> Money {
        self.state.lock().ledger.balance(account)
    }

    /// Escrowed balance of an account.
    pub fn escrowed(&self, account: &str) -> Money {
        self.state.lock().ledger.escrowed(account)
    }

    /// A snapshot of the account ledger (conservation accounting lives
    /// there).
    pub fn ledger(&self) -> Ledger {
        self.state.lock().ledger.clone()
    }

    /// A snapshot of the gas ledger (events since the last sealed epoch).
    pub fn gas(&self) -> GasMeter {
        self.state.lock().gas.clone()
    }

    /// Seals the current epoch: drains every gas event logged since the
    /// previous seal into a canonically ordered, Merkle-committed
    /// [`EpochCommitment`], appends it to the epoch chain and returns
    /// it. The meter's running `total` is preserved. Call from a phase
    /// boundary (no coordinator operation in flight).
    pub fn seal_epoch(&self) -> EpochCommitment {
        let s = &mut *self.state.lock();
        let mut entries = std::mem::take(&mut s.gas.log);
        sort_canonical(&mut entries);
        let commitment = EpochCommitment {
            index: s.epochs.len() as u64,
            root: epoch_root(&entries),
            entries,
        };
        s.epochs.push(commitment.clone());
        commitment
    }

    /// Roots of every sealed epoch, in seal order.
    pub fn epoch_roots(&self) -> Vec<Digest> {
        self.state.lock().epochs.iter().map(|e| e.root).collect()
    }

    /// Every sealed epoch commitment, in seal order.
    pub fn epochs(&self) -> Vec<EpochCommitment> {
        self.state.lock().epochs.clone()
    }

    /// Registers a model commitment (Phase 0).
    pub fn register_model(&self, commitment: ModelCommitment) -> usize {
        let s = &mut *self.state.lock();
        s.gas
            .charge("register_model", gas::G_TX + 3 * gas::G_SSTORE_NEW);
        s.models.push(commitment);
        s.models.len() - 1
    }

    /// A registered model commitment.
    pub fn model(&self, idx: usize) -> Option<ModelCommitment> {
        self.state.lock().models.get(idx).cloned()
    }

    /// The §5.5 randomized-audit channel: deterministically decides (from
    /// the claim commitment and a public beacon) whether a pending claim is
    /// audited with probability `φ`. Audits and voluntary challenges are
    /// mutually exclusive per claim; audit costs are borne by user service
    /// fees rather than a challenger deposit.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown claim.
    pub fn audit_selected(&self, id: u64, beacon: u64) -> Result<bool> {
        let commitment = self.state.lock().claim(id)?.commitment;
        let mut h = tao_merkle::Sha256::new();
        h.update(&commitment);
        h.update(&beacon.to_le_bytes());
        let digest = h.finalize();
        let draw =
            u64::from_le_bytes(digest[..8].try_into().expect("8 bytes")) as f64 / u64::MAX as f64;
        Ok(draw < self.econ.phi)
    }

    /// Opens a randomized audit against a pending claim, recording
    /// [`AUDIT_ACCOUNT`] as challenger of record. Unlike a voluntary
    /// challenge, no challenger deposit is posted — the audit is funded
    /// from service fees — but the proposer collateral freezes the same
    /// way.
    ///
    /// # Errors
    ///
    /// Returns an error when the claim is not pending or the window
    /// closed.
    pub fn open_audit(&self, id: u64) -> Result<()> {
        let s = &mut *self.state.lock();
        s.check_challengeable(id)?;
        let seq = s.freeze(id, AUDIT_ACCOUNT);
        s.gas
            .charge_claim(id, seq, "open_audit", gas::open_challenge(), Money::ZERO);
        Ok(())
    }

    /// Posts a claim commitment (Phase 1), priced by its static analysis:
    /// the gas charged is the report's quote (base commitment cost plus the
    /// FLOP/traffic surcharge) and the escrowed deposit is
    /// `max(D_p, deposit_bound)`, so a claim committing to more work posts
    /// collateral that scales with it. Inadmissible graphs — any
    /// `Deny`-severity lint finding — are rejected before any money moves.
    /// The claim id is allocated only after the deposit clears, so a
    /// rejected submission leaves no gap in the id sequence.
    ///
    /// # Errors
    ///
    /// Returns an error when the report carries `Deny` findings or the
    /// proposer cannot post the quoted deposit.
    pub fn submit_claim_quoted(
        &self,
        proposer: &str,
        commitment: Digest,
        meta: &ClaimMeta,
        report: &tao_analysis::StaticReport,
    ) -> Result<u64> {
        if !report.is_admissible() {
            return Err(ProtocolError::BadState(format!(
                "claim graph fails static analysis: {} deny finding(s)",
                report.deny_count()
            )));
        }
        let deposit = self.amounts.d_p.max(report.deposit_bound);
        let s = &mut *self.state.lock();
        s.ledger.reserve(proposer, deposit)?;
        let id = s.claims.len() as u64;
        let claim = Claim {
            id,
            proposer: proposer.to_string(),
            commitment,
            posted_at: s.tick,
            window: meta.challenge_window,
            deposit,
            status: ClaimStatus::Pending,
            // seq 0 belongs to the commit by construction.
            events: 1,
        };
        s.pending.insert((claim.deadline(), id));
        s.claims.push(claim);
        s.gas
            .charge_claim(id, 0, "commit_claim", report.gas_quote, deposit);
        Ok(id)
    }

    /// A snapshot of claim `id`.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown id.
    pub fn claim(&self, id: u64) -> Result<Claim> {
        self.state.lock().claim(id).cloned()
    }

    /// Advances the logical clock, finalizing pending claims whose windows
    /// elapsed: their deposits release and their rewards pay, each with a
    /// zero-gas `finalize` event carrying the reward amount. Returns the
    /// finalized ids in ascending order. The elapsed claims come off the
    /// front of the pending-deadline index, so the cost follows the
    /// claims finalized, not the claims ever posted.
    pub fn advance(&self, ticks: u64) -> Vec<u64> {
        let s = &mut *self.state.lock();
        s.tick += ticks;
        let mut finalized = Vec::new();
        while let Some(&(deadline, id)) = s.pending.first() {
            if deadline >= s.tick {
                break;
            }
            s.pending.pop_first();
            finalized.push(id);
        }
        finalized.sort_unstable();
        for &id in &finalized {
            let claim = &mut s.claims[id as usize];
            claim.status = ClaimStatus::Finalized;
            let seq = claim.next_seq();
            s.ledger.release(&claim.proposer, claim.deposit);
            s.ledger.mint(&claim.proposer, self.amounts.r_p);
            s.gas.charge_claim(id, seq, "finalize", 0, self.amounts.r_p);
        }
        finalized
    }

    /// Opens a challenge against a pending claim, escrowing `D_ch` and
    /// freezing the proposer's collateral.
    ///
    /// # Errors
    ///
    /// Returns an error when `challenger` is [`AUDIT_ACCOUNT`], the claim
    /// is not pending, the window closed, or the challenger cannot post
    /// the deposit.
    pub fn open_challenge(&self, id: u64, challenger: &str) -> Result<()> {
        if challenger == AUDIT_ACCOUNT {
            return Err(ProtocolError::BadState(format!(
                "{AUDIT_ACCOUNT} opens audits, not challenges"
            )));
        }
        let s = &mut *self.state.lock();
        s.check_challengeable(id)?;
        s.ledger.reserve(challenger, self.amounts.d_ch)?;
        let seq = s.freeze(id, challenger);
        s.gas.charge_claim(
            id,
            seq,
            "open_challenge",
            gas::open_challenge(),
            self.amounts.d_ch,
        );
        Ok(())
    }

    /// Transfers challenger-of-record on a disputed claim to `adopter`:
    /// the adopter escrows a fresh `D_ch` and the deserting challenger's
    /// deposit is **burned**. This is the watchtower's answer to the
    /// collusion exit move — a colluding challenger that opens a dispute
    /// and then abandons it cannot hand the proposer a free win (the
    /// dispute continues under the adopter) and pays for the desertion.
    /// Audits are not adoptable: the committee posted no deposit to burn,
    /// and its slash share is not for sale.
    ///
    /// # Errors
    ///
    /// Returns an error when the claim is not disputed or is under audit,
    /// when `adopter` already is the challenger of record or is
    /// [`AUDIT_ACCOUNT`], or when the adopter cannot post the deposit.
    pub fn adopt_challenge(&self, id: u64, adopter: &str) -> Result<String> {
        let s = &mut *self.state.lock();
        let ClaimStatus::Disputed { challenger } = &s.claim(id)?.status else {
            return Err(ProtocolError::BadState(format!(
                "claim #{id} is not disputed"
            )));
        };
        if challenger == AUDIT_ACCOUNT || adopter == AUDIT_ACCOUNT {
            return Err(ProtocolError::BadState(format!(
                "claim #{id}: audits cannot be adopted"
            )));
        }
        if challenger == adopter {
            return Err(ProtocolError::BadState(format!(
                "claim #{id}: {adopter} already challenges it"
            )));
        }
        let deserter = challenger.clone();
        s.ledger.reserve(adopter, self.amounts.d_ch)?;
        // Burn (not refund) the deserter's deposit: abandoning an open
        // dispute is the collusion exit move and must not be free.
        s.ledger.burn_escrow(&deserter, self.amounts.d_ch);
        let claim = &mut s.claims[id as usize];
        claim.status = ClaimStatus::Disputed {
            challenger: adopter.to_string(),
        };
        let seq = claim.next_seq();
        s.gas.charge_claim(
            id,
            seq,
            "adopt_challenge",
            gas::open_challenge(),
            self.amounts.d_ch,
        );
        Ok(deserter)
    }

    /// Settles a disputed claim: the loser is slashed by `S_slash` from
    /// escrow, the winner's deposit is released, and the winner (plus the
    /// committee, when used) is rewarded per §5.5.
    ///
    /// Every amount is a pure function of the claim: the slash is
    /// `min(S_slash, deposit)` and splits per the documented rounding
    /// policy ([`tao_money::slash_split`]), so settles of distinct claims
    /// commute and parallel settlement is bit-exact against the serial
    /// reference regardless of interleaving.
    ///
    /// # Errors
    ///
    /// Returns an error when the claim is not disputed.
    pub fn settle(&self, id: u64, winner: Party, committee_size: usize) -> Result<()> {
        let s = &mut *self.state.lock();
        let claim = s
            .claims
            .get_mut(id as usize)
            .ok_or(ProtocolError::UnknownClaim(id))?;
        let ClaimStatus::Disputed { challenger } = &claim.status else {
            return Err(ProtocolError::BadState(format!(
                "claim #{id} is not disputed"
            )));
        };
        let challenger = challenger.clone();
        claim.status = ClaimStatus::Settled { winner };
        let seq = claim.next_seq();
        let (proposer, deposit) = (claim.proposer.as_str(), claim.deposit);
        let ledger = &mut s.ledger;
        let moved = match winner {
            Party::Challenger => {
                // Slash the proposer by min(S_slash, deposit) — determined
                // by the claim alone, never by live aggregate escrow. The
                // challenger and committee shares are re-minted from the
                // burn per the split policy; the remainder stays destroyed.
                let slashed = self.slash.min(deposit);
                let burned = ledger.burn_escrow(proposer, slashed);
                debug_assert_eq!(burned, slashed, "claim deposit must back its slash");
                ledger.release(proposer, deposit - slashed);
                let split = slash_split(slashed, self.amounts.alpha_ch, self.amounts.alpha_cm);
                ledger.mint(&challenger, split.reward);
                if committee_size > 0 {
                    ledger.mint("committee-pool", split.committee);
                }
                ledger.release(&challenger, self.amounts.d_ch);
                slashed
            }
            Party::Proposer => {
                // Spam deterrence: the challenger forfeits its deposit to
                // the proposer. (Audit challengers posted no deposit;
                // nothing moves.)
                let forfeited = ledger.escrow_transfer(&challenger, proposer, self.amounts.d_ch);
                ledger.release(proposer, deposit);
                ledger.mint(proposer, self.amounts.r_p);
                if committee_size > 0 {
                    ledger.mint(
                        "committee-pool",
                        self.amounts.committee_fee * committee_size as u64,
                    );
                }
                forfeited
            }
        };
        s.gas
            .charge_claim(id, seq, "settlement", gas::settlement(), moved);
        Ok(())
    }

    /// Rules a timeout violation against `party` in a dispute: the absent
    /// party immediately loses the round and the dispute.
    ///
    /// # Errors
    ///
    /// Returns an error when the claim is not disputed.
    pub fn timeout(&self, id: u64, absent: Party) -> Result<()> {
        let winner = match absent {
            Party::Proposer => Party::Challenger,
            Party::Challenger => Party::Proposer,
        };
        self.settle(id, winner, 0)
    }
}

/// Validates the slash against the feasible region and derives the exact
/// amounts; shared by both coordinators.
fn check_economics(econ: &EconParams, slash: f64) -> Result<(EconAmounts, Money)> {
    if !econ.incentive_compatible(slash) {
        return Err(ProtocolError::BadState(format!(
            "slash {slash} outside feasible region {:?}",
            econ.feasible_slash_region()
        )));
    }
    let amounts = econ.amounts().ok_or_else(|| {
        ProtocolError::BadState("economic parameters yield no exact amounts".to_string())
    })?;
    let slash = Money::from_f64(slash)
        .ok_or_else(|| ProtocolError::BadState(format!("slash {slash} is not representable")))?;
    Ok((amounts, slash))
}

pub mod reference {
    //! The plain serial coordinator, kept in-tree permanently as the
    //! differential oracle for [`Coordinator`](super::Coordinator) — the
    //! same idiom as the scalar kernel oracles in `tao-tensor`. Its
    //! semantics are exactly the original arbiter: one struct, `&mut
    //! self` methods, claims in a `Vec`, balances in two maps, and an
    //! `advance` that scans every claim (the oracle for the pending-deadline
    //! index). The equivalence proptests drive identical batches through
    //! both and assert identical statuses, winners, balances, canonical gas
    //! logs and epoch roots — all with `==`, no tolerance.

    use std::collections::HashMap;

    use tao_merkle::{ClaimMeta, Digest};
    use tao_money::{slash_split, Money};

    use super::{check_economics, Claim, ClaimStatus, Party};
    use crate::econ::{EconAmounts, EconParams};
    use crate::epoch::{epoch_root, sort_canonical, EpochCommitment};
    use crate::error::ProtocolError;
    use crate::gas::{self, GasMeter};
    use crate::Result;

    /// The oracle coordinator: fully serial, `&mut self` throughout.
    #[derive(Debug, Clone)]
    pub struct SerialCoordinator {
        tick: u64,
        accounts: HashMap<String, Money>,
        escrow: HashMap<String, Money>,
        claims: Vec<Claim>,
        econ: EconParams,
        amounts: EconAmounts,
        slash: Money,
        /// Gas ledger for every coordinator interaction.
        pub gas: GasMeter,
        epochs: Vec<EpochCommitment>,
    }

    impl SerialCoordinator {
        /// Creates a serial coordinator with the given economics.
        ///
        /// # Errors
        ///
        /// Returns an error when `slash` is outside the feasible region.
        pub fn new(econ: EconParams, slash: f64) -> Result<Self> {
            let (amounts, slash) = check_economics(&econ, slash)?;
            Ok(SerialCoordinator {
                tick: 0,
                accounts: HashMap::new(),
                escrow: HashMap::new(),
                claims: Vec::new(),
                econ,
                amounts,
                slash,
                gas: GasMeter::new(),
                epochs: Vec::new(),
            })
        }

        /// Current logical tick.
        pub fn now(&self) -> u64 {
            self.tick
        }

        /// The exact protocol amounts.
        pub fn amounts(&self) -> EconAmounts {
            self.amounts
        }

        /// The f64 economic parameters.
        pub fn econ_params(&self) -> &EconParams {
            &self.econ
        }

        /// Credits an account.
        pub fn fund(&mut self, account: &str, amount: impl Into<Money>) {
            *self
                .accounts
                .entry(account.to_string())
                .or_insert(Money::ZERO) += amount.into();
        }

        /// Free balance of an account.
        pub fn balance(&self, account: &str) -> Money {
            self.accounts.get(account).copied().unwrap_or(Money::ZERO)
        }

        /// Escrowed balance of an account.
        pub fn escrowed(&self, account: &str) -> Money {
            self.escrow.get(account).copied().unwrap_or(Money::ZERO)
        }

        /// Serial mirror of [`super::Coordinator::seal_epoch`].
        pub fn seal_epoch(&mut self) -> EpochCommitment {
            let mut entries = std::mem::take(&mut self.gas.log);
            sort_canonical(&mut entries);
            let root = epoch_root(&entries);
            let commitment = EpochCommitment {
                index: self.epochs.len() as u64,
                entries,
                root,
            };
            self.epochs.push(commitment.clone());
            commitment
        }

        /// Roots of every sealed epoch, in seal order.
        pub fn epoch_roots(&self) -> Vec<Digest> {
            self.epochs.iter().map(|e| e.root).collect()
        }

        /// Serial mirror of [`super::Coordinator::submit_claim_quoted`]:
        /// charges the static report's gas quote and escrows
        /// `max(D_p, deposit_bound)`, rejecting inadmissible graphs.
        ///
        /// # Errors
        ///
        /// Returns an error when the report carries `Deny` findings or the
        /// proposer cannot post the quoted deposit.
        pub fn submit_claim_quoted(
            &mut self,
            proposer: &str,
            commitment: Digest,
            meta: &ClaimMeta,
            report: &tao_analysis::StaticReport,
        ) -> Result<u64> {
            if !report.is_admissible() {
                return Err(ProtocolError::BadState(format!(
                    "claim graph fails static analysis: {} deny finding(s)",
                    report.deny_count()
                )));
            }
            let deposit = self.amounts.d_p.max(report.deposit_bound);
            self.lock(proposer, deposit)?;
            let id = self.claims.len() as u64;
            self.claims.push(Claim {
                id,
                proposer: proposer.to_string(),
                commitment,
                posted_at: self.tick,
                window: meta.challenge_window,
                deposit,
                status: ClaimStatus::Pending,
                events: 1,
            });
            self.gas
                .charge_claim(id, 0, "commit_claim", report.gas_quote, deposit);
            Ok(id)
        }

        /// A claim by id.
        ///
        /// # Errors
        ///
        /// Returns an error for an unknown id.
        pub fn claim(&self, id: u64) -> Result<&Claim> {
            self.claims
                .get(id as usize)
                .ok_or(ProtocolError::UnknownClaim(id))
        }

        /// Advances the clock, finalizing elapsed pending claims.
        pub fn advance(&mut self, ticks: u64) -> Vec<u64> {
            self.tick += ticks;
            let now = self.tick;
            let mut finalized = Vec::new();
            let mut releases = Vec::new();
            for claim in &mut self.claims {
                if matches!(claim.status, ClaimStatus::Pending) && now > claim.deadline() {
                    claim.status = ClaimStatus::Finalized;
                    let seq = claim.events;
                    claim.events += 1;
                    releases.push((claim.proposer.clone(), claim.id, claim.deposit, seq));
                }
            }
            let r_p = self.amounts.r_p;
            for (proposer, id, deposit, seq) in releases {
                self.release(&proposer, deposit);
                self.fund(&proposer, r_p);
                self.gas.charge_claim(id, seq, "finalize", 0, r_p);
                finalized.push(id);
            }
            finalized
        }

        /// Opens a challenge, escrowing `D_ch`.
        ///
        /// # Errors
        ///
        /// Returns an error when the claim is not pending, the window
        /// closed, or the challenger cannot post the deposit.
        pub fn open_challenge(&mut self, id: u64, challenger: &str) -> Result<()> {
            let (deadline, status_ok) = {
                let claim = self.claim(id)?;
                (
                    claim.deadline(),
                    matches!(claim.status, ClaimStatus::Pending),
                )
            };
            if !status_ok {
                return Err(ProtocolError::BadState(format!(
                    "claim #{id} is not pending"
                )));
            }
            if self.tick > deadline {
                return Err(ProtocolError::WindowClosed {
                    claim: id,
                    now: self.tick,
                    deadline,
                });
            }
            let d_ch = self.amounts.d_ch;
            self.lock(challenger, d_ch)?;
            let claim = &mut self.claims[id as usize];
            claim.status = ClaimStatus::Disputed {
                challenger: challenger.to_string(),
            };
            let seq = claim.events;
            claim.events += 1;
            self.gas
                .charge_claim(id, seq, "open_challenge", gas::open_challenge(), d_ch);
            Ok(())
        }

        /// Serial mirror of [`super::Coordinator::adopt_challenge`]: swaps
        /// challenger-of-record, escrows the adopter's `D_ch` and burns
        /// the deserter's deposit.
        ///
        /// # Errors
        ///
        /// Returns an error when the claim is not disputed, the adopter is
        /// already the challenger, or the adopter cannot post the deposit.
        pub fn adopt_challenge(&mut self, id: u64, adopter: &str) -> Result<String> {
            let deserter = {
                let claim = self.claim(id)?;
                let ClaimStatus::Disputed { challenger } = &claim.status else {
                    return Err(ProtocolError::BadState(format!(
                        "claim #{id} is not disputed"
                    )));
                };
                if challenger == adopter {
                    return Err(ProtocolError::BadState(format!(
                        "claim #{id}: {adopter} already challenges it"
                    )));
                }
                challenger.clone()
            };
            let d_ch = self.amounts.d_ch;
            self.lock(adopter, d_ch)?;
            self.take_escrow(&deserter, d_ch);
            let claim = &mut self.claims[id as usize];
            claim.status = ClaimStatus::Disputed {
                challenger: adopter.to_string(),
            };
            let seq = claim.events;
            claim.events += 1;
            self.gas
                .charge_claim(id, seq, "adopt_challenge", gas::open_challenge(), d_ch);
            Ok(deserter)
        }

        /// Settles a disputed claim with the same pure-function-of-claim
        /// amounts as [`super::Coordinator::settle`].
        ///
        /// # Errors
        ///
        /// Returns an error when the claim is not disputed.
        pub fn settle(&mut self, id: u64, winner: Party, committee_size: usize) -> Result<()> {
            let (proposer, challenger, deposit) = {
                let claim = self.claim(id)?;
                let ClaimStatus::Disputed { challenger } = &claim.status else {
                    return Err(ProtocolError::BadState(format!(
                        "claim #{id} is not disputed"
                    )));
                };
                (claim.proposer.clone(), challenger.clone(), claim.deposit)
            };
            let moved = match winner {
                Party::Challenger => {
                    let slashed = self.slash.min(deposit);
                    self.take_escrow(&proposer, slashed);
                    self.release(&proposer, deposit - slashed);
                    let split = slash_split(slashed, self.amounts.alpha_ch, self.amounts.alpha_cm);
                    self.fund(&challenger, split.reward);
                    if committee_size > 0 {
                        self.fund("committee-pool", split.committee);
                    }
                    let d_ch = self.amounts.d_ch;
                    self.release(&challenger, d_ch);
                    slashed
                }
                Party::Proposer => {
                    let forfeited = self.amounts.d_ch.min(self.escrowed(&challenger));
                    self.take_escrow(&challenger, forfeited);
                    self.fund(&proposer, forfeited);
                    self.release(&proposer, deposit);
                    let r_p = self.amounts.r_p;
                    self.fund(&proposer, r_p);
                    if committee_size > 0 {
                        self.fund(
                            "committee-pool",
                            self.amounts.committee_fee * committee_size as u64,
                        );
                    }
                    forfeited
                }
            };
            let claim = &mut self.claims[id as usize];
            claim.status = ClaimStatus::Settled { winner };
            let seq = claim.events;
            claim.events += 1;
            self.gas
                .charge_claim(id, seq, "settlement", gas::settlement(), moved);
            Ok(())
        }

        fn lock(&mut self, account: &str, amount: Money) -> Result<()> {
            let available = self.balance(account);
            if available < amount {
                return Err(ProtocolError::InsufficientFunds {
                    account: account.to_string(),
                    needed: amount,
                    available,
                });
            }
            *self.accounts.get_mut(account).expect("checked above") -= amount;
            *self
                .escrow
                .entry(account.to_string())
                .or_insert(Money::ZERO) += amount;
            Ok(())
        }

        fn release(&mut self, account: &str, amount: Money) {
            let held = self.escrowed(account);
            let amount = amount.min(held);
            if amount > Money::ZERO {
                *self.escrow.get_mut(account).expect("held > 0") -= amount;
                self.fund(account, amount);
            }
        }

        fn take_escrow(&mut self, account: &str, amount: Money) {
            let held = self.escrowed(account);
            let amount = amount.min(held);
            if amount > Money::ZERO {
                *self.escrow.get_mut(account).expect("held > 0") -= amount;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::canonical_log;

    fn m(credits: i64) -> Money {
        Money::from_credits(credits)
    }

    fn commitment() -> Digest {
        tao_merkle::sha256(b"claim")
    }

    fn meta() -> ClaimMeta {
        ClaimMeta {
            device: "sim-a100".into(),
            kernel: "pairwise".into(),
            dtype: "f32".into(),
            challenge_window: 10,
        }
    }

    fn coordinator() -> Coordinator {
        let econ = EconParams::default_market();
        let (lo, hi) = econ.feasible_slash_region().unwrap();
        Coordinator::new(econ, (lo + hi) / 2.0).unwrap()
    }

    #[test]
    fn happy_path_finalizes_and_pays() {
        let c = coordinator();
        c.fund("prop", 1_000);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        assert!(matches!(c.claim(id).unwrap().status, ClaimStatus::Pending));
        assert!(c.advance(5).is_empty(), "window still open");
        let finalized = c.advance(6);
        assert_eq!(finalized, vec![id]);
        assert!(matches!(
            c.claim(id).unwrap().status,
            ClaimStatus::Finalized
        ));
        // Deposit returned plus reward — exactly.
        assert_eq!(c.balance("prop"), m(1_000) + c.amounts().r_p);
    }

    #[test]
    fn challenge_freezes_and_challenger_win_slashes() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("chal", 100);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        c.open_challenge(id, "chal").unwrap();
        assert!(matches!(
            c.claim(id).unwrap().status,
            ClaimStatus::Disputed { .. }
        ));
        // Cannot finalize while disputed.
        assert!(c.advance(100).is_empty());
        c.settle(id, Party::Challenger, 5).unwrap();
        assert!(matches!(
            c.claim(id).unwrap().status,
            ClaimStatus::Settled {
                winner: Party::Challenger
            }
        ));
        // Challenger got deposit back plus its slash share.
        assert!(c.balance("chal") > m(100));
        // Proposer lost the slash.
        assert!(c.balance("prop") < m(1_000));
        // Committee pool funded.
        assert!(c.balance("committee-pool") > Money::ZERO);
        // The slash split conserved value exactly.
        assert_eq!(c.ledger().total_value(), c.ledger().injected());
    }

    #[test]
    fn proposer_win_takes_challenger_deposit() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("chal", 100);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        c.open_challenge(id, "chal").unwrap();
        c.settle(id, Party::Proposer, 0).unwrap();
        assert!(c.balance("chal") < m(100), "spammer must lose its deposit");
        assert!(
            c.balance("prop") > m(1_000),
            "proposer made whole plus reward"
        );
    }

    #[test]
    fn adoption_burns_deserter_and_continues_dispute() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("colluder", 100);
        c.fund("watchtower", 100);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        c.open_challenge(id, "colluder").unwrap();
        let deserter = c.adopt_challenge(id, "watchtower").unwrap();
        assert_eq!(deserter, "colluder");
        // The deserter's deposit is burned: gone from escrow, not refunded.
        assert_eq!(c.balance("colluder"), m(100) - c.amounts().d_ch);
        assert_eq!(c.escrowed("colluder"), Money::ZERO);
        // The adopter is challenger of record with its own deposit down.
        assert!(matches!(
            c.claim(id).unwrap().status,
            ClaimStatus::Disputed { ref challenger } if challenger == "watchtower"
        ));
        assert_eq!(c.escrowed("watchtower"), c.amounts().d_ch);
        // The dispute settles normally for the adopter, and the burn kept
        // the ledger conserved — exactly.
        c.settle(id, Party::Challenger, 3).unwrap();
        assert!(c.balance("watchtower") > m(100));
        assert_eq!(c.ledger().total_value(), c.ledger().injected());
    }

    #[test]
    fn adoption_guards_status_and_identity() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("chal", 100);
        c.fund("poor", 1);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        // Not disputed yet.
        assert!(c.adopt_challenge(id, "watchtower").is_err());
        c.open_challenge(id, "chal").unwrap();
        // Self-adoption is meaningless.
        assert!(c.adopt_challenge(id, "chal").is_err());
        // Adopter must post the deposit; a failed adoption changes nothing.
        assert!(matches!(
            c.adopt_challenge(id, "poor"),
            Err(ProtocolError::InsufficientFunds { .. })
        ));
        assert!(matches!(
            c.claim(id).unwrap().status,
            ClaimStatus::Disputed { ref challenger } if challenger == "chal"
        ));
        assert_eq!(c.escrowed("chal"), c.amounts().d_ch);
    }

    #[test]
    fn serial_adoption_matches_sharded() {
        let econ = EconParams::default_market();
        let (lo, hi) = econ.feasible_slash_region().unwrap();
        let slash = (lo + hi) / 2.0;
        let mut s = reference::SerialCoordinator::new(econ, slash).unwrap();
        let c = coordinator();
        for acct in ["prop", "colluder", "watchtower"] {
            s.fund(acct, 1_000);
            c.fund(acct, 1_000);
        }
        let sid = s
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        let cid = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        s.open_challenge(sid, "colluder").unwrap();
        c.open_challenge(cid, "colluder").unwrap();
        assert_eq!(
            s.adopt_challenge(sid, "watchtower").unwrap(),
            c.adopt_challenge(cid, "watchtower").unwrap()
        );
        s.settle(sid, Party::Challenger, 3).unwrap();
        c.settle(cid, Party::Challenger, 3).unwrap();
        for acct in ["prop", "colluder", "watchtower", "committee-pool"] {
            assert_eq!(
                s.balance(acct),
                c.balance(acct),
                "{acct}: serial vs coordinator"
            );
        }
        // Canonical gas logs are byte-identical too.
        assert_eq!(canonical_log(&s.gas), canonical_log(&c.gas()));
    }

    #[test]
    fn huge_window_saturates_instead_of_wrapping_into_finality() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("chal", 100);
        c.advance(1);
        let huge = ClaimMeta {
            challenge_window: u64::MAX,
            ..meta()
        };
        let id = c
            .submit_claim_quoted("prop", commitment(), &huge, report())
            .unwrap();
        assert_eq!(c.claim(id).unwrap().deadline(), u64::MAX);
        assert!(c.advance(1).is_empty(), "an open window must not finalize");
        assert_eq!(c.claim(id).unwrap().status, ClaimStatus::Pending);
        assert_eq!(c.balance("prop"), m(500), "no reward paid");
        c.open_challenge(id, "chal").unwrap();
    }

    #[test]
    fn audits_cannot_be_adopted() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("watchtower", 100);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        c.open_audit(id).unwrap();
        let gas = c.gas();
        assert!(matches!(
            c.adopt_challenge(id, "watchtower"),
            Err(ProtocolError::BadState(_))
        ));
        // Nothing moved: the audit stays the committee's.
        assert_eq!(c.balance("watchtower"), m(100));
        assert_eq!(c.escrowed("watchtower"), Money::ZERO);
        assert_eq!(c.gas(), gas);
        assert!(matches!(
            c.claim(id).unwrap().status,
            ClaimStatus::Disputed { ref challenger } if challenger == AUDIT_ACCOUNT
        ));
        // The slash share of a guilty verdict never reaches the watchtower.
        c.settle(id, Party::Challenger, 3).unwrap();
        assert_eq!(c.balance("watchtower"), m(100));
        assert_eq!(c.ledger().total_value(), c.ledger().injected());
    }

    #[test]
    fn audit_account_cannot_challenge_or_adopt() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("colluder", 100);
        c.fund(AUDIT_ACCOUNT, 100);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        let gas = c.gas();
        assert!(matches!(
            c.open_challenge(id, AUDIT_ACCOUNT),
            Err(ProtocolError::BadState(_))
        ));
        assert_eq!(c.claim(id).unwrap().status, ClaimStatus::Pending);
        assert_eq!(c.balance(AUDIT_ACCOUNT), m(100));
        assert_eq!(c.escrowed(AUDIT_ACCOUNT), Money::ZERO);
        assert_eq!(c.gas(), gas);
        // Nor can the name take over an abandoned challenge, which would
        // make it look like an audit nobody may adopt.
        c.open_challenge(id, "colluder").unwrap();
        let gas = c.gas();
        assert!(matches!(
            c.adopt_challenge(id, AUDIT_ACCOUNT),
            Err(ProtocolError::BadState(_))
        ));
        assert!(matches!(
            c.claim(id).unwrap().status,
            ClaimStatus::Disputed { ref challenger } if challenger == "colluder"
        ));
        assert_eq!(c.balance(AUDIT_ACCOUNT), m(100));
        assert_eq!(c.escrowed("colluder"), c.amounts().d_ch);
        assert_eq!(c.gas(), gas);
        // The abandoned challenge stays adoptable by a real watchtower.
        c.fund("watchtower", 100);
        assert_eq!(c.adopt_challenge(id, "watchtower").unwrap(), "colluder");
    }

    #[test]
    fn late_challenge_rejected() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("chal", 100);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        c.advance(11);
        assert!(matches!(
            c.open_challenge(id, "chal"),
            Err(ProtocolError::BadState(_)) | Err(ProtocolError::WindowClosed { .. })
        ));
    }

    #[test]
    fn insufficient_deposit_rejected() {
        let c = coordinator();
        c.fund("poor", 1);
        let err = c
            .submit_claim_quoted("poor", commitment(), &meta(), report())
            .unwrap_err();
        match err {
            ProtocolError::InsufficientFunds {
                account,
                needed,
                available,
            } => {
                assert_eq!(account, "poor");
                assert_eq!(needed, c.amounts().d_p);
                assert_eq!(available, m(1));
            }
            other => panic!("expected InsufficientFunds, got {other:?}"),
        }
        // A rejected submission allocates no claim id.
        assert!(c.state.lock().claims.is_empty());
    }

    #[test]
    fn timeout_loses_dispute() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("chal", 100);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        c.open_challenge(id, "chal").unwrap();
        c.timeout(id, Party::Proposer).unwrap();
        assert!(matches!(
            c.claim(id).unwrap().status,
            ClaimStatus::Settled {
                winner: Party::Challenger
            }
        ));
    }

    #[test]
    fn audit_selection_is_deterministic_and_near_phi() {
        let c = coordinator();
        c.fund("prop", 100_000);
        let mut selected = 0;
        let n = 400;
        for i in 0..n {
            let id = c
                .submit_claim_quoted(
                    "prop",
                    tao_merkle::sha256(format!("c{i}").as_bytes()),
                    &meta(),
                    report(),
                )
                .unwrap();
            assert_eq!(
                c.audit_selected(id, 7).unwrap(),
                c.audit_selected(id, 7).unwrap(),
                "deterministic per (claim, beacon)"
            );
            if c.audit_selected(id, 7).unwrap() {
                selected += 1;
            }
            c.advance(100);
        }
        // φ = 0.05: expect roughly 5% selected (generous band).
        let rate = selected as f64 / n as f64;
        assert!((0.01..0.12).contains(&rate), "audit rate {rate}");
    }

    #[test]
    fn audit_freezes_without_challenger_deposit() {
        let c = coordinator();
        c.fund("prop", 1_000);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        c.open_audit(id).unwrap();
        assert!(matches!(
            c.claim(id).unwrap().status,
            ClaimStatus::Disputed { .. }
        ));
        // A ruled-clean audit pays the committee from fees, not a deposit.
        c.settle(id, Party::Proposer, 5).unwrap();
        assert!(c.balance("committee-pool") > Money::ZERO);
        // Audits cannot reopen a settled claim.
        assert!(c.open_audit(id).is_err());
    }

    #[test]
    fn infeasible_slash_rejected_at_construction() {
        let econ = EconParams {
            phi: 0.0,
            phi_ch: 0.0,
            ..EconParams::default_market()
        };
        assert!(Coordinator::new(econ, 100.0).is_err());
    }

    #[test]
    fn gas_ledger_accumulates() {
        let c = coordinator();
        c.fund("prop", 1_000);
        let before = c.gas().total;
        let _ = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        assert!(c.gas().total > before);
    }

    #[test]
    fn seal_epoch_drains_log_and_chains_roots() {
        let c = coordinator();
        c.fund("prop", 1_000);
        c.fund("chal", 100);
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), report())
            .unwrap();
        c.open_challenge(id, "chal").unwrap();
        c.settle(id, Party::Challenger, 3).unwrap();
        let total_before = c.gas().total;
        let epoch = c.seal_epoch();
        assert_eq!(epoch.index, 0);
        assert_eq!(epoch.entries.len(), 3, "commit, challenge, settlement");
        assert_ne!(epoch.root, Digest::default());
        // The meter drained into the epoch but kept its running total.
        assert!(c.gas().log.is_empty());
        assert_eq!(c.gas().total, total_before);
        // A second (empty) epoch gets the empty root and the next index.
        let empty = c.seal_epoch();
        assert_eq!(empty.index, 1);
        assert_eq!(empty.root, Digest::default());
        assert_eq!(c.epoch_roots(), vec![epoch.root, empty.root]);
    }

    #[test]
    fn settlement_amounts_are_pure_functions_of_the_claim() {
        // Two coordinators settle the same claim with different unrelated
        // activity in flight; the settled balances must be identical.
        let run = |extra_claims: u64| {
            let c = coordinator();
            c.fund("prop", 100_000);
            c.fund("chal", 10_000);
            let id = c
                .submit_claim_quoted("prop", commitment(), &meta(), report())
                .unwrap();
            c.open_challenge(id, "chal").unwrap();
            for i in 0..extra_claims {
                let extra = c
                    .submit_claim_quoted(
                        "prop",
                        tao_merkle::sha256(&i.to_le_bytes()),
                        &meta(),
                        report(),
                    )
                    .unwrap();
                c.open_challenge(extra, "chal").unwrap();
            }
            c.settle(id, Party::Challenger, 3).unwrap();
            (c.balance("chal"), c.balance("committee-pool"))
        };
        // Proposer aggregate escrow differs (1 vs 9 deposits), but the
        // slash depends only on the settled claim's deposit.
        let (chal_a, pool_a) = run(0);
        let (chal_b, pool_b) = run(8);
        assert_eq!(pool_a, pool_b);
        // chal's own balance differs by the extra deposits it escrowed;
        // normalize by adding them back.
        let d_ch = coordinator().amounts().d_ch;
        assert_eq!(chal_a, chal_b + d_ch * 8);
    }

    /// The admission quote every test claim posts under.
    fn report() -> &'static tao_analysis::StaticReport {
        static REPORT: std::sync::OnceLock<tao_analysis::StaticReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(report_for_tiny_graph)
    }

    fn report_for_tiny_graph() -> tao_analysis::StaticReport {
        let mut b = tao_graph::GraphBuilder::new(1);
        let x = b.input(0, "x");
        let w = b.parameter("w", tao_tensor::Tensor::<f32>::eye(8));
        let y = b.op("y", tao_graph::OpKind::MatMul, &[x, w]);
        let s = b.op("s", tao_graph::OpKind::Softmax, &[y]);
        let g = b.finish(vec![s]).unwrap();
        tao_analysis::analyze(&g, &[vec![4, 8]])
    }

    #[test]
    fn quoted_submission_charges_the_static_quote_and_scales_the_deposit() {
        let c = coordinator();
        c.fund("prop", 1_000);
        let report = report_for_tiny_graph();
        assert!(report.is_admissible());
        let id = c
            .submit_claim_quoted("prop", commitment(), &meta(), &report)
            .unwrap();
        // Gas charged is exactly the quote, which rides on the flat base.
        assert_eq!(c.gas().total, report.gas_quote);
        assert!(report.gas_quote >= gas::commit_claim());
        // The tiny model's FLOP bound is far below D_p: flat deposit.
        let claim = c.claim(id).unwrap();
        assert_eq!(claim.deposit, m(500));
        assert_eq!(c.escrowed("prop"), claim.deposit);
        // Finalization releases the per-claim deposit exactly.
        c.advance(11);
        assert_eq!(c.escrowed("prop"), Money::ZERO);
    }

    #[test]
    fn quoted_submission_rejects_inadmissible_graphs_before_money_moves() {
        let c = coordinator();
        c.fund("prop", 1_000);
        let mut report = report_for_tiny_graph();
        report.lint_findings.push(tao_analysis::LintFinding::deny(
            tao_analysis::LintRule::ShapeMismatch,
            None,
            "planted violation",
        ));
        assert!(matches!(
            c.submit_claim_quoted("prop", commitment(), &meta(), &report),
            Err(ProtocolError::BadState(_))
        ));
        assert_eq!(c.escrowed("prop"), Money::ZERO);
        assert_eq!(c.gas().total, 0);
        assert!(c.state.lock().claims.is_empty());
    }

    #[test]
    fn serial_quoted_submission_matches_sharded() {
        let econ = EconParams::default_market();
        let (lo, hi) = econ.feasible_slash_region().unwrap();
        let slash = (lo + hi) / 2.0;
        let mut s = reference::SerialCoordinator::new(econ, slash).unwrap();
        let c = coordinator();
        let report = report_for_tiny_graph();
        s.fund("prop", 1_000);
        c.fund("prop", 1_000);
        let sid = s
            .submit_claim_quoted("prop", commitment(), &meta(), &report)
            .unwrap();
        let cid = c
            .submit_claim_quoted("prop", commitment(), &meta(), &report)
            .unwrap();
        assert_eq!(s.claim(sid).unwrap().deposit, c.claim(cid).unwrap().deposit);
        assert_eq!(s.gas.total, c.gas().total);
        s.advance(11);
        c.advance(11);
        assert_eq!(s.balance("prop"), c.balance("prop"));
    }

    #[test]
    fn concurrent_submissions_get_unique_dense_ids() {
        let c = std::sync::Arc::new(coordinator());
        c.fund("prop", 1_000_000);
        let mut ids: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let c = c.clone();
                    scope.spawn(move || {
                        (0..16)
                            .map(|i| {
                                c.submit_claim_quoted(
                                    "prop",
                                    tao_merkle::sha256(format!("{t}-{i}").as_bytes()),
                                    &meta(),
                                    report(),
                                )
                                .unwrap()
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        assert_eq!(ids, (0..128).collect::<Vec<u64>>(), "dense unique ids");
        // Every deposit is escrowed exactly once — exactly.
        assert_eq!(c.escrowed("prop"), m(500) * 128);
        assert_eq!(c.ledger().total_value(), c.ledger().injected());
    }

    #[test]
    fn parallel_settles_on_distinct_claims_match_serial() {
        // Drive the same 32-claim batch through the coordinator in
        // parallel and the serial reference oracle; balances, canonical
        // gas logs and epoch roots must be bit-identical.
        let econ = EconParams::default_market();
        let (lo, hi) = econ.feasible_slash_region().unwrap();
        let slash = (lo + hi) / 2.0;
        let serial = {
            let mut s = reference::SerialCoordinator::new(econ, slash).unwrap();
            s.fund("prop", 100_000);
            s.fund("chal", 10_000);
            for i in 0..32u64 {
                let id = s
                    .submit_claim_quoted(
                        "prop",
                        tao_merkle::sha256(&i.to_le_bytes()),
                        &meta(),
                        report(),
                    )
                    .unwrap();
                s.open_challenge(id, "chal").unwrap();
                let winner = if i % 3 == 0 {
                    Party::Challenger
                } else {
                    Party::Proposer
                };
                s.settle(id, winner, 3).unwrap();
            }
            s
        };
        let c = std::sync::Arc::new(coordinator());
        c.fund("prop", 100_000);
        c.fund("chal", 10_000);
        let ids: Vec<u64> = (0..32u64)
            .map(|i| {
                let id = c
                    .submit_claim_quoted(
                        "prop",
                        tao_merkle::sha256(&i.to_le_bytes()),
                        &meta(),
                        report(),
                    )
                    .unwrap();
                c.open_challenge(id, "chal").unwrap();
                id
            })
            .collect();
        std::thread::scope(|scope| {
            for chunk in ids.chunks(8) {
                let c = c.clone();
                let chunk = chunk.to_vec();
                scope.spawn(move || {
                    for id in chunk {
                        let winner = if id % 3 == 0 {
                            Party::Challenger
                        } else {
                            Party::Proposer
                        };
                        c.settle(id, winner, 3).unwrap();
                    }
                });
            }
        });
        for account in ["prop", "chal", "committee-pool"] {
            assert_eq!(
                serial.balance(account),
                c.balance(account),
                "{account}: serial vs coordinator"
            );
        }
        assert_eq!(c.ledger().total_value(), c.ledger().injected());
        // The canonical log is identical even though the coordinator's
        // meter filled in settle-interleaving order, and so is the epoch root.
        assert_eq!(canonical_log(&serial.gas), canonical_log(&c.gas()));
        let mut s_mut = serial;
        assert_eq!(s_mut.seal_epoch().root, c.seal_epoch().root);
    }
}
