//! Economic soundness and incentives (§5.5, Eq. 16–25), and the sharded
//! account [`Ledger`] that moves the money.
//!
//! Incentive analysis ([`EconParams`]) stays in f64 — the paper's
//! utility formulas are real-valued and never touch the ledger. The
//! *amounts* the protocol actually moves are derived once, exactly, into
//! an [`EconAmounts`] ([`Money`] deposits/fees plus [`Ppm`] split rates)
//! and all ledger arithmetic from that point on is exact i128
//! fixed-point: see the `tao-money` crate docs for the scale and the
//! rounding policy.
//!
//! The ledger shards accounts over [`ACCOUNT_SHARDS`] independent locks so
//! bond operations on unrelated accounts never contend. Operations that
//! touch two accounts ([`Ledger::transfer`], [`Ledger::escrow_transfer`])
//! acquire both shard locks in **ascending shard-index order** (one lock
//! when the accounts collide on a shard), which makes the lock order a
//! total order and rules out deadlock by construction. Single-account
//! operations hold exactly one shard lock. The supply counter is only ever
//! locked on its own, after every account lock has been released.

use std::collections::HashMap;

use parking_lot::Mutex;
use tao_money::{Money, Ppm};

use crate::error::ProtocolError;

/// Parameters of the fee-and-deposit mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EconParams {
    /// Randomized-audit probability `φ`.
    pub phi: f64,
    /// Voluntary-challenge probability `φ_ch`.
    pub phi_ch: f64,
    /// False-negative rate `ε₁` (fraud missed inside tolerances).
    pub eps1: f64,
    /// False-positive rate `ε₂` (honest work wrongly flagged).
    pub eps2: f64,
    /// Honest execution cost `C_p`.
    pub c_p: f64,
    /// Cheap-cheating cost `C'_p` (e.g. smaller model).
    pub c_p_cheap: f64,
    /// Targeted-cheating cost `C''_p` (adversarial perturbation search).
    pub c_p_targeted: f64,
    /// Task reward `R_p`.
    pub r_p: f64,
    /// Challenger verification cost `C_ch`.
    pub c_ch: f64,
    /// Committee member cost `C_a`.
    pub c_a: f64,
    /// Challenger share of the slash `α_ch`.
    pub alpha_ch: f64,
    /// Committee share of the slash `α_cm`.
    pub alpha_cm: f64,
    /// Committee size `n`.
    pub n_committee: usize,
    /// Committee fee `F_i` paid when the claim is ruled clean.
    pub committee_fee: f64,
    /// Proposer deposit `D_p`.
    pub d_p: f64,
    /// Challenger deposit `D_ch`.
    pub d_ch: f64,
}

impl EconParams {
    /// A plausible default parameterization used by the examples and the
    /// feasibility bench.
    pub fn default_market() -> Self {
        EconParams {
            phi: 0.05,
            phi_ch: 0.10,
            eps1: 0.0,
            eps2: 0.0,
            c_p: 10.0,
            c_p_cheap: 2.0,
            c_p_targeted: 10_000.0,
            r_p: 15.0,
            c_ch: 12.0,
            c_a: 1.0,
            alpha_ch: 0.5,
            alpha_cm: 0.3,
            n_committee: 5,
            committee_fee: 2.0,
            d_p: 500.0,
            d_ch: 50.0,
        }
    }

    /// Detection probability `d(φ, φ_ch, ε₁) = (φ + φ_ch)(1 − ε₁)`
    /// (Eq. 16).
    pub fn detection_prob(&self) -> f64 {
        (self.phi + self.phi_ch) * (1.0 - self.eps1)
    }

    /// Proposer payoff for honest execution (Eq. 17).
    pub fn u_proposer_honest(&self, s_slash: f64) -> f64 {
        self.r_p - self.c_p - self.eps2 * s_slash
    }

    /// Proposer payoff for cheap cheating (Eq. 18).
    pub fn u_proposer_cheap(&self, s_slash: f64) -> f64 {
        self.r_p - self.c_p_cheap - self.detection_prob() * s_slash
    }

    /// Proposer payoff for targeted cheating (Eq. 19); empirically
    /// `C''_p ≫ R_p`, so this is ≤ 0 in practice.
    pub fn u_proposer_targeted(&self) -> f64 {
        self.r_p - self.c_p_targeted
    }

    /// Voluntary challenger payoff against a guilty proposer (Eq. 21).
    pub fn u_challenger_guilty(&self, s_slash: f64) -> f64 {
        (1.0 - self.eps1) * self.alpha_ch * s_slash - self.c_ch
    }

    /// Voluntary challenger payoff against a clean proposer (Eq. 22).
    pub fn u_challenger_clean(&self) -> f64 {
        -self.c_ch - (1.0 - self.eps2) * self.d_ch
    }

    /// Committee member payoff when guilt is found (Eq. 24).
    pub fn u_committee_guilty(&self, s_slash: f64) -> f64 {
        self.alpha_cm * s_slash / self.n_committee as f64 - self.c_a
    }

    /// Committee member payoff when the claim is ruled clean (Eq. 25).
    pub fn u_committee_clean(&self) -> f64 {
        self.committee_fee - self.c_a
    }

    /// Lower bound `L₁` making honesty dominate cheap cheating (Eq. 20);
    /// `None` when `d(·) ≤ ε₂` (no slash can deter).
    pub fn l1(&self) -> Option<f64> {
        let d = self.detection_prob();
        if d <= self.eps2 {
            return None;
        }
        Some((self.c_p - self.c_p_cheap) / (d - self.eps2))
    }

    /// Lower bound `L₂` making honest challenges profitable (Eq. 23).
    pub fn l2(&self) -> Option<f64> {
        let denom = self.alpha_ch * (1.0 - self.eps1);
        if denom <= 0.0 {
            return None;
        }
        Some(self.c_ch / denom)
    }

    /// Lower bound `L₃` making committee participation sustainable.
    pub fn l3(&self) -> Option<f64> {
        if self.alpha_cm <= 0.0 {
            return None;
        }
        Some(self.n_committee as f64 * self.c_a / self.alpha_cm)
    }

    /// The feasible slash region `(L, D_p]` with `L = max{L₁, L₂, L₃}`;
    /// `None` when empty.
    pub fn feasible_slash_region(&self) -> Option<(f64, f64)> {
        let l = self.l1()?.max(self.l2()?).max(self.l3()?);
        if l < self.d_p {
            Some((l, self.d_p))
        } else {
            None
        }
    }

    /// True when `s_slash` satisfies every incentive constraint.
    pub fn incentive_compatible(&self, s_slash: f64) -> bool {
        match self.feasible_slash_region() {
            Some((lo, hi)) => s_slash > lo && s_slash <= hi,
            None => false,
        }
    }

    /// The exact ledger amounts these parameters imply: the one
    /// sanctioned f64 → [`Money`] conversion, performed once per
    /// coordinator at construction. `None` when any amount is
    /// non-finite, negative, or out of range, or when the split shares
    /// exceed 100%.
    pub fn amounts(&self) -> Option<EconAmounts> {
        let d_p = Money::from_f64(self.d_p)?;
        let d_ch = Money::from_f64(self.d_ch)?;
        let r_p = Money::from_f64(self.r_p)?;
        let committee_fee = Money::from_f64(self.committee_fee)?;
        if d_p < Money::ZERO
            || d_ch < Money::ZERO
            || r_p < Money::ZERO
            || committee_fee < Money::ZERO
        {
            return None;
        }
        let alpha_ch = Ppm::from_fraction(self.alpha_ch)?;
        let alpha_cm = Ppm::from_fraction(self.alpha_cm)?;
        if alpha_ch.0 as u64 + alpha_cm.0 as u64 > 1_000_000 {
            return None;
        }
        Some(EconAmounts {
            d_p,
            d_ch,
            r_p,
            committee_fee,
            alpha_ch,
            alpha_cm,
        })
    }
}

/// The exact fixed-point amounts the coordinator moves: every ledger
/// operation draws from these, never from the f64 [`EconParams`].
/// Derived once by [`EconParams::amounts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EconAmounts {
    /// Proposer deposit `D_p`.
    pub d_p: Money,
    /// Challenger deposit `D_ch`.
    pub d_ch: Money,
    /// Task reward `R_p`.
    pub r_p: Money,
    /// Per-member committee fee `F_i`.
    pub committee_fee: Money,
    /// Challenger share of the slash `α_ch`.
    pub alpha_ch: Ppm,
    /// Committee share of the slash `α_cm`.
    pub alpha_cm: Ppm,
}

/// Default number of account shards. The shard count is runtime
/// configurable via [`Ledger::with_shards`] and always rounded up to a
/// power of two so the shard index is a mask of the account-name hash.
pub const ACCOUNT_SHARDS: usize = 16;

/// One account's funds: the free balance and the escrowed bonds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Account {
    balance: Money,
    escrow: Money,
}

/// A sharded account ledger: balances and escrow split over
/// [`ACCOUNT_SHARDS`] locks keyed by a deterministic hash of the account
/// name, so operations on accounts in distinct shards run fully in
/// parallel.
///
/// Every operation conserves `Σ balances + Σ escrow` against the running
/// [`injected`](Ledger::injected) supply counter: mints add to it, burns
/// subtract from it, and transfers/reservations/releases leave it
/// untouched. Because balances are exact integers, at any quiescent
/// point (no operation in flight) [`total_value`](Ledger::total_value)
/// equals `injected()` **exactly** — the conservation invariant the
/// concurrency tests assert with `==` after every phase.
#[derive(Debug)]
pub struct Ledger {
    shards: Vec<Mutex<HashMap<String, Account>>>,
    /// Net value injected from outside (mints minus burns).
    supply: Mutex<Money>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

impl Ledger {
    /// An empty ledger with the default shard count
    /// ([`ACCOUNT_SHARDS`]).
    pub fn new() -> Self {
        Self::with_shards(ACCOUNT_SHARDS)
    }

    /// An empty ledger with `shards` account shards, rounded up to the
    /// next power of two (minimum 1 — a 1-shard ledger is the serial
    /// special case, useful as a differential baseline).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Ledger {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            supply: Mutex::new(Money::ZERO),
        }
    }

    /// The (power-of-two) number of account shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard index of an account (FNV-1a of the name,
    /// masked). Deterministic so shard placement — and therefore which
    /// operations can contend — is stable across runs and machines.
    pub fn shard_of(&self, account: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in account.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h as usize) & (self.shards.len() - 1)
    }

    /// Credits an account with freshly injected value (external funding or
    /// a protocol reward).
    pub fn mint(&self, account: &str, amount: Money) {
        if amount.is_zero() {
            return;
        }
        self.shards[self.shard_of(account)]
            .lock()
            .entry(account.to_string())
            .or_default()
            .balance += amount;
        *self.supply.lock() += amount;
    }

    /// Free (non-escrowed) balance of an account.
    pub fn balance(&self, account: &str) -> Money {
        self.shards[self.shard_of(account)]
            .lock()
            .get(account)
            .map_or(Money::ZERO, |a| a.balance)
    }

    /// Escrowed balance of an account.
    pub fn escrowed(&self, account: &str) -> Money {
        self.shards[self.shard_of(account)]
            .lock()
            .get(account)
            .map_or(Money::ZERO, |a| a.escrow)
    }

    /// Reserves a deposit: moves `amount` from the free balance into
    /// escrow, atomically under the account's shard lock.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InsufficientFunds`] naming the account, the
    /// requested amount and the available balance when the balance is
    /// below `amount`; nothing moves in that case.
    pub fn reserve(&self, account: &str, amount: Money) -> Result<(), ProtocolError> {
        let mut shard = self.shards[self.shard_of(account)].lock();
        let acct = shard.entry(account.to_string()).or_default();
        if acct.balance < amount {
            return Err(ProtocolError::InsufficientFunds {
                account: account.to_string(),
                needed: amount,
                available: acct.balance,
            });
        }
        acct.balance -= amount;
        acct.escrow += amount;
        Ok(())
    }

    /// Releases up to `amount` from escrow back to the free balance;
    /// returns how much actually moved (clamped to the escrowed funds).
    pub fn release(&self, account: &str, amount: Money) -> Money {
        let mut shard = self.shards[self.shard_of(account)].lock();
        let acct = shard.entry(account.to_string()).or_default();
        let moved = amount.min(acct.escrow).max(Money::ZERO);
        acct.escrow -= moved;
        acct.balance += moved;
        moved
    }

    /// Destroys up to `amount` of escrowed funds (a slash burn); returns
    /// how much was actually burned.
    pub fn burn_escrow(&self, account: &str, amount: Money) -> Money {
        let burned = {
            let mut shard = self.shards[self.shard_of(account)].lock();
            let acct = shard.entry(account.to_string()).or_default();
            let burned = amount.min(acct.escrow).max(Money::ZERO);
            acct.escrow -= burned;
            burned
        };
        if !burned.is_zero() {
            *self.supply.lock() -= burned;
        }
        burned
    }

    /// Atomic two-account transfer of free balance. Both shard locks are
    /// taken in ascending shard-index order (a single lock when the
    /// accounts share a shard), so concurrent reverse transfers cannot
    /// deadlock.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InsufficientFunds`] when `from`'s balance is
    /// below `amount`; nothing moves in that case.
    pub fn transfer(&self, from: &str, to: &str, amount: Money) -> Result<(), ProtocolError> {
        if from == to {
            let balance = self.balance(from);
            return if balance < amount {
                Err(ProtocolError::InsufficientFunds {
                    account: from.to_string(),
                    needed: amount,
                    available: balance,
                })
            } else {
                Ok(())
            };
        }
        self.with_pair(from, to, |a, b| {
            if a.balance < amount {
                return Err(ProtocolError::InsufficientFunds {
                    account: from.to_string(),
                    needed: amount,
                    available: a.balance,
                });
            }
            a.balance -= amount;
            b.balance += amount;
            Ok(())
        })
    }

    /// Atomically moves up to `amount` from `from`'s **escrow** into
    /// `to`'s free balance (a forfeiture or slash share), with the same
    /// ascending lock order as [`transfer`](Self::transfer). Returns how
    /// much moved.
    pub fn escrow_transfer(&self, from: &str, to: &str, amount: Money) -> Money {
        if from == to {
            return self.release(from, amount);
        }
        self.with_pair(from, to, |a, b| {
            let moved = amount.min(a.escrow).max(Money::ZERO);
            a.escrow -= moved;
            b.balance += moved;
            moved
        })
    }

    /// Runs `f` with both accounts' entries under their shard locks,
    /// acquired in ascending shard-index order. `from` and `to` must be
    /// distinct account names.
    fn with_pair<R>(
        &self,
        from: &str,
        to: &str,
        f: impl FnOnce(&mut Account, &mut Account) -> R,
    ) -> R {
        debug_assert_ne!(from, to, "with_pair requires distinct accounts");
        let (ia, ib) = (self.shard_of(from), self.shard_of(to));
        if ia == ib {
            let mut shard = self.shards[ia].lock();
            shard.entry(from.to_string()).or_default();
            shard.entry(to.to_string()).or_default();
            // Two live &mut entries into one map are impossible; operate on
            // local copies and write both back under the same lock.
            let mut a = shard[from];
            let mut b = shard[to];
            let out = f(&mut a, &mut b);
            shard.insert(from.to_string(), a);
            shard.insert(to.to_string(), b);
            out
        } else {
            let (lo, hi) = (ia.min(ib), ia.max(ib));
            let g_lo = self.shards[lo].lock();
            let g_hi = self.shards[hi].lock();
            let (mut g_from, mut g_to) = if ia == lo { (g_lo, g_hi) } else { (g_hi, g_lo) };
            let a = g_from.entry(from.to_string()).or_default();
            // The guards borrow disjoint maps, so both entries are live.
            let b = g_to.entry(to.to_string()).or_default();
            f(a, b)
        }
    }

    /// Net value injected from outside (mints minus burns).
    pub fn injected(&self) -> Money {
        *self.supply.lock()
    }

    /// `Σ balances + Σ escrow` over every account. Integer addition is
    /// associative, so no summation order is imposed. Only meaningful at
    /// quiescent points: the shard locks are taken one at a time, not
    /// all at once.
    pub fn total_value(&self) -> Money {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .values()
                    .map(|a| a.balance + a.escrow)
                    .sum::<Money>()
            })
            .sum()
    }

    /// Every account name the ledger has seen, sorted.
    pub fn accounts(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }
}

impl Clone for Ledger {
    fn clone(&self) -> Self {
        Ledger {
            shards: self
                .shards
                .iter()
                .map(|s| Mutex::new(s.lock().clone()))
                .collect(),
            supply: Mutex::new(*self.supply.lock()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(credits: i64) -> Money {
        Money::from_credits(credits)
    }

    #[test]
    fn detection_prob_formula() {
        let p = EconParams::default_market();
        assert!((p.detection_prob() - 0.15).abs() < 1e-12);
        let lossy = EconParams { eps1: 0.5, ..p };
        assert!((lossy.detection_prob() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn default_market_has_nonempty_region() {
        let p = EconParams::default_market();
        let (lo, hi) = p.feasible_slash_region().expect("region exists");
        assert!(lo < hi);
        // Any slash inside satisfies all three constraints.
        let s = (lo + hi) / 2.0;
        assert!(p.incentive_compatible(s));
        assert!(p.u_proposer_honest(s) > p.u_proposer_cheap(s));
        assert!(p.u_challenger_guilty(s) > 0.0);
        assert!(p.u_challenger_clean() < 0.0, "spam must not pay");
        assert!(p.u_committee_guilty(s) > 0.0);
        assert!(p.u_committee_clean() > 0.0);
    }

    #[test]
    fn targeted_cheating_unprofitable() {
        let p = EconParams::default_market();
        assert!(p.u_proposer_targeted() < 0.0);
    }

    #[test]
    fn region_empty_when_detection_too_weak() {
        let p = EconParams {
            phi: 0.0,
            phi_ch: 0.0,
            ..EconParams::default_market()
        };
        assert!(p.l1().is_none());
        assert!(p.feasible_slash_region().is_none());
        assert!(!p.incentive_compatible(100.0));
    }

    #[test]
    fn region_empty_when_deposit_too_small() {
        let p = EconParams {
            d_p: 1.0,
            ..EconParams::default_market()
        };
        assert!(p.feasible_slash_region().is_none());
    }

    #[test]
    fn l_bounds_move_with_parameters() {
        let p = EconParams::default_market();
        let tighter = EconParams { c_ch: 24.0, ..p };
        assert!(tighter.l2().unwrap() > p.l2().unwrap());
        let bigger_committee = EconParams {
            n_committee: 10,
            ..p
        };
        assert!(bigger_committee.l3().unwrap() > p.l3().unwrap());
    }

    #[test]
    fn slash_below_region_fails_constraints() {
        let p = EconParams::default_market();
        let (lo, _) = p.feasible_slash_region().unwrap();
        assert!(!p.incentive_compatible(lo * 0.5));
    }

    #[test]
    fn amounts_derive_exactly_from_default_market() {
        let a = EconParams::default_market()
            .amounts()
            .expect("finite params");
        assert_eq!(a.d_p, m(500));
        assert_eq!(a.d_ch, m(50));
        assert_eq!(a.r_p, m(15));
        assert_eq!(a.committee_fee, m(2));
        assert_eq!(a.alpha_ch, Ppm(500_000));
        assert_eq!(a.alpha_cm, Ppm(300_000));
    }

    #[test]
    fn amounts_reject_bad_parameterizations() {
        let p = EconParams::default_market();
        assert!(EconParams { d_p: f64::NAN, ..p }.amounts().is_none());
        assert!(EconParams { d_ch: -1.0, ..p }.amounts().is_none());
        // Shares summing past 100% would make the burn negative.
        assert!(EconParams {
            alpha_ch: 0.7,
            alpha_cm: 0.4,
            ..p
        }
        .amounts()
        .is_none());
    }

    #[test]
    fn ledger_roundtrip_conserves_value() {
        let l = Ledger::new();
        l.mint("a", m(100));
        l.mint("b", m(50));
        assert_eq!(l.balance("a"), m(100));
        l.reserve("a", m(30)).unwrap();
        assert_eq!(l.balance("a"), m(70));
        assert_eq!(l.escrowed("a"), m(30));
        // Satellite 1: the failure is a typed error naming the account,
        // the requirement, and the shortfall — not a bare f64.
        match l.reserve("b", m(51)).unwrap_err() {
            ProtocolError::InsufficientFunds {
                account,
                needed,
                available,
            } => {
                assert_eq!(account, "b");
                assert_eq!(needed, m(51));
                assert_eq!(available, m(50));
            }
            other => panic!("expected InsufficientFunds, got {other:?}"),
        }
        assert_eq!(l.release("a", m(10)), m(10));
        assert_eq!(l.release("a", m(1_000)), m(20), "release clamps to escrow");
        assert_eq!(l.total_value(), l.injected());
        assert_eq!(l.injected(), m(150));
    }

    #[test]
    fn ledger_burn_reduces_supply() {
        let l = Ledger::new();
        l.mint("a", m(100));
        l.reserve("a", m(60)).unwrap();
        assert_eq!(l.burn_escrow("a", m(45)), m(45));
        assert_eq!(l.burn_escrow("a", m(45)), m(15), "burn clamps to escrow");
        assert_eq!(l.injected(), m(40));
        assert_eq!(l.total_value(), l.injected());
    }

    #[test]
    fn ledger_transfers_are_atomic_and_conserving() {
        let l = Ledger::new();
        l.mint("a", m(100));
        l.mint("b", m(10));
        l.transfer("a", "b", m(25)).unwrap();
        assert_eq!(l.balance("a"), m(75));
        assert_eq!(l.balance("b"), m(35));
        match l.transfer("a", "b", m(80)).unwrap_err() {
            ProtocolError::InsufficientFunds {
                account,
                needed,
                available,
            } => {
                assert_eq!(account, "a");
                assert_eq!(needed, m(80));
                assert_eq!(available, m(75));
            }
            other => panic!("expected InsufficientFunds, got {other:?}"),
        }
        l.reserve("a", m(50)).unwrap();
        assert_eq!(l.escrow_transfer("a", "b", m(30)), m(30));
        assert_eq!(l.escrow_transfer("a", "b", m(30)), m(20), "clamped");
        assert_eq!(l.escrowed("a"), Money::ZERO);
        assert_eq!(l.balance("b"), m(85));
        // Self-transfers are no-ops on the balance.
        l.transfer("a", "a", m(5)).unwrap();
        assert_eq!(l.balance("a"), m(25));
        assert_eq!(l.total_value(), l.injected());
    }

    #[test]
    fn ledger_same_shard_pair_uses_one_lock() {
        // Find two distinct names that collide on a shard, then transfer
        // between them: the single-lock path must still move the money.
        let l = Ledger::new();
        let a = "acct-0".to_string();
        let mut b = None;
        for i in 1..10_000 {
            let cand = format!("acct-{i}");
            if l.shard_of(&cand) == l.shard_of(&a) {
                b = Some(cand);
                break;
            }
        }
        let b = b.expect("a colliding account exists");
        l.mint(&a, m(10));
        l.transfer(&a, &b, m(4)).unwrap();
        assert_eq!(l.balance(&a), m(6));
        assert_eq!(l.balance(&b), m(4));
    }

    #[test]
    fn ledger_reverse_transfers_from_threads_never_deadlock_or_lose_updates() {
        // The two-lock-ordering trap: threads transferring around a cycle
        // in both directions. Every iteration is net-zero, so any lost
        // update or deadlock shows up as a balance mismatch or a hang.
        let l = std::sync::Arc::new(Ledger::new());
        for acct in ["x", "y", "z"] {
            l.mint(acct, m(1_000));
        }
        std::thread::scope(|scope| {
            for t in 0..8 {
                let l = l.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        if t % 2 == 0 {
                            l.transfer("x", "y", m(1)).unwrap();
                            l.transfer("y", "z", m(1)).unwrap();
                            l.transfer("z", "x", m(1)).unwrap();
                        } else {
                            l.transfer("z", "y", m(1)).unwrap();
                            l.transfer("y", "x", m(1)).unwrap();
                            l.transfer("x", "z", m(1)).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(l.balance("x"), m(1_000));
        assert_eq!(l.balance("y"), m(1_000));
        assert_eq!(l.balance("z"), m(1_000));
        assert_eq!(l.injected(), m(3_000));
    }
}
