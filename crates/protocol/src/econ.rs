//! Economic soundness and incentives (§5.5, Eq. 16–25), and the account
//! [`Ledger`] that moves the money.
//!
//! Incentive analysis ([`EconParams`]) stays in f64 — the paper's
//! utility formulas are real-valued and never touch the ledger. The
//! *amounts* the protocol actually moves are derived once, exactly, into
//! an [`EconAmounts`] ([`Money`] deposits/fees plus [`Ppm`] split rates)
//! and all ledger arithmetic from that point on is exact i128
//! fixed-point: see the `tao-money` crate docs for the scale and the
//! rounding policy.

use std::collections::HashMap;

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

/// One account's funds: the free balance and the escrowed bonds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Account {
    balance: Money,
    escrow: Money,
}

/// The account ledger: each account's free balance and escrow, plus the
/// net supply injected from outside. Plain data; the
/// [`Coordinator`](crate::Coordinator) owns one behind its lock.
///
/// Every operation conserves `Σ balances + Σ escrow` against the running
/// [`injected`](Ledger::injected) supply counter: mints add to it, burns
/// subtract from it, and reservations/releases/escrow transfers leave it
/// untouched. Because balances are exact integers,
/// [`total_value`](Ledger::total_value) equals `injected()` **exactly**
/// — the conservation invariant the concurrency tests assert with `==`
/// after every phase.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    accounts: HashMap<String, Account>,
    /// Net value injected from outside (mints minus burns).
    supply: Money,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry of `account`, created empty on first use.
    fn account(&mut self, account: &str) -> &mut Account {
        self.accounts.entry(account.to_string()).or_default()
    }

    /// Credits an account with freshly injected value (external funding or
    /// a protocol reward).
    pub fn mint(&mut self, account: &str, amount: Money) {
        if amount.is_zero() {
            return;
        }
        self.account(account).balance += amount;
        self.supply += amount;
    }

    /// Free (non-escrowed) balance of an account.
    pub fn balance(&self, account: &str) -> Money {
        self.accounts
            .get(account)
            .map_or(Money::ZERO, |a| a.balance)
    }

    /// Escrowed balance of an account.
    pub fn escrowed(&self, account: &str) -> Money {
        self.accounts.get(account).map_or(Money::ZERO, |a| a.escrow)
    }

    /// Reserves a deposit: moves `amount` from the free balance into
    /// escrow.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InsufficientFunds`] naming the account, the
    /// requested amount and the available balance when the balance is
    /// below `amount`; nothing moves in that case.
    pub fn reserve(&mut self, account: &str, amount: Money) -> Result<(), ProtocolError> {
        let acct = self.account(account);
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
    pub fn release(&mut self, account: &str, amount: Money) -> Money {
        let acct = self.account(account);
        let moved = amount.min(acct.escrow).max(Money::ZERO);
        acct.escrow -= moved;
        acct.balance += moved;
        moved
    }

    /// Destroys up to `amount` of escrowed funds (a slash burn); returns
    /// how much was actually burned.
    pub fn burn_escrow(&mut self, account: &str, amount: Money) -> Money {
        let acct = self.account(account);
        let burned = amount.min(acct.escrow).max(Money::ZERO);
        acct.escrow -= burned;
        self.supply -= burned;
        burned
    }

    /// Moves up to `amount` from `from`'s **escrow** into `to`'s free
    /// balance (a forfeiture); returns how much moved.
    pub fn escrow_transfer(&mut self, from: &str, to: &str, amount: Money) -> Money {
        let acct = self.account(from);
        let moved = amount.min(acct.escrow).max(Money::ZERO);
        acct.escrow -= moved;
        self.account(to).balance += moved;
        moved
    }

    /// Net value injected from outside (mints minus burns).
    pub fn injected(&self) -> Money {
        self.supply
    }

    /// `Σ balances + Σ escrow` over every account.
    pub fn total_value(&self) -> Money {
        self.accounts.values().map(|a| a.balance + a.escrow).sum()
    }

    /// Every account name the ledger has seen, sorted.
    pub fn accounts(&self) -> Vec<String> {
        let mut names: Vec<String> = self.accounts.keys().cloned().collect();
        names.sort();
        names
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
        let mut l = Ledger::new();
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
        let mut l = Ledger::new();
        l.mint("a", m(100));
        l.reserve("a", m(60)).unwrap();
        assert_eq!(l.burn_escrow("a", m(45)), m(45));
        assert_eq!(l.burn_escrow("a", m(45)), m(15), "burn clamps to escrow");
        assert_eq!(l.injected(), m(40));
        assert_eq!(l.total_value(), l.injected());
    }

    #[test]
    fn ledger_escrow_transfer_clamps_and_conserves() {
        let mut l = Ledger::new();
        l.mint("a", m(100));
        l.mint("b", m(10));
        l.reserve("a", m(50)).unwrap();
        assert_eq!(l.escrow_transfer("a", "b", m(30)), m(30));
        assert_eq!(l.escrow_transfer("a", "b", m(30)), m(20), "clamped");
        assert_eq!(l.escrowed("a"), Money::ZERO);
        assert_eq!(l.balance("a"), m(50));
        assert_eq!(l.balance("b"), m(60));
        // A self-transfer releases the escrow back to the free balance.
        l.reserve("b", m(5)).unwrap();
        assert_eq!(l.escrow_transfer("b", "b", m(8)), m(5));
        assert_eq!(l.balance("b"), m(60));
        assert_eq!(l.escrowed("b"), Money::ZERO);
        assert_eq!(l.total_value(), l.injected());
        assert_eq!(l.injected(), m(110));
    }
}
