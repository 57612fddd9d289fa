//! Exact fixed-point money for the TAO marketplace ledger.
//!
//! Every balance, escrow, deposit, fee and slash in the protocol is a
//! [`Money`]: a signed 128-bit count of **micro-credits** (`1 credit =
//! 10^6` units, [`SCALE`]). Integer arithmetic makes parallel settlement
//! associative — parallel settlement in any interleaving produces
//! bit-identical balances to the serial reference, and the conservation
//! invariant `Σ balances + Σ escrow == injected` is an exact equality
//! rather than an `abs() < 1e-9` tolerance.
//!
//! # Rounding policy
//!
//! Rounding happens in exactly two places, both documented here and
//! nowhere else:
//!
//! 1. **Conversion from f64** ([`Money::from_f64`]) — used only at
//!    configuration boundaries (economic parameters expressed as f64 in
//!    the paper's formulas). Rounds half away from zero and fails on
//!    non-finite or out-of-range input.
//! 2. **Proportional splits** ([`Ppm::apply`] and [`slash_split`]) —
//!    each share takes the *floor* of its exact proportional amount and
//!    the **remainder goes to the burn** (the protocol sink), so
//!    `reward + committee + burn == slashed` exactly: no dust is ever
//!    dropped or minted. A burn-favoring remainder is the conservative
//!    choice — neither counterparty can profit from rounding.
//!
//! Everywhere else arithmetic is checked: the operator impls panic on
//! overflow (an i128 micro-credit ledger overflows at ~1.7e32 credits,
//! so a panic indicates corrupted state, not a plausible balance), and
//! the `checked_*` methods return `None` for callers that want to
//! surface the failure as a typed error.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Micro-credit scale: number of [`Money`] units per whole credit.
pub const SCALE: i128 = 1_000_000;

/// Denominator of a [`Ppm`] ratio (parts per million).
pub const PPM_SCALE: i128 = 1_000_000;

/// An exact ledger amount in micro-credits (`1/1_000_000` credit).
///
/// `Money` is `Copy`, totally ordered, and hashes/compares by its exact
/// integer value. The arithmetic operators (`+`, `-`, `+=`, `-=`,
/// `* u64`, unary `-`) panic on overflow; use [`Money::checked_add`] /
/// [`Money::checked_sub`] / [`Money::checked_mul`] to handle overflow as
/// a value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Money(i128);

impl Money {
    /// Zero credits.
    pub const ZERO: Money = Money(0);

    /// The largest representable amount.
    pub const MAX: Money = Money(i128::MAX);

    /// Constructs a `Money` from a raw count of micro-credit units.
    pub const fn from_units(units: i128) -> Self {
        Money(units)
    }

    /// Constructs a `Money` from a whole number of credits.
    ///
    /// # Panics
    ///
    /// Panics if `credits * SCALE` overflows i128 (requires |credits|
    /// near 1.7e32 — unreachable from an i64).
    pub const fn from_credits(credits: i64) -> Self {
        Money(credits as i128 * SCALE)
    }

    /// The raw micro-credit count.
    pub const fn units(self) -> i128 {
        self.0
    }

    /// Whole-credit part, truncated toward zero.
    pub const fn credits(self) -> i128 {
        self.0 / SCALE
    }

    /// Converts an f64 credit amount to exact micro-credits, rounding
    /// half away from zero. Returns `None` for NaN, infinities, and
    /// values outside the representable range.
    ///
    /// This is the *only* sanctioned f64 → Money path; it exists for
    /// configuration boundaries (economic parameters are specified as
    /// f64 by the paper's formulas), never for ledger arithmetic.
    pub fn from_f64(credits: f64) -> Option<Self> {
        if !credits.is_finite() {
            return None;
        }
        let scaled = credits * SCALE as f64;
        // i128::MAX as f64 rounds up; compare against 2^127 exactly.
        if scaled >= 2f64.powi(127) || scaled <= -(2f64.powi(127)) {
            return None;
        }
        let rounded = if scaled >= 0.0 {
            (scaled + 0.5).floor()
        } else {
            (scaled - 0.5).ceil()
        };
        Some(Money(rounded as i128))
    }

    /// The amount as f64 credits (lossy above 2^53 micro-credits; for
    /// display, modeling and analytics only — never ledger math).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Money) -> Option<Money> {
        self.0.checked_add(rhs.0).map(Money)
    }

    /// Checked subtraction; `None` on overflow.
    pub fn checked_sub(self, rhs: Money) -> Option<Money> {
        self.0.checked_sub(rhs.0).map(Money)
    }

    /// Checked multiplication by a scalar count; `None` on overflow.
    pub fn checked_mul(self, n: u64) -> Option<Money> {
        self.0.checked_mul(n as i128).map(Money)
    }

    /// True when the amount is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Larger of two amounts.
    pub fn max(self, other: Money) -> Money {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Smaller of two amounts.
    pub fn min(self, other: Money) -> Money {
        if self <= other {
            self
        } else {
            other
        }
    }
}

/// Whole credits convert implicitly so call sites read
/// `fund("proposer", 10_000)`.
impl From<i64> for Money {
    fn from(credits: i64) -> Self {
        Money::from_credits(credits)
    }
}

impl From<i32> for Money {
    fn from(credits: i32) -> Self {
        Money::from_credits(credits as i64)
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        self.checked_add(rhs).expect("Money addition overflow")
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        self.checked_sub(rhs).expect("Money subtraction overflow")
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Money {
    type Output = Money;
    fn mul(self, n: u64) -> Money {
        self.checked_mul(n).expect("Money multiplication overflow")
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(self.0.checked_neg().expect("Money negation overflow"))
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |acc, m| acc + m)
    }
}

/// Renders as decimal credits, trailing zeros trimmed (`"500"`,
/// `"0.05"`, `"-2.000001"`).
impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let whole = abs / SCALE as u128;
        let frac = abs % SCALE as u128;
        if frac == 0 {
            write!(f, "{sign}{whole}")
        } else {
            let digits = format!("{frac:06}");
            write!(f, "{sign}{whole}.{}", digits.trim_end_matches('0'))
        }
    }
}

/// An exact proportional rate in parts per million.
///
/// `Ppm(500_000)` is one half. Rates above 1_000_000 are legal (a >100%
/// multiplier) but the protocol's split policy requires share rates to
/// sum to at most [`PPM_SCALE`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppm(pub u32);

impl Ppm {
    /// Constructs a rate from an f64 fraction in `[0, 4294.967295]`,
    /// rounding half up to the nearest ppm. Returns `None` for
    /// non-finite or out-of-range input.
    pub fn from_fraction(fraction: f64) -> Option<Self> {
        if !fraction.is_finite() || fraction < 0.0 {
            return None;
        }
        let ppm = (fraction * PPM_SCALE as f64 + 0.5).floor();
        if ppm > u32::MAX as f64 {
            return None;
        }
        Some(Ppm(ppm as u32))
    }

    /// The rate as an f64 fraction.
    pub fn as_fraction(self) -> f64 {
        self.0 as f64 / PPM_SCALE as f64
    }

    /// Applies the rate to an amount, taking the **floor** of the exact
    /// proportional value (floor toward negative infinity, so negative
    /// amounts also round in the ledger's favor). This is rounding
    /// point 2 of the crate-level policy.
    pub fn apply(self, amount: Money) -> Money {
        let exact = amount
            .units()
            .checked_mul(self.0 as i128)
            .expect("Ppm::apply overflow");
        Money::from_units(exact.div_euclid(PPM_SCALE))
    }
}

impl fmt::Display for Ppm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ppm", self.0)
    }
}

/// The three exact parts of a settled slash.
///
/// Invariant (checked in debug builds and by property test):
/// `reward + committee + burn == slashed` for the input the split was
/// computed from, with `burn >= 0` whenever
/// `reward_rate + committee_rate <= 1_000_000` ppm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlashSplit {
    /// Challenger reward: `floor(reward_rate · slashed)`.
    pub reward: Money,
    /// Committee pool share: `floor(committee_rate · slashed)`.
    pub committee: Money,
    /// Protocol burn: the exact remainder, absorbing both rounding
    /// residues per the crate-level policy.
    pub burn: Money,
}

/// Splits a slashed amount into challenger reward, committee share and
/// burn with zero dust: each proportional share floors and the burn
/// takes the remainder, so the parts always sum exactly to `slashed`.
///
/// # Panics
///
/// Panics when `reward_rate + committee_rate` exceeds 1_000_000 ppm
/// (the burn would go negative: the caller's economics are infeasible
/// and were supposed to be rejected at construction).
pub fn slash_split(slashed: Money, reward_rate: Ppm, committee_rate: Ppm) -> SlashSplit {
    assert!(
        reward_rate.0 as u64 + committee_rate.0 as u64 <= PPM_SCALE as u64,
        "slash_split: share rates {reward_rate} + {committee_rate} exceed 100%"
    );
    let reward = reward_rate.apply(slashed);
    let committee = committee_rate.apply(slashed);
    let burn = slashed - reward - committee;
    debug_assert_eq!(reward + committee + burn, slashed);
    SlashSplit {
        reward,
        committee,
        burn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn credit_scale_roundtrips() {
        assert_eq!(Money::from_credits(500).units(), 500 * SCALE);
        assert_eq!(Money::from_credits(-3).credits(), -3);
        assert_eq!(Money::from(10_000i64), Money::from_units(10_000 * SCALE));
    }

    #[test]
    fn from_f64_rounds_half_away_from_zero() {
        assert_eq!(Money::from_f64(1.0).unwrap().units(), SCALE);
        // 0.0000005 credits = 0.5 units -> 1 unit.
        assert_eq!(Money::from_f64(0.000_000_5).unwrap().units(), 1);
        assert_eq!(Money::from_f64(-0.000_000_5).unwrap().units(), -1);
        assert_eq!(Money::from_f64(0.000_000_4).unwrap().units(), 0);
        assert!(Money::from_f64(f64::NAN).is_none());
        assert!(Money::from_f64(f64::INFINITY).is_none());
        assert!(Money::from_f64(1e35).is_none());
    }

    #[test]
    fn display_prints_decimal_credits() {
        assert_eq!(Money::from_credits(500).to_string(), "500");
        assert_eq!(Money::from_units(50_000).to_string(), "0.05");
        assert_eq!(Money::from_units(-2_000_001).to_string(), "-2.000001");
        assert_eq!(Money::ZERO.to_string(), "0");
    }

    #[test]
    fn checked_ops_surface_overflow() {
        assert!(Money::MAX.checked_add(Money::from_units(1)).is_none());
        assert!(Money::from_units(i128::MIN + 1)
            .checked_sub(Money::from_units(2))
            .is_none());
        assert!(Money::MAX.checked_mul(2).is_none());
        assert_eq!(
            Money::from_credits(2).checked_mul(3),
            Some(Money::from_credits(6))
        );
    }

    #[test]
    #[should_panic(expected = "Money addition overflow")]
    fn operator_add_panics_on_overflow() {
        let _ = Money::MAX + Money::from_units(1);
    }

    #[test]
    fn ppm_apply_floors() {
        let half = Ppm::from_fraction(0.5).unwrap();
        assert_eq!(half, Ppm(500_000));
        // floor(0.5 * 3 units) = 1 unit.
        assert_eq!(half.apply(Money::from_units(3)).units(), 1);
        // Floor toward -inf for negative amounts.
        assert_eq!(half.apply(Money::from_units(-3)).units(), -2);
        assert_eq!(
            half.apply(Money::from_credits(500)),
            Money::from_credits(250)
        );
    }

    #[test]
    fn ppm_from_fraction_is_exact_for_market_rates() {
        assert_eq!(Ppm::from_fraction(0.5).unwrap().0, 500_000);
        assert_eq!(Ppm::from_fraction(0.3).unwrap().0, 300_000);
        assert!(Ppm::from_fraction(f64::NAN).is_none());
        assert!(Ppm::from_fraction(-0.1).is_none());
    }

    #[test]
    fn slash_split_routes_remainder_to_burn() {
        // 7 units at 50% + 30%: reward floor(3.5)=3, committee
        // floor(2.1)=2, burn = 7-3-2 = 2.
        let s = slash_split(Money::from_units(7), Ppm(500_000), Ppm(300_000));
        assert_eq!(s.reward.units(), 3);
        assert_eq!(s.committee.units(), 2);
        assert_eq!(s.burn.units(), 2);
        assert_eq!(s.reward + s.committee + s.burn, Money::from_units(7));
    }

    #[test]
    #[should_panic(expected = "exceed 100%")]
    fn slash_split_rejects_over_unity_rates() {
        let _ = slash_split(Money::from_credits(1), Ppm(700_000), Ppm(400_000));
    }

    proptest! {
        /// Satellite 2: every split's parts sum exactly to the whole —
        /// `burn + reward + fee == slashed` — and no share goes negative
        /// for a non-negative slash under feasible (≤100%) rates.
        #[test]
        fn split_parts_always_sum_exactly(
            units in 0i64..1_000_000_000_000i64,
            reward_ppm in 0u32..1_000_001u32,
            committee_frac in 0u32..1_000_001u32,
        ) {
            let committee_ppm = ((1_000_000 - reward_ppm) as u64 * committee_frac as u64
                / 1_000_000) as u32;
            let slashed = Money::from_units(units as i128);
            let s = slash_split(slashed, Ppm(reward_ppm), Ppm(committee_ppm));
            prop_assert_eq!(s.reward + s.committee + s.burn, slashed);
            prop_assert!(s.reward >= Money::ZERO);
            prop_assert!(s.committee >= Money::ZERO);
            prop_assert!(s.burn >= Money::ZERO);
        }

        /// Money addition is associative — the property f64 lacked and
        /// the reason parallel settlement is now bit-exact.
        #[test]
        fn addition_is_associative(
            a in -1_000_000_000_000i64..1_000_000_000_000i64,
            b in -1_000_000_000_000i64..1_000_000_000_000i64,
            c in -1_000_000_000_000i64..1_000_000_000_000i64,
        ) {
            let (a, b, c) = (
                Money::from_units(a as i128),
                Money::from_units(b as i128),
                Money::from_units(c as i128),
            );
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        /// f64 roundtrip is exact for amounts with ≤ 6 decimal places in
        /// the f64-representable range (covers every econ parameter).
        #[test]
        fn f64_roundtrip_exact_in_range(units in -1_000_000_000_000i64..1_000_000_000_000i64) {
            let m = Money::from_units(units as i128);
            prop_assert_eq!(Money::from_f64(m.to_f64()), Some(m));
        }
    }
}
