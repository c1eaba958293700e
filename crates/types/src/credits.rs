//! Fixed-point credit arithmetic for the leaky bucket.
//!
//! The paper's bucket (Eq. 1) is `f(t) = C + (A - B) * t` clamped to
//! `[0, C]`. Implementing that with floating point makes refill amounts
//! depend on the order of observations; instead credits are integers in
//! units of one millionth of a credit ("microcredits"), and refill over an
//! elapsed interval is computed exactly with 128-bit intermediates. Two
//! servers that observe the same sequence of timestamps compute identical
//! credit values — which is what makes check-pointed state portable across
//! a master/slave failover.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::time::Duration;

/// Microcredits per whole credit.
pub const MICROCREDITS_PER_CREDIT: u64 = 1_000_000;

const NANOS_PER_SEC: u128 = 1_000_000_000;

/// An amount of admission credit, in fixed-point microcredits.
///
/// One whole credit admits one request. Fractional credit accumulates
/// between refill observations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Credits(u64);

impl Credits {
    /// Zero credit.
    pub const ZERO: Credits = Credits(0);
    /// The largest representable credit amount.
    pub const MAX: Credits = Credits(u64::MAX);
    /// Exactly one whole credit (the cost of one admitted request).
    pub const ONE: Credits = Credits(MICROCREDITS_PER_CREDIT);

    /// Construct from a whole number of credits (saturating).
    pub const fn from_whole(credits: u64) -> Credits {
        Credits(credits.saturating_mul(MICROCREDITS_PER_CREDIT))
    }

    /// Construct from raw microcredits.
    pub const fn from_micro(micro: u64) -> Credits {
        Credits(micro)
    }

    /// Raw microcredit count.
    pub const fn as_micro(self) -> u64 {
        self.0
    }

    /// Whole credits, rounding down.
    pub const fn whole(self) -> u64 {
        self.0 / MICROCREDITS_PER_CREDIT
    }

    /// Credits as a float, for reporting.
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MICROCREDITS_PER_CREDIT as f64
    }

    /// True if at least one whole credit is available.
    pub const fn covers_one_request(self) -> bool {
        self.0 >= MICROCREDITS_PER_CREDIT
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Credits) -> Credits {
        Credits(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero, like a draining bucket).
    pub const fn saturating_sub(self, rhs: Credits) -> Credits {
        Credits(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two amounts (used to clamp at bucket capacity).
    pub fn min(self, other: Credits) -> Credits {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Credits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}uc", self.0)
    }
}

impl fmt::Display for Credits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_f64())
    }
}

impl Add for Credits {
    type Output = Credits;
    fn add(self, rhs: Credits) -> Credits {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Credits {
    fn add_assign(&mut self, rhs: Credits) {
        *self = *self + rhs;
    }
}

impl Sub for Credits {
    type Output = Credits;
    fn sub(self, rhs: Credits) -> Credits {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Credits {
    fn sub_assign(&mut self, rhs: Credits) {
        *self = *self - rhs;
    }
}

/// A bucket refill rate: the access rate the user purchased.
///
/// Stored as microcredits per second so that e.g. "0.5 requests/second"
/// (one request every two seconds) is representable exactly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RefillRate(u64);

impl RefillRate {
    /// No refill: combined with zero capacity this denies all access.
    pub const ZERO: RefillRate = RefillRate(0);

    /// Rate of `n` whole credits (requests) per second.
    pub const fn per_second(n: u64) -> RefillRate {
        RefillRate(n.saturating_mul(MICROCREDITS_PER_CREDIT))
    }

    /// Rate of `n` whole credits per minute.
    pub const fn per_minute(n: u64) -> RefillRate {
        RefillRate(n.saturating_mul(MICROCREDITS_PER_CREDIT) / 60)
    }

    /// Rate of `n` whole credits per hour.
    pub const fn per_hour(n: u64) -> RefillRate {
        RefillRate(n.saturating_mul(MICROCREDITS_PER_CREDIT) / 3600)
    }

    /// Rate from raw microcredits per second.
    pub const fn from_micro_per_sec(micro: u64) -> RefillRate {
        RefillRate(micro)
    }

    /// Raw microcredits per second.
    pub const fn micro_per_sec(self) -> u64 {
        self.0
    }

    /// Rate in whole credits per second, as a float (reporting only).
    pub fn per_sec_f64(self) -> f64 {
        self.0 as f64 / MICROCREDITS_PER_CREDIT as f64
    }

    /// Exact credit accrued over `elapsed`, rounding down.
    ///
    /// `rate_micro * elapsed_ns / 1e9`, exact: no overflow for any u64
    /// rate over any u64-nanosecond interval, and no drift — accumulating
    /// remainders is the bucket's job (it refills from an anchored
    /// timestamp, not by summing deltas). When the product fits in a
    /// `u64` (a refill over any gap shorter than `u64::MAX / rate` ns:
    /// five hours at a million credits per second) the division is a
    /// `u64` one by a constant, a multiply; otherwise it is done in
    /// 128-bit arithmetic, a `__udivti3` call. Both give the same value.
    #[inline]
    pub fn accrued_over(self, elapsed: Duration) -> Credits {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        match self.0.checked_mul(ns) {
            Some(product) => Credits::from_micro(product / NANOS_PER_SEC as u64),
            None => {
                let micro = (u128::from(self.0) * u128::from(ns)) / NANOS_PER_SEC;
                Credits::from_micro(u64::try_from(micro).unwrap_or(u64::MAX))
            }
        }
    }
}

impl fmt::Debug for RefillRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}uc/s", self.0)
    }
}

impl fmt::Display for RefillRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}/s", self.per_sec_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrng::{TestRng, CASES};

    #[test]
    fn one_credit_covers_one_request() {
        assert!(Credits::ONE.covers_one_request());
        assert!(!Credits::from_micro(MICROCREDITS_PER_CREDIT - 1).covers_one_request());
    }

    #[test]
    fn whole_rounds_down() {
        assert_eq!(Credits::from_micro(1_999_999).whole(), 1);
        assert_eq!(Credits::from_micro(2_000_000).whole(), 2);
    }

    #[test]
    fn rate_constructors() {
        assert_eq!(RefillRate::per_second(100).micro_per_sec(), 100_000_000);
        assert_eq!(
            RefillRate::per_minute(60).micro_per_sec(),
            RefillRate::per_second(1).micro_per_sec()
        );
        assert_eq!(
            RefillRate::per_hour(3600).micro_per_sec(),
            RefillRate::per_second(1).micro_per_sec()
        );
    }

    #[test]
    fn accrual_is_exact_for_whole_seconds() {
        let rate = RefillRate::per_second(100);
        assert_eq!(
            rate.accrued_over(Duration::from_secs(10)),
            Credits::from_whole(1000)
        );
    }

    #[test]
    fn accrual_handles_sub_credit_rates() {
        // 1 request per minute: after 30 seconds, exactly half a credit.
        let rate = RefillRate::per_minute(1);
        let half = rate.accrued_over(Duration::from_secs(30));
        // per_minute(1) = 1_000_000/60 = 16_666 uc/s (floor); 30s -> 499_980.
        assert_eq!(half, Credits::from_micro(16_666 * 30));
        assert!(!half.covers_one_request());
    }

    #[test]
    fn accrual_over_zero_is_zero() {
        assert_eq!(
            RefillRate::per_second(1000).accrued_over(Duration::ZERO),
            Credits::ZERO
        );
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(Credits::ONE - Credits::from_whole(5), Credits::ZERO);
    }

    #[test]
    fn max_rate_max_interval_does_not_panic() {
        let rate = RefillRate::from_micro_per_sec(u64::MAX);
        let c = rate.accrued_over(Duration::from_nanos(u64::MAX));
        assert_eq!(c, Credits::MAX);
    }

    #[test]
    fn accrual_agrees_with_the_u128_formula_across_the_u64_boundary() {
        // The u64 path runs while `rate × ns` fits; the u128 path takes
        // over one nanosecond later. Both must give the 128-bit result.
        fn reference(rate: u64, ns: u64) -> u64 {
            let micro = u128::from(rate) * u128::from(ns) / NANOS_PER_SEC;
            u64::try_from(micro).unwrap_or(u64::MAX)
        }
        let mut rng = TestRng::new(0xC4ED_0004);
        let (mut narrow, mut wide) = (0, 0);
        for _ in 0..CASES {
            let shift = rng.below(64);
            let rate = rng.between(1, u64::MAX >> shift);
            let edge = u64::MAX / rate;
            for ns in [
                0,
                1,
                rng.between(0, edge),
                edge.saturating_sub(1),
                edge,
                edge.saturating_add(1),
                edge.saturating_add(rng.between(0, 1 << 20)),
                rng.next_u64(),
                u64::MAX,
            ] {
                let got =
                    RefillRate::from_micro_per_sec(rate).accrued_over(Duration::from_nanos(ns));
                assert_eq!(got.as_micro(), reference(rate, ns), "rate={rate} ns={ns}");
                match rate.checked_mul(ns) {
                    Some(_) => narrow += 1,
                    None => wide += 1,
                }
            }
        }
        assert!(
            narrow > CASES && wide > CASES,
            "{narrow} u64 cases, {wide} u128 cases"
        );
        // Past u64 nanoseconds the interval saturates, as before.
        let rate = RefillRate::from_micro_per_sec(3);
        assert_eq!(
            rate.accrued_over(Duration::MAX),
            rate.accrued_over(Duration::from_nanos(u64::MAX))
        );
    }

    #[test]
    fn accrual_is_monotonic_in_time() {
        let mut rng = TestRng::new(0xC4ED_0001);
        for _ in 0..CASES {
            let rate = RefillRate::from_micro_per_sec(rng.between(0, 10_000_000_000));
            let a = rng.between(0, 86_400_000_000_000);
            let b = rng.between(0, 86_400_000_000_000);
            assert!(
                rate.accrued_over(Duration::from_nanos(a.min(b)))
                    <= rate.accrued_over(Duration::from_nanos(a.max(b)))
            );
        }
    }

    #[test]
    fn accrual_is_superadditive_in_time() {
        // Splitting an interval loses at most one microcredit of rounding
        // per split; the whole-interval accrual is always >= the
        // sum-of-parts and within 1uc of it.
        let mut rng = TestRng::new(0xC4ED_0002);
        for _ in 0..CASES {
            let rate = RefillRate::from_micro_per_sec(rng.between(0, 10_000_000_000));
            let a = rng.between(0, 3_600_000_000_000);
            let b = rng.between(0, 3_600_000_000_000);
            let whole = rate.accrued_over(Duration::from_nanos(a + b));
            let parts = rate.accrued_over(Duration::from_nanos(a))
                + rate.accrued_over(Duration::from_nanos(b));
            assert!(whole >= parts);
            assert!(whole.as_micro() - parts.as_micro() <= 1);
        }
    }

    #[test]
    fn add_then_sub_roundtrips() {
        let mut rng = TestRng::new(0xC4ED_0003);
        for _ in 0..CASES {
            let x = Credits::from_micro(rng.below(u64::MAX / 2));
            let y = Credits::from_micro(rng.below(u64::MAX / 2));
            assert_eq!((x + y) - y, x);
        }
    }
}
