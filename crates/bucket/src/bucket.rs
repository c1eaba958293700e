//! The leaky bucket with refill (paper §II-C, Fig. 3, Eq. 1–2).

use janus_clock::Nanos;
use janus_types::{Credits, QosRule, RefillRate, Verdict};

/// One QoS rule's live state: a leaky bucket.
///
/// The bucket stores the credit observed at an *anchor* timestamp and
/// derives the current credit as
///
/// ```text
/// credit(now) = min(capacity, credit_at_anchor + rate × (now − anchor))
/// ```
///
/// — the clamped form of the paper's `f(t) = C + (A − B)·t`. Deriving
/// from an anchor (rather than adding small deltas on every touch) means
/// fractional accrual is never lost to rounding while the bucket idles;
/// the anchor only moves when credit is actually consumed or the bucket
/// saturates.
///
/// Admission requires **one whole credit**. The paper phrases the check as
/// "credit greater than zero" over integer credits; with fractional
/// fixed-point credit the equivalent is `credit ≥ 1`, otherwise a
/// pathological client polling fast enough would be admitted on every
/// speck of accrual and the purchased rate would not bind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakyBucket {
    capacity: Credits,
    refill_rate: RefillRate,
    credit_at_anchor: Credits,
    anchor: Nanos,
}

impl LeakyBucket {
    /// A bucket initialized from a rule at time `now`.
    ///
    /// The stored credit is clamped to the capacity (a rule update may have
    /// shrunk the bucket below its check-pointed credit).
    pub fn from_rule(rule: &QosRule, now: Nanos) -> Self {
        LeakyBucket {
            capacity: rule.capacity,
            refill_rate: rule.refill_rate,
            credit_at_anchor: rule.credit.min(rule.capacity),
            anchor: now,
        }
    }

    /// A full bucket with the given shape, anchored at `now`.
    pub fn full(capacity: Credits, refill_rate: RefillRate, now: Nanos) -> Self {
        LeakyBucket {
            capacity,
            refill_rate,
            credit_at_anchor: capacity,
            anchor: now,
        }
    }

    /// Bucket capacity `C`.
    pub fn capacity(&self) -> Credits {
        self.capacity
    }

    /// Refill rate `A`.
    pub fn refill_rate(&self) -> RefillRate {
        self.refill_rate
    }

    /// Credit available at `now`, clamped to `[0, C]`.
    pub fn credit(&self, now: Nanos) -> Credits {
        let elapsed = now.saturating_since(self.anchor);
        self.credit_at_anchor
            .saturating_add(self.refill_rate.accrued_over(elapsed))
            .min(self.capacity)
    }

    /// Bring the stored credit up to date and move the anchor to `now`.
    ///
    /// This is the lazy-refill discipline. It is idempotent for a fixed
    /// `now` and loses nothing: the derived credit before and after is
    /// identical, except that saturation at `C` forgets overflow (as it
    /// must — Eq. 2).
    pub fn refill(&mut self, now: Nanos) {
        self.credit_at_anchor = self.credit(now);
        self.anchor = self.anchor.max(now);
    }

    /// Add a fixed credit amount, clamping at capacity. This is the
    /// housekeeping-thread discipline: the sweeper calls it with
    /// `rate × interval` and does *not* move the anchor (the housekeeping
    /// table pins anchors; see `QosTable::sweep_refill`).
    pub fn add_credit(&mut self, amount: Credits) {
        self.credit_at_anchor = self
            .credit_at_anchor
            .saturating_add(amount)
            .min(self.capacity);
    }

    /// Decide one request at `now`: admit (and consume one credit) iff at
    /// least one whole credit is available.
    pub fn try_consume(&mut self, now: Nanos) -> Verdict {
        let current = self.credit(now);
        if current.covers_one_request() {
            self.credit_at_anchor = current - Credits::ONE;
            self.anchor = self.anchor.max(now);
            Verdict::Allow
        } else {
            Verdict::Deny
        }
    }

    /// Take up to `n` whole credits at `now` in one step: `min(n,
    /// floor(credit))` of them, leaving exactly the state `n` successive
    /// [`Self::try_consume`] calls at the same `now` would. Returns the
    /// number taken; taking nothing changes nothing.
    pub fn try_consume_up_to(&mut self, n: u64, now: Nanos) -> u64 {
        let current = self.credit(now);
        let taken = n.min(current.whole());
        if taken > 0 {
            self.credit_at_anchor = current - Credits::from_whole(taken);
            self.anchor = self.anchor.max(now);
        }
        taken
    }

    /// Replace the bucket's shape from an updated rule, preserving accrued
    /// credit (clamped to the new capacity). Used by the DB-sync thread
    /// when a rule changes.
    pub fn apply_rule_update(&mut self, rule: &QosRule, now: Nanos) {
        self.refill(now);
        self.capacity = rule.capacity;
        self.refill_rate = rule.refill_rate;
        self.credit_at_anchor = self.credit_at_anchor.min(self.capacity);
    }

    /// Overwrite the credit (used when adopting a check-point or an HA
    /// snapshot from a master node).
    pub fn set_credit(&mut self, credit: Credits, now: Nanos) {
        self.credit_at_anchor = credit.min(self.capacity);
        self.anchor = self.anchor.max(now);
    }

    /// Export this bucket as a rule row (for check-pointing back to the
    /// database and for HA replication), with credit evaluated at `now`.
    pub fn to_rule(&self, key: janus_types::QosKey, now: Nanos) -> QosRule {
        QosRule {
            key,
            capacity: self.capacity,
            refill_rate: self.refill_rate,
            credit: self.credit(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_types::QosKey;
    use std::time::Duration;

    fn secs(s: u64) -> Nanos {
        Nanos::from_secs(s)
    }

    fn bucket(cap: u64, rate: u64) -> LeakyBucket {
        LeakyBucket::full(
            Credits::from_whole(cap),
            RefillRate::per_second(rate),
            Nanos::ZERO,
        )
    }

    #[test]
    fn starts_full() {
        let b = bucket(1000, 100);
        assert_eq!(b.credit(Nanos::ZERO), Credits::from_whole(1000));
    }

    #[test]
    fn consume_decrements_one_credit() {
        let mut b = bucket(10, 0);
        assert_eq!(b.try_consume(Nanos::ZERO), Verdict::Allow);
        assert_eq!(b.credit(Nanos::ZERO), Credits::from_whole(9));
    }

    #[test]
    fn denies_when_below_one_credit() {
        let mut b = bucket(2, 0);
        assert_eq!(b.try_consume(secs(0)), Verdict::Allow);
        assert_eq!(b.try_consume(secs(0)), Verdict::Allow);
        assert_eq!(b.try_consume(secs(0)), Verdict::Deny);
        // Denials do not consume anything.
        assert_eq!(b.credit(secs(0)), Credits::ZERO);
        assert_eq!(b.try_consume(secs(0)), Verdict::Deny);
    }

    #[test]
    fn refills_at_purchased_rate() {
        let mut b = bucket(1000, 100);
        // Drain completely.
        for _ in 0..1000 {
            assert_eq!(b.try_consume(secs(0)), Verdict::Allow);
        }
        assert_eq!(b.try_consume(secs(0)), Verdict::Deny);
        // After 1 second, exactly 100 more requests pass.
        let mut admitted = 0;
        for _ in 0..200 {
            if b.try_consume(secs(1)) == Verdict::Allow {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 100);
    }

    #[test]
    fn credit_clamps_at_capacity() {
        let b = bucket(1000, 100);
        // Idle for an hour: credit would be 360k unclamped.
        assert_eq!(b.credit(secs(3600)), Credits::from_whole(1000));
    }

    /// The paper's burst example: rate 100/s, capacity 1000. After >10 s of
    /// idling the bucket is full, so a client may briefly run at 500 req/s
    /// until the accumulated credit is gone.
    #[test]
    fn burst_after_idle_matches_paper_example() {
        let mut b = bucket(1000, 100);
        // Drain at t=0, idle 10 s => full again (1000 credits).
        for _ in 0..1000 {
            b.try_consume(secs(0));
        }
        // Now attempt 500 req/s for 4 s (2000 attempts). Supply over the
        // window is 1000 accumulated + 100/s × 4 s = 1400 credits, so the
        // client bursts well above its purchased 100/s while credit lasts.
        let mut admitted = 0;
        for attempt in 0..2000u64 {
            let at = secs(10) + Duration::from_micros(attempt * 2000);
            if b.try_consume(at) == Verdict::Allow {
                admitted += 1;
            }
        }
        assert!(
            (1398..=1402).contains(&admitted),
            "burst admitted {admitted}, expected ~1400"
        );
    }

    #[test]
    fn zero_zero_rule_denies_everything() {
        let mut b = bucket(0, 0);
        for s in 0..100 {
            assert_eq!(b.try_consume(secs(s)), Verdict::Deny);
        }
    }

    #[test]
    fn refill_is_idempotent_at_fixed_time() {
        let mut b = bucket(100, 7);
        b.try_consume(secs(1));
        let mut twin = b.clone();
        b.refill(secs(5));
        twin.refill(secs(5));
        twin.refill(secs(5));
        assert_eq!(b.credit(secs(5)), twin.credit(secs(5)));
    }

    #[test]
    fn refill_preserves_derived_credit() {
        let mut b = bucket(1000, 33);
        b.try_consume(secs(0));
        let before = b.credit(secs(4));
        b.refill(secs(2));
        assert_eq!(b.credit(secs(4)), before);
    }

    #[test]
    fn time_going_backwards_is_safe() {
        // UDP reordering can hand a worker an older timestamp; the bucket
        // must neither panic nor mint credit.
        let mut b = bucket(10, 1);
        b.try_consume(secs(100));
        let at_100 = b.credit(secs(100));
        assert_eq!(b.credit(secs(50)), at_100);
        assert_eq!(b.try_consume(secs(50)), Verdict::Allow);
    }

    #[test]
    fn fractional_rate_admits_at_long_horizon() {
        // 1 request per minute.
        let mut b = LeakyBucket::full(
            Credits::from_whole(1),
            RefillRate::per_minute(1),
            Nanos::ZERO,
        );
        assert_eq!(b.try_consume(secs(0)), Verdict::Allow);
        assert_eq!(b.try_consume(secs(30)), Verdict::Deny);
        assert_eq!(b.try_consume(secs(61)), Verdict::Allow);
    }

    #[test]
    fn rule_update_shrinks_capacity_and_clamps() {
        let mut b = bucket(1000, 100);
        let rule = QosRule::per_second(QosKey::new("k").unwrap(), 10, 5);
        b.apply_rule_update(&rule, secs(0));
        assert_eq!(b.capacity(), Credits::from_whole(10));
        assert_eq!(b.credit(secs(0)), Credits::from_whole(10));
        assert_eq!(b.refill_rate(), RefillRate::per_second(5));
    }

    #[test]
    fn rule_update_preserves_partial_credit() {
        let mut b = bucket(100, 0);
        for _ in 0..90 {
            b.try_consume(secs(0));
        }
        let rule = QosRule::per_second(QosKey::new("k").unwrap(), 200, 1);
        b.apply_rule_update(&rule, secs(0));
        assert_eq!(b.credit(secs(0)), Credits::from_whole(10));
    }

    #[test]
    fn to_rule_roundtrips_through_from_rule() {
        let mut b = bucket(50, 3);
        b.try_consume(secs(2));
        let key = QosKey::new("alice").unwrap();
        let rule = b.to_rule(key.clone(), secs(2));
        let restored = LeakyBucket::from_rule(&rule, secs(2));
        assert_eq!(restored.credit(secs(2)), b.credit(secs(2)));
        assert_eq!(restored.capacity(), b.capacity());
    }

    #[test]
    fn add_credit_respects_capacity() {
        let mut b = bucket(10, 0);
        for _ in 0..10 {
            b.try_consume(secs(0));
        }
        b.add_credit(Credits::from_whole(7));
        assert_eq!(b.credit(secs(0)), Credits::from_whole(7));
        b.add_credit(Credits::from_whole(100));
        assert_eq!(b.credit(secs(0)), Credits::from_whole(10));
    }

    // Seeded property loops: 256 cases each, fixed seeds.

    use janus_hash::rng::Rng;

    /// Eq. 2: credit is always within [0, C] no matter the operation
    /// interleaving.
    #[test]
    fn credit_always_within_bounds() {
        let mut rng = Rng::seed_from_u64(0xB0C4_E701);
        for _ in 0..256 {
            let cap = rng.gen_range(10_000);
            let mut b = bucket(cap, rng.gen_range(10_000));
            let cap = Credits::from_whole(cap);
            let mut now = Nanos::ZERO;
            for _ in 0..rng.gen_range_inclusive(1, 199) {
                let advance_us = rng.gen_range(100_000_000);
                now += Duration::from_micros(advance_us);
                match rng.gen_range(3) {
                    0 => {
                        b.try_consume(now);
                    }
                    1 => b.refill(now),
                    _ => b.add_credit(Credits::from_micro(advance_us)),
                }
                let credit = b.credit(now);
                assert!(credit <= cap, "credit {credit:?} above capacity {cap:?}");
            }
        }
    }

    /// Conservation: admissions over any schedule never exceed the
    /// initial credit plus what the refill rate can have minted.
    #[test]
    fn admissions_never_exceed_supply() {
        let mut rng = Rng::seed_from_u64(0xB0C4_E702);
        for _ in 0..256 {
            let cap = rng.gen_range_inclusive(1, 499);
            let rate = rng.gen_range(1_000);
            let mut b = bucket(cap, rate);
            let mut now = Nanos::ZERO;
            let mut admitted = 0u64;
            for _ in 0..rng.gen_range_inclusive(1, 299) {
                now += Duration::from_micros(rng.gen_range(200_000));
                if b.try_consume(now) == Verdict::Allow {
                    admitted += 1;
                }
            }
            let minted =
                RefillRate::per_second(rate).accrued_over(now.saturating_since(Nanos::ZERO));
            let supply = Credits::from_whole(cap) + minted;
            assert!(
                Credits::from_whole(admitted) <= supply,
                "admitted {admitted} with supply {supply:?}"
            );
        }
    }

    /// Lazy refill at arbitrary intermediate instants never changes the
    /// final derived credit (no rounding drift).
    #[test]
    fn interleaved_refills_do_not_drift() {
        let mut rng = Rng::seed_from_u64(0xB0C4_E703);
        for _ in 0..256 {
            let mut lazy = bucket(
                rng.gen_range_inclusive(1, 999),
                rng.gen_range_inclusive(1, 999),
            );
            lazy.try_consume(Nanos::ZERO);
            let twin = lazy.clone();
            let mut now = Nanos::ZERO;
            for _ in 0..rng.gen_range_inclusive(1, 49) {
                now += Duration::from_micros(rng.gen_range_inclusive(1, 999_999));
                lazy.refill(now);
            }
            assert_eq!(lazy.credit(now), twin.credit(now));
        }
    }
}
