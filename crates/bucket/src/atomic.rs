//! A wait-free leaky bucket: credit and refill anchor packed into one
//! [`AtomicU64`], updated by a single CAS.
//!
//! [`LeakyBucket`] needs a `&mut` (in practice: a mutex) because its state
//! — credit plus anchor timestamp — is two words. [`AtomicBucket`] packs a
//! reduced form of both into one word so the decision fast path is a load,
//! a handful of register ops, and one `compare_exchange`: no lock, no
//! blocking, and a *pure read* on the deny path.
//!
//! # Packing
//!
//! ```text
//! 63          40 39                        0
//! +------------+---------------------------+
//! | anchor tick|        credit (µc)        |
//! |  24 bits   |          40 bits          |
//! +------------+---------------------------+
//! ```
//!
//! * **Credit** is stored in microcredits, saturating at 2⁴⁰ − 1 µc
//!   (≈ 1.099 M whole credits — above any capacity in the evaluation;
//!   larger capacities are honored up to that ceiling).
//! * **Anchor** is the refill anchor quantized to 1 ms ticks, kept modulo
//!   2²⁴ (≈ 4.66 h of wrap range).
//!
//! # Quantization contract
//!
//! Elapsed time is measured between *ticks*. Wherever credit is
//! *overwritten* (`from_rule`, `full`, `set_credit`, `store_rule`) the
//! anchor is rounded **up** to a tick; `now` is rounded **down** on every
//! read; and a consume or sweep advances the anchor by exactly the whole
//! ticks it folded into the credit (to `floor(now)`, never past it). So
//! the refill accrued since credit was last overwritten at `t₀` is
//! `rate × (floor(now) − ceil(t₀)) ≤ rate × (now − t₀)`: the bucket can
//! only under-refill, never oversell, and a key charged many times per
//! tick still refills at its full rate (an anchor moved to `ceil(now)` on
//! every consume would leap-frog `now` and forfeit every tick). When every
//! observation lands on a whole tick (all integration tests and any
//! schedule built from `from_secs` / `from_millis`), floor and ceil
//! coincide and the bucket is **bit-for-bit identical** to [`LeakyBucket`]
//! — the property tests below pin this.
//!
//! The modular anchor distinguishes "time went backwards" (UDP reordering)
//! from forward progress by the half-range rule: a modular difference of
//! ≥ 2²³ ticks (~2.33 h) reads as backwards, which mints nothing — the
//! safe direction. A *genuine* forward jump beyond 2.33 h between touches
//! would therefore forfeit its refill; the QoS server's housekeeping sweep
//! (every ≤ 100 ms) makes that unreachable in a running system, and the
//! failure mode is under-admission, never a rate violation.

use crate::LeakyBucket;
use janus_clock::Nanos;
use janus_types::{Credits, QosRule, RefillRate, Verdict, MICROCREDITS_PER_CREDIT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const CREDIT_BITS: u32 = 40;
const CREDIT_MASK: u64 = (1 << CREDIT_BITS) - 1;
const TICK_MASK: u64 = (1 << 24) - 1;
const TICK_HALF_RANGE: u64 = 1 << 23;
/// One anchor tick in nanoseconds (1 ms).
const TICK_NANOS: u64 = 1_000_000;

fn pack(credit_micro: u64, tick: u64) -> u64 {
    debug_assert!(credit_micro <= CREDIT_MASK);
    debug_assert!(tick <= TICK_MASK);
    (tick << CREDIT_BITS) | credit_micro
}

fn unpack(state: u64) -> (u64, u64) {
    (state & CREDIT_MASK, state >> CREDIT_BITS)
}

/// `now` quantized down to a tick (read side: never overstates elapsed).
fn floor_tick(now: Nanos) -> u64 {
    (now.as_nanos() / TICK_NANOS) & TICK_MASK
}

/// `now` quantized up to a tick (where credit is overwritten: an anchor
/// in the slight future under-counts the next interval rather than
/// over-counting it).
fn ceil_tick(now: Nanos) -> u64 {
    (now.as_nanos().div_ceil(TICK_NANOS)) & TICK_MASK
}

/// Whether `now_floor` reads as behind `anchor` under the modular
/// half-range rule (apparent backwards motion, or a wrap-scale forward
/// jump).
fn is_behind(anchor: u64, now_floor: u64) -> bool {
    (now_floor.wrapping_sub(anchor) & TICK_MASK) >= TICK_HALF_RANGE
}

/// Elapsed whole ticks from `anchor` to `now_floor`; zero when time
/// appears to have gone backwards — the atomic analogue of
/// `saturating_since`.
fn elapsed_ticks(anchor: u64, now_floor: u64) -> u64 {
    if is_behind(anchor, now_floor) {
        0
    } else {
        now_floor.wrapping_sub(anchor) & TICK_MASK
    }
}

/// `anchor` advanced by the `ticks` just folded into the credit.
fn advance(anchor: u64, ticks: u64) -> u64 {
    anchor.wrapping_add(ticks) & TICK_MASK
}

/// A leaky bucket whose fast path is one CAS loop on a single
/// [`AtomicU64`] — see the module docs for the packing and quantization
/// contract. Shape (capacity, refill rate) lives in two further relaxed
/// atomics so control-plane rule updates need no lock either.
#[derive(Debug)]
pub struct AtomicBucket {
    /// Packed `(anchor_tick << 40) | credit_micro`.
    state: AtomicU64,
    /// Capacity in microcredits.
    capacity: AtomicU64,
    /// Refill rate in microcredits per second.
    rate: AtomicU64,
}

impl AtomicBucket {
    /// A bucket initialized from a rule at `now` (credit clamped to
    /// capacity, like [`LeakyBucket::from_rule`]).
    pub fn from_rule(rule: &QosRule, now: Nanos) -> Self {
        let cap = rule.capacity.as_micro();
        let credit = rule.credit.as_micro().min(cap).min(CREDIT_MASK);
        AtomicBucket {
            state: AtomicU64::new(pack(credit, ceil_tick(now))),
            capacity: AtomicU64::new(cap),
            rate: AtomicU64::new(rule.refill_rate.micro_per_sec()),
        }
    }

    /// A full bucket with the given shape, anchored at `now`.
    pub fn full(capacity: Credits, refill_rate: RefillRate, now: Nanos) -> Self {
        let cap = capacity.as_micro();
        AtomicBucket {
            state: AtomicU64::new(pack(cap.min(CREDIT_MASK), ceil_tick(now))),
            capacity: AtomicU64::new(cap),
            rate: AtomicU64::new(refill_rate.micro_per_sec()),
        }
    }

    /// Bucket capacity `C`.
    pub fn capacity(&self) -> Credits {
        Credits::from_micro(self.capacity.load(Ordering::Relaxed))
    }

    /// Refill rate `A`.
    pub fn refill_rate(&self) -> RefillRate {
        RefillRate::from_micro_per_sec(self.rate.load(Ordering::Relaxed))
    }

    /// Credit derived from `state` at `now`, clamped to `[0, C]` (and to
    /// the packed-field ceiling).
    fn derive(&self, state: u64, now_floor: u64) -> u64 {
        let (credit, anchor) = unpack(state);
        let ticks = elapsed_ticks(anchor, now_floor);
        let rate = RefillRate::from_micro_per_sec(self.rate.load(Ordering::Relaxed));
        let accrued = rate.accrued_over(Duration::from_millis(ticks)).as_micro();
        credit
            .saturating_add(accrued)
            .min(self.capacity.load(Ordering::Relaxed))
            .min(CREDIT_MASK)
    }

    /// Credit available at `now` — a pure read, no state change.
    pub fn credit(&self, now: Nanos) -> Credits {
        let state = self.state.load(Ordering::Relaxed);
        Credits::from_micro(self.derive(state, floor_tick(now)))
    }

    /// Decide one request at `now`: admit (and consume one whole credit)
    /// iff at least one is available. Lock-free; the deny path is a pure
    /// read (no CAS at all).
    pub fn try_consume(&self, now: Nanos) -> Verdict {
        self.try_consume_counted(now).0
    }

    /// [`Self::try_consume`], also reporting how many CAS retries the
    /// decision took (0 on the uncontended path). Tables aggregate this
    /// into their exported contention counters.
    pub fn try_consume_counted(&self, now: Nanos) -> (Verdict, u64) {
        let now_floor = floor_tick(now);
        let mut retries = 0u64;
        let mut state = self.state.load(Ordering::Relaxed);
        loop {
            let current = self.derive(state, now_floor);
            if current < MICROCREDITS_PER_CREDIT {
                // Deny consumes nothing and (like LeakyBucket) leaves the
                // anchor alone, so fractional accrual keeps compounding
                // from the original anchor with no rounding loss.
                return (Verdict::Deny, retries);
            }
            let (_, anchor) = unpack(state);
            let new_anchor = advance(anchor, elapsed_ticks(anchor, now_floor));
            let next = pack(current - MICROCREDITS_PER_CREDIT, new_anchor);
            match self.state.compare_exchange_weak(
                state,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (Verdict::Allow, retries),
                Err(actual) => {
                    retries += 1;
                    state = actual;
                }
            }
        }
    }

    /// Take up to `n` whole credits at `now` in one CAS: `min(n,
    /// floor(credit))` of them. The credit and anchor left behind are
    /// bit-identical to `n` successive [`Self::try_consume`] calls at the
    /// same `now` (the first folds the accrual and moves the anchor, the
    /// rest see no further elapsed time). Returns `(taken, CAS retries)`;
    /// taking nothing (`n == 0` or a dry bucket) is a pure read.
    pub fn try_consume_up_to(&self, n: u64, now: Nanos) -> (u64, u64) {
        let now_floor = floor_tick(now);
        let mut retries = 0u64;
        let mut state = self.state.load(Ordering::Relaxed);
        loop {
            let current = self.derive(state, now_floor);
            let taken = n.min(current / MICROCREDITS_PER_CREDIT);
            if taken == 0 {
                return (0, retries);
            }
            let (_, anchor) = unpack(state);
            let new_anchor = advance(anchor, elapsed_ticks(anchor, now_floor));
            let next = pack(current - taken * MICROCREDITS_PER_CREDIT, new_anchor);
            match self.state.compare_exchange_weak(
                state,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (taken, retries),
                Err(actual) => {
                    retries += 1;
                    state = actual;
                }
            }
        }
    }

    /// Fold accrued credit into the stored state and advance the anchor
    /// by the ticks folded — the housekeeping-sweep discipline. Returns
    /// CAS retries.
    pub fn refill(&self, now: Nanos) -> u64 {
        let now_floor = floor_tick(now);
        let mut retries = 0u64;
        let mut state = self.state.load(Ordering::Relaxed);
        loop {
            let (_, anchor) = unpack(state);
            let ticks = elapsed_ticks(anchor, now_floor);
            if ticks == 0 {
                return retries;
            }
            let next = pack(self.derive(state, now_floor), advance(anchor, ticks));
            match self.state.compare_exchange_weak(
                state,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return retries,
                Err(actual) => {
                    retries += 1;
                    state = actual;
                }
            }
        }
    }

    /// Replace the bucket's shape from an updated rule, preserving accrued
    /// credit clamped to the new capacity (mirrors
    /// [`LeakyBucket::apply_rule_update`]).
    pub fn apply_rule_update(&self, rule: &QosRule, now: Nanos) {
        // Fold accrual at the *old* rate up to now, then swap the shape,
        // then clamp. Concurrent consumers interleaving between the steps
        // observe one shape or the other — never minted credit.
        self.refill(now);
        self.capacity
            .store(rule.capacity.as_micro(), Ordering::Relaxed);
        self.rate
            .store(rule.refill_rate.micro_per_sec(), Ordering::Relaxed);
        let cap = rule.capacity.as_micro().min(CREDIT_MASK);
        let mut state = self.state.load(Ordering::Relaxed);
        loop {
            let (credit, anchor) = unpack(state);
            if credit <= cap {
                return;
            }
            let next = pack(cap, anchor);
            match self.state.compare_exchange_weak(
                state,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => state = actual,
            }
        }
    }

    /// Overwrite the credit (adopting a check-point or HA snapshot),
    /// clamped to capacity, anchoring at `now`.
    pub fn set_credit(&self, credit: Credits, now: Nanos) {
        let clamped = credit
            .as_micro()
            .min(self.capacity.load(Ordering::Relaxed))
            .min(CREDIT_MASK);
        let now_floor = floor_tick(now);
        let now_ceil = ceil_tick(now);
        let mut state = self.state.load(Ordering::Relaxed);
        loop {
            // Credit is overwritten, so the anchor rounds up — unless it is
            // already ahead of `now`: the anchor never rewinds.
            let (_, anchor) = unpack(state);
            let new_anchor = if is_behind(anchor, now_floor) {
                anchor
            } else {
                now_ceil
            };
            let next = pack(clamped, new_anchor);
            match self.state.compare_exchange_weak(
                state,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => state = actual,
            }
        }
    }

    /// Overwrite shape and credit in place from a rule. The three stores
    /// are not atomic as a group: callers must ensure no concurrent
    /// readers (the lock-free table only uses this on slots that are
    /// reserved but not yet published).
    pub fn store_rule(&self, rule: &QosRule, now: Nanos) {
        self.store(rule.capacity, rule.refill_rate, rule.credit, now);
    }

    /// [`store_rule`](Self::store_rule) from the parts a drain returns:
    /// the lock-free table carries a migrated bucket with no key at hand.
    pub(crate) fn store(
        &self,
        capacity: Credits,
        refill_rate: RefillRate,
        credit: Credits,
        now: Nanos,
    ) {
        let cap = capacity.as_micro();
        self.capacity.store(cap, Ordering::Relaxed);
        self.rate
            .store(refill_rate.micro_per_sec(), Ordering::Relaxed);
        let credit = credit.as_micro().min(cap).min(CREDIT_MASK);
        self.state
            .store(pack(credit, ceil_tick(now)), Ordering::Relaxed);
    }

    /// Drain the bucket for migration or reclamation: capture its exact
    /// shape and remaining credit at `now`, leaving behind a
    /// zero-capacity, zero-rate husk that denies everything. Returns
    /// `(capacity, refill_rate, credit)`.
    ///
    /// Exactness under concurrency: the shape is zeroed *first*, so any
    /// consumer that derives credit after this point sees capacity 0 and
    /// denies (a pure read). A consumer whose successful CAS lands before
    /// the final state capture is observed by the capture's retry loop —
    /// its charge is reflected in the returned credit. A consumer whose
    /// CAS would land after loses the race by definition of CAS: it
    /// re-derives against the drained word and denies. No charge is ever
    /// lost and none is double-counted.
    pub fn drain(&self, now: Nanos) -> (Credits, RefillRate, Credits) {
        // Release: a lock-free table's shape read that sees these zeros
        // also sees the slot freeze sequenced before this drain.
        let cap = self.capacity.swap(0, Ordering::Release);
        let rate = self.rate.swap(0, Ordering::Release);
        let refill = RefillRate::from_micro_per_sec(rate);
        let now_floor = floor_tick(now);
        let mut state = self.state.load(Ordering::Relaxed);
        loop {
            // Derive with the *saved* shape: the live fields are already
            // zero and would forfeit both the clamp and the accrual.
            let (credit, anchor) = unpack(state);
            let ticks = elapsed_ticks(anchor, now_floor);
            let accrued = refill.accrued_over(Duration::from_millis(ticks)).as_micro();
            let exact = credit.saturating_add(accrued).min(cap).min(CREDIT_MASK);
            match self.state.compare_exchange_weak(
                state,
                pack(0, anchor),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (Credits::from_micro(cap), refill, Credits::from_micro(exact)),
                Err(actual) => state = actual,
            }
        }
    }

    /// Export as a rule row with credit evaluated at `now`.
    pub fn to_rule(&self, key: janus_types::QosKey, now: Nanos) -> QosRule {
        QosRule {
            key,
            capacity: self.capacity(),
            refill_rate: self.refill_rate(),
            credit: self.credit(now),
        }
    }

    /// A locked-bucket twin with identical observable state at `now`
    /// (test and migration helper).
    pub fn to_leaky(&self, now: Nanos) -> LeakyBucket {
        let mut bucket = LeakyBucket::full(self.capacity(), self.refill_rate(), now);
        bucket.set_credit(Credits::ZERO, now);
        bucket.add_credit(self.credit(now));
        bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ms(m: u64) -> Nanos {
        Nanos::from_millis(m)
    }

    fn bucket(cap: u64, rate: u64) -> AtomicBucket {
        AtomicBucket::full(
            Credits::from_whole(cap),
            RefillRate::per_second(rate),
            Nanos::ZERO,
        )
    }

    fn locked(cap: u64, rate: u64) -> LeakyBucket {
        LeakyBucket::full(
            Credits::from_whole(cap),
            RefillRate::per_second(rate),
            Nanos::ZERO,
        )
    }

    #[test]
    fn packing_roundtrips() {
        for (credit, tick) in [(0, 0), (CREDIT_MASK, TICK_MASK), (1_000_000, 42)] {
            assert_eq!(unpack(pack(credit, tick)), (credit, tick));
        }
    }

    #[test]
    fn starts_full_and_consumes_one() {
        let b = bucket(10, 0);
        assert_eq!(b.credit(Nanos::ZERO), Credits::from_whole(10));
        assert_eq!(b.try_consume(Nanos::ZERO), Verdict::Allow);
        assert_eq!(b.credit(Nanos::ZERO), Credits::from_whole(9));
    }

    #[test]
    fn denies_when_dry_without_state_change() {
        let b = bucket(2, 0);
        assert_eq!(b.try_consume(Nanos::ZERO), Verdict::Allow);
        assert_eq!(b.try_consume(Nanos::ZERO), Verdict::Allow);
        let state = b.state.load(Ordering::Relaxed);
        assert_eq!(b.try_consume(Nanos::ZERO), Verdict::Deny);
        assert_eq!(
            b.state.load(Ordering::Relaxed),
            state,
            "deny must be a pure read"
        );
    }

    #[test]
    fn refills_at_purchased_rate() {
        let b = bucket(1000, 100);
        for _ in 0..1000 {
            assert_eq!(b.try_consume(Nanos::ZERO), Verdict::Allow);
        }
        assert_eq!(b.try_consume(Nanos::ZERO), Verdict::Deny);
        let admitted = (0..200)
            .filter(|_| b.try_consume(Nanos::from_secs(1)) == Verdict::Allow)
            .count();
        assert_eq!(admitted, 100);
    }

    #[test]
    fn backwards_time_is_safe() {
        let b = bucket(10, 1);
        assert_eq!(b.try_consume(Nanos::from_secs(100)), Verdict::Allow);
        // An older timestamp mints nothing and still decides correctly.
        assert_eq!(
            b.credit(Nanos::from_secs(50)),
            b.credit(Nanos::from_secs(100))
        );
        assert_eq!(b.try_consume(Nanos::from_secs(50)), Verdict::Allow);
        // The anchor did not rewind: credit at 100 s reflects no double
        // accrual.
        assert!(b.credit(Nanos::from_secs(100)) <= Credits::from_whole(10));
    }

    #[test]
    fn wrap_scale_forward_jump_never_oversells() {
        // A forward jump beyond the 2²³-tick half range reads as
        // backwards: the bucket under-refills (safe) instead of minting
        // hours of credit twice across the modular wrap.
        let b = bucket(5, 1000);
        for _ in 0..5 {
            b.try_consume(Nanos::ZERO);
        }
        let far = Nanos::from_millis(TICK_HALF_RANGE + 10);
        assert_eq!(b.credit(far), Credits::ZERO, "jump must not mint credit");
        let admitted = (0..20)
            .filter(|_| b.try_consume(far) == Verdict::Allow)
            .count();
        assert_eq!(admitted, 0);
    }

    #[test]
    fn sub_tick_times_never_oversell() {
        // Reads round down and the anchor only moves by whole ticks
        // accrued: a schedule off the tick grid never sees more refill
        // than truly elapsed.
        let b = bucket(1, 1000);
        assert_eq!(b.try_consume(Nanos::from_nanos(1)), Verdict::Allow);
        // 0.9 ms later the exact bucket would hold 0.9 credits; quantized
        // elapsed is 0 ticks, so still deny — and never the reverse.
        assert_eq!(b.try_consume(Nanos::from_nanos(900_001)), Verdict::Deny);
        let exact = locked(1, 1000);
        let supply = exact.credit(Nanos::from_millis(2));
        assert!(b.credit(Nanos::from_millis(2)) <= supply);
    }

    #[test]
    fn key_charged_in_every_tick_refills_at_its_full_rate() {
        // One request per 10 µs for 1 s against a 100-credit, 100k/s
        // rule: demand equals the refill rate, so everything is admitted.
        // An anchor that moved to `ceil(now)` on each consume stayed ahead
        // of `now` until the bucket ran dry and then refilled every other
        // tick — half the rule's rate.
        let atomic = bucket(100, 100_000);
        let mut exact = locked(100, 100_000);
        let (mut admitted, mut admitted_exact) = (0u64, 0u64);
        for i in 0..100_000u64 {
            let now = Nanos::from_nanos(i * 10_000);
            admitted += u64::from(atomic.try_consume(now) == Verdict::Allow);
            admitted_exact += u64::from(exact.try_consume(now) == Verdict::Allow);
            assert!(admitted <= admitted_exact, "oversold at request {i}");
        }
        assert_eq!(admitted, 100_000);
    }

    #[test]
    fn rule_update_clamps_and_preserves_credit() {
        let b = bucket(1000, 100);
        for _ in 0..990 {
            b.try_consume(Nanos::ZERO);
        }
        let rule = QosRule::per_second(janus_types::QosKey::new("k").unwrap(), 200, 1);
        b.apply_rule_update(&rule, Nanos::ZERO);
        assert_eq!(b.capacity(), Credits::from_whole(200));
        assert_eq!(b.refill_rate(), RefillRate::per_second(1));
        assert_eq!(b.credit(Nanos::ZERO), Credits::from_whole(10));
        let shrink = QosRule::per_second(janus_types::QosKey::new("k").unwrap(), 3, 1);
        b.apply_rule_update(&shrink, Nanos::ZERO);
        assert_eq!(b.credit(Nanos::ZERO), Credits::from_whole(3));
    }

    #[test]
    fn to_rule_roundtrips_through_from_rule() {
        let b = bucket(50, 3);
        b.try_consume(Nanos::from_secs(2));
        let key = janus_types::QosKey::new("alice").unwrap();
        let rule = b.to_rule(key.clone(), Nanos::from_secs(2));
        let restored = AtomicBucket::from_rule(&rule, Nanos::from_secs(2));
        assert_eq!(
            restored.credit(Nanos::from_secs(2)),
            b.credit(Nanos::from_secs(2))
        );
        assert_eq!(restored.capacity(), b.capacity());
    }

    #[test]
    fn oversized_capacity_saturates_at_packed_ceiling() {
        // 2^40 µc ≈ 1.0995e6 whole credits; a 10 M-credit rule still
        // works, with usable burst clamped at the ceiling.
        let b = bucket(10_000_000, 0);
        let credit = b.credit(Nanos::ZERO);
        assert_eq!(credit, Credits::from_micro(CREDIT_MASK));
        assert_eq!(b.try_consume(Nanos::ZERO), Verdict::Allow);
    }

    #[test]
    fn concurrent_consumption_is_exact_with_zero_rate() {
        let b = Arc::new(bucket(1000, 0));
        let admitted = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let b = Arc::clone(&b);
                    scope.spawn(move || {
                        (0..500)
                            .filter(|_| b.try_consume(Nanos::ZERO) == Verdict::Allow)
                            .count()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        });
        assert_eq!(admitted, 1000);
    }

    #[test]
    fn drain_captures_exact_credit_and_kills_the_bucket() {
        let b = bucket(10, 2);
        assert_eq!(b.try_consume(ms(0)), Verdict::Allow);
        assert_eq!(b.try_consume(ms(0)), Verdict::Allow);
        // 8 credits left at t=0; +2 accrued by t=1s.
        let (cap, rate, credit) = b.drain(ms(1_000));
        assert_eq!(cap, Credits::from_whole(10));
        assert_eq!(rate, RefillRate::per_second(2));
        assert_eq!(credit, Credits::from_whole(10));
        // The husk denies everything, forever, and holds no credit.
        assert_eq!(b.try_consume(ms(1_000)), Verdict::Deny);
        assert_eq!(b.credit(ms(3_600_000)), Credits::ZERO);
    }

    #[test]
    fn drain_racing_consumers_never_loses_or_double_counts_a_charge() {
        for _ in 0..50 {
            let b = Arc::new(bucket(1000, 0));
            let (allowed, drained) = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let b = Arc::clone(&b);
                        scope.spawn(move || {
                            (0..500)
                                .filter(|_| b.try_consume(Nanos::ZERO) == Verdict::Allow)
                                .count()
                        })
                    })
                    .collect();
                let drainer = {
                    let b = Arc::clone(&b);
                    scope.spawn(move || b.drain(Nanos::ZERO).2)
                };
                let allowed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
                (allowed, drainer.join().unwrap())
            });
            assert_eq!(
                Credits::from_whole(allowed as u64).saturating_add(drained),
                Credits::from_whole(1000),
                "allowed {allowed} + drained {drained:?} must equal capacity"
            );
        }
    }

    // Seeded differential loops: 256 cases each, fixed seeds.

    use janus_hash::rng::Rng;

    /// Sequential, on the tick grid: the atomic bucket is bit-for-bit the
    /// locked bucket — same verdict on every attempt, same derived credit
    /// at every observation, under consumes, sweeps and clock jumps
    /// (forward and backward).
    #[test]
    fn matches_locked_bucket_exactly_on_tick_grid() {
        let mut rng = Rng::seed_from_u64(0xA70C_1C01);
        for _ in 0..256 {
            let cap = rng.gen_range(2_000);
            let rate = rng.gen_range(2_000);
            let atomic = bucket(cap, rate);
            let mut exact = locked(cap, rate);
            let mut now_ms: i64 = 0;
            for _ in 0..rng.gen_range_inclusive(1, 249) {
                // Jumps go forward mostly, sometimes backward (UDP
                // reordering / SimClock skew), never below zero.
                now_ms = (now_ms + rng.gen_range(200_000) as i64 - 50_000).max(0);
                let now = ms(now_ms as u64);
                match rng.gen_range(3) {
                    0 => assert_eq!(
                        atomic.try_consume(now),
                        exact.try_consume(now),
                        "verdict diverged at {now_ms}ms"
                    ),
                    1 => {
                        atomic.refill(now);
                        exact.refill(now);
                    }
                    _ => assert_eq!(
                        atomic.credit(now),
                        exact.credit(now),
                        "credit diverged at {now_ms}ms"
                    ),
                }
            }
            let end = ms(now_ms as u64);
            assert_eq!(atomic.credit(end), exact.credit(end));
        }
    }

    /// `try_consume_up_to(n)` is `n` × `try_consume` at the same `now`,
    /// bit for bit, for both bucket kinds: same count taken, same packed
    /// credit and anchor (the whole `LeakyBucket`). Times fall off the
    /// tick grid (fractional credit and sub-tick anchors), jump backwards,
    /// and `n` ranges over 0, a few, and far past a dry bucket; every
    /// eighth case sits at the 40-bit credit ceiling.
    #[test]
    fn consume_up_to_matches_n_single_consumes_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0xA70C_1C03);
        for case in 0..256 {
            let cap = if case % 8 == 0 {
                10_000_000
            } else {
                rng.gen_range(300)
            };
            let rate = rng.gen_range(3_000);
            let (singles, batched) = (bucket(cap, rate), bucket(cap, rate));
            let (mut singles_locked, mut batched_locked) = (locked(cap, rate), locked(cap, rate));
            let mut now_ns: i64 = 0;
            for step in 0..rng.gen_range_inclusive(1, 120) {
                now_ns = (now_ns + rng.gen_range(40_000_000) as i64 - 10_000_000).max(0);
                let now = Nanos::from_nanos(now_ns as u64);
                let n = match rng.gen_range(4) {
                    0 => 0,
                    1 => rng.gen_range(4),
                    _ => rng.gen_range(600),
                };
                let at = format!("case {case} step {step} n {n} at {now_ns}ns");

                let one_by_one = (0..n)
                    .filter(|_| singles.try_consume(now) == Verdict::Allow)
                    .count() as u64;
                assert_eq!(batched.try_consume_up_to(n, now), (one_by_one, 0), "{at}");
                assert_eq!(
                    batched.state.load(Ordering::Relaxed),
                    singles.state.load(Ordering::Relaxed),
                    "{at}: packed credit and anchor"
                );

                let one_by_one = (0..n)
                    .filter(|_| singles_locked.try_consume(now) == Verdict::Allow)
                    .count() as u64;
                assert_eq!(batched_locked.try_consume_up_to(n, now), one_by_one, "{at}");
                assert_eq!(batched_locked, singles_locked, "{at}: locked bucket");
            }
        }
    }

    /// Concurrent consumers against the atomic bucket vs a
    /// mutex-serialized locked bucket driven over the same timestamp
    /// multiset: with zero refill the totals are identical; with refill
    /// both respect the paper's Eq. 1–2 supply bound
    /// `capacity + rate × makespan`.
    #[test]
    fn concurrent_total_matches_serialized_within_supply_bound() {
        let mut rng = Rng::seed_from_u64(0xA70C_1C02);
        for case in 0..256 {
            let cap = rng.gen_range_inclusive(1, 299);
            // Every fourth case pins the zero-refill exactness branch.
            let rate = if case % 4 == 0 { 0 } else { rng.gen_range(500) };
            let threads = rng.gen_range_inclusive(2, 5) as usize;
            let per_thread = rng.gen_range_inclusive(1, 79) as usize;
            let jumps: Vec<u64> = (0..8).map(|_| rng.gen_range(50)).collect();
            // A shared, monotone tick-grid schedule with occasional jumps.
            let schedule: Vec<Nanos> = {
                let mut t = 0u64;
                (0..threads * per_thread)
                    .map(|i| {
                        t += jumps[i % jumps.len()];
                        ms(t)
                    })
                    .collect()
            };
            let makespan = *schedule.last().unwrap();

            let atomic = bucket(cap, rate);
            let total_atomic: usize = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (atomic, schedule) = (&atomic, &schedule);
                        scope.spawn(move || {
                            schedule
                                .iter()
                                .skip(t)
                                .step_by(threads)
                                .filter(|now| atomic.try_consume(**now) == Verdict::Allow)
                                .count()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });

            let mut serialized = locked(cap, rate);
            let total_locked = schedule
                .iter()
                .filter(|now| serialized.try_consume(**now) == Verdict::Allow)
                .count();

            let minted =
                RefillRate::per_second(rate).accrued_over(makespan.saturating_since(Nanos::ZERO));
            let supply = Credits::from_whole(cap).saturating_add(minted);
            assert!(
                Credits::from_whole(total_atomic as u64) <= supply,
                "atomic oversold: {total_atomic} vs supply {supply:?}"
            );
            assert!(Credits::from_whole(total_locked as u64) <= supply);
            if rate == 0 {
                assert_eq!(total_atomic, total_locked);
                assert_eq!(total_atomic, (cap as usize).min(threads * per_thread));
            }
        }
    }
}
