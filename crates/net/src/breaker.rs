//! Per-backend circuit breaker for the admission RPC.
//!
//! The paper's router answers a dead partition with the default reply —
//! but only after burning the full timeout × retry budget on every single
//! request, which during a failover window turns one sick partition into
//! a router-wide retry storm. A circuit breaker bounds that damage:
//!
//! * **Closed** (healthy): every call goes through. `failure_threshold`
//!   *consecutive* RPC failures trip the breaker.
//! * **Open** (tripped): calls fast-fail without touching the network, so
//!   the retry budget is spent zero times instead of once per request.
//!   After `open_timeout` the breaker becomes willing to probe.
//! * **Half-open** (probing): exactly one in-flight call is let through as
//!   a probe. Success closes the breaker; failure re-opens it for another
//!   `open_timeout`.
//!
//! The breaker is a pure state machine over an *injected* clock: every
//! time-sensitive method takes the current [`Nanos`] instead of reading a
//! wall clock, so the same code runs under the production `SharedClock`
//! and under the deterministic simulator's `SimClock`. It performs no I/O
//! and spawns no tasks. Callers ask
//! [`try_acquire`](CircuitBreaker::try_acquire) before an RPC and report
//! the outcome with [`record_success`](CircuitBreaker::record_success) /
//! [`record_failure`](CircuitBreaker::record_failure).

use janus_clock::Nanos;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker fast-fails before allowing a half-open
    /// probe.
    pub open_timeout: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            // One tripped request's worth of evidence: matches the
            // paper's 5-retry budget, so a single fully-timed-out
            // request (plus its last attempt) is enough to open.
            failure_threshold: 5,
            // A few health-monitor failover windows (75 ms in the default
            // Deployment): long enough to skip the brownout, short enough
            // that recovery is probed promptly.
            open_timeout: Duration::from_millis(250),
        }
    }
}

/// Where the breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow.
    Closed,
    /// Tripped: calls fast-fail.
    Open,
    /// Probing: one call in flight decides open vs closed.
    HalfOpen,
}

/// What [`CircuitBreaker::try_acquire`] tells the caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: perform the call normally.
    Allow,
    /// Breaker half-open and this caller won the probe slot: perform the
    /// call; its outcome decides the breaker's fate.
    Probe,
    /// Breaker open (or another probe is in flight): do not touch the
    /// network.
    FastFail,
}

/// The whole state machine in one word, so every transition is a single
/// CAS: the low two bits tag the state and the upper 62 carry its only
/// live datum — the consecutive-failure streak while closed, the
/// nanosecond the breaker opened while open. (A half-open breaker always
/// has its one probe in flight and needs neither: the streak is dead
/// once tripped, and `opened_at` is rewritten by whichever failure
/// re-opens.) 62 bits of nanoseconds are 146 years of an injected
/// clock's range at full resolution; later readings saturate.
const TAG_BITS: u32 = 2;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const TAG_CLOSED: u64 = 0;
const TAG_OPEN: u64 = 1;
const TAG_HALF_OPEN: u64 = 2;
const PAYLOAD_MAX: u64 = u64::MAX >> TAG_BITS;

/// Closed with a zero failure streak — the word of a healthy breaker.
const HEALTHY: u64 = TAG_CLOSED;

fn closed(failures: u32) -> u64 {
    (u64::from(failures) << TAG_BITS) | TAG_CLOSED
}

fn open(opened_at: Nanos) -> u64 {
    (opened_at.as_nanos().min(PAYLOAD_MAX) << TAG_BITS) | TAG_OPEN
}

fn payload(word: u64) -> u64 {
    word >> TAG_BITS
}

/// A per-backend circuit breaker. Thread-safe and lock-free: the state
/// is one packed atomic word and every transition is a CAS on it, so a
/// healthy breaker (closed, no failure streak) is only ever *loaded* —
/// `try_acquire` and `record_success` store nothing — and concurrent
/// callers share its cache line without invalidating it.
///
/// All accesses are `Relaxed`: the word publishes no other memory, and
/// each transition depends only on the value its own CAS observed.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    word: AtomicU64,
    opens: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            word: AtomicU64::new(HEALTHY),
            opens: AtomicU64::new(0),
        }
    }

    /// The tuning in force.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Whether a breaker whose word is the open `word` is due a probe.
    fn probe_due(&self, word: u64, now: Nanos) -> bool {
        let opened_at = Nanos::from_nanos(payload(word));
        now.saturating_since(opened_at) >= self.config.open_timeout
    }

    /// The current state at `now`, advancing Open → HalfOpen if the open
    /// timeout has elapsed (observation does not consume the probe slot).
    pub fn state(&self, now: Nanos) -> BreakerState {
        let word = self.word.load(Ordering::Relaxed);
        match word & TAG_MASK {
            TAG_CLOSED => BreakerState::Closed,
            TAG_OPEN if !self.probe_due(word, now) => BreakerState::Open,
            _ => BreakerState::HalfOpen,
        }
    }

    /// True when calls would currently fast-fail (open, probe not yet
    /// due). Half-open counts as not-open: a call could be the probe.
    pub fn is_open(&self, now: Nanos) -> bool {
        self.state(now) == BreakerState::Open
    }

    /// Times this breaker has tripped open.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Ask to perform a call at `now`. A closed breaker is one load and
    /// no store; of the callers that find the probe due, exactly one wins
    /// the Open → HalfOpen CAS and with it the probe.
    pub fn try_acquire(&self, now: Nanos) -> Admission {
        let mut word = self.word.load(Ordering::Relaxed);
        loop {
            match word & TAG_MASK {
                TAG_CLOSED => return Admission::Allow,
                TAG_OPEN if self.probe_due(word, now) => {
                    match self.word.compare_exchange_weak(
                        word,
                        TAG_HALF_OPEN,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return Admission::Probe,
                        Err(seen) => word = seen,
                    }
                }
                // Open with the probe not yet due, or half-open with the
                // probe in flight.
                _ => return Admission::FastFail,
            }
        }
    }

    /// Report a successful call. Closes a half-open breaker and clears
    /// the failure streak; on a healthy breaker this is one load and no
    /// store.
    pub fn record_success(&self) {
        if self.word.load(Ordering::Relaxed) != HEALTHY {
            self.word.store(HEALTHY, Ordering::Relaxed);
        }
    }

    /// Report a failed call (retry budget exhausted) at `now`. Trips a
    /// closed breaker at the threshold; re-opens a half-open breaker whose
    /// probe failed.
    pub fn record_failure(&self, now: Nanos) {
        let mut word = self.word.load(Ordering::Relaxed);
        loop {
            let next = match word & TAG_MASK {
                TAG_CLOSED => {
                    // The streak never exceeds the u32 threshold.
                    let failures = payload(word) as u32 + 1;
                    if failures >= self.config.failure_threshold {
                        open(now)
                    } else {
                        closed(failures)
                    }
                }
                TAG_OPEN => return,
                _ => open(now),
            };
            match self
                .word
                .compare_exchange_weak(word, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    if next & TAG_MASK == TAG_OPEN {
                        self.opens.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
                Err(seen) => word = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, open_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            open_timeout: Duration::from_millis(open_ms),
        })
    }

    const T0: Nanos = Nanos::from_secs(100);

    #[test]
    fn stays_closed_below_threshold() {
        let b = breaker(3, 1000);
        b.record_failure(T0);
        b.record_failure(T0);
        assert_eq!(b.state(T0), BreakerState::Closed);
        assert_eq!(b.try_acquire(T0), Admission::Allow);
        assert_eq!(b.opens(), 0);
    }

    #[test]
    fn success_resets_failure_streak() {
        let b = breaker(3, 1000);
        b.record_failure(T0);
        b.record_failure(T0);
        b.record_success();
        b.record_failure(T0);
        b.record_failure(T0);
        assert_eq!(b.state(T0), BreakerState::Closed);
    }

    #[test]
    fn trips_open_at_threshold_and_fast_fails() {
        let b = breaker(3, 1000);
        for _ in 0..3 {
            b.record_failure(T0);
        }
        assert_eq!(b.state(T0), BreakerState::Open);
        assert!(b.is_open(T0));
        assert_eq!(b.try_acquire(T0), Admission::FastFail);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn half_open_grants_exactly_one_probe() {
        let b = breaker(1, 0); // open timeout 0: probe due immediately
        b.record_failure(T0);
        assert_eq!(b.try_acquire(T0), Admission::Probe);
        // Second caller while the probe is in flight: fast-fail.
        assert_eq!(b.try_acquire(T0), Admission::FastFail);
    }

    #[test]
    fn probe_success_closes() {
        let b = breaker(1, 0);
        b.record_failure(T0);
        assert_eq!(b.try_acquire(T0), Admission::Probe);
        b.record_success();
        assert_eq!(b.state(T0), BreakerState::Closed);
        assert_eq!(b.try_acquire(T0), Admission::Allow);
    }

    #[test]
    fn probe_failure_reopens_for_another_window() {
        let b = breaker(1, 60_000); // long window: no second probe soon
        b.record_failure(T0);
        // Drive the half-open transition directly: the breaker re-opens
        // from half-open on a failed probe.
        b.word.store(TAG_HALF_OPEN, Ordering::Relaxed);
        b.record_failure(T0);
        assert_eq!(b.state(T0), BreakerState::Open);
        assert_eq!(b.try_acquire(T0), Admission::FastFail);
        assert_eq!(b.opens(), 2);
    }

    #[test]
    fn open_timeout_elapses_into_probe() {
        let b = breaker(1, 20);
        b.record_failure(T0);
        assert_eq!(b.try_acquire(T0), Admission::FastFail);
        // No sleeping: advance the injected clock past the window.
        let later = T0.saturating_add(Duration::from_millis(30));
        assert_eq!(b.state(later), BreakerState::HalfOpen);
        assert_eq!(b.try_acquire(later), Admission::Probe);
    }

    #[test]
    fn reopened_breaker_restarts_its_window() {
        let b = breaker(1, 20);
        b.record_failure(T0);
        let later = T0.saturating_add(Duration::from_millis(30));
        assert_eq!(b.try_acquire(later), Admission::Probe);
        b.record_failure(later); // failed probe re-opens at `later`
        assert_eq!(
            b.state(later.saturating_add(Duration::from_millis(10))),
            BreakerState::Open
        );
        assert_eq!(
            b.state(later.saturating_add(Duration::from_millis(20))),
            BreakerState::HalfOpen
        );
    }

    #[test]
    fn failures_while_open_do_not_double_count() {
        let b = breaker(2, 60_000);
        b.record_failure(T0);
        b.record_failure(T0);
        assert_eq!(b.opens(), 1);
        b.record_failure(T0); // e.g. an in-flight call completing late
        assert_eq!(b.opens(), 1);
        assert_eq!(b.state(T0), BreakerState::Open);
    }

    /// The mutex-guarded state machine the packed word replaced, kept as
    /// the reference the differential test compares against.
    struct Model {
        config: BreakerConfig,
        state: BreakerState,
        consecutive_failures: u32,
        opened_at: Nanos,
        probe_in_flight: bool,
        opens: u64,
    }

    impl Model {
        fn new(config: BreakerConfig) -> Self {
            Model {
                config,
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Nanos::ZERO,
                probe_in_flight: false,
                opens: 0,
            }
        }

        fn probe_due(&self, now: Nanos) -> bool {
            now.saturating_since(self.opened_at) >= self.config.open_timeout
        }

        fn state(&self, now: Nanos) -> BreakerState {
            match self.state {
                BreakerState::Open if self.probe_due(now) => BreakerState::HalfOpen,
                state => state,
            }
        }

        fn try_acquire(&mut self, now: Nanos) -> Admission {
            match self.state {
                BreakerState::Closed => Admission::Allow,
                BreakerState::Open if self.probe_due(now) => {
                    self.state = BreakerState::HalfOpen;
                    self.probe_in_flight = true;
                    Admission::Probe
                }
                BreakerState::Open => Admission::FastFail,
                BreakerState::HalfOpen if self.probe_in_flight => Admission::FastFail,
                BreakerState::HalfOpen => {
                    self.probe_in_flight = true;
                    Admission::Probe
                }
            }
        }

        fn record_success(&mut self) {
            self.consecutive_failures = 0;
            self.probe_in_flight = false;
            self.state = BreakerState::Closed;
        }

        fn record_failure(&mut self, now: Nanos) {
            self.probe_in_flight = false;
            match self.state {
                BreakerState::Closed => {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.config.failure_threshold {
                        self.state = BreakerState::Open;
                        self.opened_at = now;
                        self.opens += 1;
                    }
                }
                BreakerState::HalfOpen => {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    self.opens += 1;
                }
                BreakerState::Open => {}
            }
        }
    }

    #[test]
    fn packed_breaker_matches_the_locked_state_machine_step_for_step() {
        use janus_hash::rng::Rng;
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(0xB4EA_0000 + seed);
            let config = BreakerConfig {
                failure_threshold: rng.gen_range(6) as u32,
                open_timeout: Duration::from_nanos(rng.gen_range(5_000)),
            };
            let breaker = CircuitBreaker::new(config);
            let mut model = Model::new(config);
            let mut now = T0;
            for step in 0..10_000 {
                // Nanosecond-grained advances around the open timeout, so
                // a quantised `opened_at` would flip a probe decision.
                now = now.saturating_add(Duration::from_nanos(rng.gen_range(1_500)));
                let at = format!("seed {seed} step {step}");
                match rng.gen_range(5) {
                    0 | 1 => assert_eq!(breaker.try_acquire(now), model.try_acquire(now), "{at}"),
                    2 => {
                        breaker.record_success();
                        model.record_success();
                    }
                    3 => {
                        breaker.record_failure(now);
                        model.record_failure(now);
                    }
                    _ => assert_eq!(breaker.state(now), model.state(now), "{at}"),
                }
                assert_eq!(breaker.opens(), model.opens, "{at}");
            }
        }
    }

    #[test]
    fn racing_callers_win_at_most_one_probe_per_episode_and_every_open_is_counted() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        const THREADS: usize = 8;
        const ROUNDS: u64 = 200;
        let b = breaker(5, 10);
        let barrier = Barrier::new(THREADS);
        let probes: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        let opened = T0.saturating_add(Duration::from_secs(round));
                        let due = opened.saturating_add(Duration::from_millis(10));
                        // Closed → Open: 8 × 2 racing failures cross the
                        // threshold of 5 exactly once.
                        barrier.wait();
                        b.record_failure(opened);
                        b.record_failure(opened);
                        barrier.wait();
                        assert_eq!(b.try_acquire(opened), Admission::FastFail);
                        barrier.wait();
                        // Probe due: everyone asks, one caller wins.
                        let won = b.try_acquire(due) == Admission::Probe;
                        if won {
                            probes[round as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        barrier.wait();
                        // Odd rounds fail the probe (HalfOpen → Open at
                        // `due`, so nobody is due a second probe); even
                        // rounds close. The losers keep asking meanwhile.
                        if won && round % 2 == 1 {
                            b.record_failure(due);
                        } else if won {
                            b.record_success();
                        } else {
                            assert_ne!(b.try_acquire(due), Admission::Probe);
                        }
                        barrier.wait();
                        b.record_success();
                    }
                });
            }
        });
        for (round, won) in probes.iter().enumerate() {
            assert_eq!(won.load(Ordering::Relaxed), 1, "probes in round {round}");
        }
        // One Closed → Open per round plus one HalfOpen → Open per odd
        // round.
        assert_eq!(b.opens(), ROUNDS + ROUNDS / 2);
    }
}
