//! Gray-failure client discipline: windowed latency quantiles, adaptive
//! per-attempt timeouts, a hedging policy and a global retry budget
//! (DESIGN.md ablation 15).
//!
//! The paper's wire discipline is a fixed 100 µs timeout × 5 retries. A
//! partition that is slow-but-alive (GC-like stall, overloaded core,
//! lossy link) never trips a hard-timeout breaker, yet every blind retry
//! it provokes adds load exactly when the server can least afford it.
//! This module gives the client side its own discipline:
//!
//! * [`LatencyWindow`] — a fixed-size ring of observed attempt RTTs with
//!   an incrementally-maintained sorted view, so windowed percentiles
//!   are exact (nearest-rank) and the state is pure integers: no floats,
//!   no decaying averages, no wall clock. Deterministic by construction,
//!   which lets the simulator drive the same object. Once full, a sample
//!   replaces the one it evicts in place: one bounded shift between the
//!   two values' positions, and none at all when they are equal — the
//!   common case on a healthy link, whose RTTs round to the same
//!   microsecond.
//! * [`TimeoutPolicy`] — per-attempt timeout derived as
//!   `clamp(p99 × multiplier, floor, ceil)`, with the paper's fixed
//!   timeout kept as the default/baseline mode.
//! * [`HedgePolicy`] — after a learned-p95 delay, a second copy of the
//!   *same* attempt (same nonce) may be issued; the dedup window makes
//!   the loser's verdict a cached duplicate, so hedging is credit-exact
//!   by construction.
//! * [`RetryBudget`] — a Finagle-style global token bucket shared per
//!   router: every primary attempt deposits a fraction of a retry
//!   credit, every retry or hedge withdraws a whole one, so the extra
//!   load retries may add is hard-bounded at `deposit_pct` percent of
//!   primary traffic (plus a fixed reserve) no matter how gray the
//!   network gets.
//!
//! Everything here is sans-IO: the thread shells and the deterministic
//! simulator drive the same code.

use janus_types::sync::{Mutex, Striped};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Samples an adaptive policy requires before it trusts the window; below
/// this the baseline (fixed) behavior is used. Keeps cold starts and
/// rarely-used partitions on the paper's discipline instead of reacting
/// to one or two lucky samples.
pub const ADAPTIVE_WARMUP: usize = 8;

/// One whole retry (or hedge) costs this many budget units; a deposit of
/// `deposit_pct` units per primary therefore funds `deposit_pct`% extra
/// attempts.
const RETRY_COST: u64 = 100;

/// A fixed-capacity sliding window of attempt round-trip times
/// (microseconds) with exact windowed percentiles.
///
/// The ring preserves arrival order for eviction; a parallel sorted
/// vector holds the same samples ascending, so
/// [`LatencyWindow::percentile`] is `O(1)`. All state is integers — two
/// identical sample sequences yield identical percentiles on any
/// platform.
///
/// Cost of [`record`](Self::record):
/// * while filling, a binary search and one insert into the sorted view
///   (`O(log n + n)`);
/// * once full, the evicted sample's copy in the sorted view is
///   *replaced*: two binary searches and one shift of only the samples
///   lying strictly between the evicted and the new value
///   (`O(log n + k)`, `k ≤ n - 1`), instead of a remove and an insert
///   that each move up to `n - 1` samples;
/// * once full and the new sample equals the evicted one, nothing but
///   the ring cursor moves (`O(1)`): the sorted view is already right.
#[derive(Debug, Clone)]
pub struct LatencyWindow {
    /// Insertion-ordered ring of samples (micros); `head` is the slot the
    /// next sample overwrites once the window is full.
    ring: Vec<u64>,
    /// The same samples, kept sorted ascending.
    sorted: Vec<u64>,
    head: usize,
    cap: usize,
}

impl LatencyWindow {
    /// An empty window holding at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        LatencyWindow {
            ring: Vec::with_capacity(cap),
            sorted: Vec::with_capacity(cap),
            head: 0,
            cap,
        }
    }

    /// Record one attempt RTT in microseconds, evicting the oldest sample
    /// once the window is full.
    pub fn record(&mut self, rtt_us: u64) {
        self.record_changed(rtt_us);
    }

    /// [`record`](Self::record), reporting whether the sorted view or its
    /// length changed — when not, every percentile reads as before.
    pub(crate) fn record_changed(&mut self, rtt_us: u64) -> bool {
        if self.ring.len() < self.cap {
            self.ring.push(rtt_us);
            let pos = self.sorted.partition_point(|&v| v < rtt_us);
            self.sorted.insert(pos, rtt_us);
            return true;
        }
        let old = std::mem::replace(&mut self.ring[self.head], rtt_us);
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        self.replace_sorted(old, rtt_us)
    }

    /// Swap one copy of `old` in the sorted view for `new`, shifting only
    /// the samples strictly between them; `false` when `old == new`.
    fn replace_sorted(&mut self, old: u64, new: u64) -> bool {
        let sorted = &mut self.sorted;
        if new > old {
            // The last copy of `old` moves up to just below the first
            // sample `>= new`; everything in between slides down one.
            let from = sorted.partition_point(|&v| v <= old) - 1;
            let to = sorted.partition_point(|&v| v < new) - 1;
            sorted.copy_within(from + 1..=to, from);
            sorted[to] = new;
        } else if new < old {
            // The first copy of `old` moves down to just above the last
            // sample `<= new`; everything in between slides up one.
            let from = sorted.partition_point(|&v| v < old);
            let to = sorted.partition_point(|&v| v <= new);
            sorted.copy_within(to..from, to + 1);
            sorted[to] = new;
        } else {
            return false;
        }
        true
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Exact nearest-rank percentile (`pct` in 0..=100) over the current
    /// window, or `None` while the window is empty.
    pub fn percentile(&self, pct: u8) -> Option<u64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        // Nearest-rank: ceil(pct/100 × n), clamped to [1, n].
        let rank = (n * usize::from(pct.min(100))).div_ceil(100).clamp(1, n);
        Some(self.sorted[rank - 1])
    }
}

/// How a per-attempt timeout is derived from observed latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeoutPolicy {
    /// The paper's discipline: every attempt waits the configured fixed
    /// timeout (100 µs in the paper; [`crate::udp::UdpRpcConfig::timeout`]
    /// here). The default.
    #[default]
    Fixed,
    /// Learn the timeout from the window:
    /// `clamp(p99 × multiplier_pct / 100, floor, ceil)`, falling back to
    /// the fixed baseline until [`ADAPTIVE_WARMUP`] samples exist.
    Adaptive {
        /// Percent multiplier applied to the windowed p99 (300 = 3× p99).
        multiplier_pct: u32,
        /// Never wait less than this, however fast the window looks.
        floor: Duration,
        /// Never wait longer than this, however gray the partition gets.
        ceil: Duration,
    },
}

impl TimeoutPolicy {
    /// The adaptive mode with its documented defaults: 3 × p99, clamped
    /// to [baseline, 10 ms].
    pub fn adaptive_defaults() -> Self {
        TimeoutPolicy::Adaptive {
            multiplier_pct: 300,
            floor: Duration::from_micros(100),
            ceil: Duration::from_millis(10),
        }
    }

    /// The timeout the next attempt should wait, given the partition's
    /// window and the configured fixed `baseline`.
    pub fn timeout_for(&self, window: &LatencyWindow, baseline: Duration) -> Duration {
        self.learned(window).unwrap_or(baseline)
    }

    /// The timeout learned from `window`; `None` means "use the
    /// baseline" (fixed policy, or still warming up).
    fn learned(&self, window: &LatencyWindow) -> Option<Duration> {
        match *self {
            TimeoutPolicy::Fixed => None,
            TimeoutPolicy::Adaptive {
                multiplier_pct,
                floor,
                ceil,
            } => {
                if window.len() < ADAPTIVE_WARMUP {
                    return None;
                }
                let p99 = window.percentile(99).unwrap_or(0);
                let scaled = p99.saturating_mul(u64::from(multiplier_pct)) / 100;
                Some(Duration::from_micros(scaled).clamp(floor, ceil))
            }
        }
    }
}

/// When to issue a second in-flight copy of an attempt (same nonce).
///
/// The hedge fires after the windowed `percentile` delay (clamped): a
/// request slower than its partition's p95 is probably stuck behind a
/// gray link or a stalled server, and a duplicate costs one datagram —
/// never a second credit, because it re-presents the same attempt nonce
/// and the server's dedup window answers the loser from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Which windowed percentile sets the hedge delay (95 by default).
    pub percentile: u8,
    /// Never hedge sooner than this (loopback noise floor).
    pub floor: Duration,
    /// Never wait longer than this before hedging.
    pub ceil: Duration,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            percentile: 95,
            floor: Duration::from_micros(50),
            ceil: Duration::from_millis(5),
        }
    }
}

impl HedgePolicy {
    /// The delay after which the current attempt should be hedged, or
    /// `None` while the window is still warming up (no hedge is sent).
    pub fn delay_for(&self, window: &LatencyWindow) -> Option<Duration> {
        if window.len() < ADAPTIVE_WARMUP {
            return None;
        }
        let p = window.percentile(self.percentile)?;
        Some(Duration::from_micros(p).clamp(self.floor, self.ceil))
    }
}

/// Configuration for a [`RetryBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudgetConfig {
    /// Budget units deposited per primary attempt; one retry or hedge
    /// costs 100 units, so 10 bounds retry traffic at 10% of primaries.
    pub deposit_pct: u32,
    /// Retries always available regardless of recent traffic (the bucket
    /// is seeded with this many and the cap never falls below it), so a
    /// quiet client can still recover from a lost datagram.
    pub min_reserve: u32,
    /// Ceiling on banked retries — a long calm period cannot fund an
    /// unbounded retry storm later.
    pub cap: u32,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            deposit_pct: 10,
            min_reserve: 10,
            cap: 100,
        }
    }
}

/// A Finagle-style global retry budget: a token bucket shared by every
/// call a router makes.
///
/// Each *primary* attempt deposits `deposit_pct` units; each retry or
/// hedge withdraws [`RETRY_COST`] units or is refused. The invariant is
/// exact and integer: after `p` primaries,
/// `retries + hedges ≤ floor(p × deposit_pct / 100) + min_reserve`,
/// which is the retry-amplification bound the simulator's seventh oracle
/// checks. Lock-free (single CAS per operation) so both transports can
/// share one instance.
#[derive(Debug)]
pub struct RetryBudget {
    /// Banked units (100 per whole retry).
    units: AtomicU64,
    /// Units the bucket can hold.
    cap_units: u64,
    /// Units a primary attempt deposits.
    deposit_units: u64,
    /// Withdrawals refused because the bucket was empty.
    exhausted: AtomicU64,
    config: RetryBudgetConfig,
}

impl RetryBudget {
    /// A budget seeded with the configured reserve.
    pub fn new(config: RetryBudgetConfig) -> Self {
        let reserve_units = u64::from(config.min_reserve) * RETRY_COST;
        let cap_units = (u64::from(config.cap) * RETRY_COST).max(reserve_units);
        RetryBudget {
            units: AtomicU64::new(reserve_units),
            cap_units,
            deposit_units: u64::from(config.deposit_pct),
            exhausted: AtomicU64::new(0),
            config,
        }
    }

    /// The configuration this budget enforces.
    pub fn config(&self) -> RetryBudgetConfig {
        self.config
    }

    /// Credit one primary attempt. A bucket already at its cap — the
    /// steady state of a healthy node — is only loaded, never written.
    pub fn deposit(&self) {
        let mut cur = self.units.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(self.deposit_units).min(self.cap_units);
            if next == cur {
                return;
            }
            match self
                .units
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Try to pay for one retry or hedge. `false` means the budget is
    /// exhausted and the extra attempt must not be sent.
    pub fn try_withdraw(&self) -> bool {
        let mut cur = self.units.load(Ordering::Relaxed);
        loop {
            if cur < RETRY_COST {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.units.compare_exchange_weak(
                cur,
                cur - RETRY_COST,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Whole retries currently banked.
    pub fn balance(&self) -> u64 {
        self.units.load(Ordering::Relaxed) / RETRY_COST
    }

    /// Withdrawals refused so far (the `retry_budget_exhausted` stat).
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }
}

/// "Nothing learned: use the baseline / do not hedge" in a stripe's
/// published cells.
const UNLEARNED: u64 = u64::MAX;

fn publishable(learned: Option<Duration>) -> u64 {
    // A learned value too long for the cell saturates just below the
    // sentinel (584 years; the policies clamp to milliseconds).
    learned.map_or(UNLEARNED, |d| {
        u64::try_from(d.as_nanos())
            .unwrap_or(u64::MAX)
            .min(UNLEARNED - 1)
    })
}

fn published(cell: &AtomicU64) -> Option<Duration> {
    // Relaxed: the cell is the whole message, it publishes no other memory.
    match cell.load(Ordering::Relaxed) {
        UNLEARNED => None,
        nanos => Some(Duration::from_nanos(nanos)),
    }
}

/// One thread's share of a [`SharedLatency`]: a window plus what the
/// cell's policies derive from it, republished after every sample that
/// changed the window's sorted view or length.
#[derive(Debug)]
struct Stripe {
    window: Mutex<LatencyWindow>,
    /// Learned per-attempt timeout in nanoseconds, or [`UNLEARNED`].
    timeout_ns: AtomicU64,
    /// Learned hedge delay in nanoseconds, or [`UNLEARNED`].
    hedge_ns: AtomicU64,
    /// Samples dropped because the window was busy.
    skipped: AtomicU64,
}

/// A partition's learned latency, shared by every thread of a node
/// without any of them waiting for another.
///
/// The cell is built with the [`TimeoutPolicy`] and [`HedgePolicy`] it
/// serves. *Readers never lock*: [`timeout`](Self::timeout) and
/// [`hedge_delay`](Self::hedge_delay) are one relaxed load each of values
/// published by the last [`record`](Self::record) — exactly what
/// [`TimeoutPolicy::timeout_for`] / [`HedgePolicy::delay_for`] return on
/// the window at that moment. *Writers never wait*: `record` takes the
/// window with `try_lock` and drops the sample when another thread holds
/// it (samples are advisory; [`skipped`](Self::skipped) counts the drops).
///
/// The state is [`Striped`]: each thread records into and reads from its
/// own cache-line aligned stripe (window + published values) only, so a
/// sample never moves the window's lines between cores. Each stripe
/// learns from its own threads' samples and warms up on its own; threads
/// beyond the stripe count share, still correct through `try_lock`. One
/// thread means one stripe, so the simulator sees a plain
/// [`LatencyWindow`].
#[derive(Debug)]
pub struct SharedLatency {
    timeout: TimeoutPolicy,
    hedge: Option<HedgePolicy>,
    stripes: Striped<Stripe>,
}

impl SharedLatency {
    /// A record-only cell of `capacity` samples per stripe: fixed
    /// timeout, no hedging.
    pub fn new(capacity: usize) -> Self {
        Self::with_policies(capacity, TimeoutPolicy::Fixed, None)
    }

    /// A cell of `capacity` samples per stripe that publishes what
    /// `timeout` and `hedge` derive from them.
    pub fn with_policies(
        capacity: usize,
        timeout: TimeoutPolicy,
        hedge: Option<HedgePolicy>,
    ) -> Self {
        SharedLatency {
            timeout,
            hedge,
            stripes: Striped::new(|| Stripe {
                window: Mutex::new(LatencyWindow::new(capacity)),
                timeout_ns: AtomicU64::new(UNLEARNED),
                hedge_ns: AtomicU64::new(UNLEARNED),
                skipped: AtomicU64::new(0),
            }),
        }
    }

    /// Record one attempt RTT in microseconds and republish the derived
    /// timeout and hedge delay. `false` means the window was busy and the
    /// sample was dropped.
    pub fn record(&self, rtt_us: u64) -> bool {
        let stripe = self.stripes.mine();
        let Some(mut window) = stripe.window.try_lock() else {
            stripe.skipped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        if !window.record_changed(rtt_us) {
            // Same sorted view, same length: the cells already hold what
            // the policies derive from it.
            return true;
        }
        // Published under the window's lock, so the cells always hold the
        // latest window's values.
        stripe.timeout_ns.store(
            publishable(self.timeout.learned(&window)),
            Ordering::Relaxed,
        );
        let hedge = self.hedge.and_then(|policy| policy.delay_for(&window));
        stripe.hedge_ns.store(publishable(hedge), Ordering::Relaxed);
        true
    }

    /// The per-attempt timeout learned by the calling thread's stripe, or
    /// `baseline` while it is warming up or the policy is fixed.
    pub fn timeout(&self, baseline: Duration) -> Duration {
        published(&self.stripes.mine().timeout_ns).unwrap_or(baseline)
    }

    /// The hedge delay learned by the calling thread's stripe; `None`
    /// while it is warming up or hedging is off.
    pub fn hedge_delay(&self) -> Option<Duration> {
        published(&self.stripes.mine().hedge_ns)
    }

    /// Samples dropped so far because their window was busy, over all
    /// stripes.
    pub fn skipped(&self) -> u64 {
        self.stripes
            .iter()
            .map(|stripe| stripe.skipped.load(Ordering::Relaxed))
            .sum()
    }

    /// Exact nearest-rank percentile of the calling thread's stripe, or
    /// `None` while empty.
    pub fn percentile(&self, pct: u8) -> Option<u64> {
        self.with(|w| w.percentile(pct))
    }

    /// Samples the calling thread's stripe holds.
    pub fn len(&self) -> usize {
        self.with(|w| w.len())
    }

    /// True when the calling thread's stripe has no sample yet.
    pub fn is_empty(&self) -> bool {
        self.with(|w| w.is_empty())
    }

    /// Run `f` against the calling thread's window (diagnostics: this one
    /// waits for the window).
    pub fn with<R>(&self, f: impl FnOnce(&LatencyWindow) -> R) -> R {
        f(&self.stripes.mine().window.lock())
    }
}

/// Counters for the hedging path, shared between a transport and the
/// stats snapshot that exports them (`hedges_sent` / `hedge_wins` /
/// `adaptive_timeout_us` in `RouterStats` and the bench JSON).
#[derive(Debug, Default)]
pub struct HedgeStats {
    /// Second copies actually put on the wire.
    pub hedges_sent: AtomicU64,
    /// Hedged attempts that got an answer after the hedge fired — the
    /// window in which the duplicate could have been the one that won.
    pub hedge_wins: AtomicU64,
    /// The most recent adaptively-derived per-attempt timeout, in
    /// microseconds (gauge; 0 until the adaptive mode first engages).
    pub adaptive_timeout_us: AtomicU64,
}

impl HedgeStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the `adaptive_timeout_us` gauge. Called once per RPC, so it
    /// writes the shared line only when the timeout actually moved.
    pub fn note_adaptive_timeout(&self, timeout: Duration) {
        let micros = timeout.as_micros() as u64;
        if self.adaptive_timeout_us.load(Ordering::Relaxed) != micros {
            self.adaptive_timeout_us.store(micros, Ordering::Relaxed);
        }
    }
}

/// Everything a single RPC call needs to apply the gray-failure
/// discipline, bundled so the transports keep one signature.
///
/// `Default` is the paper's behavior: fixed timeout, no hedge, no
/// budget, nothing recorded — byte-identical to the pre-gray wire
/// discipline.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireDiscipline<'a> {
    /// Per-attempt timeout override (adaptively derived); `None` keeps
    /// the client's configured fixed timeout.
    pub timeout: Option<Duration>,
    /// Hedge the attempt after this in-flight delay; `None` never hedges.
    pub hedge_delay: Option<Duration>,
    /// Global budget gating retries *and* hedges; `None` leaves the
    /// configured retry schedule unbounded (paper behavior).
    pub budget: Option<&'a RetryBudget>,
    /// Hedge counters to report into.
    pub stats: Option<&'a HedgeStats>,
    /// Where observed attempt RTTs are recorded (feeds the adaptive
    /// timeout and hedge delay of *later* calls).
    pub rtt: Option<&'a SharedLatency>,
}

impl WireDiscipline<'_> {
    /// True when every knob is off — the legacy fast path.
    pub fn is_noop(&self) -> bool {
        self.timeout.is_none()
            && self.hedge_delay.is_none()
            && self.budget.is_none()
            && self.stats.is_none()
            && self.rtt.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_percentiles_are_exact_nearest_rank() {
        let mut w = LatencyWindow::new(16);
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            w.record(v);
        }
        assert_eq!(w.percentile(0), Some(10));
        assert_eq!(w.percentile(10), Some(10));
        assert_eq!(w.percentile(50), Some(50));
        assert_eq!(w.percentile(90), Some(90));
        assert_eq!(w.percentile(95), Some(100));
        assert_eq!(w.percentile(99), Some(100));
        assert_eq!(w.percentile(100), Some(100));
    }

    #[test]
    fn empty_window_has_no_percentiles() {
        let w = LatencyWindow::new(8);
        assert!(w.is_empty());
        assert_eq!(w.percentile(50), None);
        assert_eq!(w.percentile(99), None);
    }

    #[test]
    fn single_sample_answers_every_percentile() {
        let mut w = LatencyWindow::new(8);
        w.record(123);
        for pct in [0, 1, 50, 95, 99, 100] {
            assert_eq!(w.percentile(pct), Some(123));
        }
    }

    #[test]
    fn full_window_evicts_oldest_first() {
        let mut w = LatencyWindow::new(4);
        for v in [1000, 1, 2, 3] {
            w.record(v);
        }
        assert_eq!(w.percentile(100), Some(1000));
        // The fifth sample evicts 1000 (the oldest), not the largest kept.
        w.record(4);
        assert_eq!(w.len(), 4);
        assert_eq!(w.percentile(100), Some(4));
        assert_eq!(w.percentile(0), Some(1));
    }

    #[test]
    fn eviction_removes_exactly_one_duplicate_copy() {
        let mut w = LatencyWindow::new(3);
        w.record(7);
        w.record(7);
        w.record(7);
        w.record(9); // evicts one 7
        assert_eq!(w.len(), 3);
        assert_eq!(w.percentile(50), Some(7));
        assert_eq!(w.percentile(100), Some(9));
        w.record(9); // evicts another 7
        w.record(9); // evicts the last 7
        assert_eq!(w.percentile(0), Some(9));
    }

    #[test]
    fn identical_sequences_yield_identical_percentiles() {
        let feed = |w: &mut LatencyWindow| {
            for i in 0..100u64 {
                w.record((i * 37) % 61);
            }
        };
        let mut a = LatencyWindow::new(32);
        let mut b = LatencyWindow::new(32);
        feed(&mut a);
        feed(&mut b);
        for pct in 0..=100u8 {
            assert_eq!(a.percentile(pct), b.percentile(pct));
        }
    }

    #[test]
    fn in_place_window_matches_a_sort_the_ring_reference() {
        // Seeded differential: heavy duplicates (0..4) and wide values
        // (0..10,000) over capacities that hit every shift shape. After
        // every sample the sorted view and all 101 percentiles equal a
        // reference that re-sorts the ring, and `record_changed` says
        // "changed" exactly when the sorted view or its length moved.
        use janus_hash::rng::Rng;
        use std::collections::VecDeque;
        let mut rng = Rng::seed_from_u64(0x1A7E_0002);
        for range in [4u64, 10_000] {
            for cap in [1usize, 2, 64, 100] {
                let mut window = LatencyWindow::new(cap);
                let mut ring = VecDeque::new();
                let mut before = Vec::new();
                for step in 0..2_000 {
                    let rtt_us = rng.gen_range(range);
                    if ring.len() == cap {
                        ring.pop_front();
                    }
                    ring.push_back(rtt_us);
                    let mut reference: Vec<u64> = ring.iter().copied().collect();
                    reference.sort_unstable();
                    let changed = window.record_changed(rtt_us);
                    let what = format!("range {range} cap {cap} step {step}");
                    assert_eq!(window.sorted, reference, "{what}");
                    assert_eq!(changed, reference != before, "{what}");
                    for pct in 0..=100u8 {
                        let n = reference.len();
                        let rank = (n * usize::from(pct)).div_ceil(100).clamp(1, n);
                        assert_eq!(window.percentile(pct), Some(reference[rank - 1]), "{what}");
                    }
                    before = reference;
                }
            }
        }
    }

    #[test]
    fn fixed_policy_always_returns_the_baseline() {
        let mut w = LatencyWindow::new(16);
        for _ in 0..16 {
            w.record(5_000);
        }
        let baseline = Duration::from_micros(100);
        assert_eq!(TimeoutPolicy::Fixed.timeout_for(&w, baseline), baseline);
    }

    #[test]
    fn adaptive_policy_falls_back_until_warmed_up() {
        let policy = TimeoutPolicy::adaptive_defaults();
        let mut w = LatencyWindow::new(64);
        let baseline = Duration::from_micros(100);
        for _ in 0..(ADAPTIVE_WARMUP - 1) {
            w.record(2_000);
            assert_eq!(policy.timeout_for(&w, baseline), baseline);
        }
        w.record(2_000);
        // 3 × p99 of an all-2ms window = 6 ms, inside the default clamp.
        assert_eq!(
            policy.timeout_for(&w, baseline),
            Duration::from_micros(6_000)
        );
    }

    #[test]
    fn adaptive_policy_clamps_to_floor_and_ceiling() {
        let policy = TimeoutPolicy::Adaptive {
            multiplier_pct: 300,
            floor: Duration::from_micros(100),
            ceil: Duration::from_millis(10),
        };
        let baseline = Duration::from_micros(100);
        let mut fast = LatencyWindow::new(16);
        for _ in 0..16 {
            fast.record(1); // 3 µs scaled — below the floor
        }
        assert_eq!(
            policy.timeout_for(&fast, baseline),
            Duration::from_micros(100)
        );
        let mut slow = LatencyWindow::new(16);
        for _ in 0..16 {
            slow.record(1_000_000); // 3 s scaled — above the ceiling
        }
        assert_eq!(
            policy.timeout_for(&slow, baseline),
            Duration::from_millis(10)
        );
    }

    #[test]
    fn hedge_delay_tracks_the_windowed_p95_with_clamp() {
        let policy = HedgePolicy::default();
        let mut w = LatencyWindow::new(32);
        assert_eq!(policy.delay_for(&w), None, "no hedge before warmup");
        for v in 1..=32u64 {
            w.record(v * 100);
        }
        // p95 of 100..=3200 step 100 is 3100 µs, inside [50 µs, 5 ms].
        assert_eq!(policy.delay_for(&w), Some(Duration::from_micros(3_100)));
        let mut fast = LatencyWindow::new(16);
        for _ in 0..16 {
            fast.record(1);
        }
        assert_eq!(
            policy.delay_for(&fast),
            Some(Duration::from_micros(50)),
            "floor clamp"
        );
    }

    #[test]
    fn retry_budget_starts_at_the_reserve() {
        let budget = RetryBudget::new(RetryBudgetConfig::default());
        assert_eq!(budget.balance(), 10);
        for _ in 0..10 {
            assert!(budget.try_withdraw());
        }
        assert!(!budget.try_withdraw(), "reserve spent, nothing deposited");
        assert_eq!(budget.exhausted(), 1);
    }

    #[test]
    fn deposits_fund_exactly_the_configured_percentage() {
        let budget = RetryBudget::new(RetryBudgetConfig {
            deposit_pct: 10,
            min_reserve: 0,
            cap: 100,
        });
        assert!(!budget.try_withdraw(), "no reserve, no deposits");
        for _ in 0..100 {
            budget.deposit();
        }
        // 100 primaries × 10% = 10 funded retries, not one more.
        let mut granted = 0;
        while budget.try_withdraw() {
            granted += 1;
        }
        assert_eq!(granted, 10);
    }

    #[test]
    fn budget_cap_bounds_banked_retries() {
        let budget = RetryBudget::new(RetryBudgetConfig {
            deposit_pct: 50,
            min_reserve: 0,
            cap: 3,
        });
        for _ in 0..10_000 {
            budget.deposit();
        }
        assert_eq!(budget.balance(), 3, "calm periods cannot bank a storm");
    }

    #[test]
    fn cap_never_falls_below_the_reserve() {
        let budget = RetryBudget::new(RetryBudgetConfig {
            deposit_pct: 10,
            min_reserve: 20,
            cap: 5, // misconfigured below the reserve
        });
        assert_eq!(budget.balance(), 20, "the seeded reserve is not clipped");
    }

    #[test]
    fn interleaved_deposits_and_withdrawals_stay_exact() {
        let budget = RetryBudget::new(RetryBudgetConfig {
            deposit_pct: 10,
            min_reserve: 1,
            cap: 100,
        });
        let mut granted = 0u64;
        for _ in 0..50 {
            for _ in 0..10 {
                budget.deposit();
            }
            if budget.try_withdraw() {
                granted += 1;
            }
        }
        // 500 primaries at 10% fund 50; plus the 1-retry reserve, but only
        // 50 withdrawal opportunities existed.
        assert_eq!(granted, 50);
        assert_eq!(budget.exhausted(), 0);
        assert_eq!(budget.balance(), 1, "the reserve is still banked");
    }

    #[test]
    fn shared_window_round_trips_through_the_mutex() {
        let shared = SharedLatency::new(8);
        assert!(shared.is_empty());
        for v in [10, 20, 30, 40, 50, 60, 70, 80] {
            shared.record(v);
        }
        assert_eq!(shared.len(), 8);
        assert_eq!(shared.percentile(50), Some(40));
        assert_eq!(shared.with(|w| w.capacity()), 8);
    }

    #[test]
    fn default_wire_discipline_is_a_noop() {
        assert!(WireDiscipline::default().is_noop());
        let armed = WireDiscipline {
            hedge_delay: Some(Duration::from_micros(200)),
            ..WireDiscipline::default()
        };
        assert!(!armed.is_noop());
    }

    #[test]
    fn budget_at_its_cap_is_not_written_by_deposits() {
        let budget = RetryBudget::new(RetryBudgetConfig {
            deposit_pct: 10,
            min_reserve: 3,
            cap: 3,
        });
        for _ in 0..100 {
            budget.deposit();
        }
        assert_eq!(budget.balance(), 3);
        assert!(budget.try_withdraw());
        budget.deposit();
        assert_eq!(budget.units.load(Ordering::Relaxed), 210);
    }

    #[test]
    fn adaptive_timeout_gauge_tracks_the_latest_value() {
        let stats = HedgeStats::new();
        for micros in [600, 600, 450, 450, 600] {
            stats.note_adaptive_timeout(Duration::from_micros(micros));
            assert_eq!(stats.adaptive_timeout_us.load(Ordering::Relaxed), micros);
        }
    }

    #[test]
    fn published_values_equal_the_policies_after_every_sample() {
        use janus_hash::rng::Rng;
        let timeout = TimeoutPolicy::adaptive_defaults();
        let hedge = HedgePolicy::default();
        let shared = SharedLatency::with_policies(64, timeout, Some(hedge));
        let baseline = Duration::from_micros(100);
        assert_eq!(shared.timeout(baseline), baseline);
        assert_eq!(shared.hedge_delay(), None);
        let mut window = LatencyWindow::new(64);
        let mut rng = Rng::seed_from_u64(0x1A7E_0001);
        for _ in 0..1_000 {
            // Mostly tens of microseconds, sometimes a gray-scale outlier.
            let rtt_us = match rng.gen_range(10) {
                0 => rng.gen_range(50_000),
                _ => rng.gen_range(300),
            };
            assert!(shared.record(rtt_us), "one thread never finds it busy");
            window.record(rtt_us);
            assert_eq!(
                shared.timeout(baseline),
                timeout.timeout_for(&window, baseline)
            );
            assert_eq!(shared.hedge_delay(), hedge.delay_for(&window));
        }
        assert_eq!(shared.skipped(), 0);
    }

    #[test]
    fn barrier_stepped_recorders_conserve_samples_and_publish_their_windows() {
        // More threads than stripes, so some stripes are shared and their
        // `try_lock` really drops samples. After every barrier-stepped
        // step: samples offered == recorded + skipped, and every stripe's
        // published timeout and hedge are its policies applied to its own
        // window. Failures are collected and asserted after the last
        // step, so no thread is left parked at a barrier.
        use janus_hash::rng::Rng;
        use janus_types::sync::STRIPES;
        use std::sync::Barrier;
        const THREADS: usize = 12;
        const STEPS: u64 = 40;
        const PER_STEP: u64 = 500;
        const { assert!(THREADS > STRIPES) };
        let timeout = TimeoutPolicy::adaptive_defaults();
        let hedge = HedgePolicy::default();
        let shared = SharedLatency::with_policies(64, timeout, Some(hedge));
        let baseline = Duration::from_micros(100);
        let recorded = AtomicU64::new(0);
        let step = Barrier::new(THREADS + 1);
        let failures = std::thread::scope(|scope| {
            for thread in 0..THREADS as u64 {
                let (shared, recorded, step) = (&shared, &recorded, &step);
                scope.spawn(move || {
                    let mut rng = Rng::seed_from_u64(0x1A7E_0100 + thread);
                    for _ in 0..STEPS {
                        step.wait();
                        let mut mine = 0;
                        for _ in 0..PER_STEP {
                            // Runs of equal RTTs (the unchanged-window
                            // path) broken by spread and rare outliers.
                            let rtt_us = match rng.gen_range(20) {
                                0 => rng.gen_range(20_000),
                                1..=5 => rng.gen_range(400),
                                _ => 40,
                            };
                            mine += u64::from(shared.record(rtt_us));
                        }
                        recorded.fetch_add(mine, Ordering::Relaxed);
                        step.wait();
                    }
                });
            }
            let mut failures = Vec::new();
            for round in 1..=STEPS {
                step.wait();
                step.wait();
                let offered = round * PER_STEP * THREADS as u64;
                let accounted = recorded.load(Ordering::Relaxed) + shared.skipped();
                if accounted != offered {
                    failures.push(format!("step {round}: {accounted} of {offered} accounted"));
                }
                for (i, stripe) in shared.stripes.iter().enumerate() {
                    let window = stripe.window.lock();
                    let published_timeout = published(&stripe.timeout_ns).unwrap_or(baseline);
                    if published_timeout != timeout.timeout_for(&window, baseline) {
                        failures.push(format!("step {round} stripe {i}: stale timeout"));
                    }
                    if published(&stripe.hedge_ns) != hedge.delay_for(&window) {
                        failures.push(format!("step {round} stripe {i}: stale hedge delay"));
                    }
                }
            }
            failures
        });
        assert!(failures.is_empty(), "{failures:#?}");
        assert!(recorded.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn busy_window_drops_the_sample_and_readers_still_answer() {
        let shared = SharedLatency::with_policies(
            16,
            TimeoutPolicy::adaptive_defaults(),
            Some(HedgePolicy::default()),
        );
        for _ in 0..ADAPTIVE_WARMUP {
            shared.record(200);
        }
        // This thread holds its own stripe's window: a `record` that
        // waited for it would deadlock right here.
        let held = shared.stripes.mine().window.lock();
        assert!(!shared.record(9_000));
        assert_eq!(shared.skipped(), 1);
        assert_eq!(
            shared.timeout(Duration::from_micros(100)),
            Duration::from_micros(600)
        );
        assert_eq!(shared.hedge_delay(), Some(Duration::from_micros(200)));
        drop(held);
        assert!(shared.record(200));
    }

    #[test]
    fn record_only_cell_publishes_nothing() {
        let shared = SharedLatency::new(16);
        for _ in 0..16 {
            shared.record(5_000);
        }
        let baseline = Duration::from_micros(100);
        assert_eq!(shared.timeout(baseline), baseline);
        assert_eq!(shared.hedge_delay(), None);
    }

    #[test]
    fn concurrent_recorders_and_readers_never_wait_and_lose_no_count() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        const WRITERS: usize = 8;
        const SAMPLES: u64 = 50_000;
        let timeout = TimeoutPolicy::adaptive_defaults();
        let hedge = HedgePolicy::default();
        let shared = SharedLatency::with_policies(64, timeout, Some(hedge));
        let baseline = Duration::from_micros(100);
        let start = Barrier::new(WRITERS + 2);
        let done = AtomicBool::new(false);
        let recorded: u64 = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        while !done.load(Ordering::Relaxed) {
                            // Only ever a policy output or the baseline.
                            let t = shared.timeout(baseline);
                            assert!(t == baseline || t <= Duration::from_millis(10));
                            if let Some(delay) = shared.hedge_delay() {
                                assert!((hedge.floor..=hedge.ceil).contains(&delay));
                            }
                        }
                    })
                })
                .collect();
            let writers: Vec<_> = (0..WRITERS as u64)
                .map(|writer| {
                    let (shared, start) = (&shared, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..SAMPLES)
                            .filter(|i| shared.record(50 + (i * 7 + writer) % 400))
                            .count() as u64
                    })
                })
                .collect();
            let recorded = writers.into_iter().map(|w| w.join().unwrap()).sum();
            done.store(true, Ordering::Relaxed);
            for reader in readers {
                reader.join().unwrap();
            }
            recorded
        });
        // A busy window drops the sample instead of blocking the writer,
        // and every sample is accounted one way or the other.
        assert_eq!(recorded + shared.skipped(), WRITERS as u64 * SAMPLES);
        // Quiescent: every stripe's cells hold what its window derives.
        for stripe in shared.stripes.iter() {
            let window = stripe.window.lock();
            assert_eq!(
                published(&stripe.timeout_ns).unwrap_or(baseline),
                timeout.timeout_for(&window, baseline)
            );
            assert_eq!(published(&stripe.hedge_ns), hedge.delay_for(&window));
        }
    }
}
