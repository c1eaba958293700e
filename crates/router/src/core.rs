//! Sans-IO admission core for the request router.
//!
//! Every *decision* a router node makes around one QoS check — which
//! partition owns the key, whether the partition's circuit breaker lets
//! the RPC out at all, whether a failed RPC should be answered from the
//! degraded local bucket or the blind default, and what to learn from a
//! hint-carrying response — is pure state-machine logic over an injected
//! clock. This module extracts that logic from the HTTP handler in
//! [`crate`] so the production thread shell and the deterministic simulator
//! in `janus-dst` drive the *same* code. No sockets, no threads, no wall
//! clock: this file compiles with nothing but `std`, `janus-types`,
//! `janus-clock`, `janus-hash`, `janus-bucket` and the std-only modules
//! of `janus-net`.
//!
//! The retry schedule of the RPC itself — deadline stamping, nonce
//! reuse, the legacy final attempt — is the sibling sans-IO core
//! [`janus_net::attempt::AttemptPlan`]; a transport (or the simulator)
//! composes the two: `RouterCore` decides *whether and where* to call,
//! `AttemptPlan` decides *what each attempt sends*.
//!
//! Flow per request: [`begin`](RouterCore::begin) →
//! [`RouterStep::Forward`] (perform the RPC) or [`RouterStep::FastFail`]
//! (answer locally, no network); after a forwarded RPC, report
//! [`on_response`](RouterCore::on_response) or
//! [`on_failure`](RouterCore::on_failure).

use janus_bucket::{AtomicBucket, LeakyBucket};
use janus_clock::Nanos;
use janus_hash::{mix64, ModuloRouter, Router as _};
use janus_net::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use janus_net::latency::{
    HedgePolicy, HedgeStats, RetryBudget, RetryBudgetConfig, SharedLatency, TimeoutPolicy,
    WireDiscipline,
};
use janus_types::sync::{Mutex, RwLock, Striped};
use janus_types::{Lease, LeaseReport, QosKey, QosResponse, RuleHint, Verdict};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The decision half of [`crate::RouterConfig`]: everything the core
/// needs, nothing the transport owns (addresses, sockets, retry timing).
#[derive(Debug, Clone)]
pub struct RouterCoreConfig {
    /// Number of QoS-server partitions the fleet hashes over (≥ 1).
    pub partitions: usize,
    /// The verdict served when the backend never answers and no rule
    /// shape was ever learned for the key.
    pub default_verdict: Verdict,
    /// Router nodes sharing admission duty: degraded buckets enforce
    /// `1/fleet_size` of a hinted rule (clamped to at least 1).
    pub fleet_size: usize,
    /// Per-partition circuit breaking plus degraded local admission;
    /// `None` is the paper-faithful ablation (no breakers, no hints).
    pub breaker: Option<BreakerConfig>,
    /// Credit-lease participation: solicit short-TTL slices of hot keys
    /// and admit them locally with zero network I/O. `None` keeps every
    /// check on the RPC path (the pre-lease behaviour).
    pub lease: Option<RouterLeaseConfig>,
    /// Gray-failure discipline: per-partition adaptive timeouts,
    /// credit-safe same-nonce hedging and the node-global retry budget
    /// (DESIGN.md ablation 15). `None` keeps the paper's fixed wire
    /// discipline — the default, byte-identical to the pre-gray plane.
    pub gray: Option<GrayConfig>,
}

/// The router half of the gray-failure plane: how this node learns
/// latency, when it hedges, and how hard retry traffic is capped.
#[derive(Debug, Clone)]
pub struct GrayConfig {
    /// Per-attempt timeout derivation. [`TimeoutPolicy::Fixed`] keeps
    /// the transport's configured timeout while still learning RTTs (so
    /// hedging works without adaptive timeouts).
    pub timeout: TimeoutPolicy,
    /// Hedge in-flight attempts after the learned-tail delay; `None`
    /// never hedges.
    pub hedge: Option<HedgePolicy>,
    /// Cap retry + hedge traffic with a node-global token bucket;
    /// `None` leaves the configured retry schedule unbounded.
    pub budget: Option<RetryBudgetConfig>,
    /// Attempt-RTT samples tracked per partition.
    pub window: usize,
}

impl Default for GrayConfig {
    fn default() -> Self {
        GrayConfig {
            timeout: TimeoutPolicy::adaptive_defaults(),
            hedge: Some(HedgePolicy::default()),
            budget: Some(RetryBudgetConfig::default()),
            window: 64,
        }
    }
}

/// The router half of the credit-lease plane (DESIGN.md ablation 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterLeaseConfig {
    /// This node's stable identity in servers' lease ledgers.
    pub holder: u32,
    /// Renew proactively once this percentage of the TTL has elapsed
    /// (clamped to ≤ 100), so a healthy exchange never lets a hot
    /// lease lapse.
    pub renew_percent: u32,
}

impl RouterLeaseConfig {
    /// Lease participation as `holder`, renewing at 3/4 TTL.
    pub fn new(holder: u32) -> Self {
        RouterLeaseConfig {
            holder,
            renew_percent: 75,
        }
    }
}

/// What [`RouterCore::begin`] decided for one QoS check.
#[derive(Debug)]
pub enum RouterStep {
    /// Perform the RPC against `partition`. `solicit_hint` is set when
    /// breakers are enabled: the first attempt asks the QoS server for
    /// the rule shape so degraded admission has something to enforce.
    Forward {
        /// The partition owning the key (`CRC32(key) mod N`).
        partition: usize,
        /// Ask the server to attach the key's rule shape.
        solicit_hint: bool,
        /// Lease solicitation / renewal / return-and-reconcile to
        /// piggyback on the first attempt, when leases are enabled.
        lease_ask: Option<LeaseReport>,
    },
    /// A live lease covered the check: `Allow`, decided against the
    /// router-local slice with zero network I/O.
    LeaseAdmit {
        /// The partition that granted the lease (for stats attribution).
        partition: usize,
    },
    /// The partition's breaker is open: answer locally without touching
    /// the network.
    FastFail {
        /// The partition whose breaker fast-failed.
        partition: usize,
        /// The locally produced answer.
        answer: LocalAnswer,
    },
}

/// A verdict produced without the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalAnswer {
    /// The key's degraded bucket (seeded from a learned rule hint,
    /// scaled by fleet size) answered.
    Degraded(Verdict),
    /// No rule shape was ever learned: the configured default reply.
    Default(Verdict),
}

impl LocalAnswer {
    /// The verdict to relay, however it was produced.
    pub fn verdict(&self) -> Verdict {
        match *self {
            LocalAnswer::Degraded(verdict) | LocalAnswer::Default(verdict) => verdict,
        }
    }
}

/// What a lease-carrying (or lease-relevant) response did to the local
/// lease cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseEvent {
    /// A fresh lease was installed for a key that held none.
    Granted,
    /// The held lease was renewed at the same epoch: a fresh slice, with
    /// the cumulative spent count carried forward.
    Renewed,
    /// The grant's epoch superseded the held lease (the server revoked
    /// it on a rule change); the stale slice is dropped and the new one
    /// installed with its spent count reset.
    Revoked,
}

/// What [`RouterCore::on_response`] learned from one successful RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResponseOutcome {
    /// The response's rule hint was new or changed.
    pub hint_learned: bool,
    /// The response carried a lease grant (and what it did locally).
    pub lease: Option<LeaseEvent>,
}

/// One held lease: a router-local bucket seeded from the granted slice,
/// plus the book-keeping the reconciliation protocol needs. Every replica
/// of the lease map holds the same entry through one `Arc`, so admitters
/// on any stripe charge one bucket and one spent count. They reach it
/// under their own replica's read guard, so what they update is atomic;
/// the rest is fixed until the entry is replaced or removed under every
/// replica's write guard.
#[derive(Debug)]
struct LeaseEntry {
    /// The delegated slice, refilling at the granted share.
    bucket: AtomicBucket,
    /// Grant epoch; a grant at a different epoch supersedes this entry.
    epoch: u32,
    /// Local admits stop here; the entry converts to a return report.
    expires_at: Nanos,
    /// Piggyback a renewal ask on the next forwarded request after this.
    renew_at: Nanos,
    /// Cumulative admits under (key, holder, epoch) — what reconciliation
    /// reports (saturating). Carried across same-epoch renewals, reset on
    /// epoch bump.
    spent: AtomicU32,
    /// A renewal ask is in flight; don't re-ask on every request.
    renew_pending: AtomicBool,
}

impl LeaseEntry {
    /// Charge one check to the slice.
    fn admit(&self, now: Nanos) -> bool {
        if self.bucket.try_consume(now) != Verdict::Allow {
            return false;
        }
        // Saturating: `checked_add` refuses the update at `u32::MAX`.
        let _ = self
            .spent
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |spent| {
                spent.checked_add(1)
            });
        true
    }
}

/// Slots in the hint-fingerprint array in front of the `hints` map.
const HINT_SLOTS: usize = 256;

/// The fingerprint slot `key` maps to.
fn hint_slot(key: &QosKey) -> usize {
    key.digest() as usize % HINT_SLOTS
}

/// A non-zero fingerprint of "`key` has hint `hint`" (zero is the empty
/// slot).
fn hint_fingerprint(key: &QosKey, hint: RuleHint) -> u64 {
    let shape = mix64(hint.capacity.as_micro()) ^ hint.refill_rate.micro_per_sec();
    mix64(key.digest() ^ mix64(shape)).max(1)
}

/// The sans-IO router core: partition hashing, per-partition circuit
/// breakers, learned rule hints and degraded local buckets (see module
/// docs). Thread-safe: the production handler calls it concurrently from
/// every HTTP connection while the simulator owns one outright.
///
/// A healthy forwarded check — breaker closed, hint unchanged, retry
/// budget full, latency window warm — takes no exclusive lock and writes
/// no memory another thread reads: `begin`, `discipline` and
/// `on_response` only load (breaker word, published timeout and hedge
/// delay, hint fingerprint, the pending-return count) and write only the
/// calling thread's own stripe (`record_rtt`'s window, the lease map
/// replica's read guard). A lease admit adds the charge to the key's
/// slice, which is the lease's credit itself. The maps' locks are for
/// the rare transitions (a changed hint, a brownout, a lease install or
/// expiry). DESIGN.md §4d tabulates each piece of shared state and who
/// writes it when.
#[derive(Debug)]
pub struct RouterCore {
    hash: ModuloRouter,
    default_verdict: Verdict,
    fleet_size: usize,
    /// One breaker per partition; empty when the feature is off.
    breakers: Vec<CircuitBreaker>,
    /// Rule shapes learned from hint-carrying responses, kept across
    /// outages so degraded admission has something to enforce.
    hints: Mutex<HashMap<QosKey, RuleHint>>,
    /// Fingerprints of the `(key, hint)` pairs last written to `hints`,
    /// indexed by key digest and stored under the `hints` lock. A
    /// response whose fingerprint is already in its slot changes nothing,
    /// so it skips the lock and the map; anything else takes the locked
    /// path. Two keys sharing a slot evict each other (both stay correct
    /// on the locked path); a 64-bit collision between slot-mates can at
    /// worst delay learning one *changed* hint.
    hint_prints: [AtomicU64; HINT_SLOTS],
    /// Router-local buckets for degraded admission. A key's bucket is
    /// created once (seeded full at the fleet-scaled shape) and persists
    /// across outage episodes, so repeated brownouts never re-grant the
    /// burst — over-admission stays bounded by one scaled capacity.
    degraded: Mutex<HashMap<QosKey, LeakyBucket>>,
    /// Lease participation; `None` disables the whole plane.
    lease: Option<RouterLeaseConfig>,
    /// Live leases, admitting locally until dry, renewal or expiry: one
    /// equal replica per thread stripe. Admits, renewal asks and the
    /// no-grant response read the caller's replica under its read guard;
    /// install, renewal, revocation and expiry take every replica's write
    /// guard and update them all.
    leases: Striped<RwLock<HashMap<QosKey, Arc<LeaseEntry>>>>,
    /// Expired leases awaiting a return-and-reconcile report, consumed
    /// by the next forwarded request for the key.
    returns: Mutex<HashMap<QosKey, LeaseReport>>,
    /// `returns.len()`, stored under the `returns` lock (Release) and
    /// loaded by every forward (Acquire), which locks `returns` only when
    /// it is non-zero.
    returns_pending: AtomicUsize,
    /// Gray-failure discipline; `None` disables the whole plane.
    gray: Option<GrayConfig>,
    /// Per-partition attempt-RTT windows (empty when gray is off).
    rtt: Vec<SharedLatency>,
    /// Node-global retry/hedge budget (present only when configured).
    budget: Option<RetryBudget>,
    /// Hedge counters the transports report into.
    hedge_stats: HedgeStats,
}

impl RouterCore {
    /// A core for `config`. `partitions` is clamped to at least 1 (the
    /// shell validates the backend list before getting here).
    pub fn new(config: RouterCoreConfig) -> Self {
        let partitions = config.partitions.max(1);
        let breakers = match config.breaker {
            Some(breaker) => (0..partitions)
                .map(|_| CircuitBreaker::new(breaker))
                .collect(),
            None => Vec::new(),
        };
        let rtt = match &config.gray {
            Some(gray) => (0..partitions)
                .map(|_| SharedLatency::with_policies(gray.window, gray.timeout, gray.hedge))
                .collect(),
            None => Vec::new(),
        };
        let budget = config
            .gray
            .as_ref()
            .and_then(|gray| gray.budget)
            .map(RetryBudget::new);
        RouterCore {
            hash: ModuloRouter::new(partitions),
            default_verdict: config.default_verdict,
            fleet_size: config.fleet_size.max(1),
            breakers,
            hints: Mutex::new(HashMap::new()),
            hint_prints: std::array::from_fn(|_| AtomicU64::new(0)),
            degraded: Mutex::new(HashMap::new()),
            lease: config.lease,
            leases: Striped::default(),
            returns: Mutex::new(HashMap::new()),
            returns_pending: AtomicUsize::new(0),
            gray: config.gray,
            rtt,
            budget,
            hedge_stats: HedgeStats::new(),
        }
    }

    /// Whether the breaker/hint refinement is on at all.
    pub fn breakers_enabled(&self) -> bool {
        !self.breakers.is_empty()
    }

    /// Whether this node participates in credit leases.
    pub fn leases_enabled(&self) -> bool {
        self.lease.is_some()
    }

    /// The partition owning `key`.
    pub fn route(&self, key: &QosKey) -> usize {
        self.hash.route(key)
    }

    /// The configured default reply.
    pub fn default_verdict(&self) -> Verdict {
        self.default_verdict
    }

    /// Start one QoS check at `now`: admit against a held lease with no
    /// network I/O, forward to the owning partition, or fast-fail from
    /// local state while its breaker is open. The lease fast path runs
    /// first — a leased key keeps admitting even through a brownout.
    pub fn begin(&self, key: &QosKey, now: Nanos) -> RouterStep {
        let partition = self.route(key);
        if self.lease.is_some() && self.lease_admit(key, now) {
            return RouterStep::LeaseAdmit { partition };
        }
        if self.breakers_enabled() {
            if let Admission::FastFail = self.breakers[partition].try_acquire(now) {
                return RouterStep::FastFail {
                    partition,
                    answer: self.local_answer(key, now),
                };
            }
        }
        RouterStep::Forward {
            partition,
            solicit_hint: self.breakers_enabled(),
            lease_ask: self.lease_ask(key, now),
        }
    }

    /// Try to cover one check from the key's held lease. `true` means
    /// the slice paid for it (the admit was pre-debited at the server at
    /// grant time). An expired lease is converted into a pending
    /// return-and-reconcile report; a dry slice falls through to the RPC
    /// path, which may still find credit in the authoritative bucket.
    fn lease_admit(&self, key: &QosKey, now: Nanos) -> bool {
        let Some(cfg) = self.lease else { return false };
        {
            let leases = self.leases.mine().read();
            let Some(entry) = leases.get(key) else {
                return false;
            };
            if now < entry.expires_at {
                return entry.admit(now);
            }
        }
        // Expired when looked at under the read guard; another thread may
        // have converted or renewed it since, so look again.
        let mut replicas = self.leases.write_all();
        let report = match replicas[0].get(key) {
            // Hand back the unused remainder (not the spent count): under
            // every replica's write guard no admitter can run, so the
            // remainder is credit this holder provably stopped admitting
            // against, which is the only amount the server can safely
            // refund.
            Some(entry) if now >= entry.expires_at => {
                let remaining = u32::try_from(entry.bucket.credit(now).whole()).unwrap_or(u32::MAX);
                LeaseReport::returning(cfg.holder, entry.epoch, remaining, true)
            }
            Some(entry) => return entry.admit(now),
            None => return false,
        };
        for replica in &mut replicas {
            replica.remove(key);
        }
        // Queued before the write guards drop: a forward that finds the
        // lease gone also finds its return.
        let mut returns = self.returns.lock();
        returns.insert(key.clone(), report);
        self.returns_pending.store(returns.len(), Ordering::Release);
        false
    }

    /// The lease report (if any) to piggyback on a forwarded request: a
    /// pending return-and-reconcile first, then a renewal once the TTL
    /// fraction has elapsed, then a plain solicitation for unleased keys.
    fn lease_ask(&self, key: &QosKey, now: Nanos) -> Option<LeaseReport> {
        let cfg = self.lease?;
        if self.returns_pending.load(Ordering::Acquire) != 0 {
            let mut returns = self.returns.lock();
            if let Some(report) = returns.remove(key) {
                self.returns_pending.store(returns.len(), Ordering::Release);
                return Some(report);
            }
        }
        match self.leases.mine().read().get(key) {
            None => Some(LeaseReport::soliciting(cfg.holder)),
            Some(entry) => {
                // The swap elects one asker among racing forwards.
                if now >= entry.renew_at && !entry.renew_pending.swap(true, Ordering::Relaxed) {
                    let spent = entry.spent.load(Ordering::Relaxed);
                    Some(LeaseReport::renewing(cfg.holder, entry.epoch, spent))
                } else {
                    None
                }
            }
        }
    }

    /// Install (or replace) the lease granted by a response. Same epoch
    /// means renewal: the fresh slice replaces the old bucket and the
    /// cumulative spent count carries forward. A different epoch means
    /// the server revoked the held lease (rule change): the stale slice
    /// is dropped and accounting restarts at zero.
    fn install_lease(
        &self,
        cfg: RouterLeaseConfig,
        key: &QosKey,
        lease: Lease,
        now: Nanos,
    ) -> LeaseEvent {
        let ttl = Duration::from_micros(u64::from(lease.ttl_us));
        let renew = Duration::from_micros(
            u64::from(lease.ttl_us) * u64::from(cfg.renew_percent.min(100)) / 100,
        );
        let mut replicas = self.leases.write_all();
        // No admitter runs under the write guards, so the spent count
        // read here is final for the old entry.
        let (event, spent) = match replicas[0].get(key) {
            None => (LeaseEvent::Granted, 0),
            Some(old) if old.epoch == lease.epoch => {
                (LeaseEvent::Renewed, old.spent.load(Ordering::Relaxed))
            }
            Some(_) => (LeaseEvent::Revoked, 0),
        };
        let entry = Arc::new(LeaseEntry {
            bucket: AtomicBucket::full(lease.slice, lease.refill, now),
            epoch: lease.epoch,
            expires_at: now.saturating_add(ttl),
            renew_at: now.saturating_add(renew),
            spent: AtomicU32::new(spent),
            renew_pending: AtomicBool::new(false),
        });
        for replica in &mut replicas {
            replica.insert(key.clone(), Arc::clone(&entry));
        }
        event
    }

    /// Report a successful RPC at `now`: closes/feeds the partition's
    /// breaker, learns the response's rule hint and installs any lease
    /// grant. The outcome says what was learned (for stats attribution).
    pub fn on_response(
        &self,
        partition: usize,
        key: &QosKey,
        response: &QosResponse,
        now: Nanos,
    ) -> ResponseOutcome {
        let mut outcome = ResponseOutcome::default();
        if self.breakers_enabled() {
            self.breakers[partition].record_success();
            if let Some(hint) = response.hint {
                outcome.hint_learned = self.learn_hint(key, hint);
            }
        }
        if let Some(cfg) = self.lease {
            match response.lease {
                Some(lease) => {
                    outcome.lease = Some(self.install_lease(cfg, key, lease, now));
                }
                None => {
                    // An answered ask without a grant: let a later
                    // request re-ask instead of waiting forever.
                    if let Some(entry) = self.leases.mine().read().get(key) {
                        if entry.renew_pending.load(Ordering::Relaxed) {
                            entry.renew_pending.store(false, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        outcome
    }

    /// Report an RPC that exhausted its retry budget (or could not be
    /// dispatched) at `now`. Returns the local answer to serve when the
    /// failure tripped (or found) an open breaker; `None` means the
    /// caller serves the blind default.
    pub fn on_failure(&self, partition: usize, key: &QosKey, now: Nanos) -> Option<LocalAnswer> {
        if !self.breakers_enabled() {
            return None;
        }
        self.breakers[partition].record_failure(now);
        self.breakers[partition]
            .is_open(now)
            .then(|| self.local_answer(key, now))
    }

    /// Serve a verdict without the backend: the key's degraded bucket if
    /// a rule shape was ever learned, the blind default otherwise.
    pub fn local_answer(&self, key: &QosKey, now: Nanos) -> LocalAnswer {
        let hint = self.hints.lock().get(key).copied();
        let Some(hint) = hint else {
            return LocalAnswer::Default(self.default_verdict);
        };
        let shape = hint.split_across(self.fleet_size);
        let mut buckets = self.degraded.lock();
        let bucket = buckets
            .entry(key.clone())
            .or_insert_with(|| LeakyBucket::full(shape.capacity, shape.refill_rate, now));
        LocalAnswer::Degraded(bucket.try_consume(now))
    }

    /// Cache a hinted rule shape. A shape *change* drops the key's
    /// degraded bucket so the next brownout rebuilds it with the new
    /// rule (re-seeding only on a genuine rule update). Returns `true`
    /// when the hint was new or changed.
    fn learn_hint(&self, key: &QosKey, hint: RuleHint) -> bool {
        let print = hint_fingerprint(key, hint);
        let slot = &self.hint_prints[hint_slot(key)];
        // Relaxed: the slot is compared, never dereferenced, and is only
        // stored under the `hints` lock.
        if slot.load(Ordering::Relaxed) == print {
            return false;
        }
        let mut hints = self.hints.lock();
        slot.store(print, Ordering::Relaxed);
        let previous = hints.get(key).copied();
        if previous == Some(hint) {
            return false;
        }
        hints.insert(key.clone(), hint);
        if previous.is_some() {
            self.degraded.lock().remove(key);
        }
        true
    }

    /// Breaker state for `partition` at `now`; `None` when breakers are
    /// disabled or the partition is out of range.
    pub fn breaker_state(&self, partition: usize, now: Nanos) -> Option<BreakerState> {
        self.breakers.get(partition).map(|b| b.state(now))
    }

    /// Times `partition`'s breaker has tripped open; `None` as above.
    pub fn breaker_opens(&self, partition: usize) -> Option<u64> {
        self.breakers.get(partition).map(|b| b.opens())
    }

    /// True when every partition's breaker is currently fast-failing —
    /// this node cannot reach any QoS state and should be drained.
    pub fn all_breakers_open(&self, now: Nanos) -> bool {
        !self.breakers.is_empty() && self.breakers.iter().all(|b| b.is_open(now))
    }

    /// Whether the gray-failure discipline is on at all.
    pub fn gray_enabled(&self) -> bool {
        self.gray.is_some()
    }

    /// Record one observed attempt RTT (microseconds) against the
    /// partition that served it. No-op while the gray plane is off.
    pub fn record_rtt(&self, partition: usize, rtt_us: u64) {
        if let Some(cell) = self.rtt.get(partition) {
            cell.record(rtt_us);
        }
    }

    /// The per-attempt timeout to use against `partition`, derived from
    /// its learned latency window; `baseline` is the transport's
    /// configured fixed timeout (returned verbatim while the gray plane
    /// is off, the policy is [`TimeoutPolicy::Fixed`], or the window is
    /// still warming up).
    pub fn attempt_timeout(&self, partition: usize, baseline: Duration) -> Duration {
        self.rtt
            .get(partition)
            .map_or(baseline, |cell| cell.timeout(baseline))
    }

    /// The hedge delay for an attempt against `partition`, or `None`
    /// while hedging is off or the partition's window is still warming
    /// up (no hedge is sent).
    pub fn hedge_delay(&self, partition: usize) -> Option<Duration> {
        self.rtt.get(partition).and_then(SharedLatency::hedge_delay)
    }

    /// Build the [`WireDiscipline`] one RPC against `partition` should
    /// carry; `baseline` is the transport's configured fixed timeout.
    /// With the gray plane off this is the all-`None` no-op discipline,
    /// so the transports reproduce the paper's wire behaviour exactly.
    pub fn discipline(&self, partition: usize, baseline: Duration) -> WireDiscipline<'_> {
        let Some(gray) = &self.gray else {
            return WireDiscipline::default();
        };
        let timeout = match gray.timeout {
            TimeoutPolicy::Fixed => None,
            TimeoutPolicy::Adaptive { .. } => Some(self.attempt_timeout(partition, baseline)),
        };
        WireDiscipline {
            timeout,
            hedge_delay: self.hedge_delay(partition),
            budget: self.budget.as_ref(),
            stats: Some(&self.hedge_stats),
            rtt: self.rtt.get(partition),
        }
    }

    /// The node-global retry/hedge budget, when configured.
    pub fn retry_budget(&self) -> Option<&RetryBudget> {
        self.budget.as_ref()
    }

    /// The hedge counters the transports report into
    /// (`hedges_sent` / `hedge_wins` / `adaptive_timeout_us`).
    pub fn hedge_stats(&self) -> &HedgeStats {
        &self.hedge_stats
    }

    /// Keys with a learned rule hint (diagnostics).
    pub fn hinted_keys(&self) -> usize {
        self.hints.lock().len()
    }

    /// Keys currently holding a live lease (diagnostics).
    pub fn leased_keys(&self) -> usize {
        self.leases.mine().read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_types::{Credits, RefillRate};
    use std::time::Duration;

    const T0: Nanos = Nanos::from_secs(50);

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn core(partitions: usize, threshold: u32) -> RouterCore {
        RouterCore::new(RouterCoreConfig {
            partitions,
            default_verdict: Verdict::Deny,
            fleet_size: 1,
            breaker: Some(BreakerConfig {
                failure_threshold: threshold,
                open_timeout: Duration::from_secs(60),
            }),
            lease: None,
            gray: None,
        })
    }

    fn leased_core(holder: u32) -> RouterCore {
        RouterCore::new(RouterCoreConfig {
            partitions: 1,
            default_verdict: Verdict::Deny,
            fleet_size: 1,
            breaker: None,
            lease: Some(RouterLeaseConfig::new(holder)),
            gray: None,
        })
    }

    fn grant(id: u64, slice: u64, rate: u64, ttl_us: u32, epoch: u32) -> QosResponse {
        QosResponse::new(id, Verdict::Allow).with_lease(Lease::new(
            Credits::from_whole(slice),
            RefillRate::per_second(rate),
            ttl_us,
            epoch,
        ))
    }

    fn forwarded_ask(core: &RouterCore, k: &QosKey, now: Nanos) -> Option<LeaseReport> {
        match core.begin(k, now) {
            RouterStep::Forward { lease_ask, .. } => lease_ask,
            step => panic!("expected a forward, got {step:?}"),
        }
    }

    fn hinted(id: u64, capacity: u64, rate: u64) -> QosResponse {
        QosResponse::new(id, Verdict::Allow).with_hint(RuleHint::new(
            Credits::from_whole(capacity),
            RefillRate::per_second(rate),
        ))
    }

    #[test]
    fn routing_is_stable_and_forwarding_solicits_hints() {
        let core = core(4, 3);
        let k = key("tenant");
        let p = core.route(&k);
        for _ in 0..3 {
            match core.begin(&k, T0) {
                RouterStep::Forward {
                    partition,
                    solicit_hint,
                    lease_ask,
                } => {
                    assert_eq!(partition, p);
                    assert!(solicit_hint, "breakers on => solicit");
                    assert_eq!(lease_ask, None, "leases off => no ask");
                }
                step => panic!("healthy partition must forward, got {step:?}"),
            }
        }
    }

    #[test]
    fn ablation_never_fast_fails_and_learns_nothing() {
        let core = RouterCore::new(RouterCoreConfig {
            partitions: 2,
            default_verdict: Verdict::Allow,
            fleet_size: 1,
            breaker: None,
            lease: None,
            gray: None,
        });
        let k = key("tenant");
        let p = core.route(&k);
        for _ in 0..20 {
            assert!(core.on_failure(p, &k, T0).is_none(), "no breakers: default");
            match core.begin(&k, T0) {
                RouterStep::Forward { solicit_hint, .. } => {
                    assert!(!solicit_hint, "ablation must not solicit")
                }
                step => panic!("ablation never fast-fails, got {step:?}"),
            }
        }
        assert_eq!(
            core.on_response(p, &k, &hinted(1, 10, 1), T0),
            ResponseOutcome::default()
        );
        assert_eq!(core.hinted_keys(), 0);
        assert_eq!(core.breaker_state(p, T0), None);
    }

    #[test]
    fn failures_trip_breaker_then_requests_fast_fail_locally() {
        let core = core(1, 3);
        let k = key("tenant");
        assert!(core.on_failure(0, &k, T0).is_none());
        assert!(core.on_failure(0, &k, T0).is_none());
        // Third consecutive failure trips the breaker: the failing
        // request itself is answered locally (blind default here).
        assert_eq!(
            core.on_failure(0, &k, T0),
            Some(LocalAnswer::Default(Verdict::Deny))
        );
        assert_eq!(core.breaker_state(0, T0), Some(BreakerState::Open));
        assert_eq!(core.breaker_opens(0), Some(1));
        assert!(core.all_breakers_open(T0));
        match core.begin(&k, T0) {
            RouterStep::FastFail { partition, answer } => {
                assert_eq!(partition, 0);
                assert_eq!(answer, LocalAnswer::Default(Verdict::Deny));
            }
            step => panic!("open breaker must fast-fail, got {step:?}"),
        }
    }

    #[test]
    fn degraded_bucket_enforces_learned_shape_across_brownout() {
        let core = core(1, 1);
        let k = key("tenant");
        // Healthy exchange learns the shape: capacity 5, zero refill.
        assert!(core.on_response(0, &k, &hinted(1, 5, 0), T0).hint_learned);
        assert_eq!(core.hinted_keys(), 1);
        // Partition dies; breaker trips on the first failure and the
        // tripping request itself is served from the bucket (credit 1/5).
        assert_eq!(
            core.on_failure(0, &k, T0),
            Some(LocalAnswer::Degraded(Verdict::Allow))
        );
        let mut allowed = 1;
        for _ in 0..20 {
            match core.local_answer(&k, T0) {
                LocalAnswer::Degraded(Verdict::Allow) => allowed += 1,
                LocalAnswer::Degraded(Verdict::Deny) => {}
                LocalAnswer::Default(_) => panic!("shape was learned"),
            }
        }
        assert_eq!(allowed, 5, "degraded bucket must enforce capacity");
    }

    #[test]
    fn degraded_bucket_splits_shape_across_fleet() {
        let core = RouterCore::new(RouterCoreConfig {
            partitions: 1,
            default_verdict: Verdict::Deny,
            fleet_size: 4,
            breaker: Some(BreakerConfig {
                failure_threshold: 1,
                open_timeout: Duration::from_secs(60),
            }),
            lease: None,
            gray: None,
        });
        let k = key("shared");
        assert!(core.on_response(0, &k, &hinted(1, 8, 0), T0).hint_learned);
        let allowed = (0..10)
            .filter(|_| core.local_answer(&k, T0).verdict() == Verdict::Allow)
            .count();
        assert_eq!(allowed, 2, "8 capacity / 4 nodes = 2 local");
    }

    #[test]
    fn changed_hint_reseeds_the_degraded_bucket() {
        let core = core(1, 1);
        let k = key("tenant");
        assert!(core.on_response(0, &k, &hinted(1, 2, 0), T0).hint_learned);
        // Drain the old bucket dry.
        assert_eq!(core.local_answer(&k, T0).verdict(), Verdict::Allow);
        assert_eq!(core.local_answer(&k, T0).verdict(), Verdict::Allow);
        assert_eq!(core.local_answer(&k, T0).verdict(), Verdict::Deny);
        // Same shape again: not "learned", bucket untouched (still dry).
        assert!(!core.on_response(0, &k, &hinted(2, 2, 0), T0).hint_learned);
        assert_eq!(core.local_answer(&k, T0).verdict(), Verdict::Deny);
        // A genuine rule update re-seeds at the new shape.
        assert!(core.on_response(0, &k, &hinted(3, 4, 0), T0).hint_learned);
        let allowed = (0..6)
            .filter(|_| core.local_answer(&k, T0).verdict() == Verdict::Allow)
            .count();
        assert_eq!(allowed, 4, "rebuilt bucket seeds at the new capacity");
    }

    #[test]
    fn open_breaker_probes_after_timeout_and_success_closes() {
        let core = RouterCore::new(RouterCoreConfig {
            partitions: 1,
            default_verdict: Verdict::Deny,
            fleet_size: 1,
            breaker: Some(BreakerConfig {
                failure_threshold: 1,
                open_timeout: Duration::from_millis(250),
            }),
            lease: None,
            gray: None,
        });
        let k = key("tenant");
        assert!(core.on_failure(0, &k, T0).is_some());
        assert!(matches!(core.begin(&k, T0), RouterStep::FastFail { .. }));
        // Past the open window the next check is let through as a probe.
        let later = T0.saturating_add(Duration::from_millis(300));
        assert!(matches!(core.begin(&k, later), RouterStep::Forward { .. }));
        // ...and only one: a second caller fast-fails while it is out.
        assert!(matches!(core.begin(&k, later), RouterStep::FastFail { .. }));
        core.on_response(0, &k, &QosResponse::new(9, Verdict::Allow), later);
        assert_eq!(core.breaker_state(0, later), Some(BreakerState::Closed));
        assert!(matches!(core.begin(&k, later), RouterStep::Forward { .. }));
    }

    #[test]
    fn unleased_key_solicits_then_lease_admits_with_zero_network_io() {
        let core = leased_core(7);
        let k = key("hot");
        // No lease held: every forward solicits one.
        assert_eq!(
            forwarded_ask(&core, &k, T0),
            Some(LeaseReport::soliciting(7))
        );
        // A grant arrives: slice 3, zero refill, 10 ms TTL, epoch 1.
        let outcome = core.on_response(0, &k, &grant(1, 3, 0, 10_000, 1), T0);
        assert_eq!(outcome.lease, Some(LeaseEvent::Granted));
        assert_eq!(core.leased_keys(), 1);
        // The next three checks admit locally — no Forward step at all.
        for _ in 0..3 {
            assert!(matches!(core.begin(&k, T0), RouterStep::LeaseAdmit { .. }));
        }
        // Slice dry: fall back to the RPC path (the authoritative bucket
        // may still have credit), without re-soliciting — a lease is held.
        assert_eq!(forwarded_ask(&core, &k, T0), None);
    }

    #[test]
    fn renewal_is_asked_once_past_the_ttl_fraction() {
        let core = leased_core(7);
        let k = key("hot");
        core.on_response(0, &k, &grant(1, 100, 0, 10_000, 1), T0);
        // Before 3/4 TTL: locally admitted, nothing to ask.
        let early = T0.saturating_add(Duration::from_micros(7_000));
        assert!(matches!(
            core.begin(&k, early),
            RouterStep::LeaseAdmit { .. }
        ));
        // Past 7.5 ms the slice still admits, but a forwarded request
        // (forced here by draining nothing — use lease_ask directly via
        // a dry-key forward after expiry of credit is impossible with
        // slice 100, so inspect the ask path) piggybacks a renewal.
        let late = T0.saturating_add(Duration::from_micros(8_000));
        assert_eq!(
            core.lease_ask(&k, late),
            Some(LeaseReport::renewing(7, 1, 1)),
            "renewal carries the cumulative spent count"
        );
        // The ask is pending: no duplicate renewal on the next forward.
        assert_eq!(core.lease_ask(&k, late), None);
        // The renewal lands (same epoch): fresh slice, spent carried.
        let outcome = core.on_response(0, &k, &grant(2, 100, 0, 10_000, 1), late);
        assert_eq!(outcome.lease, Some(LeaseEvent::Renewed));
        assert!(matches!(
            core.begin(&k, late),
            RouterStep::LeaseAdmit { .. }
        ));
        assert_eq!(
            core.lease_ask(&k, late.saturating_add(Duration::from_micros(8_000))),
            Some(LeaseReport::renewing(7, 1, 2)),
            "spent accumulates across same-epoch renewals"
        );
    }

    #[test]
    fn expired_lease_returns_and_reconciles_on_the_next_forward() {
        let core = leased_core(9);
        let k = key("hot");
        core.on_response(0, &k, &grant(1, 5, 0, 1_000, 1), T0);
        assert!(matches!(core.begin(&k, T0), RouterStep::LeaseAdmit { .. }));
        assert!(matches!(core.begin(&k, T0), RouterStep::LeaseAdmit { .. }));
        // Past the TTL the lease stops admitting; the same check falls
        // back to an RPC carrying the return-and-reconcile report.
        let late = T0.saturating_add(Duration::from_micros(1_500));
        match core.begin(&k, late) {
            RouterStep::Forward { lease_ask, .. } => {
                let report = lease_ask.expect("expiry must produce a return");
                assert!(report.giving_back, "unspent credit goes back");
                assert!(report.solicit, "still hot: re-solicit");
                // 2 of 5 spent: the return hands back the 3 unused.
                assert_eq!((report.holder, report.epoch, report.spent), (9, 1, 3));
            }
            step => panic!("expired lease must forward, got {step:?}"),
        }
        assert_eq!(core.leased_keys(), 0);
        // The return was consumed: the next forward solicits afresh.
        assert_eq!(
            forwarded_ask(&core, &k, late),
            Some(LeaseReport::soliciting(9))
        );
    }

    #[test]
    fn epoch_bump_revokes_the_held_lease() {
        let core = leased_core(3);
        let k = key("hot");
        core.on_response(0, &k, &grant(1, 5, 0, 10_000, 1), T0);
        assert!(matches!(core.begin(&k, T0), RouterStep::LeaseAdmit { .. }));
        // The server revoked epoch 1 (rule change) and granted epoch 2.
        let outcome = core.on_response(0, &k, &grant(2, 5, 0, 10_000, 2), T0);
        assert_eq!(outcome.lease, Some(LeaseEvent::Revoked));
        // Accounting restarted: the next renewal reports epoch 2 spend.
        assert!(matches!(core.begin(&k, T0), RouterStep::LeaseAdmit { .. }));
        let late = T0.saturating_add(Duration::from_micros(8_000));
        assert_eq!(
            core.lease_ask(&k, late),
            Some(LeaseReport::renewing(3, 2, 1))
        );
    }

    #[test]
    fn leases_compose_with_breakers_and_survive_brownout() {
        let core = RouterCore::new(RouterCoreConfig {
            partitions: 1,
            default_verdict: Verdict::Deny,
            fleet_size: 1,
            breaker: Some(BreakerConfig {
                failure_threshold: 1,
                open_timeout: Duration::from_secs(60),
            }),
            lease: Some(RouterLeaseConfig::new(1)),
            gray: None,
        });
        let k = key("hot");
        core.on_response(0, &k, &grant(1, 2, 0, 50_000, 1), T0);
        // The partition dies and the breaker opens...
        assert!(core.on_failure(0, &k, T0).is_some());
        // ...but leased admits keep flowing: zero network I/O needed.
        assert!(matches!(core.begin(&k, T0), RouterStep::LeaseAdmit { .. }));
        assert!(matches!(core.begin(&k, T0), RouterStep::LeaseAdmit { .. }));
        // Slice dry during the brownout: now the breaker answers.
        assert!(matches!(core.begin(&k, T0), RouterStep::FastFail { .. }));
    }

    fn gray_core(partitions: usize, gray: GrayConfig) -> RouterCore {
        RouterCore::new(RouterCoreConfig {
            partitions,
            default_verdict: Verdict::Deny,
            fleet_size: 1,
            breaker: None,
            lease: None,
            gray: Some(gray),
        })
    }

    #[test]
    fn gray_off_keeps_the_legacy_wire_discipline() {
        let core = core(2, 3);
        assert!(!core.gray_enabled());
        let baseline = Duration::from_micros(100);
        core.record_rtt(0, 5_000); // no window exists: silently dropped
        assert_eq!(core.attempt_timeout(0, baseline), baseline);
        assert_eq!(core.hedge_delay(0), None);
        assert!(core.retry_budget().is_none());
        assert!(core.discipline(0, baseline).is_noop());
    }

    #[test]
    fn adaptive_timeout_engages_only_after_warmup() {
        let core = gray_core(1, GrayConfig::default());
        let baseline = Duration::from_micros(100);
        for _ in 0..(janus_net::latency::ADAPTIVE_WARMUP - 1) {
            core.record_rtt(0, 200);
            assert_eq!(core.attempt_timeout(0, baseline), baseline);
        }
        core.record_rtt(0, 200);
        // 3 × p99 of an all-200µs window.
        assert_eq!(
            core.attempt_timeout(0, baseline),
            Duration::from_micros(600)
        );
        let d = core.discipline(0, baseline);
        assert_eq!(d.timeout, Some(Duration::from_micros(600)));
        assert!(!d.is_noop());
    }

    #[test]
    fn latency_windows_are_isolated_per_partition() {
        let core = gray_core(2, GrayConfig::default());
        for _ in 0..janus_net::latency::ADAPTIVE_WARMUP {
            core.record_rtt(0, 400);
        }
        assert_eq!(core.hedge_delay(0), Some(Duration::from_micros(400)));
        assert_eq!(core.hedge_delay(1), None, "partition 1 never warmed up");
        let baseline = Duration::from_micros(100);
        assert_eq!(core.attempt_timeout(1, baseline), baseline);
        assert_eq!(
            core.attempt_timeout(0, baseline),
            Duration::from_micros(1_200)
        );
    }

    #[test]
    fn retry_budget_is_shared_across_partitions() {
        let core = gray_core(4, GrayConfig::default());
        let baseline = Duration::from_micros(100);
        let d0 = core.discipline(0, baseline);
        let d3 = core.discipline(3, baseline);
        let shared = d0.budget.expect("budget is on by default");
        for _ in 0..10 {
            assert!(shared.try_withdraw(), "default reserve banks 10 retries");
        }
        // One node-wide bucket: draining it via partition 0's discipline
        // drains it for partition 3 too.
        assert!(!d3.budget.expect("same bucket").try_withdraw());
        assert_eq!(core.retry_budget().unwrap().exhausted(), 1);
        let sent = &core.hedge_stats().hedges_sent;
        assert_eq!(sent.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn fixed_timeout_mode_hedges_without_overriding_the_timeout() {
        let core = gray_core(
            1,
            GrayConfig {
                timeout: TimeoutPolicy::Fixed,
                ..GrayConfig::default()
            },
        );
        for _ in 0..janus_net::latency::ADAPTIVE_WARMUP {
            core.record_rtt(0, 300);
        }
        let d = core.discipline(0, Duration::from_micros(100));
        assert_eq!(d.timeout, None, "Fixed mode keeps the transport timeout");
        assert_eq!(d.hedge_delay, Some(Duration::from_micros(300)));
    }

    #[test]
    fn discipline_rtt_feeds_back_into_the_core_windows() {
        let core = gray_core(1, GrayConfig::default());
        let d = core.discipline(0, Duration::from_micros(100));
        let rtt = d.rtt.expect("discipline carries the partition window");
        for _ in 0..janus_net::latency::ADAPTIVE_WARMUP {
            rtt.record(250);
        }
        // The transport records through its discipline; the next call's
        // discipline sees the warmed window.
        assert_eq!(core.hedge_delay(0), Some(Duration::from_micros(250)));
    }

    #[test]
    fn slot_mates_evict_each_other_but_stay_correct() {
        let core = core(1, 1);
        let a = key("tenant-0");
        let b = (1..)
            .map(|i| key(&format!("tenant-{i}")))
            .find(|k| hint_slot(k) == hint_slot(&a))
            .unwrap();
        assert!(core.on_response(0, &a, &hinted(1, 5, 0), T0).hint_learned);
        assert!(core.on_response(0, &b, &hinted(2, 7, 0), T0).hint_learned);
        // Each finds the other's fingerprint in the shared slot and falls
        // back to the map, which knows better.
        for id in 3..20 {
            assert!(!core.on_response(0, &a, &hinted(id, 5, 0), T0).hint_learned);
            assert!(!core.on_response(0, &b, &hinted(id, 7, 0), T0).hint_learned);
        }
        assert_eq!(core.hinted_keys(), 2);
        assert!(core.on_response(0, &b, &hinted(20, 9, 0), T0).hint_learned);
        assert!(!core.on_response(0, &b, &hinted(21, 9, 0), T0).hint_learned);
        assert!(!core.on_response(0, &a, &hinted(22, 5, 0), T0).hint_learned);
    }

    /// The tentpole's pin: with the breaker closed, the hint unchanged,
    /// the retry budget full and the window warm, a forwarded check never
    /// blocks on an exclusive lock — and neither does a lease admit.
    #[test]
    #[cfg(debug_assertions)]
    fn healthy_forward_and_lease_admit_take_no_exclusive_lock() {
        use janus_types::sync::exclusive_acquisitions;
        let core = RouterCore::new(RouterCoreConfig {
            partitions: 2,
            default_verdict: Verdict::Deny,
            fleet_size: 1,
            breaker: Some(BreakerConfig::default()),
            lease: None,
            gray: Some(GrayConfig::default()),
        });
        // Keys with a fingerprint slot each: slot-mates would take the
        // locked path by design.
        let mut keys: Vec<QosKey> = Vec::new();
        for candidate in (0..).map(|i| key(&format!("tenant-{i}"))) {
            if keys.iter().all(|k| hint_slot(k) != hint_slot(&candidate)) {
                keys.push(candidate);
            }
            if keys.len() == 8 {
                break;
            }
        }
        let baseline = Duration::from_micros(100);
        let forward = |k: &QosKey, id: u64| {
            let RouterStep::Forward { partition, .. } = core.begin(k, T0) else {
                panic!("healthy partition must forward");
            };
            let discipline = core.discipline(partition, baseline);
            discipline.budget.expect("budget is on").deposit();
            let outcome = core.on_response(partition, k, &hinted(id, 100, 10), T0);
            core.record_rtt(partition, 120);
            (outcome, discipline.timeout)
        };
        for id in 0..64 {
            forward(&keys[id as usize % keys.len()], id);
        }
        let before = exclusive_acquisitions();
        for id in 64..10_064 {
            let (outcome, timeout) = forward(&keys[id as usize % keys.len()], id);
            assert_eq!(outcome, ResponseOutcome::default());
            assert_eq!(timeout, Some(Duration::from_micros(360)), "window is warm");
        }
        assert_eq!(exclusive_acquisitions(), before);

        let leased = leased_core(7);
        let hot = key("hot");
        leased.on_response(0, &hot, &grant(1, 20_000, 0, 10_000, 1), T0);
        let before = exclusive_acquisitions();
        for _ in 0..10_000 {
            assert!(matches!(
                leased.begin(&hot, T0),
                RouterStep::LeaseAdmit { .. }
            ));
        }
        assert_eq!(exclusive_acquisitions(), before);

        // Nor does a lease-enabled core's forward of a key it holds no
        // lease for, answered without a grant, while no return is pending.
        let cold = key("cold");
        let before = exclusive_acquisitions();
        for id in 0..10_000 {
            assert_eq!(
                forwarded_ask(&leased, &cold, T0),
                Some(LeaseReport::soliciting(7))
            );
            leased.on_response(0, &cold, &QosResponse::new(id, Verdict::Allow), T0);
        }
        assert_eq!(exclusive_acquisitions(), before);
    }

    /// The lease cache as one `RwLock`ed map, as it was before the map
    /// was striped: the reference model the striped replicas must
    /// reproduce step for step.
    struct SingleMapLeases {
        holder: u32,
        leases: RwLock<HashMap<QosKey, LeaseEntry>>,
        returns: Mutex<HashMap<QosKey, LeaseReport>>,
    }

    impl SingleMapLeases {
        fn new(holder: u32) -> Self {
            SingleMapLeases {
                holder,
                leases: RwLock::new(HashMap::new()),
                returns: Mutex::new(HashMap::new()),
            }
        }

        fn begin(&self, key: &QosKey, now: Nanos) -> RouterStep {
            if self.admit(key, now) {
                return RouterStep::LeaseAdmit { partition: 0 };
            }
            RouterStep::Forward {
                partition: 0,
                solicit_hint: false,
                lease_ask: self.ask(key, now),
            }
        }

        fn admit(&self, key: &QosKey, now: Nanos) -> bool {
            {
                let leases = self.leases.read();
                let Some(entry) = leases.get(key) else {
                    return false;
                };
                if now < entry.expires_at {
                    return entry.admit(now);
                }
            }
            let mut leases = self.leases.write();
            match leases.get(key) {
                Some(entry) if now >= entry.expires_at => {
                    let remaining =
                        u32::try_from(entry.bucket.credit(now).whole()).unwrap_or(u32::MAX);
                    let report = LeaseReport::returning(self.holder, entry.epoch, remaining, true);
                    leases.remove(key);
                    self.returns.lock().insert(key.clone(), report);
                    false
                }
                Some(entry) => entry.admit(now),
                None => false,
            }
        }

        fn ask(&self, key: &QosKey, now: Nanos) -> Option<LeaseReport> {
            if let Some(report) = self.returns.lock().remove(key) {
                return Some(report);
            }
            match self.leases.read().get(key) {
                None => Some(LeaseReport::soliciting(self.holder)),
                Some(entry) => {
                    if now >= entry.renew_at && !entry.renew_pending.swap(true, Ordering::Relaxed) {
                        let spent = entry.spent.load(Ordering::Relaxed);
                        Some(LeaseReport::renewing(self.holder, entry.epoch, spent))
                    } else {
                        None
                    }
                }
            }
        }

        fn on_response(
            &self,
            key: &QosKey,
            response: &QosResponse,
            now: Nanos,
        ) -> Option<LeaseEvent> {
            let Some(lease) = response.lease else {
                if let Some(entry) = self.leases.read().get(key) {
                    entry.renew_pending.store(false, Ordering::Relaxed);
                }
                return None;
            };
            let ttl = Duration::from_micros(u64::from(lease.ttl_us));
            let renew = Duration::from_micros(u64::from(lease.ttl_us) * 75 / 100);
            let entry = LeaseEntry {
                bucket: AtomicBucket::full(lease.slice, lease.refill, now),
                epoch: lease.epoch,
                expires_at: now.saturating_add(ttl),
                renew_at: now.saturating_add(renew),
                spent: AtomicU32::new(0),
                renew_pending: AtomicBool::new(false),
            };
            let mut leases = self.leases.write();
            Some(match leases.insert(key.clone(), entry) {
                None => LeaseEvent::Granted,
                Some(old) if old.epoch == lease.epoch => {
                    if let Some(fresh) = leases.get_mut(key) {
                        fresh.spent = old.spent;
                    }
                    LeaseEvent::Renewed
                }
                Some(_) => LeaseEvent::Revoked,
            })
        }
    }

    #[test]
    fn striped_lease_map_matches_the_single_map_model() {
        // Seeded schedules of checks, answered asks (grants at a few
        // epochs, or none) and time jumps over three keys. Each chunk of
        // a schedule runs on a fresh thread, so the striped core reads a
        // different replica from chunk to chunk.
        use janus_hash::rng::Rng;
        const CHUNKS: usize = 4;
        const STEPS: usize = 150;
        let keys = [key("a"), key("b"), key("c")];
        for case in 0..48u64 {
            let mut rng = Rng::seed_from_u64(0x1EA5_E000 + case);
            let core = leased_core(5);
            let model = SingleMapLeases::new(5);
            let mut now = T0;
            let mut id = 0;
            for chunk in 0..CHUNKS {
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        for step in 0..STEPS {
                            let at = format!("case {case} chunk {chunk} step {step}");
                            let k = &keys[rng.gen_range(3) as usize];
                            if rng.gen_range(6) == 0 {
                                now =
                                    now.saturating_add(Duration::from_micros(rng.gen_range(3_000)));
                                continue;
                            }
                            let step = core.begin(k, now);
                            assert_eq!(
                                format!("{step:?}"),
                                format!("{:?}", model.begin(k, now)),
                                "{at}"
                            );
                            assert_eq!(core.leased_keys(), model.leases.read().len(), "{at}");
                            if !matches!(step, RouterStep::Forward { .. }) || rng.gen_range(2) == 0
                            {
                                continue;
                            }
                            id += 1;
                            let response = if rng.gen_range(4) == 0 {
                                QosResponse::new(id, Verdict::Allow)
                            } else {
                                let slice = 1 + rng.gen_range(8);
                                let rate = rng.gen_range(2) * 1_000;
                                let ttl_us = 500 + rng.gen_range(4_000) as u32;
                                grant(id, slice, rate, ttl_us, 1 + rng.gen_range(2) as u32)
                            };
                            assert_eq!(
                                core.on_response(0, k, &response, now).lease,
                                model.on_response(k, &response, now),
                                "{at}"
                            );
                        }
                    });
                });
            }
            held(&core, &keys[0]);
        }
    }

    /// The key's entry as the calling thread's replica holds it, after
    /// checking that every replica holds the same entries.
    fn held(core: &RouterCore, k: &QosKey) -> Option<Arc<LeaseEntry>> {
        let mine = core.leases.mine().read();
        for replica in core.leases.iter() {
            let replica = replica.read();
            assert_eq!(replica.len(), mine.len(), "replicas hold different keys");
            for (key, entry) in mine.iter() {
                assert!(
                    Arc::ptr_eq(entry, &replica[key]),
                    "{key:?}: replicas differ"
                );
            }
        }
        mine.get(k).cloned()
    }

    #[test]
    fn striped_lease_map_races_admits_against_renewal_revocation_and_expiry() {
        use std::sync::Barrier;
        // More threads than stripes, so some replicas are shared.
        const THREADS: usize = 12;
        const ROUNDS: u64 = 64;
        const CHECKS: usize = 40;
        const SLICE: u64 = 300;
        // One credit of refill per 1 ms round.
        const RATE: u64 = 1_000;
        const TTL_US: u32 = 100_000;
        // Round r: 0 grants (or renews), 1 revokes, 2 renews, 3 expires.
        let kind = |round: u64| round % 4;
        let epoch = |round: u64| 1 + (round as u32).div_ceil(4);
        let at = |round: u64| T0.saturating_add(Duration::from_millis(round));
        let expired = |round: u64| at(round).saturating_add(Duration::from_secs(1));
        let core = leased_core(7);
        let k = key("hot");
        let barrier = Barrier::new(THREADS + 1);
        let admits = AtomicU64::new(0);
        let event = Mutex::new(None);
        let returns = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (core, k, barrier, admits, event, returns) =
                    (&core, &k, &barrier, &admits, &event, &returns);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        barrier.wait();
                        let expirer = kind(round) == 3 && t < THREADS / 2;
                        let now = if expirer { expired(round) } else { at(round) };
                        for check in 0..if expirer { 1 } else { CHECKS } {
                            if t == 0 && kind(round) != 3 && check == CHECKS / 2 {
                                let lease = grant(round, SLICE, RATE, TTL_US, epoch(round));
                                *event.lock() = core.on_response(0, k, &lease, now).lease;
                            }
                            match core.begin(k, now) {
                                RouterStep::LeaseAdmit { .. } => {
                                    admits.fetch_add(1, Ordering::Relaxed);
                                }
                                RouterStep::Forward {
                                    lease_ask: Some(report),
                                    ..
                                } if report.giving_back => returns.lock().push(report),
                                _ => {}
                            }
                        }
                        barrier.wait();
                    }
                });
            }
            // A failed check is held until the workers finish their
            // rounds: panicking here would leave them at the barrier.
            let mut failure = None;
            let (mut total, mut supply) = (0, 0);
            for round in 0..ROUNDS {
                let prev = core.leases.mine().read().get(&k).cloned();
                let spent_before = prev.as_ref().map_or(0, |e| e.spent.load(Ordering::Relaxed));
                admits.store(0, Ordering::Relaxed);
                barrier.wait();
                barrier.wait();
                let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let admitted = admits.load(Ordering::Relaxed);
                    let returned = std::mem::take(&mut *returns.lock());
                    let cur = held(&core, &k);
                    let spent = |e: &LeaseEntry| u64::from(e.spent.load(Ordering::Relaxed));
                    if kind(round) == 3 {
                        let old = prev.expect("a lease was held");
                        assert!(cur.is_none(), "round {round}: expiry removes the lease");
                        assert_eq!(returned.len(), 1, "round {round}: one expiry, one return");
                        let remaining = old.bucket.credit(expired(round)).whole();
                        assert_eq!(
                            (returned[0].epoch, u64::from(returned[0].spent)),
                            (old.epoch, remaining),
                            "round {round}: the return hands back the final remainder"
                        );
                        assert_eq!(spent(&old) - u64::from(spent_before), admitted);
                        assert_eq!(core.returns_pending.load(Ordering::Relaxed), 0);
                    } else {
                        assert!(returned.is_empty(), "round {round}: nothing expired");
                        let cur = cur.expect("the grant installed a lease");
                        assert_eq!(cur.epoch, epoch(round));
                        let before = u64::from(spent_before);
                        let expected = match &prev {
                            None => LeaseEvent::Granted,
                            Some(old) if old.epoch == cur.epoch => LeaseEvent::Renewed,
                            Some(_) => LeaseEvent::Revoked,
                        };
                        assert_eq!(event.lock().take(), Some(expected), "round {round}");
                        match (expected, &prev) {
                            (LeaseEvent::Renewed, _) => {
                                assert_eq!(spent(&cur), before + admitted, "round {round}: carried")
                            }
                            (LeaseEvent::Revoked, Some(old)) => assert_eq!(
                                spent(old) - before + spent(&cur),
                                admitted,
                                "round {round}: reset on revoke"
                            ),
                            _ => assert_eq!(spent(&cur), admitted, "round {round}: fresh"),
                        }
                        supply += SLICE;
                    }
                    total += admitted;
                    assert!(
                        total <= supply + round,
                        "round {round}: {total} admits from {supply} granted + {round} refilled"
                    );
                }));
                if let Err(panic) = checked {
                    failure.get_or_insert(panic);
                }
            }
            if let Some(panic) = failure {
                std::panic::resume_unwind(panic);
            }
        });
    }

    #[test]
    fn racing_admitters_spend_exactly_the_slice_and_expiry_returns_the_rest_once() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        const CHECKS: usize = 200;
        let core = leased_core(7);
        let k = key("hot");
        core.on_response(0, &k, &grant(1, 5_000, 0, 1_000, 1), T0);
        let late = T0.saturating_add(Duration::from_micros(1_500));
        let barrier = Barrier::new(THREADS);
        let reports: Vec<Option<LeaseReport>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        for _ in 0..CHECKS {
                            assert!(matches!(core.begin(&k, T0), RouterStep::LeaseAdmit { .. }));
                        }
                        // Everyone finds the lease expired at once.
                        barrier.wait();
                        forwarded_ask(&core, &k, late)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let returns: Vec<_> = reports
            .iter()
            .flatten()
            .filter(|report| report.giving_back)
            .collect();
        assert_eq!(returns.len(), 1, "one expiry, one return: {reports:?}");
        assert_eq!(returns[0].spent as usize, 5_000 - THREADS * CHECKS);
        assert_eq!(core.leased_keys(), 0);
    }

    #[test]
    fn hint_slots_spread_sequential_key_names() {
        // The key families of `janus_bucket::table`'s spread test: names
        // that differ only in their trailing digits. The slot reads the
        // digest's low bits, which spread them like random draws: at least
        // three keys in four on a slot of their own, or every slot used.
        let families = [
            ("tenant-", 1024),
            ("k-tenant-", 64),
            ("m-tenant-", 64),
            ("n-tenant-", 64),
            ("key-", 64),
            ("k", 64),
            ("user-", 16),
        ];
        for (prefix, n) in families {
            let mut fill = [0usize; HINT_SLOTS];
            for i in 0..n {
                fill[hint_slot(&key(&format!("{prefix}{i}")))] += 1;
            }
            let used = fill.iter().filter(|&&k| k > 0).count();
            let max = *fill.iter().max().unwrap();
            assert!(
                used * 4 >= n.min(HINT_SLOTS) * 3,
                "{prefix}0..{}: {used} of {HINT_SLOTS} slots",
                n - 1
            );
            assert!(
                max <= 4 * n.div_ceil(HINT_SLOTS),
                "{prefix}0..{}: {max} keys in one slot",
                n - 1
            );
        }
    }
}
