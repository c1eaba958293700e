//! Invariant oracles checked after every simulated event, over the keys
//! the event touched.
//!
//! The simulator feeds every observable admission outcome into an
//! [`OracleState`]; a violation is a property of the *whole cluster
//! history*, not of any single core, which is what the deterministic
//! simulator buys over unit tests. Seven invariants are enforced:
//!
//! 1. **Credit exactness / no oversell** — for a zero-refill key with
//!    capacity `C` whose owning partition has rebooted `r` times, the
//!    QoS servers grant at most `C * (1 + r)` allows. Every reboot may
//!    at worst resurrect a full bucket (cold restart re-reads the rule
//!    database; failover adopts a stale standby snapshot), so the bound
//!    grows by exactly one capacity per reboot and never more.
//! 2. **At-most-one charge per attempt nonce** — within one server
//!    lifetime (partition epoch), a stamped retry nonce is decided at
//!    most once no matter how often the network duplicates or the
//!    router retries the frame. This is the dedup-window guarantee,
//!    including the DESIGN.md §4c legacy-downgrade case.
//! 3. **Bounded over-admission during failover/brownout** — server
//!    allows plus the router's degraded-mode allows stay under
//!    `C * (1 + r) + C`: brownout admission replays a learned
//!    [`RuleHint`](janus_types::RuleHint) shape, so it can over-admit at
//!    most one extra bucket of credit per key, never unbounded.
//! 4. **Availability floor** — every issued request completes (backend,
//!    degraded or default answer) within its retry budget. Brownouts
//!    degrade answers; they must never hang a caller.
//! 5. **Lease coverage** — every zero-RTT admit the router makes
//!    against a delegated credit lease is pre-paid: per key,
//!    `lease_admits <= lease_drained`, where `lease_drained` counts the
//!    credits the server's ledger took out of the authoritative bucket
//!    at grant time. Combined with oracle 1 (which charges those drains
//!    against the same `C * (1 + r)` budget), total admissions stay
//!    under authoritative capacity plus the outstanding lease slices
//!    under any fault schedule — grants lost in flight, renewals
//!    delayed past the TTL, revocations racing local admits, crashes
//!    with leases outstanding.
//! 6. **Reclamation never mints credit** — demoting an idle key to the
//!    cold tier and readmitting it on its next request is
//!    credit-neutral: the readmitted bucket resumes the exact credit
//!    captured at demotion, so a key's allows stay inside the same
//!    `C * (1 + r)` budget no matter how many demote/readmit cycles it
//!    survives. A breach of the credit bound on a key that has been
//!    reclaimed at least once is attributed to the memory engine, not
//!    to reboots — unlike a reboot, a reclaim cycle adds *zero* to the
//!    budget.
//! 7. **Bounded retry amplification, credit-exact hedging** — when the
//!    router runs a global retry budget (deposit `d`% per primary,
//!    `reserve` free withdrawals), the extra wire attempts it emits —
//!    retries and hedges together — stay under
//!    `primaries * d / 100 + reserve + 1` across the whole run: a gray
//!    partition can slow every answer and the cluster still cannot melt
//!    itself down with a retry storm. And every hedge is credit-exact
//!    by construction: a hedged request re-presents the *same* attempt
//!    nonce, so per server lifetime it is charged at most once no
//!    matter which attempt wins. A hedged request id observed with two
//!    distinct fresh stamped charges is pinned on the hedger, not the
//!    network.
//!
//! Oracles 1–3, 5 and 6 are checked the moment an admission is
//! recorded, and again by the end-of-event [`OracleState::sweep`],
//! which re-checks only the keys whose inputs changed during the event
//! (allows, degraded allows, lease admits and drains, reclaims,
//! reboots of the owning partition) and then oracle 7's amplification
//! bound when a budget is registered. A key whose inputs did not change
//! derives exactly the messages already reported, so the touched-key
//! sweep finds the same violations, in the same order, as re-checking
//! every key would. Oracle 4 is asserted once the event queue drains,
//! when completion times are known.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Duration;

use janus_clock::Nanos;
use janus_types::QosRequest;

/// How a fresh server-side decision is keyed for the at-most-once
/// oracle: stamped frames by their attempt nonce, legacy frames by the
/// router-assigned request id. Legacy frames carry no nonce and are
/// deliberately not deduplicated against each other (paper semantics),
/// so only stamped charges are constrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ChargeKey {
    Nonce(u32),
}

/// A multiply-fold hasher for the per-charge sets, whose keys are a few
/// small integers the simulator itself chose: one rotate, xor and
/// multiply per word instead of a SipHash round. It has no key, so it is
/// no defence against chosen inputs, and the oracle needs none.
#[derive(Default, Clone, Copy)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply mixes upwards; the rotate brings the mixed high
        // bits down to where the table picks its bucket.
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type FoldSet<T> = HashSet<T, BuildHasherDefault<FoldHasher>>;
type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// Accumulated admission history plus the violations found so far.
#[derive(Debug)]
pub struct OracleState {
    /// Per-key bucket capacity, in whole requests (zero refill).
    capacity: u64,
    /// Fresh `Allow` decisions per key index, server side.
    pub server_allows: Vec<u64>,
    /// Degraded-mode (router brownout) allows per key index.
    pub degraded_allows: Vec<u64>,
    /// Zero-RTT admits the router made from delegated leases, per key.
    pub lease_admits: Vec<u64>,
    /// Credits the server ledger drained from authoritative buckets at
    /// lease-grant time, per key. Every lease admit must be covered
    /// here (oracle 5), and the drains count against oracle 1's budget.
    pub lease_drained: Vec<u64>,
    /// Demote-to-cold-tier cycles per key. Reclamation is
    /// credit-neutral, so this never loosens a bound — it only lets a
    /// credit breach on a reclaimed key be pinned on the memory engine
    /// (oracle 6).
    pub reclaims: Vec<u64>,
    /// Stamped decisions already seen: (partition, epoch, nonce).
    charged: FoldSet<(usize, u32, ChargeKey)>,
    /// Retry-budget shape `(deposit_pct, min_reserve)` when the router
    /// runs one — arms oracle 7's amplification bound.
    budget: Option<(u32, u32)>,
    /// First wire attempts (one per issued call reaching the wire).
    primaries: u64,
    /// Extra wire attempts beyond the first: retries and hedges.
    wire_extras: u64,
    /// Request ids the router hedged — their charges are held to the
    /// at-most-one-fresh-charge-per-lifetime rule of oracle 7.
    hedged_ids: FoldSet<u64>,
    /// Fresh stamped charges per (partition, epoch, request id) for
    /// hedged requests.
    hedge_charges: FoldMap<(usize, u32, u64), u32>,
    /// Keys whose bound inputs changed since the last sweep, each once,
    /// in the order they were first touched.
    touched: Vec<usize>,
    /// `is_touched[idx]` iff `idx` is in `touched`.
    is_touched: Vec<bool>,
    violations: Vec<String>,
    seen: HashSet<String>,
}

impl OracleState {
    /// Fresh state for `keys` tenant keys of `capacity` whole credits.
    pub fn new(keys: usize, capacity: u64) -> Self {
        OracleState {
            capacity,
            server_allows: vec![0; keys],
            degraded_allows: vec![0; keys],
            lease_admits: vec![0; keys],
            lease_drained: vec![0; keys],
            reclaims: vec![0; keys],
            charged: FoldSet::default(),
            budget: None,
            primaries: 0,
            wire_extras: 0,
            hedged_ids: FoldSet::default(),
            hedge_charges: FoldMap::default(),
            touched: Vec::with_capacity(keys),
            is_touched: vec![false; keys],
            violations: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Arm oracle 7's amplification bound: the router runs a global
    /// retry budget depositing `deposit_pct`% per primary on top of a
    /// `min_reserve`-withdrawal free reserve.
    pub fn set_retry_budget(&mut self, deposit_pct: u32, min_reserve: u32) {
        self.budget = Some((deposit_pct, min_reserve));
    }

    /// A call's first attempt reached the wire.
    pub fn record_primary(&mut self) {
        self.primaries += 1;
    }

    /// An extra wire attempt (retry or hedge) went out.
    pub fn record_wire_extra(&mut self) {
        self.wire_extras += 1;
    }

    /// The router hedged request `id`: from now on its fresh stamped
    /// charges are held to at most one per server lifetime.
    pub fn record_hedged_request(&mut self, id: u64) {
        self.hedged_ids.insert(id);
    }

    /// The violations recorded so far, in discovery order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Record a violation once; duplicates of the same message are
    /// dropped so a persistent breach doesn't flood the report.
    pub fn record_violation(&mut self, message: String) {
        if self.seen.insert(message.clone()) {
            self.violations.push(message);
        }
    }

    /// A QoS server made a fresh decision (charged its table) for
    /// `request` on `partition` at `epoch`. `reboots` is the owning
    /// partition's reboot count at this instant.
    #[allow(clippy::too_many_arguments)]
    pub fn record_decision(
        &mut self,
        partition: usize,
        epoch: u32,
        request: &QosRequest,
        allow: bool,
        key_idx: usize,
        key_name: &str,
        reboots: u64,
    ) {
        if let Some(meta) = request.attempt {
            let charge = (partition, epoch, ChargeKey::Nonce(meta.nonce));
            if !self.charged.insert(charge) {
                self.record_violation(format!(
                    "oracle[at-most-once]: nonce {} charged twice on p{partition} epoch {epoch} \
                     (key {key_name}, request {})",
                    meta.nonce, request.id,
                ));
            } else if self.hedged_ids.contains(&request.id) {
                // A fresh stamped charge for a hedged request. A hedge
                // reuses its attempt nonce, so within one server
                // lifetime the dedup window must collapse the pair to
                // a single charge — two distinct nonces means the
                // hedger minted a fresh one.
                let entry = self
                    .hedge_charges
                    .entry((partition, epoch, request.id))
                    .or_insert(0);
                *entry += 1;
                if *entry == 2 {
                    self.record_violation(format!(
                        "oracle[hedge-charge]: hedged request {} charged under two distinct \
                         nonces on p{partition} epoch {epoch} (key {key_name}) — a hedge must \
                         reuse its attempt nonce",
                        request.id,
                    ));
                }
            }
        }
        if allow {
            self.server_allows[key_idx] += 1;
            self.touch(key_idx);
            self.check_key(key_idx, key_name, reboots);
        }
    }

    /// The router admitted a request in degraded (brownout) mode from a
    /// learned hint bucket.
    pub fn record_degraded_allow(&mut self, key_idx: usize, key_name: &str, reboots: u64) {
        self.degraded_allows[key_idx] += 1;
        self.touch(key_idx);
        self.check_key(key_idx, key_name, reboots);
    }

    /// The router admitted a request from a held credit lease with zero
    /// network I/O.
    pub fn record_lease_admit(&mut self, key_idx: usize, key_name: &str, reboots: u64) {
        self.lease_admits[key_idx] += 1;
        self.touch(key_idx);
        self.check_key(key_idx, key_name, reboots);
    }

    /// The server's lease ledger drained `credits` whole credits from
    /// the key's authoritative bucket while granting/renewing a lease.
    pub fn record_lease_drain(
        &mut self,
        key_idx: usize,
        key_name: &str,
        reboots: u64,
        credits: u64,
    ) {
        self.lease_drained[key_idx] += credits;
        self.touch(key_idx);
        self.check_key(key_idx, key_name, reboots);
    }

    /// The memory engine demoted an idle key to the cold tier with its
    /// exact remaining credit. Credit-neutral by contract: no bound
    /// changes, but a breach on this key — already standing or later —
    /// is charged to the demote/readmit machinery (oracle 6) by the
    /// next sweep.
    pub fn record_reclaim(&mut self, key_idx: usize) {
        self.reclaims[key_idx] += 1;
        self.touch(key_idx);
    }

    /// The partition owning `key_idx` rebooted: the key's credit bound
    /// grew by one capacity, so the next sweep re-checks it against the
    /// new bound.
    pub fn record_reboot(&mut self, key_idx: usize) {
        self.touch(key_idx);
    }

    /// Queue `key_idx` for the next sweep (once, however often it is
    /// touched).
    fn touch(&mut self, key_idx: usize) {
        if !self.is_touched[key_idx] {
            self.is_touched[key_idx] = true;
            self.touched.push(key_idx);
        }
    }

    /// Re-validate the credit bounds for one key.
    pub fn check_key(&mut self, key_idx: usize, key_name: &str, reboots: u64) {
        let server = self.server_allows[key_idx];
        let degraded = self.degraded_allows[key_idx];
        let leased = self.lease_admits[key_idx];
        let drained = self.lease_drained[key_idx];
        let exact_bound = self.capacity * (1 + reboots);
        if leased > drained {
            self.record_violation(format!(
                "oracle[lease-bound]: key {key_name} got {leased} lease admits but only \
                 {drained} credits were drained at grant time",
            ));
        }
        if server + drained > exact_bound {
            self.record_violation(format!(
                "oracle[credit-exactness]: key {key_name} got {server} server allows \
                 + {drained} lease drains, bound {exact_bound} (capacity {} x {} boots)",
                self.capacity,
                1 + reboots,
            ));
            let reclaims = self.reclaims[key_idx];
            if reclaims > 0 {
                self.record_violation(format!(
                    "oracle[reclaim-mint]: key {key_name} exceeded its credit bound after \
                     {reclaims} demote/readmit cycles — reclamation must never mint credit",
                ));
            }
        }
        if server + drained + degraded > exact_bound + self.capacity {
            self.record_violation(format!(
                "oracle[over-admission]: key {key_name} got {server}+{drained}+{degraded} \
                 allows, bound {} (+1 degraded bucket)",
                exact_bound + self.capacity,
            ));
        }
    }

    /// The end-of-event sweep: re-validate the bounds of every key
    /// touched since the last sweep, in ascending key order, then oracle
    /// 7's amplification bound. `reboots_of(key_idx)` reports the owning
    /// partition's current reboot count; `names` are the key display
    /// names by index.
    ///
    /// Equivalent to re-checking every key: a key's messages are a pure
    /// function of its counters, its reclaim count and its partition's
    /// reboots, and each change to those touches the key. An untouched
    /// key therefore derives exactly the messages its last check already
    /// recorded (or none, from the all-zero start), which `seen` drops.
    pub fn sweep(&mut self, names: &[String], reboots_of: impl Fn(usize) -> u64) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        for &idx in &touched {
            self.is_touched[idx] = false;
            self.check_key(idx, &names[idx], reboots_of(idx));
        }
        touched.clear();
        self.touched = touched;
        self.check_amplification();
    }

    /// Oracle 7's amplification half, O(1): extra wire attempts stay
    /// under what the registered retry budget can fund.
    fn check_amplification(&mut self) {
        if let Some((deposit_pct, min_reserve)) = self.budget {
            // Deposits accrue fractionally (+1 covers the partial
            // deposit in flight), withdrawals are whole, and the reserve
            // is a one-time float.
            let bound = self.primaries * u64::from(deposit_pct) / 100 + u64::from(min_reserve) + 1;
            if self.wire_extras > bound {
                self.record_violation(format!(
                    "oracle[retry-amplification]: {} extra wire attempts over {} primaries, \
                     bound {bound} ({deposit_pct}% deposits + reserve {min_reserve})",
                    self.wire_extras, self.primaries,
                ));
            }
        }
    }

    /// Oracle 4, asserted at end of run: every call completed, within
    /// `budget` of its issue time (plus `slack` for bookkeeping).
    pub fn check_availability(
        &mut self,
        call: u32,
        issued_at: Nanos,
        completed_at: Option<Nanos>,
        budget: Duration,
        slack: Duration,
    ) {
        match completed_at {
            None => self.record_violation(format!(
                "oracle[availability]: request #{call} never completed",
            )),
            Some(done) => {
                let latency = done.saturating_since(issued_at);
                if latency > budget + slack {
                    self.record_violation(format!(
                        "oracle[availability]: request #{call} took {}us, budget {}us",
                        latency.as_micros(),
                        (budget + slack).as_micros(),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The every-key sweep that [`OracleState::sweep`] replaced, kept as
    /// the reference model: re-check every key's bounds, then oracle 7's
    /// amplification bound.
    pub(crate) fn every_key_check_all(
        state: &mut OracleState,
        names: &[String],
        reboots_of: impl Fn(usize) -> u64,
    ) {
        for (idx, name) in names.iter().enumerate() {
            state.check_key(idx, name, reboots_of(idx));
        }
        state.check_amplification();
    }

    /// One recorded oracle input.
    type Step = fn(&mut OracleState);

    /// Apply `script` to a touched-key state and to a model state,
    /// ending every step with the respective sweep; both must report
    /// the same violations in the same order.
    fn swept_both_ways(keys: usize, capacity: u64, script: &[(Step, u64)]) -> Vec<String> {
        let names: Vec<String> = (0..keys).map(|i| format!("k{i}")).collect();
        let mut swept = OracleState::new(keys, capacity);
        let mut model = OracleState::new(keys, capacity);
        for (step, reboots) in script {
            step(&mut swept);
            swept.sweep(&names, |_| *reboots);
            step(&mut model);
            every_key_check_all(&mut model, &names, |_| *reboots);
        }
        assert_eq!(swept.violations(), model.violations());
        swept.violations().to_vec()
    }

    #[test]
    fn reclaiming_an_over_bound_key_still_trips_reclaim_mint() {
        // Three credits drained against a two-credit bound, then a
        // demotion with no further admission: the breach is now pinned
        // on the memory engine, and only the sweep can say so.
        let violations = swept_both_ways(
            2,
            2,
            &[
                (|o| o.record_lease_drain(1, "k1", 0, 3), 0),
                (|o| o.record_reclaim(1), 0),
            ],
        );
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].starts_with("oracle[credit-exactness]: key k1"));
        assert!(violations[1].starts_with("oracle[reclaim-mint]: key k1"));
    }

    #[test]
    fn a_reboot_rechecks_an_over_bound_key_against_its_new_bound() {
        // Five credits against capacity 2: over the one-boot bound (2)
        // and, after one reboot with no further admission, still over
        // the two-boot bound (4) — a new message the sweep must find.
        let violations = swept_both_ways(
            1,
            2,
            &[
                (|o| o.record_lease_drain(0, "k0", 0, 5), 0),
                (|o| o.record_reboot(0), 1),
            ],
        );
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[0].contains("bound 2 (capacity 2 x 1 boots)"));
        assert!(violations[1].starts_with("oracle[over-admission]: key k0"));
        assert!(violations[2].contains("bound 4 (capacity 2 x 2 boots)"));
    }
}
