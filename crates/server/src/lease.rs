//! The server half of the credit-lease plane: the [`LeaseLedger`].
//!
//! A lease delegates a slice of one key's bucket to one router for a
//! short TTL, so the router can admit hot-key traffic locally with zero
//! network I/O (DESIGN.md ablation 13). The ledger is the authoritative
//! bookkeeper: it decides *when* to delegate (hot-key threshold), *how
//! much* (the key's capacity and refill carved into per-holder slices),
//! and — the part that makes the whole scheme safe — it **debits the
//! authoritative bucket for the full slice at grant time**, including the
//! refill share the holder can accrue over one TTL. Delegated admissions
//! are therefore pre-paid: whatever the network does (lost grants,
//! delayed renewals, crashed servers, revoked rules), a router can never
//! admit more than was already removed from the bucket, which is exactly
//! the bound the simulator's lease oracle checks.
//!
//! Reconciliation is asynchronous and piggybacked: routers report their
//! *cumulative* spend per `(key, holder, epoch)` on ordinary admission
//! traffic, and the ledger folds it in with `max`, so duplicated,
//! reordered or lost reports only delay the accounting. Unused credit
//! folds back **only on an explicit return** (the holder promises it has
//! stopped admitting first); silent expiry forfeits the remainder, which
//! errs on the side of under-admission — never over. Returned credit
//! parks in a per-key escrow and funds future grants before the bucket
//! is drained again.
//!
//! Revocation is an epoch bump: when a rule changes, outstanding leases
//! become stale and their holders stop being reconciled; routers notice
//! the new epoch on their next grant and drop the stale lease. Until
//! then a holder burns at most its already-debited slice — the Guan-style
//! inaccuracy bound (over-admission ≤ lease size × fleet).
//!
//! Like the rest of [`crate::core`], this file is sans-IO `std`-only
//! logic over an injected clock, shared verbatim by the thread shells,
//! the per-core plane and the deterministic simulator.

use janus_bucket::QosTable;
use janus_clock::Nanos;
use janus_types::{Lease, LeaseReport, QosKey, RefillRate, MICROCREDITS_PER_CREDIT};
use std::collections::HashMap;
use std::time::Duration;

/// Hard cap on the whole credits one grant may debit (slice plus refill
/// precharge). `capacity / slice_fraction` is the policy, but capacity
/// can be astronomical — the shadow-mode `AllowAll` default rule is an
/// effectively infinite bucket. A grant is one bucket operation whatever
/// its size, so the cap is not about cost: every delegated credit is one
/// a revoked or stale holder may still burn, and delegating more than a
/// few thousand credits per TTL buys no extra throughput — it only
/// widens the revocation window.
const MAX_SLICE_CREDITS: u64 = 4096;

/// The authoritative bucket a grant is funded from.
pub trait Charge {
    /// Debit up to `n` whole credits; returns how many were debited.
    fn drain(&mut self, n: u64) -> u64;
}

/// A closure debiting one credit per `true` — the probe and test
/// adapter, and the only place a grant is still funded credit by credit.
impl<F: FnMut() -> bool> Charge for F {
    fn drain(&mut self, n: u64) -> u64 {
        let mut taken = 0;
        while taken < n && self() {
            taken += 1;
        }
        taken
    }
}

/// The production charger: one [`QosTable::consume_up_to`] on `key`'s
/// bucket at `now`.
pub(crate) struct TableCharge<'a> {
    pub table: &'a dyn QosTable,
    pub key: &'a QosKey,
    pub now: Nanos,
}

impl Charge for TableCharge<'_> {
    fn drain(&mut self, n: u64) -> u64 {
        self.table.consume_up_to(self.key, n, self.now)
    }
}

/// Policy knobs for the lease plane. Disabled by default: leases are a
/// per-deployment opt-in, and every pre-lease code path (and simulator
/// trace) is byte-identical with `enabled: false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Master switch; `false` means the ledger never grants.
    pub enabled: bool,
    /// Lease validity. Longer TTLs amortize more round trips but widen
    /// the revocation window (a stale lease lives at most one TTL).
    pub ttl: Duration,
    /// Lease-soliciting asks a key must accumulate before the first
    /// grant: only keys hot enough to repay the delegated slice get one.
    pub hot_threshold: u32,
    /// Holders a key's refill is carved into; also the per-key cap on
    /// simultaneous leases and the fleet factor of the inaccuracy bound.
    pub max_holders: u32,
    /// Slice size as a fraction of capacity: `slice = capacity /
    /// slice_fraction`, floored at one credit.
    pub slice_fraction: u32,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            enabled: false,
            ttl: Duration::from_millis(50),
            hot_threshold: 3,
            max_holders: 4,
            slice_fraction: 4,
        }
    }
}

impl LeaseConfig {
    /// The default policy with the master switch on.
    pub fn enabled() -> Self {
        LeaseConfig {
            enabled: true,
            ..LeaseConfig::default()
        }
    }
}

/// Ledger counters. `drained` and `refunded` are whole credits; the
/// difference is the credit currently delegated (or forfeited to silent
/// expiry), which is what the simulator's lease oracle bounds router-side
/// admits by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseLedgerStats {
    /// First-time grants handed out.
    pub grants: u64,
    /// Renewals (a holder re-granted before or after expiry).
    pub renewals: u64,
    /// Explicit returns processed.
    pub returns: u64,
    /// Epoch bumps (rule changes invalidating outstanding leases).
    pub revocations: u64,
    /// Whole credits debited from authoritative buckets for leases.
    pub drained: u64,
    /// Whole credits folded back into escrow by explicit returns.
    pub refunded: u64,
}

/// One holder's outstanding delegation for one key (current epoch only).
#[derive(Debug, Clone)]
struct HolderLease {
    /// Cumulative whole credits debited for this holder this epoch
    /// (bucket drains plus escrow draws).
    debited: u64,
    /// Cumulative spend reported by the holder (folded in with `max`).
    spent: u64,
    /// Slice of the most recent grant, for diagnostics.
    slice: u64,
    /// When the most recent grant expires.
    expires_at: Nanos,
}

/// Per-key lease state.
#[derive(Debug, Clone)]
struct KeyLeases {
    /// Lease generation; bumped to revoke.
    epoch: u32,
    /// Lease-soliciting asks seen (hot-key detector).
    asks: u32,
    /// Whole credits returned by holders, funding future grants before
    /// the bucket is drained again.
    escrow: u64,
    /// Outstanding holders, keyed by router identity.
    holders: HashMap<u32, HolderLease>,
}

impl KeyLeases {
    fn new() -> Self {
        KeyLeases {
            epoch: 1,
            asks: 0,
            escrow: 0,
            holders: HashMap::new(),
        }
    }
}

/// The authoritative lease bookkeeper for one QoS server (or one
/// simulated partition). See the module docs for the accounting
/// discipline.
#[derive(Debug, Clone)]
pub struct LeaseLedger {
    config: LeaseConfig,
    keys: HashMap<QosKey, KeyLeases>,
    /// Counters, updated as reports flow through.
    pub stats: LeaseLedgerStats,
}

impl LeaseLedger {
    /// A ledger applying `config`'s policy.
    pub fn new(config: LeaseConfig) -> Self {
        LeaseLedger {
            config,
            keys: HashMap::new(),
            stats: LeaseLedgerStats::default(),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &LeaseConfig {
        &self.config
    }

    /// The current lease generation of `key` (1 before any revocation).
    pub fn epoch_of(&self, key: &QosKey) -> u32 {
        self.keys.get(key).map_or(1, |k| k.epoch)
    }

    /// Outstanding holders of `key` under the current epoch.
    pub fn holders_of(&self, key: &QosKey) -> usize {
        self.keys.get(key).map_or(0, |k| k.holders.len())
    }

    /// Process the lease half of one admission request: fold in the
    /// cumulative spend, handle a give-back, and answer a solicitation
    /// with a grant when the key is hot and the bucket covers the debit.
    ///
    /// `shape` is the key's `(capacity, refill)` from the authoritative
    /// table; `charge` must debit from the authoritative bucket exactly
    /// the whole credits it reports. The ledger drains it once per grant
    /// for whatever escrow does not cover, so a grant is covered by real
    /// bucket credit by construction.
    pub fn on_report(
        &mut self,
        key: &QosKey,
        report: LeaseReport,
        shape: Option<(janus_types::Credits, RefillRate)>,
        now: Nanos,
        charge: &mut dyn Charge,
    ) -> Option<Lease> {
        if !self.config.enabled {
            return None;
        }
        let entry = self.keys.entry(key.clone()).or_insert_with(KeyLeases::new);
        // Reconcile-and-return half. Reports for a stale epoch are
        // ignored: their holders were already revoked and their debits
        // already written off.
        if report.epoch == entry.epoch {
            if let Some(holder) = entry.holders.get_mut(&report.holder) {
                if report.giving_back {
                    // The counter field of a return carries the unused
                    // remainder the holder stopped admitting against.
                    // Refunding `debited − spent` instead would be
                    // unsound: a grant response still in flight (the
                    // holder expires waiting, returns, then installs the
                    // late grant) or a holder counter restarted after a
                    // lost return both leave `spent` under-counting, and
                    // the difference would be refunded *and* spendable.
                    // Clamping to the server's own view keeps a buggy or
                    // malicious holder from minting credit.
                    let refund =
                        u64::from(report.spent).min(holder.debited.saturating_sub(holder.spent));
                    entry.escrow += refund;
                    entry.holders.remove(&report.holder);
                    self.stats.refunded += refund;
                    self.stats.returns += 1;
                } else {
                    holder.spent = holder.spent.max(u64::from(report.spent));
                }
            }
        }
        if !report.solicit {
            return None;
        }
        // Grant half: only hot keys with a known rule shape delegate.
        let (capacity, refill) = shape?;
        entry.asks = entry.asks.saturating_add(1);
        if entry.asks < self.config.hot_threshold {
            return None;
        }
        // A solicitation reporting a non-current epoch comes from a
        // holder that holds nothing (fresh solicit, epoch 0) or held a
        // since-revoked lease: any surviving ledger entry for it is
        // abandoned — its counter lifetime ended with whatever report was
        // lost — so forfeit the remainder (never refund) and start clean
        // rather than folding new debits into stale accounting.
        if report.epoch != entry.epoch {
            entry.holders.remove(&report.holder);
        }
        let renewing = entry.holders.contains_key(&report.holder);
        if !renewing && entry.holders.len() as u32 >= self.config.max_holders {
            return None;
        }
        let slice = (capacity.whole() / u64::from(self.config.slice_fraction.max(1)))
            .clamp(1, MAX_SLICE_CREDITS);
        let mut share = RefillRate::from_micro_per_sec(
            refill.micro_per_sec() / u64::from(self.config.max_holders.max(1)),
        );
        // Pre-charge the refill the holder's local bucket can accrue
        // over one TTL, rounded up, so local admits are fully covered by
        // the debit even while the local bucket refills.
        let accrued = share.accrued_over(self.config.ttl).as_micro();
        let mut precharge =
            accrued.saturating_add(MICROCREDITS_PER_CREDIT - 1) / MICROCREDITS_PER_CREDIT;
        if precharge > MAX_SLICE_CREDITS {
            // Capped like the slice (an `AllowAll` refill is effectively
            // infinite) — and the delegated share must shrink with it, or
            // the holder's local bucket would accrue credit nobody paid
            // for. Floor division keeps one TTL's accrual at or under the
            // capped debit.
            precharge = MAX_SLICE_CREDITS;
            let ttl_us = (self.config.ttl.as_micros().max(1) as u64).max(1);
            share = RefillRate::from_micro_per_sec(
                precharge
                    .saturating_mul(MICROCREDITS_PER_CREDIT)
                    .saturating_mul(1_000_000)
                    / ttl_us,
            );
        }
        let want = slice + precharge;
        let from_escrow = entry.escrow.min(want);
        entry.escrow -= from_escrow;
        let drained = charge.drain(want - from_escrow);
        // Whatever left the bucket stays debited (counted in `drained`)
        // whether or not the grant goes out — the oracle bound depends
        // on it.
        self.stats.drained += drained;
        let total = from_escrow + drained;
        if total <= precharge {
            // Not enough for even one credit of slice: park what we got
            // in escrow for a later ask instead of granting a dud lease.
            entry.escrow += total;
            return None;
        }
        let granted = total - precharge;
        let holder = entry.holders.entry(report.holder).or_insert(HolderLease {
            debited: 0,
            spent: 0,
            slice: 0,
            expires_at: now,
        });
        holder.debited += total;
        holder.slice = granted;
        holder.expires_at = now.saturating_add(self.config.ttl);
        if renewing {
            self.stats.renewals += 1;
        } else {
            self.stats.grants += 1;
        }
        let ttl_us = self.config.ttl.as_micros().min(u128::from(u32::MAX)) as u32;
        Some(Lease::new(
            janus_types::Credits::from_whole(granted),
            share,
            ttl_us,
            entry.epoch,
        ))
    }

    /// The rule for `key` changed: bump the epoch, dropping every
    /// outstanding lease and the escrow (credit from the old shape means
    /// nothing under the new one). Routers notice the bump on their next
    /// grant; until then stale leases burn at most their already-debited
    /// slices.
    pub fn revoke(&mut self, key: &QosKey) {
        let entry = self.keys.entry(key.clone()).or_insert_with(KeyLeases::new);
        entry.epoch = entry.epoch.wrapping_add(1);
        entry.asks = 0;
        entry.escrow = 0;
        entry.holders.clear();
        self.stats.revocations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_types::{Credits, QosKey};

    const T0: Nanos = Nanos::from_secs(10);

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn config() -> LeaseConfig {
        LeaseConfig {
            enabled: true,
            ttl: Duration::from_millis(20),
            hot_threshold: 2,
            max_holders: 2,
            slice_fraction: 4,
        }
    }

    /// A charge closure backed by a countdown of available credits.
    fn bucket(credits: u64) -> impl FnMut() -> bool {
        let mut remaining = credits;
        move || {
            if remaining > 0 {
                remaining -= 1;
                true
            } else {
                false
            }
        }
    }

    fn shape(capacity: u64, per_second: u64) -> Option<(Credits, RefillRate)> {
        Some((
            Credits::from_whole(capacity),
            RefillRate::per_second(per_second),
        ))
    }

    #[test]
    fn disabled_ledger_never_grants() {
        let mut ledger = LeaseLedger::new(LeaseConfig::default());
        let mut charge = bucket(100);
        for _ in 0..10 {
            assert_eq!(
                ledger.on_report(
                    &key("t"),
                    LeaseReport::soliciting(1),
                    shape(20, 0),
                    T0,
                    &mut charge
                ),
                None
            );
        }
        assert_eq!(ledger.stats.drained, 0);
    }

    #[test]
    fn grants_only_after_hot_threshold_and_debits_the_bucket() {
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(20);
        let ask = LeaseReport::soliciting(7);
        assert_eq!(
            ledger.on_report(&key("t"), ask, shape(20, 0), T0, &mut charge),
            None,
            "first ask is below the hot threshold"
        );
        let lease = ledger
            .on_report(&key("t"), ask, shape(20, 0), T0, &mut charge)
            .expect("second ask crosses the threshold");
        // capacity 20 / slice_fraction 4 = 5 credits, zero refill → no
        // precharge; all 5 drained from the bucket.
        assert_eq!(lease.slice, Credits::from_whole(5));
        assert_eq!(lease.epoch, 1);
        assert_eq!(lease.ttl_us, 20_000);
        assert_eq!(ledger.stats.drained, 5);
        assert_eq!(ledger.stats.grants, 1);
        assert_eq!(ledger.holders_of(&key("t")), 1);
    }

    #[test]
    fn refill_share_is_precharged_over_the_ttl() {
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(100);
        let ask = LeaseReport::soliciting(1);
        ledger.on_report(&key("t"), ask, shape(40, 100), T0, &mut charge);
        let lease = ledger
            .on_report(&key("t"), ask, shape(40, 100), T0, &mut charge)
            .unwrap();
        // Share = 100/s ÷ 2 holders = 50/s; over a 20 ms TTL that's 1
        // credit, pre-charged on top of the 10-credit slice.
        assert_eq!(lease.slice, Credits::from_whole(10));
        assert_eq!(lease.refill, RefillRate::per_second(50));
        assert_eq!(ledger.stats.drained, 11);
    }

    #[test]
    fn unbounded_shapes_cap_the_debit_and_scale_the_share() {
        // The shadow-mode `AllowAll` default rule is an effectively
        // infinite bucket; a grant against it must neither spin the
        // charge loop forever nor delegate refill nobody paid for.
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(u64::MAX);
        let ask = LeaseReport::soliciting(1);
        let huge = || {
            Some((
                Credits::from_whole(u64::MAX / MICROCREDITS_PER_CREDIT),
                RefillRate::from_micro_per_sec(u64::MAX / 2),
            ))
        };
        ledger.on_report(&key("t"), ask, huge(), T0, &mut charge);
        let lease = ledger
            .on_report(&key("t"), ask, huge(), T0, &mut charge)
            .unwrap();
        assert_eq!(lease.slice, Credits::from_whole(MAX_SLICE_CREDITS));
        // Slice plus capped precharge, nothing more.
        assert_eq!(ledger.stats.drained, 2 * MAX_SLICE_CREDITS);
        // The scaled-down share accrues at most the precharge over a TTL.
        let accrued = lease
            .refill
            .accrued_over(Duration::from_millis(20))
            .as_micro();
        assert!(accrued <= MAX_SLICE_CREDITS * MICROCREDITS_PER_CREDIT);
        assert!(accrued > 0, "the capped share still refills");
    }

    #[test]
    fn dry_bucket_grants_partial_slice_or_nothing() {
        let mut ledger = LeaseLedger::new(config());
        // Only 2 credits left: grant shrinks to what the bucket covers.
        let mut charge = bucket(2);
        let ask = LeaseReport::soliciting(1);
        ledger.on_report(&key("t"), ask, shape(20, 0), T0, &mut charge);
        let lease = ledger
            .on_report(&key("t"), ask, shape(20, 0), T0, &mut charge)
            .unwrap();
        assert_eq!(lease.slice, Credits::from_whole(2));
        // Bucket now empty: a renewal ask gets nothing.
        assert_eq!(
            ledger.on_report(&key("t"), ask, shape(20, 0), T0, &mut charge),
            None
        );
        assert_eq!(ledger.stats.drained, 2);
    }

    #[test]
    fn return_folds_unused_credit_into_escrow_for_the_next_grant() {
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(5);
        let ask = LeaseReport::soliciting(1);
        ledger.on_report(&key("t"), ask, shape(20, 0), T0, &mut charge);
        let lease = ledger
            .on_report(&key("t"), ask, shape(20, 0), T0, &mut charge)
            .unwrap();
        assert_eq!(lease.slice, Credits::from_whole(5));
        // Holder spent 2 of 5, returns the 3 unused credits, and
        // re-solicits in the same frame: the remainder funds the new
        // grant, and the dry bucket (0 left) contributes nothing.
        let renewed = ledger
            .on_report(
                &key("t"),
                LeaseReport::returning(1, 1, 3, true),
                shape(20, 0),
                T0,
                &mut charge,
            )
            .expect("escrow funds the re-grant");
        assert_eq!(renewed.slice, Credits::from_whole(3));
        assert_eq!(ledger.stats.returns, 1);
        assert_eq!(ledger.stats.refunded, 3);
        assert_eq!(ledger.stats.drained, 5, "no second bucket drain");
    }

    #[test]
    fn spent_reports_fold_in_with_max_and_cap_the_refund() {
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(10);
        let ask = LeaseReport::soliciting(1);
        ledger.on_report(&key("t"), ask, shape(20, 0), T0, &mut charge);
        ledger
            .on_report(&key("t"), ask, shape(20, 0), T0, &mut charge)
            .unwrap();
        // Duplicated/reordered cumulative reports: 4 then (stale) 2 fold
        // to 4, not 6. A return then over-reporting 5 unused credits is
        // clamped to the server's own view, debited 5 − spent 4 = 1 — a
        // confused holder cannot mint credit.
        let mut no_charge = bucket(0);
        ledger.on_report(
            &key("t"),
            LeaseReport::renewing(1, 1, 4),
            shape(20, 0),
            T0,
            &mut no_charge,
        );
        ledger.on_report(
            &key("t"),
            LeaseReport {
                holder: 1,
                epoch: 1,
                spent: 2,
                solicit: false,
                giving_back: false,
            },
            shape(20, 0),
            T0,
            &mut no_charge,
        );
        ledger.on_report(
            &key("t"),
            LeaseReport::returning(1, 1, 5, false),
            shape(20, 0),
            T0,
            &mut no_charge,
        );
        assert_eq!(ledger.stats.refunded, 1);
    }

    #[test]
    fn duplicate_return_does_not_double_refund() {
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(5);
        let ask = LeaseReport::soliciting(1);
        ledger.on_report(&key("t"), ask, shape(20, 0), T0, &mut charge);
        ledger
            .on_report(&key("t"), ask, shape(20, 0), T0, &mut charge)
            .unwrap();
        let ret = LeaseReport::returning(1, 1, 3, false);
        let mut no_charge = bucket(0);
        ledger.on_report(&key("t"), ret, shape(20, 0), T0, &mut no_charge);
        ledger.on_report(&key("t"), ret, shape(20, 0), T0, &mut no_charge);
        assert_eq!(ledger.stats.returns, 1, "second return found no holder");
        assert_eq!(ledger.stats.refunded, 3);
    }

    #[test]
    fn fresh_solicit_from_a_known_holder_forfeits_the_abandoned_lease() {
        // The lost-return race: a holder's return frame is dropped, so
        // the ledger still carries its entry when the holder (now
        // holding nothing, counter restarted) solicits afresh with
        // epoch 0. The stale entry must be forfeited, not folded into —
        // a later return may only refund the *new* grant's credit.
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(100);
        let ask = LeaseReport::soliciting(1);
        ledger.on_report(&key("t"), ask, shape(20, 0), T0, &mut charge);
        ledger
            .on_report(&key("t"), ask, shape(20, 0), T0, &mut charge)
            .unwrap();
        assert_eq!(ledger.stats.drained, 5);
        // Fresh solicit (epoch 0) from the same holder: old entry
        // (5 debited, nothing reported) is written off, a fresh slice
        // is debited.
        let second = ledger
            .on_report(&key("t"), ask, shape(20, 0), T0, &mut charge)
            .expect("still hot: re-grant");
        assert_eq!(second.slice, Credits::from_whole(5));
        assert_eq!(ledger.stats.drained, 10);
        // Returning the new lease untouched refunds at most its own 5
        // credits — the abandoned 5 stay forfeited.
        let mut no_charge = bucket(0);
        ledger.on_report(
            &key("t"),
            LeaseReport::returning(1, 1, 10, false),
            shape(20, 0),
            T0,
            &mut no_charge,
        );
        assert_eq!(ledger.stats.refunded, 5);
    }

    #[test]
    fn max_holders_caps_simultaneous_leases() {
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(100);
        // Warm the key past the threshold, then fill both holder slots.
        ledger.on_report(
            &key("t"),
            LeaseReport::soliciting(1),
            shape(20, 0),
            T0,
            &mut charge,
        );
        assert!(ledger
            .on_report(
                &key("t"),
                LeaseReport::soliciting(1),
                shape(20, 0),
                T0,
                &mut charge
            )
            .is_some());
        assert!(ledger
            .on_report(
                &key("t"),
                LeaseReport::soliciting(2),
                shape(20, 0),
                T0,
                &mut charge
            )
            .is_some());
        // A third holder is refused; an existing holder still renews.
        assert_eq!(
            ledger.on_report(
                &key("t"),
                LeaseReport::soliciting(3),
                shape(20, 0),
                T0,
                &mut charge
            ),
            None
        );
        assert!(ledger
            .on_report(
                &key("t"),
                LeaseReport::renewing(1, 1, 3),
                shape(20, 0),
                T0,
                &mut charge
            )
            .is_some());
        assert_eq!(ledger.stats.renewals, 1);
    }

    #[test]
    fn revoke_bumps_epoch_and_writes_off_outstanding_leases() {
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(100);
        let ask = LeaseReport::soliciting(1);
        ledger.on_report(&key("t"), ask, shape(20, 0), T0, &mut charge);
        ledger
            .on_report(&key("t"), ask, shape(20, 0), T0, &mut charge)
            .unwrap();
        assert_eq!(ledger.epoch_of(&key("t")), 1);
        ledger.revoke(&key("t"));
        assert_eq!(ledger.epoch_of(&key("t")), 2);
        assert_eq!(ledger.holders_of(&key("t")), 0);
        // A return against the old epoch is ignored — no refund of
        // written-off credit.
        let before = ledger.stats.refunded;
        let mut no_charge = bucket(0);
        ledger.on_report(
            &key("t"),
            LeaseReport::returning(1, 1, 0, false),
            shape(20, 0),
            T0,
            &mut no_charge,
        );
        assert_eq!(ledger.stats.refunded, before);
        // New grants carry the new epoch (after re-proving hotness).
        ledger.on_report(&key("t"), ask, shape(20, 0), T0, &mut charge);
        let lease = ledger
            .on_report(&key("t"), ask, shape(20, 0), T0, &mut charge)
            .unwrap();
        assert_eq!(lease.epoch, 2);
    }

    #[test]
    fn unknown_shape_never_grants() {
        let mut ledger = LeaseLedger::new(config());
        let mut charge = bucket(100);
        for _ in 0..5 {
            assert_eq!(
                ledger.on_report(&key("t"), LeaseReport::soliciting(1), None, T0, &mut charge),
                None
            );
        }
        assert_eq!(ledger.stats.drained, 0);
    }
}
