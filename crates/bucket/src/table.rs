//! The local QoS table: the buckets a QoS server is responsible for.
//!
//! Each QoS server owns one partition of the key space and keeps the
//! corresponding rules in memory as leaky buckets. The paper's Java
//! implementation uses a *synchronized hash map* and observes CPU
//! underutilization from that lock on large instances (Fig. 10b).
//! [`ShardedTable`] is the lock-striped optimization the paper defers to
//! future work; built with one shard it *is* that synchronized map, so the
//! benchmarks contrast the two through one engine.

use crate::LeakyBucket;
use janus_clock::Nanos;
use janus_types::sync::{CachePadded, Mutex, Striped};
use janus_types::{Credits, QosKey, QosRule, RefillRate, Verdict};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters a QoS server exports for monitoring and for the evaluation
/// harness (CPU-utilization proxies, hit rates).
///
/// Every decision bumps them, so they are [`Striped`]: a thread counts
/// into its own stripe and never writes a line another deciding thread
/// uses; [`snapshot`](Self::snapshot) sums the stripes.
#[derive(Debug, Default)]
pub struct TableStats(Striped<Counts>);

/// One stripe of [`TableStats`]. Decisions are `allows + denies`.
#[derive(Debug, Default)]
struct Counts {
    allows: AtomicU64,
    denies: AtomicU64,
    /// Lookups for keys not present in the local table (each triggers a
    /// database query in the QoS server).
    misses: AtomicU64,
}

/// A point-in-time copy of [`TableStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStatsSnapshot {
    /// Admission decisions made (hits only).
    pub decisions: u64,
    /// `Allow` verdicts.
    pub allows: u64,
    /// `Deny` verdicts.
    pub denies: u64,
    /// Local-table misses.
    pub misses: u64,
    /// CAS retries on the decision path (always zero for locked tables;
    /// [`crate::LockFreeTable`] reports bucket-level contention here).
    pub cas_retries: u64,
    /// Probe steps beyond the home slot (lock-free table only: a proxy
    /// for open-addressing clustering / fill factor).
    pub probe_steps: u64,
}

impl TableStats {
    pub(crate) fn record(&self, verdict: Verdict) {
        let counts = self.0.mine();
        match verdict {
            Verdict::Allow => counts.allows.fetch_add(1, Ordering::Relaxed),
            Verdict::Deny => counts.denies.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Count `taken` credits drained by [`QosTable::consume_up_to`] as
    /// that many `Allow` decisions.
    pub(crate) fn record_allows(&self, taken: u64) {
        if taken > 0 {
            self.0.mine().allows.fetch_add(taken, Ordering::Relaxed);
        }
    }

    /// Count one lookup of a key the table does not hold.
    pub(crate) fn record_miss(&self) {
        self.0.mine().misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum every stripe. The contention counters are zero here: tables
    /// that track them (the lock-free flavour) fill them in.
    pub fn snapshot(&self) -> TableStatsSnapshot {
        let (mut allows, mut denies, mut misses) = (0, 0, 0);
        for counts in self.0.iter() {
            allows += counts.allows.load(Ordering::Relaxed);
            denies += counts.denies.load(Ordering::Relaxed);
            misses += counts.misses.load(Ordering::Relaxed);
        }
        TableStatsSnapshot {
            decisions: allows + denies,
            allows,
            denies,
            misses,
            cas_retries: 0,
            probe_steps: 0,
        }
    }
}

/// The interface a QoS server uses to manage its partition of buckets.
///
/// [`decide_shaped`](Self::decide_shaped) is the hot path, and each table
/// has exactly one: look up the key's bucket and charge it. `None` means
/// the key is unknown locally — the caller is expected to fetch the rule
/// from the database (or apply the default policy) and
/// [`insert`](Self::insert) it.
pub trait QosTable: Send + Sync {
    /// Make an admission decision for `key` at `now` and report the shape
    /// (capacity, refill rate) of the bucket it charged, or `None` if the
    /// key has no local bucket yet.
    ///
    /// One walk: the shape is read under the same lock, or the same pin
    /// and probe, as the charge, so a QoS server builds a response's rule
    /// hint and feeds its lease ledger without a second lookup
    /// ([`shape`](Self::shape) stays for answers that charged nothing:
    /// cached duplicates and shed replies). The shape is never a drained
    /// husk's: a decision that raced a migration reports the shape its
    /// key was carried with.
    fn decide_shaped(&self, key: &QosKey, now: Nanos) -> Option<(Verdict, (Credits, RefillRate))>;

    /// Make an admission decision for `key` at `now`, or `None` if the key
    /// has no local bucket yet: [`decide_shaped`](Self::decide_shaped)
    /// with the shape dropped, so no second decision path sits beside it.
    fn decide(&self, key: &QosKey, now: Nanos) -> Option<Verdict> {
        self.decide_shaped(key, now).map(|(verdict, _)| verdict)
    }

    /// Drain up to `n` whole credits from `key`'s bucket at `now` in one
    /// bucket operation, returning how many were taken (0 when the key
    /// has no local bucket or `n == 0`). Charges exactly what `n`
    /// successive `decide` calls at `now` would until the first `Deny`,
    /// and counts the taken credits as `Allow` decisions. The lease
    /// ledger funds a grant with one call instead of one `decide` per
    /// credit.
    fn consume_up_to(&self, key: &QosKey, n: u64, now: Nanos) -> u64;

    /// The shape (capacity, refill rate) of `key`'s bucket without
    /// charging it, or `None` if the key has no local bucket. Feeds the
    /// rule hints a QoS server attaches to hint-soliciting responses; not
    /// a decision, so no stats are recorded.
    fn shape(&self, key: &QosKey) -> Option<(Credits, RefillRate)>;

    /// Install a bucket for a rule (first sighting of a key). If the key
    /// already exists the rule is applied as an update instead, so two
    /// racing inserters converge.
    fn insert(&self, rule: QosRule, now: Nanos);

    /// Apply an updated rule to an existing bucket, preserving accrued
    /// credit (clamped). Returns false if the key is not in the table.
    fn apply_update(&self, rule: &QosRule, now: Nanos) -> bool;

    /// Remove a key's bucket. Returns true if it existed.
    fn remove(&self, key: &QosKey) -> bool;

    /// Number of buckets currently held.
    fn len(&self) -> usize;

    /// True if the table holds no buckets.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keys currently held (for DB-sync queries).
    fn keys(&self) -> Vec<QosKey>;

    /// Export every bucket as a rule row with credit evaluated at `now`
    /// (check-pointing and HA replication).
    fn snapshot(&self, now: Nanos) -> Vec<QosRule>;

    /// Adopt a snapshot wholesale (slave catching up from its master).
    /// Existing buckets for snapshot keys are overwritten; other local
    /// buckets are retained.
    fn restore(&self, rules: Vec<QosRule>, now: Nanos);

    /// Housekeeping refill: bring every bucket's credit up to date at
    /// `now`. With lazy per-decision refill this is an optimization that
    /// bounds anchor staleness; it is also exactly the paper's periodic
    /// refill thread.
    fn sweep_refill(&self, now: Nanos);

    /// Monitoring counters.
    fn stats(&self) -> TableStatsSnapshot;

    /// Demote keys idle for at least `idle_ttl`, removing up to `max` of
    /// them and returning their exact state (credit evaluated at `now`)
    /// plus hotness counters for the cold tier. Engines without an idle
    /// tracker reclaim nothing.
    fn reclaim_idle(&self, _now: Nanos, _idle_ttl: Duration, _max: usize) -> Vec<ReclaimedRule> {
        Vec::new()
    }
}

/// One row handed back by [`QosTable::reclaim_idle`]: the rule with its
/// exact remaining credit, plus how many decisions touched the key while
/// it was resident (persisted as the cold tier's warm-up ordering hint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReclaimedRule {
    /// The reclaimed rule; `credit` is exact as of the reclaim instant.
    pub rule: QosRule,
    /// Decisions recorded against the key while it was resident.
    pub touches: u64,
}

/// The shard owning `key`: the high half of the digest cached in the key
/// (FNV-1a's low bits mix little, and [`crate::LockFreeTable`] probes by
/// them).
fn shard_of(key: &QosKey, shards: usize) -> usize {
    (key.digest() >> 32) as usize % shards
}

/// Lock-striped QoS table: the contention-free design.
///
/// Keys are spread over `S` independent mutex-protected maps, so decisions
/// for different keys proceed in parallel on different cores. With the
/// default 64 shards, 16 workers collide rarely. With
/// [`with_shards(1)`](Self::with_shards) every decision serializes on one
/// mutex: the paper's synchronized hash map, kept as the baseline for the
/// lock-contention ablation (the CPU underutilization of Fig. 10b).
pub struct ShardedTable {
    /// Each on cache lines of its own: a lock word taken by one core
    /// never invalidates the line holding its neighbour's.
    shards: Vec<CachePadded<Mutex<HashMap<QosKey, LeakyBucket>>>>,
    /// Striped, so every stripe sits on lines of its own: every decision
    /// bumps a counter and first reads the `shards` header. Sharing a line
    /// made each lookup wait for the other cores' counter updates — or
    /// not, depending on where the allocator put the table (`paper_hot`
    /// moved between 2.7 M and 3.4 M decisions/s on that alone).
    stats: TableStats,
}

impl ShardedTable {
    /// Default shard count.
    pub const DEFAULT_SHARDS: usize = 64;

    /// A table with [`Self::DEFAULT_SHARDS`] stripes.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// A table with an explicit stripe count.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedTable {
            shards: (0..shards)
                .map(|_| CachePadded(Mutex::new(HashMap::new())))
                .collect(),
            stats: TableStats::default(),
        }
    }

    fn shard(&self, key: &QosKey) -> &Mutex<HashMap<QosKey, LeakyBucket>> {
        &self.shards[shard_of(key, self.shards.len())]
    }
}

impl Default for ShardedTable {
    fn default() -> Self {
        Self::new()
    }
}

impl QosTable for ShardedTable {
    fn decide_shaped(&self, key: &QosKey, now: Nanos) -> Option<(Verdict, (Credits, RefillRate))> {
        let mut shard = self.shard(key).lock();
        let Some(bucket) = shard.get_mut(key) else {
            self.stats.record_miss();
            return None;
        };
        let verdict = bucket.try_consume(now);
        self.stats.record(verdict);
        Some((verdict, (bucket.capacity(), bucket.refill_rate())))
    }

    fn consume_up_to(&self, key: &QosKey, n: u64, now: Nanos) -> u64 {
        let taken = self
            .shard(key)
            .lock()
            .get_mut(key)
            .map_or(0, |bucket| bucket.try_consume_up_to(n, now));
        self.stats.record_allows(taken);
        taken
    }

    fn shape(&self, key: &QosKey) -> Option<(Credits, RefillRate)> {
        self.shard(key)
            .lock()
            .get(key)
            .map(|bucket| (bucket.capacity(), bucket.refill_rate()))
    }

    fn insert(&self, rule: QosRule, now: Nanos) {
        let mut shard = self.shard(&rule.key).lock();
        match shard.get_mut(&rule.key) {
            Some(existing) => existing.apply_rule_update(&rule, now),
            None => {
                let bucket = LeakyBucket::from_rule(&rule, now);
                shard.insert(rule.key, bucket);
            }
        }
    }

    fn apply_update(&self, rule: &QosRule, now: Nanos) -> bool {
        let mut shard = self.shard(&rule.key).lock();
        match shard.get_mut(&rule.key) {
            Some(bucket) => {
                bucket.apply_rule_update(rule, now);
                true
            }
            None => false,
        }
    }

    fn remove(&self, key: &QosKey) -> bool {
        self.shard(key).lock().remove(key).is_some()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    fn keys(&self) -> Vec<QosKey> {
        let mut keys = Vec::with_capacity(self.len());
        for shard in &self.shards {
            keys.extend(shard.lock().keys().cloned());
        }
        keys
    }

    fn snapshot(&self, now: Nanos) -> Vec<QosRule> {
        let mut rules = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let guard = shard.lock();
            rules.extend(
                guard
                    .iter()
                    .map(|(key, bucket)| bucket.to_rule(key.clone(), now)),
            );
        }
        rules
    }

    fn restore(&self, rules: Vec<QosRule>, now: Nanos) {
        for rule in rules {
            let mut shard = self.shard(&rule.key).lock();
            let bucket = LeakyBucket::from_rule(&rule, now);
            shard.insert(rule.key, bucket);
        }
    }

    fn sweep_refill(&self, now: Nanos) {
        for shard in &self.shards {
            for bucket in shard.lock().values_mut() {
                bucket.refill(now);
            }
        }
    }

    fn stats(&self) -> TableStatsSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn rule(s: &str, cap: u64, rate: u64) -> QosRule {
        QosRule::per_second(key(s), cap, rate)
    }

    fn tables() -> Vec<(&'static str, Arc<dyn QosTable>)> {
        vec![
            ("sharded", Arc::new(ShardedTable::new())),
            ("sharded-1", Arc::new(ShardedTable::with_shards(1))),
            ("lock-free", Arc::new(crate::LockFreeTable::new())),
            // A deliberately tiny slot array so the shared tests also
            // run their rules through successor installs and the
            // migrations behind them.
            (
                "lock-free-tiny",
                Arc::new(crate::LockFreeTable::with_slots(8)),
            ),
        ]
    }

    /// `n` decides at `now`, stopping at the first that does not admit:
    /// what one `consume_up_to(n)` must charge.
    fn decide_n(table: &dyn QosTable, k: &QosKey, n: u64, now: Nanos) -> u64 {
        (0..n)
            .take_while(|_| table.decide(k, now) == Some(Verdict::Allow))
            .count() as u64
    }

    #[test]
    fn consume_up_to_agrees_with_repeated_decides_on_every_table() {
        // A seeded script over four keys (one never installed) on the
        // whole-ms grid: each table drains with `consume_up_to`, the
        // reference decides one credit at a time. Takes, allow counts
        // and final credit all agree.
        use janus_hash::rng::Rng;
        let mut rng = Rng::seed_from_u64(0xD2A1_0001);
        for case in 0..32 {
            for (name, table) in tables() {
                let reference = ShardedTable::new();
                let mut now = Nanos::ZERO;
                for step in 0..200 {
                    let k = key(&format!("k{}", rng.gen_range(4)));
                    match rng.gen_range(6) {
                        0 if k != key("k3") => {
                            let r = rule(k.as_str(), rng.gen_range(60), rng.gen_range(900));
                            table.insert(r.clone(), now);
                            reference.insert(r, now);
                        }
                        0 | 1 => now += Duration::from_millis(rng.gen_range(40)),
                        2 => assert_eq!(
                            table.decide(&k, now),
                            reference.decide(&k, now),
                            "{name} case {case} step {step}"
                        ),
                        _ => {
                            let n = rng.gen_range(30);
                            assert_eq!(
                                table.consume_up_to(&k, n, now),
                                decide_n(&reference, &k, n, now),
                                "{name} case {case} step {step} n {n}"
                            );
                        }
                    }
                }
                assert_eq!(table.stats().allows, reference.stats().allows, "{name}");
                let mut a = table.snapshot(now);
                let mut b = reference.snapshot(now);
                a.sort_by(|x, y| x.key.cmp(&y.key));
                b.sort_by(|x, y| x.key.cmp(&y.key));
                assert_eq!(a, b, "{name} case {case}");
            }
        }
    }

    #[test]
    fn racing_drains_and_decides_never_oversell() {
        // 8 threads, barrier-stepped 1 ms rounds on one 500-credit,
        // 1000/s key: every thread mixes multi-credit drains with single
        // decides. Demand outruns supply, so every table kind takes
        // exactly the initial credit plus the accrual — never more.
        use std::sync::Barrier;
        const THREADS: usize = 8;
        const ROUNDS: u64 = 40;
        let supply = 500 + (ROUNDS - 1);
        for (name, table) in tables() {
            table.insert(rule("hot", 500, 1000), Nanos::ZERO);
            let barrier = Barrier::new(THREADS);
            let taken: u64 = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (table, barrier) = (&table, &barrier);
                        scope.spawn(move || {
                            let k = key("hot");
                            let mut mine = 0;
                            for round in 0..ROUNDS {
                                let now = Nanos::from_millis(round);
                                barrier.wait();
                                for i in 0..20u64 {
                                    mine += if (t as u64 + i) % 2 == 0 {
                                        table.consume_up_to(&k, 1 + i % 7, now)
                                    } else {
                                        u64::from(table.decide(&k, now) == Some(Verdict::Allow))
                                    };
                                }
                            }
                            mine
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(taken, supply, "{name}");
            assert_eq!(table.stats().allows, taken, "{name}");
        }
    }

    #[test]
    fn concurrent_counts_are_exact_on_every_table() {
        // 8 barrier-started threads, one zero-refill key each: every
        // thread makes exactly ALLOWS admits, DENIES denies and MISSES
        // misses, interleaved. The summed stripes count each once.
        use std::sync::Barrier;
        const THREADS: u64 = 8;
        const ALLOWS: u64 = 300;
        const DENIES: u64 = 200;
        const MISSES: u64 = 100;
        for (name, table) in tables() {
            for t in 0..THREADS {
                table.insert(rule(&format!("t{t}"), ALLOWS, 0), Nanos::ZERO);
            }
            let barrier = Barrier::new(THREADS as usize);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (table, barrier) = (&table, &barrier);
                    scope.spawn(move || {
                        let (mine, ghost) = (key(&format!("t{t}")), key(&format!("ghost-{t}")));
                        barrier.wait();
                        for i in 0..ALLOWS + DENIES + MISSES {
                            let k = if i % 6 == 5 { &ghost } else { &mine };
                            let verdict = table.decide(k, Nanos::ZERO);
                            assert_eq!(verdict.is_none(), k == &ghost, "{name}");
                        }
                    });
                }
            });
            let stats = table.stats();
            assert_eq!(
                (stats.decisions, stats.allows, stats.denies, stats.misses),
                (
                    THREADS * (ALLOWS + DENIES),
                    THREADS * ALLOWS,
                    THREADS * DENIES,
                    THREADS * MISSES
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn unknown_key_is_a_miss() {
        for (name, table) in tables() {
            assert_eq!(table.decide(&key("ghost"), Nanos::ZERO), None, "{name}");
            assert_eq!(table.stats().misses, 1, "{name}");
            assert_eq!(table.stats().decisions, 0, "{name}");
        }
    }

    #[test]
    fn insert_then_decide() {
        for (name, table) in tables() {
            table.insert(rule("alice", 2, 0), Nanos::ZERO);
            assert_eq!(
                table.decide(&key("alice"), Nanos::ZERO),
                Some(Verdict::Allow),
                "{name}"
            );
            assert_eq!(
                table.decide(&key("alice"), Nanos::ZERO),
                Some(Verdict::Allow),
                "{name}"
            );
            assert_eq!(
                table.decide(&key("alice"), Nanos::ZERO),
                Some(Verdict::Deny),
                "{name}"
            );
            let stats = table.stats();
            assert_eq!((stats.allows, stats.denies), (2, 1), "{name}");
        }
    }

    #[test]
    fn double_insert_behaves_as_update() {
        for (name, table) in tables() {
            table.insert(rule("k", 100, 0), Nanos::ZERO);
            // Drain half.
            for _ in 0..50 {
                table.decide(&key("k"), Nanos::ZERO);
            }
            // Re-insert with a smaller capacity: credit clamps, does not refill.
            table.insert(rule("k", 10, 0), Nanos::ZERO);
            let snap = table.snapshot(Nanos::ZERO);
            assert_eq!(snap.len(), 1, "{name}");
            assert_eq!(snap[0].credit, Credits::from_whole(10), "{name}");
        }
    }

    #[test]
    fn shape_reports_rule_without_charging() {
        for (name, table) in tables() {
            assert_eq!(table.shape(&key("ghost")), None, "{name}");
            table.insert(rule("alice", 7, 3), Nanos::ZERO);
            let (cap, rate) = table.shape(&key("alice")).unwrap();
            assert_eq!(cap, Credits::from_whole(7), "{name}");
            assert_eq!(rate.micro_per_sec(), 3_000_000, "{name}");
            // Shape is a read: no decision or miss was recorded, and the
            // bucket's credit is untouched.
            let stats = table.stats();
            assert_eq!((stats.decisions, stats.misses), (0, 0), "{name}");
            let snap = table.snapshot(Nanos::ZERO);
            assert_eq!(snap[0].credit, Credits::from_whole(7), "{name}");
        }
    }

    #[test]
    fn decide_shaped_charges_like_decide_and_reports_the_shape() {
        for (name, table) in tables() {
            assert_eq!(
                table.decide_shaped(&key("ghost"), Nanos::ZERO),
                None,
                "{name}"
            );
            table.insert(rule("alice", 1, 3), Nanos::ZERO);
            let shape = table.shape(&key("alice")).unwrap();
            for verdict in [Verdict::Allow, Verdict::Deny] {
                assert_eq!(
                    table.decide_shaped(&key("alice"), Nanos::ZERO),
                    Some((verdict, shape)),
                    "{name}"
                );
            }
            let stats = table.stats();
            assert_eq!(
                (stats.allows, stats.denies, stats.misses),
                (1, 1, 1),
                "{name}"
            );
        }
    }

    #[test]
    fn apply_update_miss_returns_false() {
        for (name, table) in tables() {
            assert!(
                !table.apply_update(&rule("nope", 1, 1), Nanos::ZERO),
                "{name}"
            );
        }
    }

    #[test]
    fn remove_and_len() {
        for (name, table) in tables() {
            table.insert(rule("a", 1, 1), Nanos::ZERO);
            table.insert(rule("b", 1, 1), Nanos::ZERO);
            assert_eq!(table.len(), 2, "{name}");
            assert!(table.remove(&key("a")), "{name}");
            assert!(!table.remove(&key("a")), "{name}");
            assert_eq!(table.len(), 1, "{name}");
            assert!(!table.is_empty(), "{name}");
        }
    }

    #[test]
    fn keys_lists_all() {
        for (name, table) in tables() {
            for i in 0..20 {
                table.insert(rule(&format!("k{i}"), 1, 1), Nanos::ZERO);
            }
            let mut keys = table.keys();
            keys.sort();
            assert_eq!(keys.len(), 20, "{name}");
            assert!(keys.contains(&key("k0")), "{name}");
            assert!(keys.contains(&key("k19")), "{name}");
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let now = Nanos::from_secs(5);
        for (name, table) in tables() {
            table.insert(rule("a", 100, 10), Nanos::ZERO);
            table.insert(rule("b", 50, 5), Nanos::ZERO);
            for _ in 0..30 {
                table.decide(&key("a"), now);
            }
            let snap = table.snapshot(now);

            let replica = ShardedTable::new();
            replica.restore(snap.clone(), now);
            let mut original: Vec<_> = snap;
            original.sort_by(|a, b| a.key.cmp(&b.key));
            let mut restored = replica.snapshot(now);
            restored.sort_by(|a, b| a.key.cmp(&b.key));
            assert_eq!(original, restored, "{name}");
        }
    }

    #[test]
    fn sweep_refill_preserves_credit_semantics() {
        for (name, table) in tables() {
            table.insert(rule("a", 100, 10), Nanos::ZERO);
            for _ in 0..100 {
                table.decide(&key("a"), Nanos::ZERO);
            }
            // After 3 s the bucket should hold 30 credits whether or not a
            // sweep happened in between.
            table.sweep_refill(Nanos::from_secs(1));
            table.sweep_refill(Nanos::from_secs(2));
            let snap = table.snapshot(Nanos::from_secs(3));
            assert_eq!(snap[0].credit, Credits::from_whole(30), "{name}");
        }
    }

    #[test]
    fn concurrent_decisions_conserve_credit() {
        // 8 threads hammer one key with capacity 1000, zero refill: exactly
        // 1000 must be admitted in total, regardless of table flavour.
        for (name, table) in tables() {
            table.insert(rule("shared", 1000, 0), Nanos::ZERO);
            let admitted = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        let table = Arc::clone(&table);
                        scope.spawn(move || {
                            let k = key("shared");
                            (0..500)
                                .filter(|_| table.decide(&k, Nanos::ZERO) == Some(Verdict::Allow))
                                .count()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum::<usize>()
            });
            assert_eq!(admitted, 1000, "{name}");
        }
    }

    #[test]
    fn concurrent_distinct_keys_do_not_interfere() {
        let table = Arc::new(ShardedTable::new());
        for i in 0..16 {
            table.insert(rule(&format!("user-{i}"), 100, 0), Nanos::ZERO);
        }
        std::thread::scope(|scope| {
            for i in 0..16 {
                let table = Arc::clone(&table);
                scope.spawn(move || {
                    let k = key(&format!("user-{i}"));
                    let admitted = (0..200)
                        .filter(|_| table.decide(&k, Nanos::ZERO) == Some(Verdict::Allow))
                        .count();
                    assert_eq!(admitted, 100);
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardedTable::with_shards(0);
    }
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use crate::LeakyBucket;
    use janus_hash::rng::Rng;
    use janus_types::QosRule;
    use std::collections::HashMap;
    use std::time::Duration;

    fn keyname(key: u64) -> QosKey {
        QosKey::new(format!("k{key}")).unwrap()
    }

    /// Model-based test: a `ShardedTable` driven by a random sequential
    /// script (insert / decide / sweep / advance / remove over six keys)
    /// must agree decision-for-decision with plain per-key
    /// `LeakyBucket`s (the executable specification). 128 seeded cases.
    #[test]
    fn sharded_table_matches_bucket_model() {
        let mut rng = Rng::seed_from_u64(0x7AB1_E001);
        for _ in 0..128 {
            let table = ShardedTable::new();
            let mut model: HashMap<QosKey, LeakyBucket> = HashMap::new();
            let mut now = Nanos::ZERO;
            for _ in 0..rng.gen_range_inclusive(1, 119) {
                match rng.gen_range(5) {
                    0 => {
                        let rule = QosRule::per_second(
                            keyname(rng.gen_range(6)),
                            rng.gen_range(50),
                            rng.gen_range(1000),
                        );
                        table.insert(rule.clone(), now);
                        // Mirror the table's insert-or-update semantics.
                        match model.get_mut(&rule.key) {
                            Some(bucket) => bucket.apply_rule_update(&rule, now),
                            None => {
                                model.insert(rule.key.clone(), LeakyBucket::from_rule(&rule, now));
                            }
                        }
                    }
                    1 => {
                        let key = keyname(rng.gen_range(6));
                        let expected = model.get_mut(&key).map(|bucket| bucket.try_consume(now));
                        assert_eq!(
                            table.decide(&key, now),
                            expected,
                            "decide mismatch at {now:?}"
                        );
                    }
                    2 => {
                        table.sweep_refill(now);
                        for bucket in model.values_mut() {
                            bucket.refill(now);
                        }
                    }
                    3 => now += Duration::from_micros(rng.gen_range(2_000_000)),
                    _ => {
                        let key = keyname(rng.gen_range(6));
                        assert_eq!(table.remove(&key), model.remove(&key).is_some());
                    }
                }
            }
            // Final states agree too.
            let mut snapshot = table.snapshot(now);
            snapshot.sort_by(|a, b| a.key.cmp(&b.key));
            let mut expected: Vec<QosRule> = model
                .iter()
                .map(|(key, bucket)| bucket.to_rule(key.clone(), now))
                .collect();
            expected.sort_by(|a, b| a.key.cmp(&b.key));
            assert_eq!(snapshot, expected);
        }
    }
}
