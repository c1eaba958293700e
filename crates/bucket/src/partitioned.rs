//! Worker-partitioned QoS table for key-affinity dispatch.
//!
//! When the QoS server routes every request to a worker chosen by
//! [`worker_affinity`] (CRC32 of the key, mod worker count), one key is
//! only ever decided by one worker. That makes per-worker state safe
//! without cross-worker synchronization: [`PartitionedTable`] holds one
//! [`SyncTable`] per worker, and every hot-path operation touches exactly
//! the partition the dispatcher would have picked — so two workers never
//! contend on the same lock. The paper's synchronized-map contention
//! (Fig. 10b) disappears structurally rather than statistically (compare
//! [`ShardedTable`], which only makes collisions rare).
//!
//! The affinity function lives here, next to the partitioning it
//! guarantees, and the server's dispatcher imports it — a single source
//! of truth keeps "dispatch shard" and "table partition" from drifting
//! apart.

use crate::table::{QosTable, SyncTable, TableStatsSnapshot};
use janus_clock::Nanos;
use janus_types::{Credits, QosKey, QosRule, RefillRate, Verdict};

/// The worker (and table partition) responsible for `key` out of
/// `workers` total. CRC32 matches the checksum already used for
/// key-space partitioning across QoS servers, so the distribution
/// properties are the ones the paper measured. The checksum is read from
/// the key's cache ([`QosKey::crc32`], computed once at construction), so
/// dispatch never re-hashes the key bytes.
///
/// # Panics
/// Panics if `workers` is zero.
pub fn worker_affinity(key: &QosKey, workers: usize) -> usize {
    assert!(workers > 0, "need at least one worker");
    key.crc32() as usize % workers
}

/// A QoS table split into per-worker partitions by [`worker_affinity`].
///
/// Each partition is a plain [`SyncTable`]; under affinity dispatch its
/// lock is uncontended (only its own worker touches it), so the mutex
/// acquire is a fast path. Management-plane operations (`keys`,
/// `snapshot`, `restore`, `sweep_refill`, `stats`) visit every partition
/// and aggregate.
pub struct PartitionedTable {
    parts: Vec<SyncTable>,
}

impl PartitionedTable {
    /// A table partitioned for `workers` workers.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        PartitionedTable {
            parts: (0..workers).map(|_| SyncTable::new()).collect(),
        }
    }

    /// Number of partitions (the worker count this table was built for).
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    fn part(&self, key: &QosKey) -> &SyncTable {
        &self.parts[worker_affinity(key, self.parts.len())]
    }
}

impl QosTable for PartitionedTable {
    fn decide(&self, key: &QosKey, now: Nanos) -> Option<Verdict> {
        self.part(key).decide(key, now)
    }

    fn consume_up_to(&self, key: &QosKey, n: u64, now: Nanos) -> u64 {
        self.part(key).consume_up_to(key, n, now)
    }

    fn shape(&self, key: &QosKey) -> Option<(Credits, RefillRate)> {
        self.part(key).shape(key)
    }

    fn insert(&self, rule: QosRule, now: Nanos) {
        let idx = worker_affinity(&rule.key, self.parts.len());
        self.parts[idx].insert(rule, now);
    }

    fn apply_update(&self, rule: &QosRule, now: Nanos) -> bool {
        self.part(&rule.key).apply_update(rule, now)
    }

    fn remove(&self, key: &QosKey) -> bool {
        self.part(key).remove(key)
    }

    fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    fn keys(&self) -> Vec<QosKey> {
        let mut keys = Vec::with_capacity(self.len());
        for part in &self.parts {
            keys.extend(part.keys());
        }
        keys
    }

    fn snapshot(&self, now: Nanos) -> Vec<QosRule> {
        let mut rules = Vec::with_capacity(self.len());
        for part in &self.parts {
            rules.extend(part.snapshot(now));
        }
        rules
    }

    fn restore(&self, rules: Vec<QosRule>, now: Nanos) {
        for rule in rules {
            let idx = worker_affinity(&rule.key, self.parts.len());
            self.parts[idx].restore(vec![rule], now);
        }
    }

    fn sweep_refill(&self, now: Nanos) {
        for part in &self.parts {
            part.sweep_refill(now);
        }
    }

    fn stats(&self) -> TableStatsSnapshot {
        let mut total = TableStatsSnapshot {
            decisions: 0,
            allows: 0,
            denies: 0,
            misses: 0,
            cas_retries: 0,
            probe_steps: 0,
        };
        for part in &self.parts {
            let snap = part.stats();
            total.decisions += snap.decisions;
            total.allows += snap.allows;
            total.denies += snap.denies;
            total.misses += snap.misses;
            total.cas_retries += snap.cas_retries;
            total.probe_steps += snap.probe_steps;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_types::Credits;
    use std::sync::Arc;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn rule(s: &str, cap: u64, rate: u64) -> QosRule {
        QosRule::per_second(key(s), cap, rate)
    }

    #[test]
    fn affinity_is_stable_and_in_range() {
        for workers in 1..=16usize {
            for i in 0..200 {
                let k = key(&format!("tenant-{i}"));
                let w = worker_affinity(&k, workers);
                assert!(w < workers);
                assert_eq!(w, worker_affinity(&k, workers), "affinity must be pure");
            }
        }
    }

    #[test]
    fn affinity_spreads_keys() {
        // CRC32 mod 8 over 800 distinct keys must not collapse onto a
        // few workers. A loose bound: every worker sees at least one key
        // and none sees more than half.
        let workers = 8;
        let mut counts = vec![0usize; workers];
        for i in 0..800 {
            counts[worker_affinity(&key(&format!("user-{i}")), workers)] += 1;
        }
        for (w, count) in counts.iter().enumerate() {
            assert!(*count > 0, "worker {w} starved");
            assert!(*count < 400, "worker {w} owns {count}/800 keys");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        worker_affinity(&key("k"), 0);
    }

    #[test]
    fn affinity_still_matches_the_wire_checksum() {
        // `worker_affinity` reads the key's cached CRC32; it must stay
        // byte-identical to hashing the key text with the shared
        // checksum, or dispatch and key-space partitioning would drift.
        for i in 0..100 {
            let k = key(&format!("tenant-{i}"));
            assert_eq!(k.crc32(), janus_hash::crc32(k.as_bytes()));
        }
    }

    #[test]
    fn behaves_like_any_qos_table() {
        let table = PartitionedTable::new(4);
        table.insert(rule("alice", 2, 0), Nanos::ZERO);
        assert_eq!(
            table.decide(&key("alice"), Nanos::ZERO),
            Some(Verdict::Allow)
        );
        assert_eq!(
            table.decide(&key("alice"), Nanos::ZERO),
            Some(Verdict::Allow)
        );
        assert_eq!(
            table.decide(&key("alice"), Nanos::ZERO),
            Some(Verdict::Deny)
        );
        assert_eq!(table.decide(&key("ghost"), Nanos::ZERO), None);
        assert_eq!(table.shape(&key("ghost")), None);
        let (cap, _) = table.shape(&key("alice")).unwrap();
        assert_eq!(cap, Credits::from_whole(2));
        let stats = table.stats();
        assert_eq!(
            (stats.decisions, stats.allows, stats.denies, stats.misses),
            (3, 2, 1, 1)
        );
    }

    #[test]
    fn partition_matches_affinity_for_every_key() {
        // The structural guarantee: a key's bucket lives in exactly the
        // partition `worker_affinity` names, so affinity dispatch never
        // crosses partitions.
        let workers = 5;
        let table = PartitionedTable::new(workers);
        for i in 0..100 {
            table.insert(rule(&format!("k{i}"), 1, 0), Nanos::ZERO);
        }
        for i in 0..100 {
            let k = key(&format!("k{i}"));
            let owner = worker_affinity(&k, workers);
            for (p, part) in table.parts.iter().enumerate() {
                let holds = part.keys().contains(&k);
                assert_eq!(holds, p == owner, "key k{i} in partition {p}");
            }
        }
    }

    #[test]
    fn snapshot_restore_roundtrip_across_partition_counts() {
        // A snapshot taken with one worker count restores correctly into
        // a table with another (re-scaling the worker pool).
        let now = Nanos::from_secs(1);
        let table = PartitionedTable::new(3);
        table.insert(rule("a", 100, 10), Nanos::ZERO);
        table.insert(rule("b", 50, 5), Nanos::ZERO);
        for _ in 0..30 {
            table.decide(&key("a"), now);
        }
        let snap = table.snapshot(now);

        let rescaled = PartitionedTable::new(7);
        rescaled.restore(snap.clone(), now);
        let mut original = snap;
        original.sort_by(|a, b| a.key.cmp(&b.key));
        let mut restored = rescaled.snapshot(now);
        restored.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(original, restored);
    }

    #[test]
    fn concurrent_decisions_conserve_credit() {
        let table = Arc::new(PartitionedTable::new(4));
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
        assert_eq!(admitted, 1000);
    }

    #[test]
    fn double_insert_behaves_as_update() {
        let table = PartitionedTable::new(2);
        table.insert(rule("k", 100, 0), Nanos::ZERO);
        for _ in 0..50 {
            table.decide(&key("k"), Nanos::ZERO);
        }
        table.insert(rule("k", 10, 0), Nanos::ZERO);
        let snap = table.snapshot(Nanos::ZERO);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].credit, Credits::from_whole(10));
    }
}
