//! The in-memory `qos_rules` table engine.

use janus_types::sync::RwLock;
use janus_types::{Credits, QosKey, QosRule};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The `qos_rules` table: a hash index on the primary key.
///
/// All mutations bump a version counter so replication and QoS-server rule
/// sync can cheaply detect "anything changed since I last looked?".
#[derive(Debug, Default)]
pub struct RulesEngine {
    rows: RwLock<HashMap<QosKey, QosRule>>,
    /// Hotness side-table: cumulative decision counts persisted by the QoS
    /// servers' reclaim sweeps. Orders the streaming warm-up scan (hot
    /// keys first); not part of the rule row, so the frozen `key\trate\t
    /// cap\tcredit` wire format is untouched.
    touches: RwLock<HashMap<QosKey, u64>>,
    version: AtomicU64,
}

impl RulesEngine {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-load rules (initial population; replaces existing rows with
    /// the same key).
    pub fn load(&self, rules: impl IntoIterator<Item = QosRule>) {
        let mut rows = self.rows.write();
        for rule in rules {
            rows.insert(rule.key.clone(), rule.clamped());
        }
        drop(rows);
        self.bump();
    }

    /// `SELECT * FROM qos_rules WHERE qos_key = ?`
    pub fn get(&self, key: &QosKey) -> Option<QosRule> {
        self.rows.read().get(key).cloned()
    }

    /// `SELECT * FROM qos_rules` — rows in key order (deterministic output
    /// for tests and replication).
    pub fn all(&self) -> Vec<QosRule> {
        let mut rules: Vec<_> = self.rows.read().values().cloned().collect();
        rules.sort_by(|a, b| a.key.cmp(&b.key));
        rules
    }

    /// Upsert one rule.
    pub fn put(&self, rule: QosRule) {
        self.rows.write().insert(rule.key.clone(), rule.clamped());
        self.bump();
    }

    /// Update only the credit column (check-pointing). Returns false if
    /// the key does not exist. Does *not* bump the table version: credit
    /// checkpoints are not rule changes and must not trigger rule re-sync
    /// on every QoS server.
    pub fn checkpoint_credit(&self, key: &QosKey, credit: Credits) -> bool {
        match self.rows.write().get_mut(key) {
            Some(rule) => {
                rule.credit = credit.min(rule.capacity);
                true
            }
            None => false,
        }
    }

    /// `SELECT * FROM qos_rules ORDER BY touches DESC ... LIMIT ? OFFSET ?`
    /// — one warm-up batch, hottest keys first (ties broken by key order so
    /// pagination is deterministic and covers every row exactly once).
    pub fn scan(&self, offset: usize, limit: usize) -> Vec<QosRule> {
        let touches = self.touches.read();
        let mut rules: Vec<_> = self.rows.read().values().cloned().collect();
        rules.sort_by(|a, b| {
            let ta = touches.get(&a.key).copied().unwrap_or(0);
            let tb = touches.get(&b.key).copied().unwrap_or(0);
            tb.cmp(&ta).then_with(|| a.key.cmp(&b.key))
        });
        rules.into_iter().skip(offset).take(limit).collect()
    }

    /// `UPDATE qos_rules SET touches = touches + ?` — accumulate hotness
    /// observed by a QoS server since the key was last resident. Additive
    /// (several servers may fold counts for the same key) and, like credit
    /// checkpoints, not a rule change: the version is not bumped.
    pub fn record_touches(&self, key: &QosKey, count: u64) {
        let mut touches = self.touches.write();
        let entry = touches.entry(key.clone()).or_insert(0);
        *entry = entry.saturating_add(count);
    }

    /// The accumulated touch count for `key` (0 if never recorded).
    pub fn touches(&self, key: &QosKey) -> u64 {
        self.touches.read().get(key).copied().unwrap_or(0)
    }

    /// `DELETE FROM qos_rules WHERE qos_key = ?`. Returns true if the row
    /// existed.
    pub fn delete(&self, key: &QosKey) -> bool {
        let removed = self.rows.write().remove(key).is_some();
        if removed {
            self.touches.write().remove(key);
            self.bump();
        }
        removed
    }

    /// `SELECT COUNT(*) FROM qos_rules`.
    pub fn count(&self) -> usize {
        self.rows.read().len()
    }

    /// Monotonic rule-change counter.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn bump(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_types::RefillRate;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn rule(s: &str, cap: u64, rate: u64) -> QosRule {
        QosRule::per_second(key(s), cap, rate)
    }

    #[test]
    fn put_get_roundtrip() {
        let engine = RulesEngine::new();
        engine.put(rule("alice", 1000, 100));
        let got = engine.get(&key("alice")).unwrap();
        assert_eq!(got.capacity, Credits::from_whole(1000));
        assert_eq!(got.refill_rate, RefillRate::per_second(100));
        assert_eq!(engine.get(&key("bob")), None);
    }

    #[test]
    fn put_clamps_credit_to_capacity() {
        let engine = RulesEngine::new();
        let mut r = rule("alice", 10, 1);
        r.credit = Credits::from_whole(500);
        engine.put(r);
        assert_eq!(
            engine.get(&key("alice")).unwrap().credit,
            Credits::from_whole(10)
        );
    }

    #[test]
    fn all_is_sorted_by_key() {
        let engine = RulesEngine::new();
        engine.load([
            rule("charlie", 1, 1),
            rule("alice", 1, 1),
            rule("bob", 1, 1),
        ]);
        let keys: Vec<_> = engine
            .all()
            .into_iter()
            .map(|r| r.key.to_string())
            .collect();
        assert_eq!(keys, vec!["alice", "bob", "charlie"]);
        assert_eq!(engine.count(), 3);
    }

    #[test]
    fn checkpoint_updates_credit_only() {
        let engine = RulesEngine::new();
        engine.put(rule("alice", 1000, 100));
        let v = engine.version();
        assert!(engine.checkpoint_credit(&key("alice"), Credits::from_whole(42)));
        let got = engine.get(&key("alice")).unwrap();
        assert_eq!(got.credit, Credits::from_whole(42));
        assert_eq!(got.capacity, Credits::from_whole(1000));
        assert_eq!(engine.version(), v, "checkpoint must not bump version");
        assert!(!engine.checkpoint_credit(&key("ghost"), Credits::ZERO));
    }

    #[test]
    fn checkpoint_clamps_to_capacity() {
        let engine = RulesEngine::new();
        engine.put(rule("alice", 10, 1));
        engine.checkpoint_credit(&key("alice"), Credits::from_whole(9999));
        assert_eq!(
            engine.get(&key("alice")).unwrap().credit,
            Credits::from_whole(10)
        );
    }

    #[test]
    fn scan_pages_hottest_keys_first() {
        let engine = RulesEngine::new();
        engine.load([rule("cold", 1, 1), rule("warm", 1, 1), rule("hot", 1, 1)]);
        engine.record_touches(&key("hot"), 100);
        engine.record_touches(&key("warm"), 10);
        let names = |rows: Vec<QosRule>| -> Vec<String> {
            rows.into_iter().map(|r| r.key.to_string()).collect()
        };
        assert_eq!(names(engine.scan(0, 2)), vec!["hot", "warm"]);
        assert_eq!(names(engine.scan(2, 2)), vec!["cold"]);
        assert!(engine.scan(3, 2).is_empty());
        // Untouched keys page deterministically in key order.
        engine.load([rule("aaa", 1, 1), rule("bbb", 1, 1)]);
        assert_eq!(
            names(engine.scan(2, 10)),
            vec!["aaa", "bbb", "cold"],
            "ties broken by key for exhaustive pagination"
        );
    }

    #[test]
    fn touches_accumulate_additively_without_version_bump() {
        let engine = RulesEngine::new();
        engine.put(rule("alice", 1, 1));
        let v = engine.version();
        engine.record_touches(&key("alice"), 3);
        engine.record_touches(&key("alice"), 4);
        assert_eq!(engine.touches(&key("alice")), 7);
        assert_eq!(
            engine.version(),
            v,
            "touch updates must not trigger rule re-sync"
        );
        assert_eq!(engine.touches(&key("ghost")), 0);
        // Deleting the row drops its hotness record too.
        engine.delete(&key("alice"));
        assert_eq!(engine.touches(&key("alice")), 0);
    }

    #[test]
    fn delete_removes_row() {
        let engine = RulesEngine::new();
        engine.put(rule("alice", 1, 1));
        assert!(engine.delete(&key("alice")));
        assert!(!engine.delete(&key("alice")));
        assert_eq!(engine.count(), 0);
    }

    #[test]
    fn version_bumps_on_rule_changes_only() {
        let engine = RulesEngine::new();
        let v0 = engine.version();
        engine.put(rule("a", 1, 1));
        let v1 = engine.version();
        assert!(v1 > v0);
        engine.delete(&key("a"));
        assert!(engine.version() > v1);
        let v2 = engine.version();
        engine.delete(&key("a")); // no-op delete
        assert_eq!(engine.version(), v2);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let engine = Arc::new(RulesEngine::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    engine.put(rule(&format!("t{t}-k{i}"), 10, 1));
                    let _ = engine.get(&key(&format!("t{t}-k{i}")));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.count(), 1000);
    }
}
