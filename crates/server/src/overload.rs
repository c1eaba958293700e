//! Overload control primitives: sojourn-based shedding and duplicate
//! suppression.
//!
//! Two small, independently testable pieces the data plane composes:
//!
//! * [`SojournGovernor`] — a CoDel-flavoured queue governor. A worker
//!   feeds it the *sojourn* (enqueue → dequeue delay) of every request it
//!   pops; the governor tracks the minimum sojourn per observation
//!   window. Once a whole window passes in which even the fastest request
//!   sat longer than the target, the queue is standing — serving its tail
//!   wastes work nobody is waiting for, so the governor votes to shed.
//!   Unlike a queue-length threshold, the sojourn signal is independent
//!   of worker count and service time, which is the CoDel insight.
//! * [`DedupWindow`] — a bounded recent-nonce table mapping the attempt
//!   nonce of a deadline-stamped request to its (key, verdict). Retries
//!   and duplicated datagrams carry the same nonce, so a hit answers from
//!   the cached verdict instead of charging the leaky bucket twice —
//!   admission stays credit-exact under at-least-once delivery. The
//!   window also keeps a request-id index so the *legacy-downgraded*
//!   final attempt of a stamped logical request (which carries no nonce)
//!   still finds its cached verdict — closing the dedup bypass noted in
//!   DESIGN.md §4c.
//!
//! Shedding and nonce dedup apply only to deadline-stamped requests
//! (wire kind `0x06`); a pure-legacy frame (one whose request id the
//! window has never tracked) keeps the paper's charge-on-every-attempt
//! semantics untouched.

use janus_clock::Nanos;
use janus_types::{QosKey, RequestId, Verdict};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::time::Duration;

/// Overload-control tunables: staleness shedding, the sojourn governor
/// and duplicate suppression. Every mechanism here applies only to
/// deadline-stamped requests (wire kind `0x06`); legacy frames keep the
/// paper's semantics — queue, decide, charge on every attempt.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Queue sojourn a request may accumulate before the governor calls
    /// the queue "standing" (CoDel's `target`).
    ///
    /// Sojourn is wall time from enqueue to dequeue, so it includes any
    /// time the worker thread waited for a CPU. On an oversubscribed
    /// host that scheduling delay alone can keep every dequeue above the
    /// default 500 µs while the queue is short and every bucket has
    /// credit. The governor then sheds, and with `shed_replies` a
    /// stamped request of a tenant that still has credit is answered
    /// with `shed_verdict` (`Deny`). With stamped clients, 32 clients
    /// against 4 workers and 1,000-credit rules saw such a `Deny` in
    /// 10 of 30 runs beside three busy-loop processes on 2 vCPUs.
    /// Where a spurious `Deny` costs more than a late answer, set
    /// [`OverloadConfig::sojourn_shedding`] to `false`.
    pub sojourn_target: Duration,
    /// How long sojourns must stay above target before shedding starts
    /// (CoDel's `interval`): a full window in which even the *fastest*
    /// dequeue sat above target.
    pub sojourn_window: Duration,
    /// Run the sojourn governor at all. Off leaves FIFO-full as the only
    /// non-staleness shed trigger (the paper's behaviour). This is the
    /// way out when the host may be oversubscribed: see
    /// [`OverloadConfig::sojourn_target`] for how CPU contention alone
    /// makes the governor deny tenants that still have credit.
    pub sojourn_shedding: bool,
    /// Nonces the duplicate-suppression window remembers. 0 disables
    /// dedup entirely (every duplicate charges the bucket, as before).
    pub dedup_window: usize,
    /// The verdict a shed reply carries. `Deny` is the safe default: a
    /// shed request never consumes credit, so admission may undercount
    /// but never oversell.
    pub shed_verdict: Verdict,
    /// Answer sheds (FIFO-full and sojourn) with `shed_verdict` when the
    /// request still has deadline budget, instead of dropping silently
    /// and letting the router burn its whole retry schedule against a
    /// queue that will shed every copy. Legacy frames are always dropped
    /// silently — old routers expect today's semantics.
    pub shed_replies: bool,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            sojourn_target: Duration::from_micros(500),
            sojourn_window: Duration::from_millis(10),
            sojourn_shedding: true,
            dedup_window: 4096,
            shed_verdict: Verdict::Deny,
            shed_replies: true,
        }
    }
}

/// CoDel-style standing-queue detector fed with per-request sojourn
/// times (see module docs). One instance per worker: the signal is local
/// to the queue the worker drains.
#[derive(Debug)]
pub struct SojournGovernor {
    target: Duration,
    window: Duration,
    window_start: Option<Nanos>,
    window_min: Option<Duration>,
    prev_min: Option<Duration>,
}

impl SojournGovernor {
    /// A governor shedding when sojourns stay above `target` for a whole
    /// `window`.
    pub fn new(target: Duration, window: Duration) -> Self {
        SojournGovernor {
            target,
            window,
            window_start: None,
            window_min: None,
            prev_min: None,
        }
    }

    /// Feed one dequeue's sojourn; `true` means the queue has been
    /// standing above target for at least one full window *and* this
    /// request also sat above target — shed it.
    pub fn observe(&mut self, sojourn: Duration, now: Nanos) -> bool {
        let start = *self.window_start.get_or_insert(now);
        if now.saturating_since(start) >= self.window {
            self.prev_min = self.window_min.take();
            self.window_start = Some(now);
        }
        self.window_min = Some(match self.window_min {
            Some(min) => min.min(sojourn),
            None => sojourn,
        });
        self.prev_min.is_some_and(|min| min > self.target) && sojourn > self.target
    }

    /// The sojourn target this governor sheds against.
    pub fn target(&self) -> Duration {
        self.target
    }
}

/// What a [`DedupWindow`] lookup found for an attempt nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupOutcome {
    /// Never seen (or evicted, or the nonce collided with another key):
    /// process the request normally.
    Miss,
    /// The first copy is queued but not yet decided: drop this duplicate
    /// silently — the in-flight copy's response answers every attempt,
    /// because retries reuse the request id.
    Pending,
    /// Already decided: answer from the cached verdict without touching
    /// the bucket.
    Done(Verdict),
}

/// One tracked logical request: its attempt nonce, the key it charges,
/// the router-side request id every attempt (including the
/// legacy-downgraded final one) shares, and the verdict once decided.
#[derive(Debug)]
struct DedupEntry {
    nonce: u32,
    key: QosKey,
    id: RequestId,
    verdict: Option<Verdict>,
}

impl DedupEntry {
    fn outcome(&self, key: &QosKey) -> DedupOutcome {
        if self.key != *key {
            return DedupOutcome::Miss;
        }
        match self.verdict {
            Some(verdict) => DedupOutcome::Done(verdict),
            None => DedupOutcome::Pending,
        }
    }
}

/// Largest window: ring positions are stored as `u32` in the indexes.
const MAX_DEDUP_CAPACITY: usize = 1 << 30;

/// An open-addressed index from a `u64` field of the ring's entries to
/// their ring positions: linear probing, multiplicative hashing, and
/// backward-shift deletion (no tombstones, so probe chains never decay).
/// A cell holds `position + 1`; 0 is empty, so the array starts as
/// zeroed pages the kernel maps lazily.
#[derive(Debug)]
struct RingIndex {
    cells: Box<[u32]>,
    /// A random odd multiplier per index: nonces and request ids arrive
    /// off the wire, and a fixed one would let a peer pick values that
    /// share one probe chain.
    multiplier: u64,
    /// `64 − log2(cells.len())`: the multiplicative hash keeps the top
    /// bits of the product.
    shift: u32,
}

impl RingIndex {
    /// An index for up to `entries` entries, at most half full.
    fn new(entries: usize) -> Self {
        let len = (2 * entries).next_power_of_two();
        RingIndex {
            cells: vec![0; len].into_boxed_slice(),
            multiplier: RandomState::new().build_hasher().finish() | 1,
            shift: 64 - len.trailing_zeros(),
        }
    }

    fn home(&self, field: u64) -> usize {
        (field.wrapping_mul(self.multiplier) >> self.shift) as usize
    }

    fn mask(&self) -> usize {
        self.cells.len() - 1
    }

    /// The cell indexing an entry whose field is `field`, and that
    /// entry's ring position.
    fn find(&self, field: u64, field_of: impl Fn(usize) -> u64) -> Option<(usize, usize)> {
        let mut cell = self.home(field);
        loop {
            let stored = self.cells[cell] as usize;
            if stored == 0 {
                return None;
            }
            if field_of(stored - 1) == field {
                return Some((cell, stored - 1));
            }
            cell = (cell + 1) & self.mask();
        }
    }

    /// Point `field` at ring position `pos`, rebinding an existing cell
    /// for `field` or claiming the first empty one.
    fn bind(&mut self, field: u64, pos: usize, field_of: impl Fn(usize) -> u64) {
        let mut cell = self.home(field);
        loop {
            let stored = self.cells[cell] as usize;
            if stored == 0 || field_of(stored - 1) == field {
                self.cells[cell] = pos as u32 + 1;
                return;
            }
            cell = (cell + 1) & self.mask();
        }
    }

    /// Drop `field`'s cell if it still points at ring position `pos`,
    /// shifting later members of its probe chain back so every remaining
    /// entry stays reachable from its home cell.
    fn unbind(&mut self, field: u64, pos: usize, field_of: impl Fn(usize) -> u64) {
        let Some((mut hole, bound)) = self.find(field, &field_of) else {
            return;
        };
        if bound != pos {
            return;
        }
        let mask = self.mask();
        let mut cell = hole;
        loop {
            cell = (cell + 1) & mask;
            let stored = self.cells[cell];
            if stored == 0 {
                break;
            }
            let home = self.home(field_of(stored as usize - 1));
            // Movable iff its home is not cyclically inside (hole, cell].
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.cells[hole] = stored;
                hole = cell;
            }
        }
        self.cells[hole] = 0;
    }
}

fn nonce_of(ring: &[DedupEntry]) -> impl Fn(usize) -> u64 + '_ {
    |pos| u64::from(ring[pos].nonce)
}

fn id_of(ring: &[DedupEntry]) -> impl Fn(usize) -> u64 + '_ {
    |pos| ring[pos].id
}

/// A bounded insertion-ordered map of recently seen attempt nonces (see
/// module docs). Eviction is FIFO: once `capacity` nonces are tracked,
/// the oldest is forgotten — an evicted nonce's late duplicate is then
/// processed (and charged) normally, which errs on the conservative side
/// exactly like the pre-nonce protocol always did.
///
/// Fixed footprint: the entries live in a ring of exactly `capacity`
/// slots in insertion order (eviction overwrites the oldest in place),
/// and two open-addressed [`RingIndex`]es find them by nonce and by
/// request id. The ring is reserved up front but filled by `push`, so an
/// idle window costs address space, not resident memory.
#[derive(Debug)]
pub struct DedupWindow {
    capacity: usize,
    ring: Vec<DedupEntry>,
    /// Ring position of the oldest entry once the ring is full.
    head: usize,
    by_nonce: RingIndex,
    /// Secondary index: request id → ring position. The final attempt of
    /// a stamped schedule downgrades to a legacy frame (no nonce), but it
    /// reuses the logical request id — this index lets
    /// [`lookup_legacy`](Self::lookup_legacy) find the cached verdict
    /// anyway, so the deadline-blind downgrade cannot double-charge.
    /// At most one cell per id: the most recent insert with that id.
    by_id: RingIndex,
}

impl DedupWindow {
    /// A window remembering up to `capacity` nonces (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, MAX_DEDUP_CAPACITY);
        DedupWindow {
            capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            by_nonce: RingIndex::new(capacity),
            by_id: RingIndex::new(capacity),
        }
    }

    fn find_nonce(&self, nonce: u32) -> Option<usize> {
        self.by_nonce
            .find(u64::from(nonce), nonce_of(&self.ring))
            .map(|(_, pos)| pos)
    }

    /// Look up `nonce`. A stored entry under a *different* key is a
    /// nonce collision between unrelated logical requests (nonces are
    /// 32-bit randoms) — treated as a miss so the colliding request is
    /// decided on its own bucket rather than served another key's
    /// verdict.
    pub fn lookup(&self, nonce: u32, key: &QosKey) -> DedupOutcome {
        self.find_nonce(nonce)
            .map_or(DedupOutcome::Miss, |pos| self.ring[pos].outcome(key))
    }

    /// Look up a *legacy* frame (no attempt metadata) by its request id.
    /// Hits only when a stamped attempt of the same logical request —
    /// same id *and* same key — is tracked: the deadline-blind final
    /// attempt of a stamped schedule then reuses the cached verdict
    /// instead of charging the bucket a second time (DESIGN.md §4c).
    /// Frames from genuinely legacy routers were never inserted, so they
    /// miss and keep the paper's semantics.
    pub fn lookup_legacy(&self, id: RequestId, key: &QosKey) -> DedupOutcome {
        self.by_id
            .find(id, id_of(&self.ring))
            .map_or(DedupOutcome::Miss, |(_, pos)| self.ring[pos].outcome(key))
    }

    /// Start tracking `nonce` as in-flight (call after the request is
    /// successfully queued), remembering `id` so the legacy-downgraded
    /// final attempt can still find the entry. A colliding entry is
    /// overwritten — the newer request wins the slot.
    pub fn insert_pending(&mut self, nonce: u32, id: RequestId, key: QosKey) {
        let entry = DedupEntry {
            nonce,
            key,
            id,
            verdict: None,
        };
        let pos = match self.find_nonce(nonce) {
            // Nonce collision: overwrite in place, keeping the FIFO
            // position.
            Some(pos) => pos,
            None if self.ring.len() < self.capacity => {
                self.ring.push(entry);
                return self.link(self.ring.len() - 1);
            }
            // Full: the newcomer takes the oldest entry's slot.
            None => {
                let pos = self.head;
                self.head = (pos + 1) % self.capacity;
                pos
            }
        };
        // The leaving entry's id mapping goes only if it still points
        // here: a later insert with the same id may have rebound it.
        let (ring, old) = (&self.ring, &self.ring[pos]);
        self.by_nonce
            .unbind(u64::from(old.nonce), pos, nonce_of(ring));
        self.by_id.unbind(old.id, pos, id_of(ring));
        self.ring[pos] = entry;
        self.link(pos);
    }

    /// Index the entry at `pos` by its nonce and (rebinding any older
    /// entry's mapping) its request id.
    fn link(&mut self, pos: usize) {
        let (ring, entry) = (&self.ring, &self.ring[pos]);
        self.by_nonce
            .bind(u64::from(entry.nonce), pos, nonce_of(ring));
        self.by_id.bind(entry.id, pos, id_of(ring));
    }

    /// Record the decided verdict for `nonce`. A no-op if the entry was
    /// evicted meanwhile or the slot now belongs to a different key.
    pub fn record(&mut self, nonce: u32, key: &QosKey, verdict: Verdict) {
        if let Some(pos) = self.find_nonce(nonce) {
            let entry = &mut self.ring[pos];
            if entry.key == *key {
                entry.verdict = Some(verdict);
            }
        }
    }

    /// Nonces currently tracked (diagnostics).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn governor_never_sheds_below_target() {
        let mut g = SojournGovernor::new(us(500), Duration::from_millis(10));
        for tick in 0..100u64 {
            let now = Nanos::from_micros(tick * 1_000);
            assert!(!g.observe(us(400), now), "shed at tick {tick}");
        }
    }

    #[test]
    fn governor_sheds_after_a_full_standing_window() {
        let mut g = SojournGovernor::new(us(500), Duration::from_millis(10));
        // First window: every sojourn above target, but no *previous*
        // window proves the queue is standing yet — no shedding.
        for tick in 0..10u64 {
            assert!(!g.observe(us(900), Nanos::from_micros(tick * 1_000)));
        }
        // The window rolls at 10 ms; from here the previous window's min
        // (900 µs) is above target, so slow requests are shed...
        assert!(g.observe(us(900), Nanos::from_micros(10_000)));
        // ...while a fast request in the same window is served.
        assert!(!g.observe(us(100), Nanos::from_micros(11_000)));
    }

    #[test]
    fn governor_recovers_once_a_window_drains() {
        let mut g = SojournGovernor::new(us(500), Duration::from_millis(10));
        for tick in 0..10u64 {
            g.observe(us(900), Nanos::from_micros(tick * 1_000));
        }
        assert!(g.observe(us(900), Nanos::from_micros(10_000)));
        // One fast dequeue inside the new window drags its min below
        // target; once that window completes, shedding stops even for a
        // slow straggler.
        assert!(!g.observe(us(100), Nanos::from_micros(12_000)));
        assert!(
            !g.observe(us(900), Nanos::from_micros(20_500)),
            "previous window had a fast dequeue, queue is not standing"
        );
    }

    #[test]
    fn dedup_roundtrip_miss_pending_done() {
        let mut w = DedupWindow::new(8);
        let k = key("tenant");
        assert_eq!(w.lookup(7, &k), DedupOutcome::Miss);
        w.insert_pending(7, 700, k.clone());
        assert_eq!(w.lookup(7, &k), DedupOutcome::Pending);
        w.record(7, &k, Verdict::Allow);
        assert_eq!(w.lookup(7, &k), DedupOutcome::Done(Verdict::Allow));
    }

    #[test]
    fn dedup_nonce_collision_across_keys_is_a_miss() {
        let mut w = DedupWindow::new(8);
        w.insert_pending(7, 700, key("alice"));
        w.record(7, &key("alice"), Verdict::Deny);
        // Another logical request drew the same nonce for a different
        // key: it must not inherit alice's verdict.
        assert_eq!(w.lookup(7, &key("bob")), DedupOutcome::Miss);
        // Recording under the colliding key is a no-op...
        w.record(7, &key("bob"), Verdict::Allow);
        assert_eq!(
            w.lookup(7, &key("alice")),
            DedupOutcome::Done(Verdict::Deny)
        );
        // ...but re-inserting hands the newer request the slot.
        w.insert_pending(7, 701, key("bob"));
        assert_eq!(w.lookup(7, &key("alice")), DedupOutcome::Miss);
        assert_eq!(w.lookup(7, &key("bob")), DedupOutcome::Pending);
    }

    #[test]
    fn dedup_evicts_oldest_at_capacity() {
        let mut w = DedupWindow::new(3);
        for nonce in 0..3u32 {
            w.insert_pending(nonce, u64::from(nonce) + 100, key("k"));
        }
        assert_eq!(w.len(), 3);
        w.insert_pending(3, 103, key("k"));
        assert_eq!(w.len(), 3, "capacity is a hard bound");
        assert_eq!(w.lookup(0, &key("k")), DedupOutcome::Miss, "oldest evicted");
        assert_eq!(w.lookup(3, &key("k")), DedupOutcome::Pending);
    }

    #[test]
    fn dedup_zero_capacity_is_clamped() {
        let mut w = DedupWindow::new(0);
        w.insert_pending(1, 100, key("k"));
        assert_eq!(w.lookup(1, &key("k")), DedupOutcome::Pending);
        assert!(!w.is_empty());
    }

    #[test]
    fn legacy_lookup_finds_entry_by_request_id() {
        let mut w = DedupWindow::new(8);
        let k = key("tenant");
        // Unknown id: a genuinely legacy frame keeps missing.
        assert_eq!(w.lookup_legacy(900, &k), DedupOutcome::Miss);
        w.insert_pending(42, 900, k.clone());
        // The stamped copy is in flight; its legacy-downgraded final
        // attempt (same id, no nonce) must be absorbed, not re-queued.
        assert_eq!(w.lookup_legacy(900, &k), DedupOutcome::Pending);
        w.record(42, &k, Verdict::Allow);
        // Once decided, the legacy copy gets the cached verdict — no
        // second charge (DESIGN.md §4c).
        assert_eq!(w.lookup_legacy(900, &k), DedupOutcome::Done(Verdict::Allow));
        // Same id under another key is an id collision, not a duplicate.
        assert_eq!(w.lookup_legacy(900, &key("other")), DedupOutcome::Miss);
    }

    #[test]
    fn legacy_index_follows_eviction_and_overwrite() {
        let mut w = DedupWindow::new(2);
        w.insert_pending(1, 100, key("a"));
        w.insert_pending(2, 200, key("b"));
        // Evicting nonce 1 must also drop its id mapping.
        w.insert_pending(3, 300, key("c"));
        assert_eq!(w.lookup_legacy(100, &key("a")), DedupOutcome::Miss);
        assert_eq!(w.lookup_legacy(200, &key("b")), DedupOutcome::Pending);
        // A nonce-collision overwrite rebinds the slot and the index.
        w.insert_pending(2, 201, key("b2"));
        assert_eq!(w.lookup_legacy(200, &key("b")), DedupOutcome::Miss);
        assert_eq!(w.lookup_legacy(201, &key("b2")), DedupOutcome::Pending);
    }

    /// The two-`HashMap` window the fixed-footprint one replaced, kept as
    /// the reference the differential test compares against.
    struct Model {
        capacity: usize,
        entries: std::collections::HashMap<u32, (QosKey, RequestId, Option<Verdict>)>,
        by_id: std::collections::HashMap<RequestId, u32>,
        order: std::collections::VecDeque<u32>,
    }

    impl Model {
        fn new(capacity: usize) -> Self {
            Model {
                capacity: capacity.max(1),
                entries: Default::default(),
                by_id: Default::default(),
                order: Default::default(),
            }
        }

        fn outcome(
            entry: Option<&(QosKey, RequestId, Option<Verdict>)>,
            k: &QosKey,
        ) -> DedupOutcome {
            match entry {
                Some((stored, _, Some(verdict))) if stored == k => DedupOutcome::Done(*verdict),
                Some((stored, _, None)) if stored == k => DedupOutcome::Pending,
                _ => DedupOutcome::Miss,
            }
        }

        fn lookup(&self, nonce: u32, k: &QosKey) -> DedupOutcome {
            Self::outcome(self.entries.get(&nonce), k)
        }

        fn lookup_legacy(&self, id: RequestId, k: &QosKey) -> DedupOutcome {
            Self::outcome(self.by_id.get(&id).and_then(|n| self.entries.get(n)), k)
        }

        fn insert_pending(&mut self, nonce: u32, id: RequestId, k: QosKey) {
            if let Some(old) = self.entries.insert(nonce, (k, id, None)) {
                if self.by_id.get(&old.1) == Some(&nonce) {
                    self.by_id.remove(&old.1);
                }
            } else {
                if self.order.len() >= self.capacity {
                    if let Some(evicted) = self.order.pop_front() {
                        if let Some(old) = self.entries.remove(&evicted) {
                            if self.by_id.get(&old.1) == Some(&evicted) {
                                self.by_id.remove(&old.1);
                            }
                        }
                    }
                }
                self.order.push_back(nonce);
            }
            self.by_id.insert(id, nonce);
        }

        fn record(&mut self, nonce: u32, k: &QosKey, verdict: Verdict) {
            if let Some(entry) = self.entries.get_mut(&nonce) {
                if entry.0 == *k {
                    entry.2 = Some(verdict);
                }
            }
        }
    }

    #[test]
    fn fixed_window_matches_the_hashmap_model_on_every_lookup() {
        use janus_hash::rng::Rng;
        // 24 nonces and 24 ids over three keys: collisions, overwrites,
        // shared ids and evictions are the common case, not the corner.
        const NONCES: u64 = 24;
        const IDS: u64 = 24;
        let keys = [key("a"), key("b"), key("c")];
        let mut rng = Rng::seed_from_u64(0xDED0_F1C5);
        for capacity in 1..=9usize {
            for case in 0..32 {
                let mut window = DedupWindow::new(capacity);
                let mut model = Model::new(capacity);
                for step in 0..300 {
                    let at = format!("capacity {capacity} case {case} step {step}");
                    let nonce = rng.gen_range(NONCES) as u32;
                    let id = rng.gen_range(IDS);
                    let k = &keys[rng.gen_range(keys.len() as u64) as usize];
                    match rng.gen_range(5) {
                        0 | 1 => {
                            window.insert_pending(nonce, id, k.clone());
                            model.insert_pending(nonce, id, k.clone());
                        }
                        2 => {
                            let verdict = if rng.gen_range(2) == 0 {
                                Verdict::Allow
                            } else {
                                Verdict::Deny
                            };
                            window.record(nonce, k, verdict);
                            model.record(nonce, k, verdict);
                        }
                        3 => assert_eq!(window.lookup(nonce, k), model.lookup(nonce, k), "{at}"),
                        _ => assert_eq!(
                            window.lookup_legacy(id, k),
                            model.lookup_legacy(id, k),
                            "{at}"
                        ),
                    }
                    assert_eq!(window.len(), model.entries.len(), "{at}");
                    assert!(window.len() <= capacity, "{at}");
                    for k in &keys {
                        for n in 0..NONCES as u32 {
                            assert_eq!(window.lookup(n, k), model.lookup(n, k), "{at} nonce {n}");
                        }
                        for id in 0..IDS {
                            assert_eq!(
                                window.lookup_legacy(id, k),
                                model.lookup_legacy(id, k),
                                "{at} id {id}"
                            );
                        }
                    }
                }
            }
        }
    }
}
