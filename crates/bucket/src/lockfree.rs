//! A lock-free QoS table: open addressing over inline [`AtomicBucket`]
//! slots, keyed by the 64-bit key digest, with **incremental resize** and
//! **idle-key reclamation** for bounded memory under keyspace churn.
//!
//! The decision hot path ([`LockFreeTable::decide`]) takes **no lock and
//! allocates nothing**: it probes a slot array comparing cached key
//! digests (one `Acquire` load per step) and charges the matching slot's
//! [`AtomicBucket`](crate::AtomicBucket) with a single CAS. Buckets live
//! *inline* in the slot array — no per-entry boxing, no pointer chase.
//!
//! # Slot protocol
//!
//! Each slot's `digest` word is a tiny state machine:
//!
//! ```text
//! EMPTY (0) ──CAS──▶ RESERVED (1) ──publish──▶ PUBLISHED (1<<63 | d62)
//!                        ▲                       │ remove / reclaim
//!                        └────────CAS────────────▼
//!                               TOMBSTONE (1<<62 | d62)
//!
//!            PUBLISHED ──freeze (migration)──▶ MOVED (both bits | d62)
//! ```
//!
//! * Insertion claims `EMPTY` by CAS, writes the key text and bucket while
//!   the slot is private, then publishes the digest with `Release`; a
//!   matching `Acquire` load on the read side makes the bucket visible.
//!   The text is never rewritten after the publish (a same-digest
//!   tombstone reuse writes identical bytes), so no slot needs a lock.
//! * Removal (and reclamation) demotes `PUBLISHED → TOMBSTONE`, *keeping
//!   the digest bits*: a tombstone may only be re-claimed by the **same**
//!   digest. This makes slot reuse ABA-safe without epochs — a decision
//!   racing a remove/re-insert can only ever touch a bucket for the same
//!   key.
//! * Probing walks linearly, passes tombstones and foreign digests, and
//!   stops at `EMPTY` or after [`LockFreeTable::MAX_PROBE`] steps. Writers
//!   wait out a `RESERVED` slot instead of passing it, and only an
//!   undone claim returns a slot to `EMPTY`, so no key sits past an
//!   `EMPTY` on its probe path: decisions, removals and update-only walks
//!   all stop there.
//!
//! # Slot layout
//!
//! One slot is 64 bytes, a cache line's worth, hot fields first:
//!
//! | field    | bytes | read by                                   |
//! |----------|-------|-------------------------------------------|
//! | `digest` | 8     | every probe step                          |
//! | `bucket` | 24    | the matched slot's decision (one CAS)     |
//! | `touch`  | 8     | the matched slot's decision, reclaim      |
//! | `text`   | 24    | control plane only (`keys`, `snapshot`, reclaim, migration) |
//!
//! `text` holds a length byte and up to [`INLINE_KEY_BYTES`] bytes of
//! UTF-8, the same bound as [`QosKey`]'s inline form. A key longer than
//! that leaves only its length in the slot; its text lives in a cold,
//! table-owned side map keyed by the 62-bit digest, counting the slots
//! that hold it (a claim or a migration carry adds one; a remove, a
//! reclaim or the old slot's freeze drops one; the entry goes at zero).
//! `decide` never touches the side map. Control-plane readers rebuild a
//! key from the text after an `Acquire` digest load and re-check the
//! digest afterwards; text that does not name a key with that digest (a
//! torn read, possible only when a 62-bit-colliding key re-claims the
//! slot mid-read) is retried, then skipped.
//!
//! The slot array is not line-aligned: glibc hands a large block out 16
//! bytes past a page boundary, so each slot spans two lines.
//! `#[repr(align(64))]` would fix that, but routes every array through
//! `posix_memalign`, and under glibc's dynamic mmap threshold freed
//! aligned arrays stayed resident: peak RSS on the million-key benchmark
//! rose by 51 MiB (EXPERIMENTS.md, "Free what a resize leaves behind").
//!
//! # Incremental resize
//!
//! Generations form a ladder of power-of-two arrays: when occupancy of the
//! active generation crosses ¾, a double-size successor is installed and
//! the old generation drains **cooperatively** — each `decide`/`insert`
//! first performs one bounded migration quantum
//! ([`LockFreeTable::MIGRATE_QUANTUM`] slots), so there is no
//! stop-the-world rehash and no operation ever does more than a constant
//! amount of migration work. Readers read `active` and `retired` before
//! their first probe, then probe new-then-old while a migration is in
//! flight.
//!
//! Moving a bucket is **credit-exact**: the migrator freezes the slot
//! (`PUBLISHED → MOVED` by CAS), then [`AtomicBucket::drain`]s it — the
//! drain zeroes the shape first so late consumers deny, and its final CAS
//! captures every charge that landed before it. A reader that took a
//! `Deny` from a bucket whose digest changed underneath it retries against
//! the successor (an `Allow` always stands: a successful charge is, by CAS
//! ordering, reflected in the drained credit). The migrator copies the
//! three text words; the carried slot keeps a long key's side-map hold.
//!
//! # Freeing retired generations
//!
//! Each rung of the ladder is one owning atomic pointer, null before its
//! install and after its unlink. Every public call that reads a
//! generation holds one *pin* for its whole duration: a `SeqCst`
//! increment of the caller's stripe of a per-table
//! [`Striped`]`<AtomicUsize>`, undone when the call returns. Every `&Gen`
//! borrows the pin it was loaded under, so no reference outlives it.
//!
//! The quantum that completes a migration stores `retired`, swaps the
//! drained rung to null (the *unlink*) and queues it. A queued rung is
//! freed once every stripe has been *seen at zero since its unlink*; each
//! queued rung keeps a mask of stripes not yet seen, so a table whose
//! stripes are never all idle at the same instant still frees. Any unpin
//! that finds the queue non-empty advances it under a `try_lock`: the
//! free path never waits. A reader that loads an unlinked (null) rung
//! re-resolves from `active`. Memory is the active array, at most one
//! draining predecessor, and rungs waiting for their stripes to go idle;
//! `Drop` frees whatever is still allocated.
//!
//! Sound because a reader's pin increment precedes its rung load, and an
//! unlink's swap precedes the stripe reads that free it, all four
//! `SeqCst`: a reader that loaded the rung before the swap keeps its
//! stripe non-zero until it unpins.
//!
//! # Idle-key reclamation
//!
//! Every slot carries a packed *touch word* — `(last_touched_tick << 40) |
//! touch_count` — updated with relaxed loads/stores on each decision
//! (racing touches may lose an update; hotness is approximate by design).
//! [`LockFreeTable::reclaim_idle`] sweeps the active generation, freezes
//! keys idle beyond a TTL (`PUBLISHED → RESERVED → TOMBSTONE`), drains
//! their buckets exactly and hands the rows back to the caller for
//! demotion to the cold tier. A reclaimed key readmitted later resumes
//! with the credit it left with (refill that would have accrued while
//! demoted is forfeited — the safe direction).
//!
//! # Overflow
//!
//! When a probe chain exceeds [`LockFreeTable::MAX_PROBE`] the rule is
//! parked in an internal [`ShardedTable`] so no rule is ever dropped; the
//! hot path checks that overflow only while it is non-empty (one relaxed
//! flag load). The flag **clears** when the overflow drains, and a
//! completed resize re-homes parked rules into the (now roomier) open
//! array.
//!
//! Keys match by their 64-bit FNV-1a digest alone (truncated to 62 bits by
//! the flag encoding): two distinct keys sharing a digest would share a
//! bucket. The birthday probability at `n` keys is ~`n²/2⁶³` — below
//! 10⁻⁹ for a million tenants — and the failure mode is two tenants
//! sharing a rate limit, not a safety violation.
//!
//! Misses still flow through the server's DB-fetch/default-policy
//! machinery: `decide` returns `None` exactly like the locked tables.

use crate::table::{QosTable, ReclaimedRule, ShardedTable, TableStats, TableStatsSnapshot};
use janus_clock::Nanos;
use janus_types::sync::{Mutex, Striped, STRIPES};
use janus_types::{Credits, QosKey, QosRule, RefillRate, Verdict, INLINE_KEY_BYTES, MAX_KEY_BYTES};
use std::collections::HashMap;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const EMPTY: u64 = 0;
const RESERVED: u64 = 1;
const PUBLISHED_BIT: u64 = 1 << 63;
const TOMBSTONE_BIT: u64 = 1 << 62;
const STATE_BITS: u64 = PUBLISHED_BIT | TOMBSTONE_BIT;
const DIGEST_MASK: u64 = TOMBSTONE_BIT - 1;

fn published(key: &QosKey) -> u64 {
    PUBLISHED_BIT | (key.digest() & DIGEST_MASK)
}

fn tombstone_of(published: u64) -> u64 {
    TOMBSTONE_BIT | (published & DIGEST_MASK)
}

/// A slot frozen for migration: both flag bits plus the digest.
fn moved_of(published: u64) -> u64 {
    STATE_BITS | (published & DIGEST_MASK)
}

fn is_published(d: u64) -> bool {
    d & STATE_BITS == PUBLISHED_BIT
}

// The touch word packs `(tick << 40) | count`, mirroring the bucket's own
// 24-bit / 1 ms anchor quantization (see `atomic.rs`).
const TOUCH_COUNT_BITS: u32 = 40;
const TOUCH_COUNT_MASK: u64 = (1 << TOUCH_COUNT_BITS) - 1;
const TOUCH_TICK_NANOS: u64 = 1_000_000;
const TOUCH_TICK_MASK: u64 = (1 << 24) - 1;
const TOUCH_TICK_HALF_RANGE: u64 = 1 << 23;

fn touch_tick(now: Nanos) -> u64 {
    (now.as_nanos() / TOUCH_TICK_NANOS) & TOUCH_TICK_MASK
}

fn pack_touch(tick: u64, count: u64) -> u64 {
    (tick << TOUCH_COUNT_BITS) | count.min(TOUCH_COUNT_MASK)
}

fn touch_parts(word: u64) -> (u64, u64) {
    (word >> TOUCH_COUNT_BITS, word & TOUCH_COUNT_MASK)
}

/// Shared gauge/counter cells the table engine writes and the QoS server
/// (or a bench harness) reads. Pass a clone of the same cells to
/// [`LockFreeTable::with_cells`] and to the stats exporter.
#[derive(Debug, Clone, Default)]
pub struct TableEngineCells {
    /// Bucket-level CAS retries on the decision path.
    pub cas_retries: Arc<AtomicU64>,
    /// Probe steps beyond the home slot (clustering / fill-factor proxy).
    pub probe_steps: Arc<AtomicU64>,
    /// Published entries in the open-addressed array (overflow excluded).
    pub open_slots: Arc<AtomicU64>,
    /// Slot count of the active generation.
    pub slot_count: Arc<AtomicU64>,
    /// Completed watermark-triggered generation installs.
    pub resizes: Arc<AtomicU64>,
    /// Live rules carried from an old generation to its successor.
    pub migrated_slots: Arc<AtomicU64>,
    /// Keys demoted by `reclaim_idle`.
    pub reclaimed_keys: Arc<AtomicU64>,
}

/// Key text words per slot: a length byte, then up to
/// [`INLINE_KEY_BYTES`] bytes of UTF-8, little-endian across the words.
const TEXT_WORDS: usize = 3;
const TEXT_BYTES: usize = TEXT_WORDS * 8;
const _: () = assert!(TEXT_BYTES == 1 + INLINE_KEY_BYTES);
const _: () = assert!(MAX_KEY_BYTES <= u8::MAX as usize);

type Text = [u64; TEXT_WORDS];

/// `key`'s slot text. A long key leaves only its length, which marks it
/// (a length past [`INLINE_KEY_BYTES`]): its text is in the side map.
fn encode_text(key: &QosKey) -> Text {
    let mut bytes = [0u8; TEXT_BYTES];
    bytes[0] = key.len() as u8;
    if key.len() <= INLINE_KEY_BYTES {
        bytes[1..=key.len()].copy_from_slice(key.as_bytes());
    }
    std::array::from_fn(|i| {
        let mut word = [0u8; 8];
        word.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
        u64::from_le_bytes(word)
    })
}

fn is_long(text: &Text) -> bool {
    (text[0] & 0xFF) as usize > INLINE_KEY_BYTES
}

/// The inline key `text` spells, or `None` for a long-key marker or bytes
/// that spell no key (a torn read).
fn decode_inline(text: &Text) -> Option<QosKey> {
    let mut bytes = [0u8; TEXT_BYTES];
    for (chunk, word) in bytes.chunks_exact_mut(8).zip(text) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    let len = usize::from(bytes[0]);
    if len > INLINE_KEY_BYTES {
        return None;
    }
    QosKey::new(std::str::from_utf8(&bytes[1..=len]).ok()?).ok()
}

/// One open-addressing slot: exactly one cache line (see the module docs'
/// layout table).
struct Slot {
    /// Slot state machine word (see module docs).
    digest: AtomicU64,
    /// The bucket, inline: no per-entry allocation.
    bucket: crate::AtomicBucket,
    /// Packed `(last_touched_tick << 40) | touch_count`; relaxed RMW on
    /// the decision path, read by the reclaim sweep.
    touch: AtomicU64,
    /// Key text (see [`encode_text`]), written with relaxed stores while
    /// the slot is `RESERVED` and never rewritten after the publish: the
    /// digest's `Release` publish and a reader's `Acquire` load order
    /// them. Read only by control-plane operations; never by `decide`.
    text: [AtomicU64; TEXT_WORDS],
}

const _: () = assert!(std::mem::size_of::<Slot>() == 64);

impl Slot {
    fn vacant() -> Self {
        Slot {
            digest: AtomicU64::new(EMPTY),
            bucket: crate::AtomicBucket::full(Credits::ZERO, RefillRate::ZERO, Nanos::ZERO),
            touch: AtomicU64::new(0),
            text: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn load_text(&self) -> Text {
        std::array::from_fn(|i| self.text[i].load(Ordering::Relaxed))
    }

    fn store_text(&self, text: Text) {
        for (word, value) in self.text.iter().zip(text) {
            word.store(value, Ordering::Relaxed);
        }
    }
}

/// One rung of the generation ladder.
struct Gen {
    slots: Box<[Slot]>,
    mask: usize,
    /// Next slot index a migration quantum will claim once this
    /// generation has a successor.
    migrate_next: AtomicUsize,
    /// Slots fully processed by migrators; `== slots.len()` retires the
    /// generation.
    migrate_done: AtomicUsize,
}

impl Gen {
    fn new(slots: usize) -> Self {
        Gen {
            slots: (0..slots).map(|_| Slot::vacant()).collect(),
            mask: slots - 1,
            migrate_next: AtomicUsize::new(0),
            migrate_done: AtomicUsize::new(0),
        }
    }

    fn probe_limit(&self) -> usize {
        LockFreeTable::MAX_PROBE.min(self.slots.len())
    }
}

/// One rung of the generation ladder (module docs, "Freeing retired
/// generations").
#[derive(Default)]
struct Rung {
    /// The generation readers resolve, from `Box::into_raw`: null before
    /// the install and after the unlink.
    live: AtomicPtr<Gen>,
    /// The unlinked generation while it waits for its free; null before
    /// the unlink and after the free.
    unlinked: AtomicPtr<Gen>,
    /// Stripes not yet seen unpinned since the unlink. Set before
    /// `unlinked` is published, then written only under
    /// [`LockFreeTable::freeing`].
    unseen: AtomicUsize,
}

/// Every stripe, as an `unseen` mask.
const ALL_STRIPES: usize = (1 << STRIPES) - 1;

/// One public call's hold on the generation ladder: while it lives, no
/// rung the call loaded is freed, and every `&Gen` borrows it.
struct Pin<'t> {
    table: &'t LockFreeTable,
    stripe: &'t AtomicUsize,
}

impl Pin<'_> {
    /// Rung `i`'s generation, or `None` before its install and after its
    /// unlink.
    fn gen(&self, i: usize) -> Option<&Gen> {
        let gen = self.table.rungs[i].live.load(Ordering::SeqCst);
        // SAFETY: a non-null `live` pointer came from `Box::into_raw` and
        // is freed only after the rung's unlink, once every stripe has
        // been seen at zero since then. Our SeqCst stripe increment
        // precedes this SeqCst load, which read the pointer before the
        // unlink's SeqCst swap; so our stripe stays non-zero from before
        // the swap until this pin drops, and the borrow cannot outlive
        // the pin.
        unsafe { gen.as_ref() }
    }

    /// `(active index, draining predecessor, active)`, from `active` and
    /// `retired` both read before the caller's first probe. A rung
    /// unlinked since `active` was read re-resolves from the fresh value.
    fn live(&self) -> (usize, Option<&Gen>, &Gen) {
        loop {
            let active = self.table.active.load(Ordering::Acquire);
            let draining = if self.table.retired.load(Ordering::Acquire) < active {
                match self.gen(active - 1) {
                    Some(old) => Some(old),
                    None => continue,
                }
            } else {
                None
            };
            if let Some(gen) = self.gen(active) {
                return (active, draining, gen);
            }
        }
    }
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.stripe.fetch_sub(1, Ordering::SeqCst);
        if self.table.awaiting_free.load(Ordering::Acquire) > 0 {
            self.table.free_quiescent();
        }
    }
}

/// Outcome of one generation walk on the insert/update path.
enum GenOutcome {
    /// The rule was applied (in place or into a fresh slot).
    Done,
    /// The key is mid-migration or was frozen under us: re-resolve.
    Retry,
    /// The key is not in this generation (or its probe chain is full),
    /// found after examining `walked` slots.
    Missing { walked: usize },
}

/// A frozen slot's state on its way to the successor generation.
struct Carried {
    text: Text,
    touch: u64,
    /// `(capacity, refill_rate, credit)` from [`AtomicBucket::drain`](crate::AtomicBucket::drain).
    drained: (Credits, RefillRate, Credits),
}

/// What charging a matched slot (a decide or a drain) concluded.
enum Charged<T> {
    Done(T),
    /// The slot was frozen under the charge: re-resolve the key.
    Retry,
}

/// Outcome of one generation walk on a charging path.
enum Probe<T> {
    Done(T),
    Retry,
    Missing,
}

/// The lock-free QoS table (see module docs for the slot protocol, the
/// incremental resize, and the reclamation sweep).
pub struct LockFreeTable {
    /// Generation ladder: rung `i` holds `initial_slots << i` slots. Only
    /// `active` and (mid-migration) `active - 1` are allocated, plus
    /// unlinked rungs waiting for their free; read through a [`Pin`].
    rungs: Box<[Rung]>,
    active: AtomicUsize,
    /// Count of fully drained generations. `retired == active` means no
    /// migration is in flight; the invariant `retired >= active - 1`
    /// (one migration at a time) always holds.
    retired: AtomicUsize,
    /// Unlinked rungs not yet freed (never fewer): every unpin reads it.
    awaiting_free: AtomicUsize,
    /// Public calls in flight, per thread stripe.
    pins: Striped<AtomicUsize>,
    /// Held (by `try_lock` only) while installing a successor.
    installing: Mutex<()>,
    /// Held (by `try_lock` only) while advancing the free queue.
    freeing: Mutex<()>,
    /// Allocated generations (tests count leaks and double frees).
    #[cfg(test)]
    gens_alive: Arc<AtomicUsize>,
    resizable: bool,
    /// Resume point for capped reclaim sweeps.
    reclaim_cursor: AtomicUsize,
    /// Probe-limit escape hatch; almost always empty.
    overflow: ShardedTable,
    overflow_in_use: AtomicBool,
    /// Text of keys longer than [`INLINE_KEY_BYTES`], by 62-bit digest,
    /// with the number of slots publishing or carrying it (module docs).
    /// Cold: `decide` never touches it.
    long_keys: Mutex<HashMap<u64, (QosKey, u32)>>,
    /// Striped on cache lines of their own, as in [`ShardedTable`]: every
    /// decision bumps a counter, and every decision first reads `active`,
    /// `retired` and the `rungs` header.
    stats: TableStats,
    cells: TableEngineCells,
}

impl LockFreeTable {
    /// Default slot count (power of two). Comfortable for tens of
    /// thousands of tenant rules before probe chains grow — and with the
    /// resizable ladder, a deliberately small starting size is fine too.
    pub const DEFAULT_SLOTS: usize = 16_384;

    /// Longest probe chain before a rule is parked in the overflow table.
    pub const MAX_PROBE: usize = 128;

    /// Old-generation slots one operation migrates before doing its own
    /// work: the incremental-resize work bound.
    pub const MIGRATE_QUANTUM: usize = 8;

    /// Resize when published entries reach ¾ of the active array.
    const WATERMARK_NUM: usize = 3;
    const WATERMARK_DEN: usize = 4;

    /// A resizable table with [`Self::DEFAULT_SLOTS`] initial slots.
    pub fn new() -> Self {
        Self::with_slots(Self::DEFAULT_SLOTS)
    }

    /// A resizable table with at least `slots` initial slots (rounded up
    /// to a power of two).
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn with_slots(slots: usize) -> Self {
        Self::with_cells(slots, TableEngineCells::default())
    }

    /// A fixed-capacity table: never resizes, probe exhaustion parks
    /// rules in the overflow (the pre-resize behavior; the "fixed" arm
    /// of DESIGN.md ablation 14).
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn fixed(slots: usize) -> Self {
        Self::build(slots, TableEngineCells::default(), false)
    }

    /// A resizable table whose gauge/counter cells are shared with the
    /// caller (the QoS server passes its `ServerStats` cells here so
    /// `ServerStats::snapshot()` exposes live table-engine state).
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn with_cells(slots: usize, cells: TableEngineCells) -> Self {
        Self::build(slots, cells, true)
    }

    fn build(slots: usize, cells: TableEngineCells, resizable: bool) -> Self {
        assert!(slots > 0, "need at least one slot");
        let slots = slots.next_power_of_two();
        // Enough rungs to double up to 2^32 slots; past that the table
        // simply stops resizing and leans on the overflow. At most 33, so
        // a `u64` names any set of them.
        let rungs = if resizable {
            (33usize.saturating_sub(slots.trailing_zeros() as usize)).max(1)
        } else {
            1
        };
        cells.slot_count.store(slots as u64, Ordering::Relaxed);
        cells.open_slots.store(0, Ordering::Relaxed);
        let table = LockFreeTable {
            rungs: (0..rungs).map(|_| Rung::default()).collect(),
            active: AtomicUsize::new(0),
            retired: AtomicUsize::new(0),
            awaiting_free: AtomicUsize::new(0),
            pins: Striped::default(),
            installing: Mutex::new(()),
            freeing: Mutex::new(()),
            #[cfg(test)]
            gens_alive: Arc::default(),
            resizable,
            reclaim_cursor: AtomicUsize::new(0),
            overflow: ShardedTable::new(),
            overflow_in_use: AtomicBool::new(false),
            long_keys: Mutex::new(HashMap::new()),
            stats: TableStats::default(),
            cells,
        };
        table.rungs[0]
            .live
            .store(Box::into_raw(table.new_gen(slots)), Ordering::SeqCst);
        table
    }

    /// Total CAS retries observed across all decisions so far.
    pub fn cas_retries(&self) -> u64 {
        self.cells.cas_retries.load(Ordering::Relaxed)
    }

    /// Total probe steps beyond the home slot across all decisions so far.
    pub fn probe_steps(&self) -> u64 {
        self.cells.probe_steps.load(Ordering::Relaxed)
    }

    /// A clone of the gauge/counter cells this table writes.
    pub fn engine_cells(&self) -> TableEngineCells {
        self.cells.clone()
    }

    /// Hold the ladder for one public call (module docs).
    fn pin(&self) -> Pin<'_> {
        let stripe = self.pins.mine();
        stripe.fetch_add(1, Ordering::SeqCst);
        Pin {
            table: self,
            stripe,
        }
    }

    /// A fresh generation of `slots` vacant slots.
    fn new_gen(&self, slots: usize) -> Box<Gen> {
        #[cfg(test)]
        self.gens_alive.fetch_add(1, Ordering::Relaxed);
        Box::new(Gen::new(slots))
    }

    /// Free a generation no reader can reach (or ever could).
    fn free_gen(&self, gen: Box<Gen>) {
        #[cfg(test)]
        self.gens_alive.fetch_sub(1, Ordering::Relaxed);
        drop(gen);
    }

    /// Take fully drained rung `i` out of the ladder and queue it for its
    /// free. Runs once per rung: in the quantum that retires it.
    fn unlink(&self, i: usize) {
        let rung = &self.rungs[i];
        let gen = rung.live.swap(ptr::null_mut(), Ordering::SeqCst);
        rung.unseen.store(ALL_STRIPES, Ordering::Relaxed);
        // Counted before it is visible, so the count never runs short.
        self.awaiting_free.fetch_add(1, Ordering::SeqCst);
        rung.unlinked.store(gen, Ordering::SeqCst);
    }

    /// Free every queued rung whose stripes have all been seen at zero
    /// since its unlink. Never waits: a caller that finds another thread
    /// advancing the queue leaves it to that one.
    fn free_quiescent(&self) {
        let Some(_freeing) = self.freeing.try_lock() else {
            return;
        };
        // Only rungs unlinked before the stripe reads below may count them.
        let mut waiting = 0u64;
        for (i, rung) in self.rungs.iter().enumerate() {
            if !rung.unlinked.load(Ordering::SeqCst).is_null() {
                waiting |= 1 << i;
            }
        }
        if waiting == 0 {
            return;
        }
        let mut idle = 0;
        for (s, pins) in self.pins.iter().enumerate() {
            if pins.load(Ordering::SeqCst) == 0 {
                idle |= 1 << s;
            }
        }
        for (i, rung) in self.rungs.iter().enumerate() {
            if waiting & (1 << i) == 0 {
                continue;
            }
            let unseen = rung.unseen.load(Ordering::Relaxed) & !idle;
            rung.unseen.store(unseen, Ordering::Relaxed);
            if unseen == 0 {
                let gen = rung.unlinked.swap(ptr::null_mut(), Ordering::SeqCst);
                // SAFETY: `gen` came from `Box::into_raw` and was swapped
                // out of `live` before this call read `unlinked`; every
                // stripe has since been seen at zero, so every pin that
                // could have loaded it has dropped, and no later load
                // finds it. The swap above hands it to this thread alone.
                self.free_gen(unsafe { Box::from_raw(gen) });
                self.awaiting_free.fetch_sub(1, Ordering::Release);
            }
        }
    }

    fn overflow_active(&self) -> bool {
        self.overflow_in_use.load(Ordering::Relaxed)
    }

    /// Write `key`'s text into `slot`, which the caller holds `RESERVED`;
    /// a long key's side-map entry counts the slot.
    fn write_key(&self, slot: &Slot, key: &QosKey) {
        slot.store_text(encode_text(key));
        if key.len() > INLINE_KEY_BYTES {
            self.long_keys
                .lock()
                .entry(key.digest() & DIGEST_MASK)
                .or_insert_with(|| (key.clone(), 0))
                .1 += 1;
        }
    }

    /// A slot holding `text` stopped publishing (or carrying) digest `d`:
    /// drop its hold on a long key's side-map entry, and the entry with
    /// its last holder.
    fn release_key(&self, text: &Text, d: u64) {
        if !is_long(text) {
            return;
        }
        let mut long_keys = self.long_keys.lock();
        if let Some((_, holders)) = long_keys.get_mut(&(d & DIGEST_MASK)) {
            *holders -= 1;
            if *holders == 0 {
                long_keys.remove(&(d & DIGEST_MASK));
            }
        }
    }

    /// The key `text` names, if it is one with digest `d`.
    fn key_of(&self, text: &Text, d: u64) -> Option<QosKey> {
        let key = if is_long(text) {
            let long_keys = self.long_keys.lock();
            long_keys
                .get(&(d & DIGEST_MASK))
                .map(|(key, _)| key.clone())?
        } else {
            decode_inline(text)?
        };
        (key.digest() & DIGEST_MASK == d & DIGEST_MASK).then_some(key)
    }

    /// The key `slot` publishes, read without a lock: an `Acquire` digest
    /// load, the text, then a re-check of the digest. Text that names no
    /// key with that digest is a torn read (a 62-bit-colliding key
    /// re-claimed the slot mid-read): retried a few times, then skipped.
    fn published_key(&self, slot: &Slot) -> Option<QosKey> {
        const TORN_READ_TRIES: usize = 4;
        for _ in 0..TORN_READ_TRIES {
            let d = slot.digest.load(Ordering::Acquire);
            if !is_published(d) {
                return None;
            }
            let text = slot.load_text();
            // Orders the text loads before the re-check (a seqlock read).
            fence(Ordering::Acquire);
            if slot.digest.load(Ordering::Relaxed) != d {
                continue;
            }
            if let Some(key) = self.key_of(&text, d) {
                return Some(key);
            }
        }
        None
    }

    /// Record `decisions` against the slot's touch word. Plain
    /// load+store: a racing touch may be lost, which only makes hotness
    /// approximate.
    fn note_touch(slot: &Slot, now: Nanos, decisions: u64) {
        let (_, count) = touch_parts(slot.touch.load(Ordering::Relaxed));
        slot.touch.store(
            pack_touch(touch_tick(now), count.saturating_add(decisions)),
            Ordering::Relaxed,
        );
    }

    fn note_retries(&self, retries: u64) {
        if retries > 0 {
            self.cells.cas_retries.fetch_add(retries, Ordering::Relaxed);
        }
    }

    /// Park a rule in the overflow. The insert lands *before* the flag is
    /// raised so the flag is never clear while a parked rule exists (see
    /// `clear_overflow_flag_if_drained` for the matching clear protocol).
    fn park_in_overflow(&self, rule: QosRule, now: Nanos, overwrite: bool) {
        if overwrite {
            self.overflow.restore(vec![rule], now);
        } else {
            self.overflow.insert(rule, now);
        }
        self.overflow_in_use.store(true, Ordering::Relaxed);
    }

    /// Drop the overflow flag if the overflow has drained. A concurrent
    /// park re-checks after its insert; the clear-then-recheck below
    /// closes the remaining interleavings: if a park lands between our
    /// emptiness check and the clear, the recheck restores the flag, and
    /// a park that lands after the recheck raises the flag itself (its
    /// insert precedes its flag store).
    fn clear_overflow_flag_if_drained(&self) {
        if self.overflow_in_use.load(Ordering::Relaxed) && self.overflow.is_empty() {
            self.overflow_in_use.store(false, Ordering::Relaxed);
            if !self.overflow.is_empty() {
                self.overflow_in_use.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Perform one bounded quantum of migration work if a generation is
    /// draining. Public so callers with idle cycles (housekeeping loops,
    /// schedule-driven tests) can help a migration along; `decide` and
    /// `insert` call it implicitly.
    pub fn run_migration_quantum(&self, now: Nanos) {
        self.migration_quantum(&self.pin(), now);
    }

    /// [`Self::run_migration_quantum`] under the caller's pin.
    fn migration_quantum(&self, pin: &Pin<'_>, now: Nanos) {
        let active = self.active.load(Ordering::SeqCst);
        if self.retired.load(Ordering::Acquire) >= active {
            return;
        }
        let (Some(old), Some(new)) = (pin.gen(active - 1), pin.gen(active)) else {
            return; // unlinked since `active` was read: that migration is over
        };
        let len = old.slots.len();
        let start = old
            .migrate_next
            .fetch_add(Self::MIGRATE_QUANTUM, Ordering::AcqRel);
        if start >= len {
            return; // fully claimed; stragglers are finishing their ranges
        }
        let end = (start + Self::MIGRATE_QUANTUM).min(len);
        for idx in start..end {
            self.migrate_slot(old, new, idx, now);
        }
        let done = old.migrate_done.fetch_add(end - start, Ordering::AcqRel) + (end - start);
        if done == len {
            self.retired.store(active, Ordering::Release);
            self.unlink(active - 1);
            // The doubled array usually has room for rules a crowded
            // predecessor parked in the overflow: re-home them now.
            self.rehome_overflow(pin, now);
            // Our own stripe is pinned, but others may already be idle.
            self.free_quiescent();
        }
    }

    /// Carry one old-generation slot to the successor, credit-exactly.
    fn migrate_slot(&self, old: &Gen, new: &Gen, idx: usize, now: Nanos) {
        let slot = &old.slots[idx];
        loop {
            let d = slot.digest.load(Ordering::SeqCst);
            if !is_published(d) {
                if d == RESERVED {
                    // An insert claimed this slot just before the
                    // generation flipped; wait out its publish stores
                    // (or its undo — see `walk_gen`).
                    std::hint::spin_loop();
                    continue;
                }
                return; // EMPTY, tombstone or already moved: nothing live
            }
            if slot
                .digest
                .compare_exchange(d, moved_of(d), Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue; // racing remove/reclaim: re-examine
            }
            // Frozen: readers retry against the successor from here on,
            // and nobody rewrites the text of a frozen slot.
            let carried = Carried {
                text: slot.load_text(),
                touch: slot.touch.load(Ordering::Relaxed),
                drained: slot.bucket.drain(now),
            };
            self.cells.open_slots.fetch_sub(1, Ordering::Relaxed);
            self.cells.migrated_slots.fetch_add(1, Ordering::Relaxed);
            self.place_carried(new, d, carried, now);
            return;
        }
    }

    /// Publish a migrated slot into the successor generation, preserving
    /// its text and touch words; a long key's side-map hold moves with it.
    /// The key cannot be concurrently published there (inserters wait out
    /// a move in flight), so this is a plain claim; if even the doubled
    /// array's probe chain is full, the rule parks in the overflow — never
    /// dropped either way.
    fn place_carried(&self, gen: &Gen, wanted: u64, carried: Carried, now: Nanos) {
        let (capacity, refill_rate, credit) = carried.drained;
        let mut idx = (wanted & DIGEST_MASK) as usize & gen.mask;
        for _ in 0..gen.probe_limit() {
            let slot = &gen.slots[idx];
            loop {
                let d = slot.digest.load(Ordering::Acquire);
                if d == wanted {
                    // Defensive only: fold the carried state in as an
                    // overwrite so no credit is minted.
                    let rule = self.carried_rule(&carried, wanted);
                    slot.bucket.apply_rule_update(&rule, now);
                    slot.bucket.set_credit(credit, now);
                    return;
                }
                if d == EMPTY || d == tombstone_of(wanted) {
                    if slot
                        .digest
                        .compare_exchange(d, RESERVED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        slot.store_text(carried.text);
                        slot.bucket.store(capacity, refill_rate, credit, now);
                        slot.touch.store(carried.touch, Ordering::Relaxed);
                        slot.digest.store(wanted, Ordering::Release);
                        self.cells.open_slots.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    continue;
                }
                if d == RESERVED {
                    std::hint::spin_loop();
                    continue;
                }
                break;
            }
            idx = (idx + 1) & gen.mask;
        }
        let rule = self.carried_rule(&carried, wanted);
        self.park_in_overflow(rule, now, true);
    }

    /// A carried slot that lands in no new slot: its rule, with the
    /// carry's side-map hold dropped.
    fn carried_rule(&self, carried: &Carried, wanted: u64) -> QosRule {
        let key = self
            .key_of(&carried.text, wanted)
            .expect("a frozen slot's text names its key");
        self.release_key(&carried.text, wanted);
        let (capacity, refill_rate, credit) = carried.drained;
        QosRule {
            key,
            capacity,
            refill_rate,
            credit,
        }
    }

    /// After a resize completes, move parked overflow rules back into the
    /// open array. `take` captures each rule's credit atomically with its
    /// removal, so no charge is lost; a key mid-flight here briefly
    /// misses (the safe direction), exactly like any other miss.
    fn rehome_overflow(&self, pin: &Pin<'_>, now: Nanos) {
        if !self.overflow_active() {
            return;
        }
        for key in self.overflow.keys() {
            if let Some(rule) = self.overflow.take(&key, now) {
                self.place(pin, rule, now, true);
            }
        }
        self.clear_overflow_flag_if_drained();
    }

    /// Install a double-size successor when the watermark is crossed.
    fn maybe_resize(&self, pin: &Pin<'_>) {
        if !self.resizable {
            return;
        }
        let Some(due) = self.successor_due(pin) else {
            return;
        };
        // Allocated before the lock, which then covers only the flip: a
        // holder descheduled mid-allocation would leave every other
        // inserter filling the full array.
        let fresh = self.new_gen(due.1 * 2);
        // A thread already holding the lock is doing exactly this; the
        // loser drops its fresh array. Under the lock `active` cannot
        // move, so re-checking there installs each rung once, and never
        // into a rung an unlink has nulled again.
        let Some(_installing) = self.installing.try_lock() else {
            return self.free_gen(fresh);
        };
        if self.successor_due(pin) != Some(due) {
            return self.free_gen(fresh);
        }
        let (active, slots) = due;
        self.rungs[active + 1]
            .live
            .store(Box::into_raw(fresh), Ordering::SeqCst);
        self.cells.resizes.fetch_add(1, Ordering::Relaxed);
        self.cells
            .slot_count
            .store((slots * 2) as u64, Ordering::Relaxed);
        self.active.store(active + 1, Ordering::SeqCst);
    }

    /// `(active, its slot count)` when the active generation has crossed
    /// the watermark and may get a successor.
    fn successor_due(&self, pin: &Pin<'_>) -> Option<(usize, usize)> {
        let active = self.active.load(Ordering::SeqCst);
        if self.retired.load(Ordering::Acquire) < active {
            return None; // one migration at a time
        }
        if active + 1 >= self.rungs.len() {
            return None; // ladder exhausted (2^32 slots): behave as fixed
        }
        let slots = pin.gen(active)?.slots.len();
        let open = self.cells.open_slots.load(Ordering::Relaxed) as usize;
        (open * Self::WATERMARK_DEN >= slots * Self::WATERMARK_NUM).then_some((active, slots))
    }

    /// One insert/update walk over `gen`. With `allow_claim` this is the
    /// full insert-or-update protocol; without it, update-in-place only
    /// (used against the draining predecessor, whose migrator will carry
    /// the updated state, and by [`QosTable::apply_update`]), which stops
    /// at the first `EMPTY` like every other lookup.
    #[allow(clippy::too_many_arguments)]
    fn walk_gen(
        &self,
        gen: &Gen,
        active_idx: usize,
        rule: &QosRule,
        wanted: u64,
        now: Nanos,
        overwrite: bool,
        allow_claim: bool,
    ) -> GenOutcome {
        let mut idx = rule.key.digest() as usize & gen.mask;
        for step in 0..gen.probe_limit() {
            let slot = &gen.slots[idx];
            loop {
                let d = slot.digest.load(Ordering::Acquire);
                if d == wanted {
                    slot.bucket.apply_rule_update(rule, now);
                    if overwrite {
                        slot.bucket.set_credit(rule.credit, now);
                    }
                    if slot.digest.load(Ordering::Acquire) != wanted {
                        // Frozen under us (migration or reclamation): the
                        // update may not have been captured — re-apply
                        // against wherever the key lands.
                        return GenOutcome::Retry;
                    }
                    return GenOutcome::Done;
                }
                if d == moved_of(wanted) {
                    return GenOutcome::Retry; // move in flight: wait it out
                }
                if d == EMPTY && !allow_claim {
                    return GenOutcome::Missing { walked: step + 1 };
                }
                if allow_claim && (d == EMPTY || d == tombstone_of(wanted)) {
                    if slot
                        .digest
                        .compare_exchange(d, RESERVED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        continue; // lost the claim race: re-examine
                    }
                    // The generation may have flipped since the caller
                    // sampled `active`; a claim completed behind the new
                    // migration cursor would be stranded in a retired
                    // array. Nobody passes a RESERVED slot on the write
                    // path, so un-claiming is safe. (SeqCst on this CAS,
                    // on the recheck below, on the flip store and on the
                    // migrator's digest reads makes the race a clean
                    // either/or: the migrator sees our reservation, or we
                    // see the flip.)
                    if self.active.load(Ordering::SeqCst) != active_idx {
                        slot.digest.store(d, Ordering::SeqCst);
                        return GenOutcome::Retry;
                    }
                    self.write_key(slot, &rule.key);
                    slot.bucket.store_rule(rule, now);
                    slot.touch
                        .store(pack_touch(touch_tick(now), 0), Ordering::Relaxed);
                    slot.digest.store(wanted, Ordering::Release);
                    self.cells.open_slots.fetch_add(1, Ordering::Relaxed);
                    if self.overflow_active() {
                        // An earlier probe-limit miss may have parked this
                        // key; the open slot shadows it, so drop the copy.
                        self.overflow.remove(&rule.key);
                        self.clear_overflow_flag_if_drained();
                    }
                    return GenOutcome::Done;
                }
                if d == RESERVED {
                    // Another writer is mid-publish (or mid-undo); wait to
                    // see what the slot becomes. Bounded: a few stores.
                    std::hint::spin_loop();
                    continue;
                }
                break; // foreign digest / unclaimable state: next slot
            }
            idx = (idx + 1) & gen.mask;
        }
        GenOutcome::Missing {
            walked: gen.probe_limit(),
        }
    }

    /// Insert-or-update (`overwrite == false`, the [`QosTable::insert`]
    /// contract) or overwrite (`overwrite == true`, the
    /// [`QosTable::restore`] contract).
    fn place(&self, pin: &Pin<'_>, rule: QosRule, now: Nanos, overwrite: bool) {
        let wanted = published(&rule.key);
        loop {
            let active = self.active.load(Ordering::SeqCst);
            let Some(gen) = pin.gen(active) else {
                continue; // unlinked since `active` was read: re-resolve
            };
            // A draining predecessor may still hold the key: update it in
            // place there (the migrator carries the updated state) or wait
            // out a move in flight. Checking old-before-claim keeps every
            // key single-homed.
            if self.retired.load(Ordering::Acquire) < active {
                let Some(old) = pin.gen(active - 1) else {
                    continue;
                };
                match self.walk_gen(old, active, &rule, wanted, now, overwrite, false) {
                    GenOutcome::Done => return,
                    GenOutcome::Retry => {
                        // Moved, or being moved: update the key where its
                        // carry lands. Never claim there — the carry does.
                        if let GenOutcome::Done =
                            self.walk_gen(gen, active, &rule, wanted, now, overwrite, false)
                        {
                            return;
                        }
                        std::hint::spin_loop();
                        continue;
                    }
                    GenOutcome::Missing { .. } => {}
                }
            }
            match self.walk_gen(gen, active, &rule, wanted, now, overwrite, true) {
                GenOutcome::Done => {
                    self.maybe_resize(pin);
                    return;
                }
                GenOutcome::Retry => continue,
                GenOutcome::Missing { walked } => {
                    // Probe chain exhausted (a claiming walk stops at the
                    // first EMPTY by taking it): park so the rule is never
                    // lost.
                    debug_assert_eq!(walked, gen.probe_limit());
                    self.park_in_overflow(rule, now, overwrite);
                    return;
                }
            }
        }
    }

    /// One charging walk over `gen`: find `wanted`'s slot and hand it to
    /// `charge`.
    fn probe<T>(
        &self,
        gen: &Gen,
        wanted: u64,
        home: usize,
        charge: &mut impl FnMut(&Slot) -> Charged<T>,
    ) -> Probe<T> {
        let mut idx = home & gen.mask;
        for step in 0..gen.probe_limit() {
            let slot = &gen.slots[idx];
            let d = slot.digest.load(Ordering::Acquire);
            if d == wanted {
                if step > 0 {
                    self.cells
                        .probe_steps
                        .fetch_add(step as u64, Ordering::Relaxed);
                }
                return match charge(slot) {
                    Charged::Done(out) => Probe::Done(out),
                    Charged::Retry => Probe::Retry,
                };
            }
            if d == moved_of(wanted) {
                return Probe::Retry; // move in flight: successor has it
            }
            if d == EMPTY {
                return Probe::Missing;
            }
            idx = (idx + 1) & gen.mask;
        }
        Probe::Missing
    }

    /// Resolve `key` in the open array — active generation first, then a
    /// draining predecessor — and run `charge` on its slot. `charge`
    /// returns [`Charged::Retry`] when the slot was frozen under it (a
    /// migration or reclamation drained the bucket), and runs again on
    /// wherever the key lands. `None`: the key is not in the open array.
    fn charge_open<T>(
        &self,
        pin: &Pin<'_>,
        key: &QosKey,
        mut charge: impl FnMut(&Slot) -> Charged<T>,
    ) -> Option<T> {
        let wanted = published(key);
        let home = key.digest() as usize;
        loop {
            // Both generations are resolved before the first probe: a
            // predecessor noticed only after a miss in the active array
            // could have retired, carry and all, in between.
            let (active, draining, gen) = pin.live();
            match self.probe(gen, wanted, home, &mut charge) {
                Probe::Done(out) => return Some(out),
                Probe::Retry => continue,
                Probe::Missing => {}
            }
            if let Some(old) = draining {
                match self.probe(old, wanted, home, &mut charge) {
                    Probe::Done(out) => return Some(out),
                    Probe::Retry => {
                        std::hint::spin_loop();
                        continue;
                    }
                    Probe::Missing => {}
                }
                // A resize may have flipped generations between the two
                // probes; re-run against the fresh pair if so.
                if self.active.load(Ordering::Acquire) != active {
                    continue;
                }
            }
            return None;
        }
    }
}

impl Drop for LockFreeTable {
    fn drop(&mut self) {
        for i in 0..self.rungs.len() {
            let rung = &mut self.rungs[i];
            for gen in [*rung.live.get_mut(), *rung.unlinked.get_mut()] {
                if !gen.is_null() {
                    // SAFETY: every non-null rung pointer came from
                    // `Box::into_raw` and is stored in exactly one of the
                    // two fields (an unlink moves it, a free nulls it);
                    // `&mut self` means no pin, so no reader, is left.
                    self.free_gen(unsafe { Box::from_raw(gen) });
                }
            }
        }
    }
}

impl Default for LockFreeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl QosTable for LockFreeTable {
    fn decide(&self, key: &QosKey, now: Nanos) -> Option<Verdict> {
        let pin = self.pin();
        self.migration_quantum(&pin, now);
        let wanted = published(key);
        let decided = self.charge_open(&pin, key, |slot| {
            let (verdict, retries) = slot.bucket.try_consume_counted(now);
            self.note_retries(retries);
            if verdict == Verdict::Deny && slot.digest.load(Ordering::Acquire) != wanted {
                // This deny may reflect a drained husk, not a dry bucket.
                // Allows always stand — a successful charge is captured
                // by the drain.
                return Charged::Retry;
            }
            Self::note_touch(slot, now, 1);
            self.stats.record(verdict);
            Charged::Done(verdict)
        });
        if decided.is_some() {
            return decided;
        }
        if self.overflow_active() {
            return self.overflow.decide(key, now);
        }
        self.stats.record_miss();
        None
    }

    fn consume_up_to(&self, key: &QosKey, n: u64, now: Nanos) -> u64 {
        if n == 0 {
            return 0;
        }
        let pin = self.pin();
        self.migration_quantum(&pin, now);
        let wanted = published(key);
        let mut taken = 0;
        let found = self.charge_open(&pin, key, |slot| {
            let (got, retries) = slot.bucket.try_consume_up_to(n - taken, now);
            self.note_retries(retries);
            // A partial take stands like an Allow (the drain captures
            // it); only the shortfall re-resolves.
            taken += got;
            self.stats.record_allows(got);
            if taken < n && slot.digest.load(Ordering::Acquire) != wanted {
                return Charged::Retry;
            }
            Self::note_touch(slot, now, got);
            Charged::Done(())
        });
        if found.is_none() && self.overflow_active() {
            taken += self.overflow.consume_up_to(key, n - taken, now);
        }
        taken
    }

    fn shape(&self, key: &QosKey) -> Option<(Credits, RefillRate)> {
        let wanted = published(key);
        let home = key.digest() as usize;
        let pin = self.pin();
        'retry: loop {
            let (_, draining, active) = pin.live();
            for gen in [Some(active), draining].into_iter().flatten() {
                let mut idx = home & gen.mask;
                for _ in 0..gen.probe_limit() {
                    let slot = &gen.slots[idx];
                    let d = slot.digest.load(Ordering::Acquire);
                    if d == wanted {
                        let shape = (slot.bucket.capacity(), slot.bucket.refill_rate());
                        if slot.digest.load(Ordering::Acquire) != wanted {
                            // Drained under us: the shape read may be the
                            // zeroed husk. Re-resolve.
                            std::hint::spin_loop();
                            continue 'retry;
                        }
                        return Some(shape);
                    }
                    if d == moved_of(wanted) {
                        std::hint::spin_loop();
                        continue 'retry;
                    }
                    if d == EMPTY {
                        break;
                    }
                    idx = (idx + 1) & gen.mask;
                }
            }
            break;
        }
        if self.overflow_active() {
            return self.overflow.shape(key);
        }
        None
    }

    fn insert(&self, rule: QosRule, now: Nanos) {
        let pin = self.pin();
        self.migration_quantum(&pin, now);
        self.place(&pin, rule, now, false);
    }

    fn apply_update(&self, rule: &QosRule, now: Nanos) -> bool {
        let wanted = published(&rule.key);
        let pin = self.pin();
        loop {
            // Both generations resolved before the first walk, as in
            // `charge_open`.
            let (active, draining, gen) = pin.live();
            match self.walk_gen(gen, active, rule, wanted, now, false, false) {
                GenOutcome::Done => return true,
                GenOutcome::Retry => continue,
                GenOutcome::Missing { .. } => {}
            }
            if let Some(old) = draining {
                match self.walk_gen(old, active, rule, wanted, now, false, false) {
                    GenOutcome::Done => return true,
                    GenOutcome::Retry => {
                        std::hint::spin_loop();
                        continue;
                    }
                    GenOutcome::Missing { .. } => {}
                }
                if self.active.load(Ordering::Acquire) != active {
                    continue;
                }
            }
            break;
        }
        if self.overflow_active() {
            return self.overflow.apply_update(rule, now);
        }
        false
    }

    fn remove(&self, key: &QosKey) -> bool {
        let wanted = published(key);
        let mut removed_open = false;
        let pin = self.pin();
        'retry: loop {
            let (_, draining, active) = pin.live();
            'gens: for gen in [Some(active), draining].into_iter().flatten() {
                let mut idx = key.digest() as usize & gen.mask;
                for _ in 0..gen.probe_limit() {
                    let slot = &gen.slots[idx];
                    let d = slot.digest.load(Ordering::Acquire);
                    if d == wanted {
                        // Demote to a same-digest tombstone; the CAS
                        // serializes with migration and reclamation. A
                        // decision that already matched the published
                        // digest may still charge the parked bucket once —
                        // a single-decision anomaly, never a cross-key one.
                        if slot
                            .digest
                            .compare_exchange(
                                wanted,
                                tombstone_of(wanted),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            self.release_key(&slot.load_text(), wanted);
                            self.cells.open_slots.fetch_sub(1, Ordering::Relaxed);
                            removed_open = true;
                            break 'gens;
                        }
                        // Frozen or republished under us: re-resolve.
                        std::hint::spin_loop();
                        continue 'retry;
                    }
                    if d == moved_of(wanted) {
                        std::hint::spin_loop();
                        continue 'retry;
                    }
                    if d == EMPTY {
                        break;
                    }
                    idx = (idx + 1) & gen.mask;
                }
            }
            break;
        }
        let removed_overflow = self.overflow_active() && self.overflow.remove(key);
        if removed_overflow {
            self.clear_overflow_flag_if_drained();
        }
        removed_open || removed_overflow
    }

    fn len(&self) -> usize {
        let overflow = if self.overflow_active() {
            self.overflow.len()
        } else {
            0
        };
        self.cells.open_slots.load(Ordering::Relaxed) as usize + overflow
    }

    fn keys(&self) -> Vec<QosKey> {
        let mut keys = Vec::with_capacity(self.len());
        let pin = self.pin();
        let (_, draining, active) = pin.live();
        for gen in draining.into_iter().chain([active]) {
            keys.extend(gen.slots.iter().filter_map(|slot| self.published_key(slot)));
        }
        if self.overflow_active() {
            keys.extend(self.overflow.keys());
        }
        keys
    }

    fn snapshot(&self, now: Nanos) -> Vec<QosRule> {
        let mut rules = Vec::with_capacity(self.len());
        let pin = self.pin();
        let (_, draining, active) = pin.live();
        for gen in draining.into_iter().chain([active]) {
            for slot in gen.slots.iter() {
                if let Some(key) = self.published_key(slot) {
                    rules.push(slot.bucket.to_rule(key, now));
                }
            }
        }
        if self.overflow_active() {
            rules.extend(self.overflow.snapshot(now));
        }
        rules
    }

    fn restore(&self, rules: Vec<QosRule>, now: Nanos) {
        let pin = self.pin();
        for rule in rules {
            self.migration_quantum(&pin, now);
            self.place(&pin, rule, now, true);
        }
    }

    fn sweep_refill(&self, now: Nanos) {
        let mut retries = 0u64;
        let pin = self.pin();
        let (_, draining, active) = pin.live();
        for gen in draining.into_iter().chain([active]) {
            for slot in gen.slots.iter() {
                if is_published(slot.digest.load(Ordering::Acquire)) {
                    retries += slot.bucket.refill(now);
                }
            }
        }
        if retries > 0 {
            self.cells.cas_retries.fetch_add(retries, Ordering::Relaxed);
        }
        if self.overflow_active() {
            self.overflow.sweep_refill(now);
        }
    }

    fn reclaim_idle(&self, now: Nanos, idle_ttl: Duration, max: usize) -> Vec<ReclaimedRule> {
        if max == 0 {
            return Vec::new();
        }
        let ttl_ticks = ((idle_ttl.as_nanos() / u128::from(TOUCH_TICK_NANOS)) as u64).max(1);
        if ttl_ticks >= TOUCH_TICK_HALF_RANGE {
            return Vec::new(); // TTL beyond the wrap horizon: nothing provably idle
        }
        let pin = self.pin();
        let (_, draining, gen) = pin.live();
        if draining.is_some() {
            // Finish the in-flight migration first; the sweep simply
            // returns at the next interval.
            return Vec::new();
        }
        let len = gen.slots.len();
        let now_tick = touch_tick(now);
        let start = self.reclaim_cursor.load(Ordering::Relaxed) % len;
        let mut out = Vec::new();
        for i in 0..len {
            if out.len() >= max {
                self.reclaim_cursor
                    .store((start + i) % len, Ordering::Relaxed);
                return out;
            }
            let slot = &gen.slots[(start + i) % len];
            let d = slot.digest.load(Ordering::Acquire);
            if !is_published(d) {
                continue;
            }
            let (tick, count) = touch_parts(slot.touch.load(Ordering::Relaxed));
            let age = now_tick.wrapping_sub(tick) & TOUCH_TICK_MASK;
            if age >= TOUCH_TICK_HALF_RANGE || age < ttl_ticks {
                continue; // fresh — or clock skew, where keeping is the safe direction
            }
            // Freeze, drain exactly, tombstone. The CAS serializes with
            // `remove` and migration, and nobody rewrites a frozen slot's
            // text; readers pass the transient RESERVED state and miss,
            // exactly like a removed key.
            if slot
                .digest
                .compare_exchange(d, RESERVED, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            let text = slot.load_text();
            let key = self.key_of(&text, d);
            let (capacity, refill_rate, credit) = slot.bucket.drain(now);
            slot.digest.store(tombstone_of(d), Ordering::Release);
            self.release_key(&text, d);
            self.cells.open_slots.fetch_sub(1, Ordering::Relaxed);
            self.cells.reclaimed_keys.fetch_add(1, Ordering::Relaxed);
            if let Some(key) = key {
                out.push(ReclaimedRule {
                    rule: QosRule {
                        key,
                        capacity,
                        refill_rate,
                        credit,
                    },
                    touches: count,
                });
            }
        }
        self.reclaim_cursor.store(start, Ordering::Relaxed);
        out
    }

    fn stats(&self) -> TableStatsSnapshot {
        let own = self.stats.snapshot();
        let overflow = self.overflow.stats();
        TableStatsSnapshot {
            decisions: own.decisions + overflow.decisions,
            allows: own.allows + overflow.allows,
            denies: own.denies + overflow.denies,
            misses: own.misses + overflow.misses,
            cas_retries: self.cells.cas_retries.load(Ordering::Relaxed),
            probe_steps: self.cells.probe_steps.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn rule(s: &str, cap: u64, rate: u64) -> QosRule {
        QosRule::per_second(key(s), cap, rate)
    }

    fn secs(s: u64) -> Nanos {
        Nanos::from_nanos(s * 1_000_000_000)
    }

    /// The `i`-th key of a differential test: every fourth is 24–255
    /// bytes long (length drawn from `rng`), so its text takes the side
    /// map.
    fn differential_key(prefix: &str, i: u64, rng: &mut janus_hash::rng::Rng) -> QosKey {
        let short = format!("{prefix}{i}");
        if i % 4 != 3 {
            return key(&short);
        }
        let len = rng.gen_range_inclusive(INLINE_KEY_BYTES as u64 + 1, MAX_KEY_BYTES as u64);
        key(&format!(
            "{short}-{}",
            "x".repeat(len as usize - short.len() - 1)
        ))
    }

    /// The side map holds exactly the long keys the open array publishes,
    /// each counting its publishing slots (checked while quiescent).
    fn assert_long_keys_balanced(table: &LockFreeTable) {
        let mut held: HashMap<u64, u32> = HashMap::new();
        let pin = table.pin();
        let (_, draining, active) = pin.live();
        for gen in draining.into_iter().chain([active]) {
            for slot in gen.slots.iter() {
                let d = slot.digest.load(Ordering::Acquire);
                if is_published(d) && is_long(&slot.load_text()) {
                    *held.entry(d & DIGEST_MASK).or_default() += 1;
                }
            }
        }
        let long_keys = table.long_keys.lock();
        let counted: HashMap<u64, u32> = long_keys.iter().map(|(&d, (_, n))| (d, *n)).collect();
        assert_eq!(counted, held, "side map out of step with the slots");
        for (&d, (key, _)) in long_keys.iter() {
            assert_eq!(
                key.digest() & DIGEST_MASK,
                d,
                "{key} filed under a foreign digest"
            );
        }
    }

    fn migration_in_flight(table: &LockFreeTable) -> bool {
        table.retired.load(Ordering::Acquire) < table.active.load(Ordering::Acquire)
    }

    fn pump_until_retired(table: &LockFreeTable, now: Nanos) {
        let mut guard = 0;
        while migration_in_flight(table) {
            table.run_migration_quantum(now);
            guard += 1;
            assert!(guard < 1_000_000, "migration never completed");
        }
    }

    #[test]
    fn slot_count_rounds_up_to_power_of_two() {
        let table = LockFreeTable::with_slots(1000);
        assert_eq!(table.pin().gen(0).unwrap().slots.len(), 1024);
        assert_eq!(table.cells.slot_count.load(Ordering::Relaxed), 1024);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        LockFreeTable::with_slots(0);
    }

    #[test]
    fn probe_limit_overflow_parks_rules_without_losing_them() {
        // 4 fixed slots, 12 keys: at least 8 rules must overflow, and
        // every one of them still decides, lists and snapshots correctly.
        let table = LockFreeTable::fixed(4);
        for i in 0..12 {
            table.insert(rule(&format!("k{i}"), 1, 0), Nanos::ZERO);
        }
        assert_eq!(table.len(), 12);
        assert!(table.overflow_active());
        let mut keys = table.keys();
        keys.sort();
        assert_eq!(keys.len(), 12);
        for i in 0..12 {
            let k = key(&format!("k{i}"));
            assert_eq!(table.decide(&k, Nanos::ZERO), Some(Verdict::Allow), "k{i}");
            assert_eq!(table.decide(&k, Nanos::ZERO), Some(Verdict::Deny), "k{i}");
        }
        assert_eq!(table.snapshot(Nanos::ZERO).len(), 12);
    }

    #[test]
    fn tombstone_is_reclaimed_by_the_same_key_only() {
        let table = LockFreeTable::with_slots(64);
        table.insert(rule("alice", 5, 0), Nanos::ZERO);
        let pin = table.pin();
        let gen = pin.gen(0).unwrap();
        let home = key("alice").digest() as usize & gen.mask;
        assert!(table.remove(&key("alice")));
        assert_eq!(
            gen.slots[home].digest.load(Ordering::Relaxed) & TOMBSTONE_BIT,
            TOMBSTONE_BIT,
            "slot should be tombstoned, not emptied"
        );
        assert_eq!(table.decide(&key("alice"), Nanos::ZERO), None);
        // Re-inserting the same key reuses its tombstoned home slot.
        table.insert(rule("alice", 2, 0), Nanos::ZERO);
        assert_eq!(table.len(), 1);
        assert_eq!(
            table.decide(&key("alice"), Nanos::ZERO),
            Some(Verdict::Allow)
        );
        assert!(is_published(gen.slots[home].digest.load(Ordering::Relaxed)));
    }

    #[test]
    fn contention_counters_surface_cas_retries() {
        // Real contention, not hoped-for contention: every round refills
        // one hot bucket, releases all threads from a barrier at once and
        // has them admit (a CAS write each) until a CAS has lost to a
        // concurrent winner. Threads that merely run one after another —
        // the old 8 x 2,000 decides did on a 2-vCPU box — never collide.
        use std::sync::Barrier;
        const THREADS: usize = 4;
        const DECIDES_PER_ROUND: u64 = 20_000;
        const MAX_ROUNDS: u64 = 5_000;
        let cells = TableEngineCells::default();
        let table = LockFreeTable::with_cells(64, cells.clone());
        let barrier = Barrier::new(THREADS);
        let rounds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let k = key("hot");
                    for _ in 0..MAX_ROUNDS {
                        if barrier.wait().is_leader() {
                            // Capacity covers the round: no thread ever
                            // falls onto the read-only deny path. A
                            // restore refills the bucket (an insert would
                            // keep the last round's credit, which runs dry
                            // after 12 rounds without a retry).
                            table.restore(vec![rule("hot", 1_000_000, 0)], Nanos::ZERO);
                            rounds.fetch_add(1, Ordering::Relaxed);
                        }
                        barrier.wait();
                        for _ in 0..DECIDES_PER_ROUND {
                            assert_eq!(table.decide(&k, Nanos::ZERO), Some(Verdict::Allow));
                        }
                        // Nobody decides between this barrier and the
                        // next round's first, so all threads read the
                        // same counter and leave together.
                        barrier.wait();
                        if table.cas_retries() > 0 {
                            break;
                        }
                    }
                });
            }
        });
        let stats = table.stats();
        let rounds = rounds.load(Ordering::Relaxed);
        assert_eq!(stats.decisions, rounds * THREADS as u64 * DECIDES_PER_ROUND);
        assert!(
            stats.cas_retries > 0,
            "no CAS retry in {rounds} barrier-started rounds on one key"
        );
        assert_eq!(stats.cas_retries, table.cas_retries());
        // The counter is the caller's cell: what the QoS server exports.
        assert_eq!(cells.cas_retries.load(Ordering::Relaxed), stats.cas_retries);
    }

    #[test]
    fn shared_counters_are_visible_through_the_caller_cells() {
        let cells = TableEngineCells::default();
        let table = LockFreeTable::with_cells(64, cells.clone());
        table.insert(rule("a", 10, 0), Nanos::ZERO);
        table.decide(&key("a"), Nanos::ZERO);
        assert_eq!(
            cells.cas_retries.load(Ordering::Relaxed),
            table.cas_retries()
        );
        assert_eq!(
            cells.probe_steps.load(Ordering::Relaxed),
            table.probe_steps()
        );
    }

    #[test]
    fn overflow_copy_is_dropped_when_open_slot_frees_up() {
        // Key parked in overflow; later its home neighborhood clears and a
        // re-insert claims an open slot: the overflow copy must not shadow
        // or double-count.
        let table = LockFreeTable::fixed(2);
        table.insert(rule("a", 1, 0), Nanos::ZERO);
        table.insert(rule("b", 1, 0), Nanos::ZERO);
        table.insert(rule("c", 7, 0), Nanos::ZERO); // probes exhausted -> overflow
        assert_eq!(table.len(), 3);
        assert!(table.overflow_active());
        table.remove(&key("a"));
        table.remove(&key("b"));
        // "c" still only exists in the overflow; only a same-digest
        // tombstone or EMPTY is claimable, and both prior slots are
        // foreign tombstones — so this insert goes back to the overflow
        // and must still not duplicate.
        table.insert(rule("c", 3, 0), Nanos::ZERO);
        assert_eq!(table.len(), 1);
        assert_eq!(table.keys(), vec![key("c")]);
        let snap = table.snapshot(Nanos::ZERO);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].credit, Credits::from_whole(3));
    }

    #[test]
    fn overflow_flag_clears_when_overflow_drains() {
        let table = LockFreeTable::fixed(2);
        table.insert(rule("a", 1, 0), Nanos::ZERO);
        table.insert(rule("b", 1, 0), Nanos::ZERO);
        table.insert(rule("c", 1, 0), Nanos::ZERO);
        assert!(table.overflow_active());
        assert!(table.remove(&key("c")));
        assert!(
            !table.overflow_active(),
            "flag must drop when the overflow drains"
        );
        assert_eq!(table.len(), 2);
        // And a fresh spill raises it again.
        table.insert(rule("d", 1, 0), Nanos::ZERO);
        assert!(table.overflow_active());
    }

    #[test]
    fn resize_triggers_at_watermark_and_preserves_credit() {
        let table = LockFreeTable::with_slots(8);
        for i in 0..100 {
            table.insert(rule(&format!("t{i}"), 3, 0), Nanos::ZERO);
            assert_eq!(
                table.decide(&key(&format!("t{i}")), Nanos::ZERO),
                Some(Verdict::Allow)
            );
        }
        pump_until_retired(&table, Nanos::ZERO);
        assert_eq!(table.len(), 100);
        assert!(
            table.cells.resizes.load(Ordering::Relaxed) >= 4,
            "8 slots must double several times to hold 100 keys"
        );
        assert!(table.cells.slot_count.load(Ordering::Relaxed) >= 128);
        let snap = table.snapshot(Nanos::ZERO);
        assert_eq!(snap.len(), 100);
        for row in snap {
            assert_eq!(
                row.credit,
                Credits::from_whole(2),
                "{}: one charge must survive every migration exactly",
                row.key
            );
        }
        assert!(!table.overflow_active(), "resize must re-home any spill");
    }

    #[test]
    fn migration_is_incremental_bounded_quantum() {
        let table = LockFreeTable::with_slots(64);
        for i in 0..48 {
            table.insert(rule(&format!("k{i}"), 3, 0), Nanos::ZERO);
        }
        // The 48th insert crossed the ¾ watermark: a migration is now in
        // flight and nothing has moved yet.
        assert!(migration_in_flight(&table));
        assert_eq!(table.cells.migrated_slots.load(Ordering::Relaxed), 0);
        // Each operation moves at most MIGRATE_QUANTUM slots.
        let mut moved_so_far = 0;
        let mut steps = 0;
        while migration_in_flight(&table) {
            // A decide on an absent key still pumps one quantum and
            // leaves every resident bucket's credit untouched.
            assert_eq!(table.decide(&key("absent"), Nanos::ZERO), None);
            let now_moved = table.cells.migrated_slots.load(Ordering::Relaxed);
            assert!(
                now_moved - moved_so_far <= LockFreeTable::MIGRATE_QUANTUM as u64,
                "one decide migrated {} slots, quantum is {}",
                now_moved - moved_so_far,
                LockFreeTable::MIGRATE_QUANTUM
            );
            moved_so_far = now_moved;
            steps += 1;
            assert!(steps < 1_000, "migration never completed");
        }
        assert!(steps >= 64 / LockFreeTable::MIGRATE_QUANTUM - 1);
        assert_eq!(table.cells.migrated_slots.load(Ordering::Relaxed), 48);
        assert_eq!(table.len(), 48);
        for i in 0..48 {
            assert_eq!(
                table.decide(&key(&format!("k{i}")), Nanos::ZERO),
                Some(Verdict::Allow),
                "k{i} lost in migration"
            );
        }
    }

    #[test]
    fn decide_hammers_across_live_migration() {
        use std::sync::Arc as StdArc;
        let table = StdArc::new(LockFreeTable::with_slots(256));
        table.insert(rule("shared", 1000, 0), Nanos::ZERO);
        for i in 0..190 {
            table.insert(rule(&format!("f{i}"), 1, 0), Nanos::ZERO);
        }
        assert!(!migration_in_flight(&table));
        let allowed: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let table = StdArc::clone(&table);
                    scope.spawn(move || {
                        let k = key("shared");
                        let mut allows = 0;
                        for _ in 0..400 {
                            match table.decide(&k, Nanos::ZERO) {
                                Some(Verdict::Allow) => allows += 1,
                                Some(Verdict::Deny) => {}
                                None => panic!("shared key vanished mid-migration"),
                            }
                        }
                        allows
                    })
                })
                .collect();
            // Push occupancy over the watermark while the deciders run:
            // the migration races the hammering threads.
            for i in 190..200 {
                table.insert(rule(&format!("f{i}"), 1, 0), Nanos::ZERO);
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert!(
            table.cells.resizes.load(Ordering::Relaxed) >= 1,
            "the fillers must have triggered a resize"
        );
        assert_eq!(
            allowed, 1000,
            "migration must neither double-charge nor mint credit"
        );
        pump_until_retired(&table, Nanos::ZERO);
        assert_eq!(table.len(), 201);
    }

    #[test]
    fn idle_keys_fold_out_with_exact_credit_and_touch_counts() {
        let table = LockFreeTable::with_slots(64);
        table.insert(rule("idle", 10, 0), Nanos::ZERO);
        table.insert(rule("hot", 5, 0), Nanos::ZERO);
        for _ in 0..3 {
            assert_eq!(
                table.decide(&key("idle"), Nanos::ZERO),
                Some(Verdict::Allow)
            );
        }
        assert_eq!(table.decide(&key("hot"), secs(3)), Some(Verdict::Allow));
        let mut reclaimed = table.reclaim_idle(secs(3), Duration::from_secs(2), 10);
        assert_eq!(reclaimed.len(), 1, "only the idle key is past the TTL");
        let row = reclaimed.pop().unwrap();
        assert_eq!(row.rule.key, key("idle"));
        assert_eq!(row.rule.capacity, Credits::from_whole(10));
        assert_eq!(
            row.rule.credit,
            Credits::from_whole(7),
            "reclaim must capture the exact remaining credit"
        );
        assert_eq!(row.touches, 3);
        assert_eq!(table.len(), 1);
        assert_eq!(table.decide(&key("idle"), secs(3)), None);
        assert_eq!(table.cells.reclaimed_keys.load(Ordering::Relaxed), 1);
        // Readmission resumes with the reclaimed credit: exactly 7 more
        // allows, not a fresh bucket's 10.
        table.restore(vec![row.rule], secs(3));
        for i in 0..7 {
            assert_eq!(
                table.decide(&key("idle"), secs(3)),
                Some(Verdict::Allow),
                "allow {i}"
            );
        }
        assert_eq!(table.decide(&key("idle"), secs(3)), Some(Verdict::Deny));
    }

    #[test]
    fn reclaim_skips_during_migration() {
        let table = LockFreeTable::with_slots(8);
        for i in 0..6 {
            table.insert(rule(&format!("k{i}"), 1, 0), Nanos::ZERO);
        }
        assert!(migration_in_flight(&table));
        assert!(
            table
                .reclaim_idle(secs(10), Duration::from_secs(1), 100)
                .is_empty(),
            "reclaim must stand aside while a migration is draining"
        );
        pump_until_retired(&table, secs(10));
        let reclaimed = table.reclaim_idle(secs(10), Duration::from_secs(1), 100);
        assert_eq!(reclaimed.len(), 6);
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn resize_rehomes_parked_rules_and_drops_the_flag() {
        let table = LockFreeTable::with_slots(8);
        // Park a rule as a probe-limit spill would.
        table.park_in_overflow(rule("parked", 3, 0), Nanos::ZERO, false);
        assert!(table.overflow_active());
        // Occupancy pressure triggers a resize...
        for i in 0..6 {
            table.insert(rule(&format!("f{i}"), 1, 0), Nanos::ZERO);
        }
        assert!(migration_in_flight(&table));
        pump_until_retired(&table, Nanos::ZERO);
        // ...and retirement re-homes the parked rule into the open array.
        assert!(
            !table.overflow_active(),
            "flag must drop once the resize re-homes the spill"
        );
        assert!(table.overflow.is_empty());
        assert_eq!(table.len(), 7);
        for _ in 0..3 {
            assert_eq!(
                table.decide(&key("parked"), Nanos::ZERO),
                Some(Verdict::Allow)
            );
        }
        assert_eq!(
            table.decide(&key("parked"), Nanos::ZERO),
            Some(Verdict::Deny)
        );
    }

    #[test]
    fn len_keys_and_snapshot_span_both_generations_mid_migration() {
        let table = LockFreeTable::with_slots(16);
        for i in 0..11 {
            table.insert(rule(&format!("k{i}"), 5, 0), Nanos::ZERO);
            assert_eq!(
                table.decide(&key(&format!("k{i}")), Nanos::ZERO),
                Some(Verdict::Allow)
            );
        }
        table.insert(rule("k11", 4, 0), Nanos::ZERO); // 12th key: watermark
        assert!(migration_in_flight(&table));
        table.run_migration_quantum(Nanos::ZERO); // half the old array
        if migration_in_flight(&table) {
            let moved = table.cells.migrated_slots.load(Ordering::Relaxed);
            assert!(moved <= LockFreeTable::MIGRATE_QUANTUM as u64);
        }
        assert_eq!(table.len(), 12);
        assert_eq!(table.keys().len(), 12);
        let snap = table.snapshot(Nanos::ZERO);
        assert_eq!(snap.len(), 12);
        for row in &snap {
            assert_eq!(row.credit, Credits::from_whole(4), "{}", row.key);
        }
        pump_until_retired(&table, Nanos::ZERO);
        assert_eq!(table.cells.migrated_slots.load(Ordering::Relaxed), 12);
        assert_eq!(table.len(), 12);
        assert_eq!(table.snapshot(Nanos::ZERO).len(), 12);
    }

    #[test]
    fn randomized_schedule_matches_sharded_table_credit_for_credit() {
        // Differential test: a LockFreeTable starting at 4 slots (so the
        // schedule rides through several resizes) must agree with the
        // reference ShardedTable on every verdict, every removal and the
        // final credit of every key. Time advances on the whole-ms tick
        // grid where both engines are exact.
        let mut lengths = janus_hash::rng::Rng::seed_from_u64(0x1046);
        let keys: Vec<QosKey> = (0..8)
            .map(|i| differential_key("u", i, &mut lengths))
            .collect();
        for seed in 0..8u64 {
            let mut rng = janus_hash::rng::Rng::seed_from_u64(0xD1FF ^ seed);
            let lockfree = LockFreeTable::with_slots(4);
            let sharded = ShardedTable::with_shards(4);
            let mut now = Nanos::ZERO;
            for step in 0..2_000 {
                let k = &keys[rng.gen_range(keys.len() as u64) as usize];
                match rng.gen_range(100) {
                    0..=19 => {
                        let cap = rng.gen_range(40);
                        let rate = rng.gen_range(500);
                        let r = QosRule::per_second(k.clone(), cap, rate);
                        lockfree.insert(r.clone(), now);
                        sharded.insert(r, now);
                    }
                    20..=79 => {
                        assert_eq!(
                            lockfree.decide(k, now),
                            sharded.decide(k, now),
                            "seed {seed} step {step} key {k}"
                        );
                    }
                    80..=84 => {
                        assert_eq!(
                            lockfree.remove(k),
                            sharded.remove(k),
                            "seed {seed} step {step} key {k}"
                        );
                    }
                    85..=89 => {
                        lockfree.run_migration_quantum(now);
                    }
                    90..=94 => {
                        lockfree.sweep_refill(now);
                        sharded.sweep_refill(now);
                    }
                    _ => {
                        now += Duration::from_millis(rng.gen_range(50));
                    }
                }
            }
            pump_until_retired(&lockfree, now);
            assert_long_keys_balanced(&lockfree);
            assert_eq!(lockfree.len(), sharded.len(), "seed {seed}");
            let mut a = lockfree.snapshot(now);
            let mut b = sharded.snapshot(now);
            a.sort_by(|x, y| x.key.cmp(&y.key));
            b.sort_by(|x, y| x.key.cmp(&y.key));
            assert_eq!(a, b, "seed {seed}: final state must match");
        }
    }

    /// Any interleaving of inserts, decides, removes and explicit
    /// migration quanta — 256 seeded schedules of up to 400 uniformly
    /// mixed ops — agrees with the reference table verdict-for-verdict
    /// and credit-for-credit.
    #[test]
    fn lockfree_matches_sharded_on_any_schedule() {
        let mut rng = janus_hash::rng::Rng::seed_from_u64(0x10CF_4EE0);
        let mut lengths = janus_hash::rng::Rng::seed_from_u64(0x1046_4EE0);
        for case in 0..256 {
            let keys: Vec<QosKey> = (0..8)
                .map(|i| differential_key("p", i, &mut lengths))
                .collect();
            let lockfree = LockFreeTable::with_slots(4);
            let sharded = ShardedTable::with_shards(4);
            let mut now = Nanos::ZERO;
            for step in 0..rng.gen_range_inclusive(1, 399) {
                let k = keys[rng.gen_range(8) as usize].clone();
                match rng.gen_range(5) {
                    0 => {
                        let r = QosRule::per_second(k, rng.gen_range(40), rng.gen_range(500));
                        lockfree.insert(r.clone(), now);
                        sharded.insert(r, now);
                    }
                    1 => assert_eq!(
                        lockfree.decide(&k, now),
                        sharded.decide(&k, now),
                        "case {case} step {step} key {k}"
                    ),
                    2 => assert_eq!(
                        lockfree.remove(&k),
                        sharded.remove(&k),
                        "case {case} step {step} key {k}"
                    ),
                    3 => lockfree.run_migration_quantum(now),
                    _ => now += Duration::from_millis(rng.gen_range(50)),
                }
            }
            pump_until_retired(&lockfree, now);
            assert_long_keys_balanced(&lockfree);
            assert_eq!(lockfree.len(), sharded.len(), "case {case}");
            let mut a = lockfree.snapshot(now);
            let mut b = sharded.snapshot(now);
            a.sort_by(|x, y| x.key.cmp(&y.key));
            b.sort_by(|x, y| x.key.cmp(&y.key));
            assert_eq!(a, b, "case {case}: final state must match");
        }
    }

    #[test]
    fn slot_text_round_trips_inline_keys_and_marks_long_ones() {
        for len in 1..=MAX_KEY_BYTES {
            let k = key(&"k".repeat(len));
            let text = encode_text(&k);
            assert_eq!(is_long(&text), len > INLINE_KEY_BYTES, "len {len}");
            if len <= INLINE_KEY_BYTES {
                assert_eq!(decode_inline(&text), Some(k), "len {len}");
            } else {
                assert_eq!(decode_inline(&text), None, "len {len}");
            }
        }
        let k = key("ü-tenant:db/eu-west");
        assert_eq!(decode_inline(&encode_text(&k)), Some(k));
    }

    #[test]
    fn update_walk_of_an_absent_key_stops_at_the_first_empty() {
        /// Slots an update walk for `k` must examine: home through the
        /// first EMPTY, inclusive.
        fn to_first_empty(gen: &Gen, k: &QosKey) -> usize {
            let mut idx = k.digest() as usize & gen.mask;
            let mut walked = 1;
            while gen.slots[idx].digest.load(Ordering::Relaxed) != EMPTY {
                idx = (idx + 1) & gen.mask;
                walked += 1;
            }
            walked
        }
        fn walked(table: &LockFreeTable, gi: usize, absent: &QosRule) -> usize {
            let active = table.active.load(Ordering::Acquire);
            let wanted = published(&absent.key);
            let pin = table.pin();
            let gen = pin.gen(gi).unwrap();
            match table.walk_gen(gen, active, absent, wanted, Nanos::ZERO, false, false) {
                GenOutcome::Missing { walked } => walked,
                _ => panic!("{} is not in the table", absent.key),
            }
        }
        let table = LockFreeTable::with_slots(64);
        for i in 0..47 {
            table.insert(rule(&format!("k{i}"), 3, 0), Nanos::ZERO);
        }
        assert!(!migration_in_flight(&table));
        let pin = table.pin();
        // An absent key whose home is taken, so the walk passes slots.
        let absent = (0..)
            .map(|j| rule(&format!("absent-{j}"), 1, 0))
            .find(|r| to_first_empty(pin.gen(0).unwrap(), &r.key) >= 3)
            .unwrap();
        let limit = pin.gen(0).unwrap().probe_limit();
        assert_eq!(
            walked(&table, 0, &absent),
            to_first_empty(pin.gen(0).unwrap(), &absent.key)
        );
        assert!(walked(&table, 0, &absent) < limit);
        assert!(!table.apply_update(&absent, Nanos::ZERO));

        // The 48th key crosses the watermark; one quantum freezes the
        // first slots, which the walk passes like any foreign slot.
        table.insert(rule("k47", 3, 0), Nanos::ZERO);
        table.run_migration_quantum(Nanos::ZERO);
        assert!(migration_in_flight(&table));
        let old = pin.gen(0).unwrap();
        let expected = to_first_empty(old, &absent.key);
        assert_eq!(walked(&table, 0, &absent), expected, "draining generation");
        assert!(expected < limit);
        assert_eq!(
            walked(&table, 1, &absent),
            to_first_empty(pin.gen(1).unwrap(), &absent.key),
            "active generation mid-migration"
        );
        assert!(!table.apply_update(&absent, Nanos::ZERO));
        assert_eq!(table.len(), 48);
    }

    #[test]
    fn reinserting_a_carried_key_mid_migration_updates_it_in_the_successor() {
        // A lone thread re-inserting a key whose old slot is already
        // frozen must not wait for the whole migration to finish.
        let table = LockFreeTable::with_slots(64);
        let names: Vec<String> = (0..48).map(|i| format!("k{i}")).collect();
        for name in &names {
            table.insert(rule(name, 3, 0), Nanos::ZERO);
        }
        table.run_migration_quantum(Nanos::ZERO);
        let pin = table.pin();
        let old = pin.gen(0).unwrap();
        let carried = names
            .iter()
            .find(|name| {
                let moved = moved_of(published(&key(name)));
                old.slots
                    .iter()
                    .any(|slot| slot.digest.load(Ordering::Relaxed) == moved)
            })
            .expect("the first quantum carried a key");
        drop(pin);
        table.insert(rule(carried, 5, 0), Nanos::ZERO);
        assert!(migration_in_flight(&table));
        assert_eq!(
            table.shape(&key(carried)),
            Some((Credits::from_whole(5), RefillRate::ZERO))
        );
        for _ in 0..3 {
            assert_eq!(
                table.decide(&key(carried), Nanos::ZERO),
                Some(Verdict::Allow)
            );
        }
        assert_eq!(
            table.decide(&key(carried), Nanos::ZERO),
            Some(Verdict::Deny)
        );
        assert_eq!(table.len(), 48);
    }

    #[test]
    fn torn_text_reads_are_skipped_not_panics() {
        let table = LockFreeTable::with_slots(64);
        table.insert(rule("alice", 5, 0), Nanos::ZERO);
        table.insert(rule("bob", 5, 0), Nanos::ZERO);
        let wanted = published(&key("alice"));
        let pin = table.pin();
        let slot = pin
            .gen(0)
            .unwrap()
            .slots
            .iter()
            .find(|slot| slot.digest.load(Ordering::Relaxed) == wanted)
            .unwrap();
        let intact = slot.load_text();
        let torn: [(&str, Text); 6] = [
            ("another key's text", encode_text(&key("carol"))),
            ("invalid UTF-8", [0xFD_FE_FF_03, 0, 0]),
            ("a control character", [0x07_61_02, 0, 0]),
            ("a zero length", [0, 0, 0]),
            ("a long marker with no side-map entry", [200, 0, 0]),
            ("a length past the words", [0xFF, 0, 0]),
        ];
        for (what, text) in torn {
            slot.store_text(text);
            assert_eq!(table.published_key(slot), None, "{what}");
            assert_eq!(table.keys(), vec![key("bob")], "{what}");
            let snap = table.snapshot(Nanos::ZERO);
            assert_eq!(snap.len(), 1, "{what}");
            assert_eq!(snap[0].key, key("bob"), "{what}");
        }
        slot.store_text(intact);
        assert_eq!(table.published_key(slot), Some(key("alice")));
        assert_eq!(table.keys().len(), 2);
    }

    #[test]
    fn long_keys_live_in_the_side_map_exactly_while_a_slot_holds_them() {
        let long = "tenant-with-a-very-long-name:db".repeat(2);
        let table = LockFreeTable::with_slots(8);
        table.insert(rule(&long, 4, 0), Nanos::ZERO);
        table.insert(rule("short", 4, 0), Nanos::ZERO);
        assert_eq!(table.long_keys.lock().len(), 1);
        assert_long_keys_balanced(&table);
        // Updates do not re-count; resizes carry the hold.
        table.insert(rule(&long, 6, 0), Nanos::ZERO);
        for i in 0..20 {
            table.insert(rule(&format!("f{i}"), 1, 0), Nanos::ZERO);
        }
        pump_until_retired(&table, Nanos::ZERO);
        assert!(table.cells.resizes.load(Ordering::Relaxed) >= 2);
        assert_long_keys_balanced(&table);
        assert_eq!(table.long_keys.lock().len(), 1);
        assert!(table.keys().contains(&key(&long)));
        assert_eq!(table.decide(&key(&long), Nanos::ZERO), Some(Verdict::Allow));
        // Remove drops the entry; a same-digest re-claim brings it back.
        assert!(table.remove(&key(&long)));
        assert!(table.long_keys.lock().is_empty());
        table.insert(rule(&long, 2, 0), Nanos::ZERO);
        assert_long_keys_balanced(&table);
        // Reclaim hands the key back whole and drops the entry.
        let reclaimed = table.reclaim_idle(secs(10), Duration::from_secs(1), 100);
        assert_eq!(reclaimed.len(), 22);
        assert!(reclaimed.iter().any(|row| row.rule.key == key(&long)));
        assert!(table.long_keys.lock().is_empty());
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn long_key_churn_races_reclaim_and_resize_without_leaking() {
        // Four roles, released together by a barrier every round: an
        // inserter growing the table through resizes, a remover, a
        // reclaimer that also readmits what it reclaimed a round earlier,
        // and a decider that pumps migration. Keys come back after a
        // removal, so tombstones are re-claimed by their own digests.
        // Every op's result feeds a model; between rounds the table must
        // list exactly the model's keys, and the side map exactly its long
        // ones.
        use std::collections::BTreeSet;
        use std::sync::Barrier;
        const ROUNDS: u64 = 150;
        const UNIVERSE: u64 = 96;
        const INSERTS_PER_ROUND: usize = 8;
        let universe: Vec<QosKey> = (0..UNIVERSE)
            .map(|n| {
                let base = format!("tenant-{n}:");
                if n % 5 == 4 {
                    return key(&base); // every fifth key is short
                }
                let len = 24 + (n * 37 % 232) as usize;
                key(&format!("{base}{}", "z".repeat(len - base.len())))
            })
            .collect();
        let table = LockFreeTable::with_slots(8);
        let mut live: BTreeSet<QosKey> = BTreeSet::new();
        let mut parked: Vec<QosRule> = Vec::new();
        let mut cursor = 0;
        for round in 1..=ROUNDS {
            let now = secs(round);
            let mut fresh = Vec::new();
            for _ in 0..universe.len() {
                let k = &universe[cursor];
                cursor = (cursor + 1) % universe.len();
                if !live.contains(k) && parked.iter().all(|row| &row.key != k) {
                    fresh.push(k.clone());
                    if fresh.len() == INSERTS_PER_ROUND {
                        break;
                    }
                }
            }
            // Remove some live keys; decide on others.
            let victims: Vec<QosKey> = live.iter().step_by(9).cloned().collect();
            let hot: Vec<QosKey> = live.iter().skip(3).step_by(5).cloned().collect();
            let readmit = std::mem::take(&mut parked);
            let barrier = Barrier::new(4);
            let (removed, reclaimed) = std::thread::scope(|scope| {
                scope.spawn(|| {
                    barrier.wait();
                    for k in &fresh {
                        table.insert(QosRule::per_second(k.clone(), 10, 0), now);
                    }
                });
                let remover = scope.spawn(|| {
                    barrier.wait();
                    victims
                        .iter()
                        .filter(|k| table.remove(k))
                        .cloned()
                        .collect::<Vec<_>>()
                });
                let reclaimer = scope.spawn(|| {
                    barrier.wait();
                    table.restore(readmit.clone(), now);
                    table.reclaim_idle(now, Duration::from_millis(2_500), 2)
                });
                scope.spawn(|| {
                    barrier.wait();
                    for k in &hot {
                        table.decide(k, now);
                        table.run_migration_quantum(now);
                    }
                });
                (remover.join().unwrap(), reclaimer.join().unwrap())
            });
            live.extend(fresh);
            live.extend(readmit.into_iter().map(|r| r.key));
            for k in &removed {
                assert!(live.remove(k), "round {round}: removed {k} twice");
            }
            for row in reclaimed {
                assert!(
                    live.remove(&row.rule.key),
                    "round {round}: reclaimed a dead key"
                );
                parked.push(row.rule);
            }
            let keys: BTreeSet<QosKey> = table.keys().into_iter().collect();
            assert_eq!(keys, live, "round {round}: keys()");
            let snap: BTreeSet<QosKey> = table
                .snapshot(now)
                .into_iter()
                .map(|rule| rule.key)
                .collect();
            assert_eq!(snap, live, "round {round}: snapshot()");
            // A key parked in the overflow (a chain of foreign
            // tombstones) keeps its own text there.
            let long_live = live
                .iter()
                .filter(|k| k.len() > INLINE_KEY_BYTES && table.overflow.shape(k).is_none())
                .count();
            assert_eq!(table.long_keys.lock().len(), long_live, "round {round}");
            assert_long_keys_balanced(&table);
        }
        assert!(table.cells.resizes.load(Ordering::Relaxed) >= 4);
        assert!(table.cells.reclaimed_keys.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn installed_keys_never_miss_while_a_migration_retires() {
        // Two threads charge and update four installed keys while one of
        // them grows the table from 8 slots with fresh keys, so one
        // migration after another retires under them; in the first few,
        // every installed key rides the final quantum. A lookup that read
        // `retired` only after missing in the active array could skip the
        // predecessor the key's carry had just left, and report an
        // installed key missing. The one inserter waits out a migration in
        // flight: inserts racing a straggling quantum could fill the
        // successor and park a carry in the overflow, whose re-home is a
        // miss of its own.
        use std::sync::Barrier;
        const ROUNDS: usize = if cfg!(debug_assertions) { 400 } else { 20_000 };
        const FRESH: usize = 200;
        let hot: Vec<QosRule> = (0..4)
            .map(|i| QosRule::per_second(key(&format!("hot-{i}")), 1 << 40, 0))
            .collect();
        let fresh: Vec<QosRule> = (0..FRESH)
            .map(|n| rule(&format!("fresh-{n}"), 1, 0))
            .collect();
        let mut misses = 0;
        for _ in 0..ROUNDS {
            let table = LockFreeTable::with_slots(8);
            for r in &hot {
                table.insert(r.clone(), Nanos::ZERO);
            }
            let next = AtomicUsize::new(0);
            let barrier = Barrier::new(2);
            misses += std::thread::scope(|scope| {
                let threads: Vec<_> = (0..2)
                    .map(|t| {
                        let (table, hot, fresh, next, barrier) =
                            (&table, &hot, &fresh, &next, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            let mut missed = 0u64;
                            let mut i = 0;
                            while next.load(Ordering::Relaxed) < fresh.len() {
                                if t == 0 && !migration_in_flight(table) {
                                    let n = next.load(Ordering::Relaxed);
                                    table.insert(fresh[n].clone(), Nanos::ZERO);
                                    next.store(n + 1, Ordering::Relaxed);
                                }
                                let r = &hot[i % hot.len()];
                                let found = match (i / hot.len() + t) % 3 {
                                    0 => table.decide(&r.key, Nanos::ZERO).is_some(),
                                    1 => table.consume_up_to(&r.key, 1, Nanos::ZERO) == 1,
                                    _ => table.apply_update(r, Nanos::ZERO),
                                };
                                missed += u64::from(!found);
                                i += 1;
                            }
                            missed
                        })
                    })
                    .collect();
                threads.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
            });
        }
        assert_eq!(misses, 0, "installed keys reported missing");
    }

    /// Insert once no migration is in flight, helping it along.
    fn insert_between_migrations(table: &LockFreeTable, rule: QosRule, now: Nanos) {
        while migration_in_flight(table) {
            table.run_migration_quantum(now);
            std::thread::yield_now();
        }
        table.insert(rule, now);
    }

    /// Quiescent, with no migration in flight: the active rung is the one
    /// generation allocated, and nothing waits for a free.
    fn assert_only_active_allocated(table: &LockFreeTable) {
        let active = table.active.load(Ordering::Acquire);
        for (i, rung) in table.rungs.iter().enumerate() {
            assert_eq!(
                rung.live.load(Ordering::SeqCst).is_null(),
                i != active,
                "rung {i}, active {active}"
            );
            assert!(
                rung.unlinked.load(Ordering::SeqCst).is_null(),
                "rung {i} still waits for its free"
            );
        }
        assert_eq!(table.awaiting_free.load(Ordering::Acquire), 0);
        assert_eq!(table.gens_alive.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_pinned_reader_defers_the_free_of_a_retired_generation() {
        let table = LockFreeTable::with_slots(8);
        for i in 0..6 {
            table.insert(rule(&format!("k{i}"), 1, 0), Nanos::ZERO);
        }
        assert!(migration_in_flight(&table));
        let reader = table.pin();
        let old = reader.gen(0).expect("the draining generation is linked");
        pump_until_retired(&table, Nanos::ZERO);
        assert!(reader.gen(0).is_none(), "the retired rung is unlinked");
        assert!(
            !table.rungs[0].unlinked.load(Ordering::SeqCst).is_null(),
            "a pinned reader keeps it allocated"
        );
        assert_eq!(table.awaiting_free.load(Ordering::Acquire), 1);
        assert_eq!(table.gens_alive.load(Ordering::Relaxed), 2);
        // The reader still reads the drained array: nothing published.
        assert!(old
            .slots
            .iter()
            .all(|slot| !is_published(slot.digest.load(Ordering::Acquire))));
        // The unpin sees every stripe idle and frees it.
        drop(reader);
        assert_only_active_allocated(&table);
        for i in 0..6 {
            assert_eq!(
                table.decide(&key(&format!("k{i}")), Nanos::ZERO),
                Some(Verdict::Allow)
            );
        }
    }

    #[test]
    fn every_generation_is_freed_exactly_once() {
        // Dropped mid-migration: the draining and the active rung.
        let table = LockFreeTable::with_slots(8);
        let alive = Arc::clone(&table.gens_alive);
        for i in 0..6 {
            table.insert(rule(&format!("k{i}"), 1, 0), Nanos::ZERO);
        }
        assert!(migration_in_flight(&table));
        assert_eq!(alive.load(Ordering::Relaxed), 2);
        drop(table);
        assert_eq!(alive.load(Ordering::Relaxed), 0);

        // Dropped with a retired rung still queued: a pin that never
        // unpins keeps it from its free.
        let table = LockFreeTable::with_slots(8);
        let alive = Arc::clone(&table.gens_alive);
        for i in 0..6 {
            table.insert(rule(&format!("k{i}"), 1, 0), Nanos::ZERO);
        }
        std::mem::forget(table.pin());
        pump_until_retired(&table, Nanos::ZERO);
        assert_eq!(table.awaiting_free.load(Ordering::Acquire), 1);
        assert_eq!(alive.load(Ordering::Relaxed), 2);
        drop(table);
        assert_eq!(alive.load(Ordering::Relaxed), 0);

        // Normal use: resizes, removals and reclaims, then a drop.
        let table = LockFreeTable::with_slots(8);
        let alive = Arc::clone(&table.gens_alive);
        for i in 0..500 {
            let k = format!("n{i}");
            table.insert(rule(&k, 2, 0), secs(i % 7));
            assert_eq!(table.decide(&key(&k), secs(i % 7)), Some(Verdict::Allow));
            if i % 5 == 0 {
                assert!(table.remove(&key(&k)));
            }
        }
        pump_until_retired(&table, secs(7));
        assert!(!table
            .reclaim_idle(secs(9), Duration::from_secs(3), 50)
            .is_empty());
        assert!(table.cells.resizes.load(Ordering::Relaxed) >= 6);
        assert_only_active_allocated(&table);
        drop(table);
        assert_eq!(alive.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn retired_generations_are_freed_under_racing_readers() {
        // From 8 slots through at least six resizes. Each round, five roles
        // start together from one barrier: charging the anchor keys
        // (decide and consume_up_to), reading their shape, removing and
        // re-inserting churn keys then inserting fresh ones, listing (keys
        // and snapshot), and reclaiming idle keys. After each round every
        // anchor's credit is conserved and no anchor went missing; once
        // the migration drains, only the active rung is allocated. One
        // role does every insert, between migrations, as in the test
        // above.
        use std::sync::Barrier;
        const ROUNDS: u64 = 40;
        const CAPACITY: u64 = 400;
        const PASSES: usize = 150;
        const FRESH_PER_ROUND: u64 = 32;
        let anchors: Vec<QosKey> = (0..4).map(|i| key(&format!("anchor-{i}"))).collect();
        let shape = (Credits::from_whole(CAPACITY), RefillRate::ZERO);
        let table = LockFreeTable::with_slots(8);
        let mut churn: Vec<QosKey> = Vec::new();
        for round in 1..=ROUNDS {
            let now = secs(round);
            // Every anchor starts the round holding exactly CAPACITY.
            table.restore(
                anchors
                    .iter()
                    .map(|k| QosRule::per_second(k.clone(), CAPACITY, 0))
                    .collect(),
                now,
            );
            let fresh: Vec<QosKey> = (0..FRESH_PER_ROUND)
                .map(|i| key(&format!("churn-{round}-{i}")))
                .collect();
            let cycled: Vec<QosKey> = churn.iter().rev().step_by(7).take(8).cloned().collect();
            let barrier = Barrier::new(5);
            let (charged, missing) = std::thread::scope(|scope| {
                let charger = scope.spawn(|| {
                    barrier.wait();
                    let mut charged = vec![0u64; anchors.len()];
                    let mut missing = 0;
                    // Never enough to run an anchor dry: every call takes.
                    for pass in 0..PASSES {
                        for (i, k) in anchors.iter().enumerate() {
                            let took = if pass % 2 == 0 {
                                u64::from(table.decide(k, now) == Some(Verdict::Allow))
                            } else {
                                table.consume_up_to(k, 2, now)
                            };
                            charged[i] += took;
                            missing += u64::from(took == 0);
                        }
                    }
                    (charged, missing)
                });
                let shaper = scope.spawn(|| {
                    barrier.wait();
                    let mut missing = 0;
                    for _ in 0..PASSES {
                        for k in &anchors {
                            missing += u64::from(table.shape(k) != Some(shape));
                        }
                    }
                    missing
                });
                scope.spawn(|| {
                    barrier.wait();
                    for k in &cycled {
                        table.remove(k);
                        insert_between_migrations(
                            &table,
                            QosRule::per_second(k.clone(), 5, 0),
                            now,
                        );
                    }
                    for k in &fresh {
                        insert_between_migrations(
                            &table,
                            QosRule::per_second(k.clone(), 5, 0),
                            now,
                        );
                    }
                });
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..4 {
                        std::hint::black_box(table.keys());
                        std::hint::black_box(table.snapshot(now));
                    }
                });
                scope.spawn(|| {
                    barrier.wait();
                    table.reclaim_idle(now, Duration::from_secs(10), 8);
                });
                let (charged, missing) = charger.join().unwrap();
                (charged, missing + shaper.join().unwrap())
            });
            churn.extend(fresh);
            assert_eq!(missing, 0, "round {round}: an installed anchor missed");
            let credit: HashMap<QosKey, Credits> = table
                .snapshot(now)
                .into_iter()
                .map(|row| (row.key, row.credit))
                .collect();
            for (k, charged) in anchors.iter().zip(charged) {
                assert_eq!(
                    credit.get(k),
                    Some(&Credits::from_whole(CAPACITY - charged)),
                    "round {round}: {k} charged {charged}"
                );
            }
            pump_until_retired(&table, now);
            assert_only_active_allocated(&table);
        }
        assert!(table.cells.resizes.load(Ordering::Relaxed) >= 6);
    }
}
