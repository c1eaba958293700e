#![warn(missing_docs)]
//! Core vocabulary types for the Janus QoS framework.
//!
//! This crate defines the data that flows between Janus layers:
//!
//! * [`QosKey`] — the string key that identifies a QoS rule (a user id, an
//!   IP address, a `user:database` pair, a User-Agent, ...).
//! * [`Credits`] and [`RefillRate`] — fixed-point credit arithmetic for the
//!   leaky bucket, exact under any interleaving of refills and consumes.
//! * [`QosRule`] — the durable description of one bucket: key, capacity and
//!   refill rate, as stored in the `qos_rules` database table.
//! * [`Verdict`], [`QosRequest`], [`QosResponse`] — the key-value
//!   request/response admission protocol.
//! * [`codec`] — the length-delimited binary wire format spoken over UDP
//!   between the request router and the QoS server.
//! * [`decimal`] — the `core::fmt`-free digit writer behind rule rows and
//!   the simulator's trace.
//! * [`json`] — the minimal JSON value behind the operator surface and the
//!   machine-readable reports.
//! * [`sync`] — poison-free locks and the shutdown signal every thread
//!   shell uses.
//!
//! Everything here is dependency-light and shared by every other crate in
//! the workspace.

pub mod codec;
mod credits;
pub mod decimal;
mod error;
pub mod json;
mod key;
mod message;
mod rule;
pub mod sync;

pub use credits::{Credits, RefillRate, MICROCREDITS_PER_CREDIT};
pub use error::{JanusError, Result};
pub use key::{KeyError, QosKey, INLINE_KEY_BYTES, MAX_KEY_BYTES};
pub use message::{
    AttemptMeta, Lease, LeaseReport, QosRequest, QosResponse, RequestId, RuleHint, Verdict,
};
pub use rule::{format_micro_decimal, parse_micro_decimal, QosRule};

/// A counting global allocator for this crate's test binary only: the
/// zero-allocation guarantees of the request hot path (inline [`QosKey`],
/// borrowing codec) are asserted by counting allocations, not by eyeball.
/// Counters are per-thread so `cargo test`'s parallel tests cannot perturb
/// each other's windows.
#[cfg(test)]
pub(crate) mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-initialized: reading the counter never allocates, so the
        // allocator itself is re-entrancy safe.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    pub struct CountingAllocator;

    // SAFETY: delegates every operation to `System`; the only addition is
    // a thread-local counter bump, which does not allocate.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            // SAFETY: the caller's `GlobalAlloc::alloc` contract, passed
            // through unchanged.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator,
            // with this `layout` — the caller's contract.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            // SAFETY: the caller's contract, passed through unchanged.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            // SAFETY: `ptr` came from `System` through this allocator,
            // with this `layout` — the caller's contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTER: CountingAllocator = CountingAllocator;

    /// Heap allocations made by the current thread while `f` runs.
    pub fn allocations_during(f: impl FnOnce()) -> u64 {
        let before = ALLOCS.with(|c| c.get());
        f();
        ALLOCS.with(|c| c.get()) - before
    }
}

/// The seed source of this crate's property loops: a few-line SplitMix64,
/// because `janus_hash::rng` sits above this crate. Every loop runs
/// [`testrng::CASES`] cases from a fixed seed, so a failure reproduces.
#[cfg(test)]
pub(crate) mod testrng {
    /// Cases per property.
    pub const CASES: usize = 256;

    pub struct TestRng(u64);

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng(seed)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`n > 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform in `lo..=hi`.
        pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
            match (hi - lo).checked_add(1) {
                Some(span) => lo + self.below(span),
                None => self.next_u64(),
            }
        }

        pub fn coin(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }

        /// `min..=max` characters drawn from `alphabet`.
        pub fn string_of(&mut self, alphabet: &[u8], min: usize, max: usize) -> String {
            let len = self.between(min as u64, max as u64);
            (0..len)
                .map(|_| alphabet[self.below(alphabet.len() as u64) as usize] as char)
                .collect()
        }

        /// `min..=max` printable ASCII characters (`[ -~]`).
        pub fn printable(&mut self, min: usize, max: usize) -> String {
            let alphabet: Vec<u8> = (b' '..=b'~').collect();
            self.string_of(&alphabet, min, max)
        }
    }
}
