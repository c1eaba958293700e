//! Poison-free lock wrappers and the shutdown signal, over `std::sync`.
//!
//! Every crate in the workspace builds with no external dependencies, so
//! this module provides the unwrap-free calling convention (`lock()` /
//! `read()` / `write()` return guards directly) on top of the standard
//! library. Poisoning is deliberately ignored — a panic while holding one
//! of these locks propagates to the panicking thread's owner anyway, and
//! admission state is reconstructible from the database, so "continue
//! with the last value" is what every call site was written against.
//!
//! [`Shutdown`] is how an owner stops the threads it spawned: a flag plus
//! a condition variable, so a periodic loop sleeps on
//! [`Shutdown::wait_timeout`] instead of `thread::sleep` and wakes the
//! moment the owner triggers.
//!
//! Debug builds count every blocking exclusive acquisition
//! ([`Mutex::lock`], [`RwLock::write`]) per thread, so a test can pin
//! that a hot path takes none ([`exclusive_acquisitions`]).
//!
//! [`Striped`] keeps one value per thread stripe, each on cache lines of
//! its own, so a hot path writes only memory its own thread uses.
//! [`thread_stripe`] deals the stripes, the same index for a thread in
//! every striped structure it touches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

#[cfg(debug_assertions)]
thread_local! {
    static EXCLUSIVE_ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Blocking exclusive acquisitions ([`Mutex::lock`], [`RwLock::write`])
/// the calling thread has made so far. Debug builds only: the counter is
/// compiled out of optimized builds.
#[cfg(debug_assertions)]
pub fn exclusive_acquisitions() -> u64 {
    EXCLUSIVE_ACQUISITIONS.with(|n| n.get())
}

fn count_exclusive() {
    #[cfg(debug_assertions)]
    EXCLUSIVE_ACQUISITIONS.with(|n| n.set(n.get() + 1));
}

/// `T` alone on its cache lines, so a writer of one value never
/// invalidates a neighbour's line. 128 bytes covers the adjacent-line
/// prefetcher pairing 64-byte lines on x86-64.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Stripes per [`Striped`] value: up to this many threads never share one.
pub const STRIPES: usize = 8;

/// The stripe the calling thread works in: dealt round-robin on the
/// thread's first call, then fixed, and the same in every [`Striped`]
/// value the thread touches.
pub fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    INDEX.with(|index| *index)
}

/// [`STRIPES`] values of `T`, each [`CachePadded`]. A thread works in
/// [`mine`](Self::mine); readers of the whole combine [`iter`](Self::iter).
/// Threads beyond the stripe count share a stripe, so `T` must still be
/// safe to share. One thread sees one stripe.
#[derive(Debug)]
pub struct Striped<T>([CachePadded<T>; STRIPES]);

impl<T> Striped<T> {
    /// Every stripe built by `make`.
    pub fn new(mut make: impl FnMut() -> T) -> Self {
        Striped(std::array::from_fn(|_| CachePadded(make())))
    }

    /// The calling thread's stripe.
    pub fn mine(&self) -> &T {
        &self.0[thread_stripe()]
    }

    /// Every stripe, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|stripe| &stripe.0)
    }
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Self::new(T::default)
    }
}

impl<T> Striped<RwLock<T>> {
    /// Every stripe's write guard, taken in index order so two writers
    /// never deadlock. For read-mostly state replicated once per stripe:
    /// a reader takes only its own stripe's read guard, a writer holds all
    /// of these and leaves every replica equal.
    pub fn write_all(&self) -> [RwLockWriteGuard<'_, T>; STRIPES] {
        // `from_fn` builds the elements in ascending index order.
        std::array::from_fn(|i| self.0[i].write())
    }
}

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new lock holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        count_exclusive();
        self.0.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(poison)) => Some(poison.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0
            .get_mut()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

/// A readers-writer lock whose guards never surface poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Acquire the exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        count_exclusive();
        self.0.write().unwrap_or_else(|poison| poison.into_inner())
    }
}

/// A one-way stop signal shared by an owner and the threads it spawned.
///
/// Cheap to clone; all clones observe the same flag. Once triggered it
/// stays triggered.
#[derive(Debug, Clone, Default)]
pub struct Shutdown(Arc<(Mutex<bool>, Condvar)>);

impl Shutdown {
    /// A fresh, untriggered signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the flag and wake every thread parked in
    /// [`wait_timeout`](Self::wait_timeout).
    pub fn trigger(&self) {
        *self.0 .0.lock() = true;
        self.0 .1.notify_all();
    }

    /// Has [`trigger`](Self::trigger) been called?
    pub fn is_triggered(&self) -> bool {
        *self.0 .0.lock()
    }

    /// Sleep up to `timeout`, returning early — with `true` — as soon as
    /// the signal is triggered. A periodic loop is
    /// `while !shutdown.wait_timeout(period) { tick() }`.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stopped = self.0 .0.lock();
        while !*stopped {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            stopped = self
                .0
                 .1
                .wait_timeout(stopped, left)
                .unwrap_or_else(|poison| poison.into_inner())
                .0;
        }
        *stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn exclusive_acquisitions_count_lock_and_write_only() {
        let m = Mutex::new(0);
        let l = RwLock::new(0);
        let before = exclusive_acquisitions();
        drop(m.try_lock());
        drop(l.read());
        assert_eq!(exclusive_acquisitions(), before);
        drop(m.lock());
        drop(l.write());
        assert_eq!(exclusive_acquisitions(), before + 2);
    }

    #[test]
    fn cache_padded_values_never_share_a_line() {
        let pair = [CachePadded(1u8), CachePadded(2u8)];
        assert_eq!(std::mem::size_of_val(&pair), 256);
        assert_eq!(*pair[0] + *pair[1], 3);
    }

    #[test]
    fn a_thread_works_in_the_same_stripe_of_every_striped_value() {
        let counts: Striped<AtomicUsize> = Striped::default();
        let replicas: Striped<RwLock<u32>> = Striped::default();
        counts.mine().fetch_add(1, Ordering::Relaxed);
        for mut replica in replicas.write_all() {
            *replica = 5;
        }
        let touched = counts.iter().position(|n| n.load(Ordering::Relaxed) == 1);
        assert_eq!(touched, Some(thread_stripe()));
        assert_eq!(*replicas.mine().read(), 5);
        assert!(replicas.iter().all(|replica| *replica.read() == 5));
    }

    #[test]
    fn mutex_survives_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // Poison is ignored: the next lock() succeeds.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn shutdown_wait_times_out_then_wakes_on_trigger() {
        let shutdown = Shutdown::new();
        assert!(!shutdown.is_triggered());
        assert!(!shutdown.wait_timeout(Duration::from_millis(5)));
        let waiter = shutdown.clone();
        let parked = std::thread::spawn(move || {
            let started = Instant::now();
            (
                waiter.wait_timeout(Duration::from_secs(30)),
                started.elapsed(),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        shutdown.trigger();
        let (stopped, waited) = parked.join().unwrap();
        assert!(stopped);
        assert!(
            waited < Duration::from_secs(10),
            "trigger did not wake the waiter"
        );
        // Triggered stays triggered: later waits return at once.
        assert!(shutdown.wait_timeout(Duration::from_secs(30)));
        assert!(shutdown.is_triggered());
    }
}
