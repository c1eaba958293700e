//! Virtual clock for deterministic tests and the cluster simulator.

use crate::{Clock, Nanos};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A manually-advanced [`Clock`].
///
/// `SimClock` starts at zero and only moves when [`advance`](Self::advance)
/// or [`set`](Self::set) is called, so leaky-bucket refill, TTL expiry and
/// checkpoint schedules become pure functions of the test script. It is
/// thread-safe: worker threads may read while a driver thread advances.
#[derive(Debug, Default)]
pub struct SimClock {
    now: AtomicU64,
}

impl SimClock {
    /// A new virtual clock at time zero.
    pub fn new() -> Self {
        SimClock {
            now: AtomicU64::new(0),
        }
    }

    /// A new virtual clock starting at `start`.
    pub fn starting_at(start: Nanos) -> Self {
        SimClock {
            now: AtomicU64::new(start.as_nanos()),
        }
    }

    /// Move the clock forward by `d` and return the new reading.
    pub fn advance(&self, d: Duration) -> Nanos {
        let delta = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let prev = self.now.fetch_add(delta, Ordering::SeqCst);
        Nanos::from_nanos(prev.saturating_add(delta))
    }

    /// Jump the clock to an absolute reading.
    ///
    /// `target` must not be earlier than the current reading; a virtual
    /// clock is still monotonic. A load, the check, then a plain store:
    /// no read-modify-write, so `set` is for the one thread that drives
    /// the clock (the simulator's event loop, its only caller). Readers
    /// on other threads still see every reading in order, but a `set`
    /// racing another `set` or an [`advance`](Self::advance) may lose
    /// one of them.
    ///
    /// # Panics
    /// Panics if `target` would move the clock backwards.
    #[inline]
    pub fn set(&self, target: Nanos) {
        let prev = self.now.load(Ordering::Relaxed);
        assert!(
            target.as_nanos() >= prev,
            "SimClock::set would move time backwards: {prev} -> {}",
            target.as_nanos()
        );
        self.now.store(target.as_nanos(), Ordering::Release);
    }
}

impl Clock for SimClock {
    #[inline]
    fn now(&self) -> Nanos {
        Nanos::from_nanos(self.now.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero_and_advances() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), Nanos::ZERO);
        let after = clock.advance(Duration::from_millis(250));
        assert_eq!(after, Nanos::from_millis(250));
        assert_eq!(clock.now(), Nanos::from_millis(250));
    }

    #[test]
    fn set_jumps_forward() {
        let clock = SimClock::new();
        clock.set(Nanos::from_secs(10));
        assert_eq!(clock.now(), Nanos::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn set_backwards_panics() {
        let clock = SimClock::starting_at(Nanos::from_secs(5));
        clock.set(Nanos::from_secs(1));
    }

    #[test]
    fn concurrent_readers_see_monotonic_time() {
        let clock = Arc::new(SimClock::new());
        let reader = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                let mut prev = Nanos::ZERO;
                for _ in 0..10_000 {
                    let now = clock.now();
                    assert!(now >= prev);
                    prev = now;
                }
            })
        };
        for _ in 0..1_000 {
            clock.advance(Duration::from_micros(1));
        }
        reader.join().unwrap();
    }

    #[test]
    fn advance_saturates() {
        let clock = SimClock::starting_at(Nanos::from_nanos(u64::MAX - 1));
        let now = clock.advance(Duration::from_secs(1));
        assert_eq!(now, Nanos::MAX);
    }
}
