//! The [`Nanos`] monotonic timestamp type.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A monotonic timestamp in nanoseconds since an arbitrary per-clock origin.
///
/// `Nanos` is deliberately *not* convertible to wall-clock time: only the
/// difference between two readings of the same clock is meaningful. All
/// arithmetic saturates, so a bucket refill computed across a pathological
/// interval can never panic or wrap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The clock origin.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable timestamp.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from a raw nanosecond count.
    pub const fn from_nanos(n: u64) -> Self {
        Nanos(n)
    }

    /// Construct from microseconds (saturating).
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us.saturating_mul(1_000))
    }

    /// Construct from milliseconds (saturating).
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds (saturating).
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s.saturating_mul(1_000_000_000))
    }

    /// Raw nanosecond count since the clock origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the clock origin.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the clock origin.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the clock origin, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed time from `earlier` to `self`, zero if `earlier` is later.
    pub fn saturating_since(self, earlier: Nanos) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a [`Duration`].
    pub fn saturating_add(self, d: Duration) -> Nanos {
        let extra = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        Nanos(self.0.saturating_add(extra))
    }

    /// The earlier of two timestamps.
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two timestamps.
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add<Duration> for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Duration) -> Nanos {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for Nanos {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Nanos> for Nanos {
    type Output = Duration;
    fn sub(self, rhs: Nanos) -> Duration {
        self.saturating_since(rhs)
    }
}

impl From<Duration> for Nanos {
    fn from(d: Duration) -> Nanos {
        Nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(2), Nanos::from_millis(2_000));
        assert_eq!(Nanos::from_millis(3), Nanos::from_micros(3_000));
        assert_eq!(Nanos::from_micros(5), Nanos::from_nanos(5_000));
    }

    #[test]
    fn saturating_since_never_negative() {
        let a = Nanos::from_secs(1);
        let b = Nanos::from_secs(2);
        assert_eq!(b.saturating_since(a), Duration::from_secs(1));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn add_saturates_at_max() {
        let near_max = Nanos::from_nanos(u64::MAX - 5);
        assert_eq!(near_max + Duration::from_secs(100), Nanos::MAX);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos::from_nanos(5).to_string(), "5ns");
        assert_eq!(Nanos::from_micros(5).to_string(), "5.000us");
        assert_eq!(Nanos::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Nanos::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn min_max() {
        let a = Nanos::from_secs(1);
        let b = Nanos::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    /// SplitMix64: `janus_hash::rng` sits above this crate.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn sub_then_add_roundtrips() {
        let mut state = 0x4E41_4E4F_0001;
        for _ in 0..256 {
            let start = Nanos::from_nanos(splitmix64(&mut state) % (u64::MAX / 2));
            let d = Duration::from_nanos(splitmix64(&mut state) % (u64::MAX / 4));
            assert_eq!((start + d) - start, d);
        }
    }

    #[test]
    fn ordering_matches_raw() {
        let mut state = 0x4E41_4E4F_0002;
        for case in 0..256 {
            let a = splitmix64(&mut state);
            // Random pairs are never equal; every eighth case is.
            let b = if case % 8 == 0 {
                a
            } else {
                splitmix64(&mut state)
            };
            assert_eq!(Nanos::from_nanos(a) <= Nanos::from_nanos(b), a <= b);
        }
    }
}
