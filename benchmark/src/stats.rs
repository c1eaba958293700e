//! Small measurement helpers: medians, a log-linear histogram, and the
//! `/proc` readers for CPU time and resident memory.

use std::fs;
use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Time further runs of `setup` into `samples` for a quarter second (at
/// most 2,000): a sub-millisecond set-up needs hundreds of samples for a
/// steady median, a one-second set-up keeps its repetitions' samples.
pub fn sample_setup<T>(samples: &mut Vec<f64>, mut setup: impl FnMut() -> T) {
    let filler = Instant::now();
    while filler.elapsed() < Duration::from_millis(250) && samples.len() < 2000 {
        let started = Instant::now();
        std::hint::black_box(setup());
        samples.push(started.elapsed().as_secs_f64());
    }
}

/// Values below this are counted exactly, one bucket per nanosecond.
const EXACT: u64 = 2048;
const EXACT_BITS: u32 = 11;
/// Sub-buckets per power of two above `EXACT` (0.8 % resolution).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves covered above `EXACT`: values up to 2^41 ns (~37 min).
const OCTAVES: usize = 30;

/// Nanosecond histogram: exact to 2 µs, 0.8 % log-linear beyond. Fixed
/// memory and O(1) `record`, so sampling never allocates and two runs
/// of different speed touch the same pages (keeps `rss_mb` steady).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; EXACT as usize + OCTAVES * SUB],
            total: 0,
            sum: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let sub = (ns >> (octave - SUB_BITS)) as usize & (SUB - 1);
        let idx = EXACT as usize + (octave - EXACT_BITS) as usize * SUB + sub;
        idx.min(EXACT as usize + OCTAVES * SUB - 1)
    }

    /// Lower bound and width of bucket `idx`.
    fn bounds(idx: usize) -> (f64, f64) {
        if idx < EXACT as usize {
            return (idx as f64, 1.0);
        }
        let rel = idx - EXACT as usize;
        let octave = EXACT_BITS + (rel / SUB) as u32;
        let width = 1u64 << (octave - SUB_BITS);
        (((SUB + rel % SUB) as u64 * width) as f64, width as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.sum += ns;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q` quantile (0..=1), interpolated inside its bucket so the
    /// value keeps sub-bucket digits. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0.0;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = seen + count as f64;
            if next >= rank {
                let (lo, width) = Self::bounds(idx);
                return lo + width * ((rank - seen) / count as f64);
            }
            seen = next;
        }
        let (lo, width) = Self::bounds(self.counts.len() - 1);
        lo + width
    }
}

/// CPU nanoseconds the calling thread has run, from
/// `/proc/thread-self/schedstat`; falls back to the 10 ms ticks of
/// `/proc/thread-self/stat` where scheduler statistics are compiled out.
pub fn thread_cpu_ns() -> u64 {
    if let Ok(text) = fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = text.split_whitespace().next().and_then(|s| s.parse().ok()) {
            if ns > 0 {
                return ns;
            }
        }
    }
    let text = fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, 12th and 13th after the name.
    let after = text.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

fn status_kb(field: &str) -> u64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process, kB, since the last
/// [`reset_peak_rss`] (or since it started).
pub fn vm_hwm_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Restart the kernel's peak-RSS watermark at the current resident set,
/// so each repetition has a peak of its own. Best effort: where
/// `/proc/self/clear_refs` is not writable the peak stays cumulative.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Current resident set of this process, kB.
pub fn vm_rss_kb() -> u64 {
    status_kb("VmRSS:")
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread to the `index`-th CPU it is allowed to run on
/// (wrapping), so the two client threads keep one core each instead of
/// being migrated — the per-core plane's own placement. Best effort: a
/// refused call leaves the thread where the scheduler puts it.
pub fn pin_to_allowed_cpu(index: usize) {
    const WORDS: usize = 16; // 1,024 CPUs
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..WORDS * 64)
        .filter(|cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[index % cpus.len()];
    let mut only = [0u64; WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the byte size passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, WORDS * 8, only.as_ptr()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_the_samples() {
        let mut h = Histogram::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        assert!((h.quantile(0.5) - 500.0).abs() <= 1.0);
        assert!((h.quantile(0.99) - 990.0).abs() <= 1.0);
        let mut wide = Histogram::new();
        for ns in [3_000u64, 50_000, 1_000_000, 40_000_000] {
            wide.record(ns);
            let (lo, width) = Histogram::bounds(Histogram::index(ns));
            assert!(
                lo <= ns as f64 && (ns as f64) < lo + width,
                "{ns} in [{lo}, +{width})"
            );
            assert!(width / lo < 0.01);
        }
        assert_eq!(wide.count(), 4);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
