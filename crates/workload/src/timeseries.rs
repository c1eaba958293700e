//! Per-second accepted/rejected counters (Fig. 13a's time series).

/// One second of the Fig. 13a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecondSample {
    /// Seconds since the start of the run.
    pub second: u64,
    /// Requests admitted in this second.
    pub accepted: u64,
    /// Requests throttled in this second.
    pub rejected: u64,
}

impl SecondSample {
    /// Total requests issued in this second.
    pub fn total(&self) -> u64 {
        self.accepted + self.rejected
    }
}

/// Accepted/rejected request counts bucketed into one-second bins.
#[derive(Debug, Clone, Default)]
pub struct SecondSeries {
    bins: Vec<(u64, u64)>,
}

janus_types::impl_to_json!(SecondSeries { bins });

impl SecondSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one request outcome at `at_nanos` since the run start.
    pub fn record(&mut self, at_nanos: u64, accepted: bool) {
        let second = (at_nanos / 1_000_000_000) as usize;
        if self.bins.len() <= second {
            self.bins.resize(second + 1, (0, 0));
        }
        let bin = &mut self.bins[second];
        if accepted {
            bin.0 += 1;
        } else {
            bin.1 += 1;
        }
    }

    /// Number of one-second bins (the run duration, rounded up).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// The samples in time order.
    pub fn samples(&self) -> Vec<SecondSample> {
        self.bins
            .iter()
            .enumerate()
            .map(|(second, &(accepted, rejected))| SecondSample {
                second: second as u64,
                accepted,
                rejected,
            })
            .collect()
    }

    /// Total accepted over the whole run.
    pub fn total_accepted(&self) -> u64 {
        self.bins.iter().map(|b| b.0).sum()
    }

    /// Total rejected over the whole run.
    pub fn total_rejected(&self) -> u64 {
        self.bins.iter().map(|b| b.1).sum()
    }

    /// Mean accepted rate over seconds `[from, to)`, requests/second.
    /// Useful for asserting steady-state throttle rates (e.g. "after the
    /// bucket drains, accepted ≈ refill rate").
    pub fn mean_accepted_rate(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.bins.len());
        if from >= to {
            return 0.0;
        }
        let sum: u64 = self.bins[from..to].iter().map(|b| b.0).sum();
        sum as f64 / (to - from) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_by_second() {
        let mut s = SecondSeries::new();
        s.record(0, true);
        s.record(999_999_999, false);
        s.record(1_000_000_000, true);
        s.record(2_500_000_000, true);
        let samples = s.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!((samples[0].accepted, samples[0].rejected), (1, 1));
        assert_eq!((samples[1].accepted, samples[1].rejected), (1, 0));
        assert_eq!((samples[2].accepted, samples[2].rejected), (1, 0));
        assert_eq!(samples[0].total(), 2);
    }

    #[test]
    fn totals() {
        let mut s = SecondSeries::new();
        for i in 0..100 {
            s.record(i * 10_000_000, i % 3 == 0);
        }
        assert_eq!(s.total_accepted(), 34);
        assert_eq!(s.total_rejected(), 66);
    }

    #[test]
    fn mean_rate_over_window() {
        let mut s = SecondSeries::new();
        // 10 accepted per second for 5 seconds.
        for sec in 0..5u64 {
            for i in 0..10u64 {
                s.record(sec * 1_000_000_000 + i, true);
            }
        }
        assert_eq!(s.mean_accepted_rate(0, 5), 10.0);
        assert_eq!(s.mean_accepted_rate(2, 4), 10.0);
        assert_eq!(s.mean_accepted_rate(4, 2), 0.0);
        assert_eq!(s.mean_accepted_rate(0, 100), 10.0);
    }

    #[test]
    fn empty_series() {
        let s = SecondSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.total_accepted(), 0);
        assert_eq!(s.mean_accepted_rate(0, 10), 0.0);
    }

    #[test]
    fn sparse_seconds_filled_with_zeros() {
        let mut s = SecondSeries::new();
        s.record(5_000_000_000, true);
        assert_eq!(s.len(), 6);
        assert_eq!(s.samples()[3].total(), 0);
    }
}
