//! The latency summary the paper's figures report.

use crate::Histogram;

/// Average, P90, P99 and P99.9 latency — the exact statistics of the
/// paper's Fig. 5 and Fig. 13b — in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples summarized.
    pub count: u64,
    /// Arithmetic mean, microseconds.
    pub average_us: f64,
    /// 50th percentile, microseconds.
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
    /// Largest sample, microseconds.
    pub max_us: f64,
}

janus_types::impl_to_json!(LatencyStats {
    count,
    average_us,
    p50_us,
    p90_us,
    p99_us,
    p999_us,
    max_us,
});

impl LatencyStats {
    /// Summarize a histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        LatencyStats {
            count: h.count(),
            average_us: h.mean() / 1e3,
            p50_us: h.quantile(0.50) as f64 / 1e3,
            p90_us: h.quantile(0.90) as f64 / 1e3,
            p99_us: h.quantile(0.99) as f64 / 1e3,
            p999_us: h.quantile(0.999) as f64 / 1e3,
            max_us: h.max() as f64 / 1e3,
        }
    }

    /// One row of figure output: `avg / p90 / p99 / p99.9` in ms.
    pub fn row_ms(&self) -> String {
        format!(
            "avg {:.3} ms | P90 {:.3} ms | P99 {:.3} ms | P99.9 {:.3} ms (n={})",
            self.average_us / 1e3,
            self.p90_us / 1e3,
            self.p99_us / 1e3,
            self.p999_us / 1e3,
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarizes_uniform_data() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(us * 1_000);
        }
        let s = LatencyStats::from_histogram(&h);
        assert_eq!(s.count, 1000);
        assert!((s.average_us - 500.5).abs() < 1.0, "avg {}", s.average_us);
        assert!((s.p90_us - 900.0).abs() / 900.0 < 0.05, "p90 {}", s.p90_us);
        assert!((s.p99_us - 990.0).abs() / 990.0 < 0.05, "p99 {}", s.p99_us);
        assert!(s.p90_us <= s.p99_us && s.p99_us <= s.p999_us);
        assert!(s.p999_us <= s.max_us + 1e-9);
    }

    #[test]
    fn empty_histogram_gives_zero_stats() {
        let s = LatencyStats::from_histogram(&Histogram::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.average_us, 0.0);
        assert_eq!(s.p999_us, 0.0);
    }

    #[test]
    fn row_formats_milliseconds() {
        let mut h = Histogram::new();
        h.record(3_000_000); // 3 ms
        let row = LatencyStats::from_histogram(&h).row_ms();
        assert!(row.contains("n=1"), "{row}");
        assert!(row.contains("avg 2.9") || row.contains("avg 3.0"), "{row}");
    }
}
