//! Open- and closed-loop load drivers.
//!
//! Both drivers exercise an arbitrary blocking request function — one
//! thread per closed-loop worker, one per open-loop request — and produce
//! a [`LoadReport`] (latency histogram, per-second accepted/rejected series,
//! totals). The request function returns `Ok(true)` for an admitted
//! request, `Ok(false)` for a throttled one, and `Err` for a transport
//! failure.
//!
//! * [`run_closed_loop`] — `concurrency` workers each issue the next
//!   request as soon as the previous completes, exactly like `ab -c N`:
//!   this is how the paper saturates Janus for the scalability figures.
//! * [`run_open_loop`] — requests are issued on a fixed schedule
//!   (`rate_per_sec`, with optional uniform noise) regardless of response
//!   times, like the Fig. 13 photo-sharing client at "130 requests per
//!   second, with an intentionally added noise".

use crate::{Histogram, LatencyStats, SecondSeries};
use janus_hash::rng::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Configuration for [`run_closed_loop`].
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Number of concurrent workers (`ab -c`).
    pub concurrency: usize,
    /// Total requests to issue across all workers (`ab -n`).
    pub total_requests: u64,
}

/// Configuration for [`run_open_loop`].
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Offered load, requests per second.
    pub rate_per_sec: f64,
    /// How long to generate for.
    pub duration: Duration,
    /// Uniform inter-arrival noise: each gap is scaled by
    /// `1 ± noise_fraction`. Zero for a metronome.
    pub noise_fraction: f64,
    /// RNG seed for the noise.
    pub seed: u64,
}

/// The outcome of a load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Latency of every completed request.
    pub histogram: Histogram,
    /// Accepted/rejected counts per second of the run.
    pub series: SecondSeries,
    /// Requests that returned `Ok(true)`.
    pub accepted: u64,
    /// Requests that returned `Ok(false)`.
    pub rejected: u64,
    /// Requests that returned `Err`.
    pub errors: u64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_secs: f64,
}

impl LoadReport {
    /// Completed requests (accepted + rejected).
    pub fn completed(&self) -> u64 {
        self.accepted + self.rejected
    }

    /// Completed requests per second over the whole run.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / self.elapsed_secs
    }

    /// Latency summary.
    pub fn stats(&self) -> LatencyStats {
        LatencyStats::from_histogram(&self.histogram)
    }
}

impl OpenLoopConfig {
    /// The arrival schedule: each request's offset from the start of the
    /// run. Pure — the pacing is decided here, off the clock, and
    /// [`run_open_loop`] only sleeps until each offset.
    pub fn arrival_offsets(&self) -> Vec<Duration> {
        assert!(self.rate_per_sec > 0.0, "rate must be positive");
        assert!(
            (0.0..1.0).contains(&self.noise_fraction),
            "noise fraction must be in [0, 1)"
        );
        let mut rng = Rng::seed_from_u64(self.seed);
        let base_gap = Duration::from_secs_f64(1.0 / self.rate_per_sec);
        let mut offsets = Vec::new();
        let mut next_at = Duration::ZERO;
        while next_at < self.duration {
            offsets.push(next_at);
            let jitter = if self.noise_fraction > 0.0 {
                // Uniform in [-1, 1).
                1.0 + self.noise_fraction * (2.0 * rng.gen_f64() - 1.0)
            } else {
                1.0
            };
            next_at += base_gap.mul_f64(jitter);
        }
        offsets
    }
}

impl LoadReport {
    fn empty() -> LoadReport {
        LoadReport {
            histogram: Histogram::new(),
            series: SecondSeries::new(),
            accepted: 0,
            rejected: 0,
            errors: 0,
            elapsed_secs: 0.0,
        }
    }

    /// Fold in one finished request, issued `at` nanoseconds into the run.
    fn record<E>(&mut self, at: u64, latency: Duration, outcome: Result<bool, E>) {
        match outcome {
            Ok(ok) => {
                self.histogram.record_duration(latency);
                self.series.record(at, ok);
                if ok {
                    self.accepted += 1;
                } else {
                    self.rejected += 1;
                }
            }
            Err(_) => self.errors += 1,
        }
    }
}

/// Drive `request` with a fixed number of always-busy worker threads.
///
/// `request` is called with the global request index and must return
/// `Ok(accepted)` or `Err(_)`.
pub fn run_closed_loop<F, E>(config: ClosedLoopConfig, request: F) -> LoadReport
where
    F: Fn(u64) -> Result<bool, E> + Sync,
{
    assert!(config.concurrency > 0, "need at least one worker");
    let next = AtomicU64::new(0);
    let start = Instant::now();

    let worker = || {
        let mut report = LoadReport::empty();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= config.total_requests {
                return report;
            }
            let issued = Instant::now();
            let outcome = request(index);
            let at = (issued - start).as_nanos() as u64;
            report.record(at, issued.elapsed(), outcome);
        }
    };
    let per_worker: Vec<LoadReport> = thread::scope(|scope| {
        let workers: Vec<_> = (0..config.concurrency)
            .map(|_| scope.spawn(worker))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load worker panicked"))
            .collect()
    });

    let mut report = LoadReport::empty();
    for part in per_worker {
        report.histogram.merge(&part.histogram);
        report.accepted += part.accepted;
        report.rejected += part.rejected;
        report.errors += part.errors;
        for sample in part.series.samples() {
            for _ in 0..sample.accepted {
                report.series.record(sample.second * 1_000_000_000, true);
            }
            for _ in 0..sample.rejected {
                report.series.record(sample.second * 1_000_000_000, false);
            }
        }
    }
    report.elapsed_secs = start.elapsed().as_secs_f64();
    report
}

/// Drive `request` on a fixed arrival schedule, independent of response
/// latency (an *open* loop: slow responses do not slow the client down —
/// every request runs on its own thread).
pub fn run_open_loop<F, E>(config: OpenLoopConfig, request: F) -> LoadReport
where
    F: Fn(u64) -> Result<bool, E> + Sync,
    E: Send,
{
    let offsets = config.arrival_offsets();
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let request = &request;
    thread::scope(|scope| {
        for (index, offset) in offsets.into_iter().enumerate() {
            thread::sleep((start + offset).saturating_duration_since(Instant::now()));
            let tx = tx.clone();
            // Stamped here, on schedule: thread start-up is latency the
            // client sees, not time the request has yet to be issued.
            let issued_at = Instant::now();
            scope.spawn(move || {
                let outcome = request(index as u64);
                let _ = tx.send((issued_at, issued_at.elapsed(), outcome));
            });
        }
    });
    drop(tx);

    let mut report = LoadReport::empty();
    for (issued_at, latency, outcome) in rx {
        report.record((issued_at - start).as_nanos() as u64, latency, outcome);
    }
    report.elapsed_secs = start.elapsed().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn closed_loop_issues_exact_total() {
        let counter = AtomicU64::new(0);
        let report = run_closed_loop(
            ClosedLoopConfig {
                concurrency: 8,
                total_requests: 1000,
            },
            |_| {
                counter.fetch_add(1, Ordering::Relaxed);
                Ok::<bool, Infallible>(true)
            },
        );
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(report.accepted, 1000);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.errors, 0);
        assert_eq!(report.completed(), 1000);
        assert_eq!(report.histogram.count(), 1000);
    }

    #[test]
    fn closed_loop_classifies_outcomes() {
        let report = run_closed_loop(
            ClosedLoopConfig {
                concurrency: 2,
                total_requests: 300,
            },
            |i| match i % 3 {
                0 => Ok(true),
                1 => Ok(false),
                _ => Err("boom"),
            },
        );
        assert_eq!(report.accepted, 100);
        assert_eq!(report.rejected, 100);
        assert_eq!(report.errors, 100);
    }

    #[test]
    fn open_loop_schedule_paces_at_offered_rate() {
        let offsets = OpenLoopConfig {
            rate_per_sec: 100.0,
            duration: Duration::from_secs(5),
            noise_fraction: 0.0,
            seed: 0,
        }
        .arrival_offsets();
        // 100 req/s for 5 s = 500 arrivals, 100 in every second.
        assert_eq!(offsets.len(), 500);
        for second in 0..5u64 {
            let in_second = offsets.iter().filter(|o| o.as_secs() == second).count();
            assert_eq!(in_second, 100, "second {second}");
        }
    }

    #[test]
    fn open_loop_schedule_with_noise_keeps_mean_rate() {
        let offsets = OpenLoopConfig {
            rate_per_sec: 130.0,
            duration: Duration::from_secs(20),
            noise_fraction: 0.3,
            seed: 42,
        }
        .arrival_offsets();
        // 130 req/s ± noise over 20 s: expect within 10% of 2600.
        let total = offsets.len();
        assert!((2300..2900).contains(&total), "scheduled {total} requests");
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "arrivals in order");
    }

    #[test]
    fn open_loop_reports_every_scheduled_request() {
        let report = run_open_loop(
            OpenLoopConfig {
                rate_per_sec: 1000.0,
                duration: Duration::from_millis(100),
                noise_fraction: 0.0,
                seed: 0,
            },
            |i| Ok::<bool, Infallible>(i % 2 == 0),
        );
        assert_eq!(report.accepted, 50);
        assert_eq!(report.rejected, 50);
        assert!(report.elapsed_secs >= 0.099, "ran ahead of the schedule");
    }

    #[test]
    fn open_loop_is_not_blocked_by_slow_responses() {
        let in_flight = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        let report = run_open_loop(
            OpenLoopConfig {
                rate_per_sec: 250.0,
                duration: Duration::from_millis(400),
                noise_fraction: 0.0,
                seed: 0,
            },
            |_| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Each response takes 100 ms: an open loop must stack up
                // ~25 in-flight requests rather than slow down.
                thread::sleep(Duration::from_millis(100));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok::<bool, Infallible>(true)
            },
        );
        assert_eq!(report.completed(), 100);
        assert!(
            peak.load(Ordering::SeqCst) >= 20,
            "open loop throttled itself: peak in-flight {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn closed_loop_limits_concurrency() {
        let in_flight = AtomicU64::new(0);
        let violated = AtomicBool::new(false);
        run_closed_loop(
            ClosedLoopConfig {
                concurrency: 4,
                total_requests: 200,
            },
            |_| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                if now > 4 {
                    violated.store(true, Ordering::SeqCst);
                }
                thread::yield_now();
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok::<bool, Infallible>(true)
            },
        );
        assert!(!violated.load(Ordering::SeqCst), "exceeded concurrency");
    }

    #[test]
    fn report_throughput_math() {
        let report = LoadReport {
            histogram: Histogram::new(),
            series: SecondSeries::new(),
            accepted: 900,
            rejected: 100,
            errors: 5,
            elapsed_secs: 10.0,
        };
        assert_eq!(report.completed(), 1000);
        assert!((report.throughput_rps() - 100.0).abs() < 1e-9);
    }
}
