//! Fig. 13 — application integration: throttling behaviour and latency.
//!
//! The paper drives the photo app at ~130 req/s (with noise) from one
//! client and shows (a) accepted/rejected rates over time for a custom
//! rule (refill 100/s, capacity 1000) and the default rule (refill 10/s,
//! capacity 100), and (b) the latency statistics of No-QoS vs admitted vs
//! rejected requests.
//!
//! Two modes:
//! * [`fig13a_virtual`] — the exact admission trace in virtual time
//!   (seconds of workload in microseconds of CPU), pinning the paper's
//!   burst-then-throttle shape deterministically;
//! * [`fig13_live`] — the same workload against the full live stack
//!   (Janus deployment + cache + photo store + app on loopback),
//!   producing real latency distributions.

use crate::app::{AppConfig, PhotoApp};
use crate::cache::CacheServer;
use crate::photos::{PhotoClient, PhotoServer};
use janus_bucket::LeakyBucket;
use janus_clock::Nanos;
use janus_core::{Deployment, DeploymentConfig, QosKey, QosRule, Verdict};
use janus_hash::rng::Rng;
use janus_net::http::{HttpClient, HttpRequest, StatusCode};
use janus_types::Result;
use janus_workload::{Histogram, LatencyStats, SecondSeries};
use std::time::{Duration, Instant};

/// One rule's virtual-time admission trace (Fig. 13a).
#[derive(Debug, Clone)]
pub struct Fig13aTrace {
    /// Legend label, e.g. "Refill=100".
    pub label: String,
    /// Refill rate, requests/second.
    pub refill_per_sec: u64,
    /// Bucket capacity, requests.
    pub capacity: u64,
    /// Accepted/rejected per second.
    pub series: SecondSeries,
}

janus_types::impl_to_json!(Fig13aTrace {
    label,
    refill_per_sec,
    capacity,
    series,
});

/// Generate a Fig. 13a trace in virtual time.
///
/// A client offers `rate` req/s with ±`noise` inter-arrival jitter for
/// `seconds`, charged against a single leaky bucket with the given rule.
pub fn fig13a_trace(
    label: &str,
    capacity: u64,
    refill_per_sec: u64,
    rate: f64,
    noise: f64,
    seconds: u64,
    seed: u64,
) -> Fig13aTrace {
    let mut bucket = LeakyBucket::full(
        janus_types::Credits::from_whole(capacity),
        janus_types::RefillRate::per_second(refill_per_sec),
        Nanos::ZERO,
    );
    let mut series = SecondSeries::new();
    let mut rng = Rng::seed_from_u64(seed);
    let base_gap_ns = 1e9 / rate;
    let mut t_ns = 0f64;
    let horizon = (seconds as f64) * 1e9;
    while t_ns < horizon {
        let now = Nanos::from_nanos(t_ns as u64);
        let accepted = bucket.try_consume(now) == Verdict::Allow;
        series.record(t_ns as u64, accepted);
        let jitter = 1.0 + noise * (2.0 * rng.gen_f64() - 1.0);
        t_ns += base_gap_ns * jitter;
    }
    Fig13aTrace {
        label: label.to_string(),
        refill_per_sec,
        capacity,
        series,
    }
}

/// The two paper traces: custom rule (100/s, 1000) and default rule
/// (10/s, 100) under a 130 req/s noisy client for 100 s.
pub fn fig13a_virtual(seed: u64) -> Vec<Fig13aTrace> {
    vec![
        fig13a_trace("Refill=100", 1000, 100, 130.0, 0.2, 100, seed),
        fig13a_trace("Refill=10", 100, 10, 130.0, 0.2, 100, seed ^ 0x5a5a),
    ]
}

/// Latency statistics of the live application run (Fig. 13b).
#[derive(Debug)]
pub struct Fig13Live {
    /// Baseline: the app without QoS integration.
    pub no_qos: LatencyStats,
    /// Admitted requests through the QoS-wrapped app.
    pub accepted: LatencyStats,
    /// Throttled requests (403s) — the paper's "rejected in 3 ms".
    pub rejected: LatencyStats,
    /// Accepted/rejected per second of the QoS run (live Fig. 13a).
    pub series: SecondSeries,
}

janus_types::impl_to_json!(Fig13Live {
    no_qos,
    accepted,
    rejected,
    series,
});

/// Parameters for the live run.
#[derive(Debug, Clone)]
pub struct Fig13LiveConfig {
    /// Offered rate, req/s (paper: 130).
    pub rate: f64,
    /// Run length per scenario.
    pub duration: Duration,
    /// The custom rule installed for the client IP.
    pub rule_capacity: u64,
    /// Refill of the custom rule, req/s.
    pub rule_refill: u64,
    /// Artificial per-query work in the photo store (stands in for real
    /// SQL/disk time).
    pub query_delay: Duration,
    /// RNG seed for arrival noise.
    pub seed: u64,
}

impl Default for Fig13LiveConfig {
    fn default() -> Self {
        Fig13LiveConfig {
            rate: 130.0,
            duration: Duration::from_secs(10),
            rule_capacity: 1000,
            rule_refill: 100,
            query_delay: Duration::from_millis(10),
            seed: 2018,
        }
    }
}

/// Drive one app endpoint open-loop, splitting latency by admission.
fn drive(
    addr: std::net::SocketAddr,
    rate: f64,
    duration: Duration,
    seed: u64,
) -> (Histogram, Histogram, SecondSeries) {
    let (tx, rx) = std::sync::mpsc::channel();
    let start = Instant::now();
    let deadline = start + duration;
    let mut rng = Rng::seed_from_u64(seed);
    let base_gap = Duration::from_secs_f64(1.0 / rate);
    let mut next_at = start;
    while next_at < deadline {
        std::thread::sleep(next_at.saturating_duration_since(Instant::now()));
        let tx = tx.clone();
        let issued = Instant::now();
        std::thread::spawn(move || {
            let outcome = HttpClient::oneshot(addr, &HttpRequest::get("/"));
            let latency = issued.elapsed();
            let accepted = matches!(&outcome, Ok(resp) if resp.status == StatusCode::OK);
            let _ = tx.send((issued - start, latency, accepted, outcome.is_ok()));
        });
        let jitter = 1.0 + 0.2 * (2.0 * rng.gen_f64() - 1.0);
        next_at += base_gap.mul_f64(jitter);
    }
    drop(tx);
    let mut accepted_hist = Histogram::new();
    let mut rejected_hist = Histogram::new();
    let mut series = SecondSeries::new();
    for (at, latency, accepted, transport_ok) in rx {
        if !transport_ok {
            continue;
        }
        series.record(at.as_nanos() as u64, accepted);
        if accepted {
            accepted_hist.record_duration(latency);
        } else {
            rejected_hist.record_duration(latency);
        }
    }
    (accepted_hist, rejected_hist, series)
}

/// Run the live Fig. 13 experiment: a baseline pass against the app
/// without QoS, then a pass against the QoS-wrapped app with the custom
/// rule installed for the client's IP.
pub fn fig13_live(config: Fig13LiveConfig) -> Result<Fig13Live> {
    // Shared substrate.
    let cache = CacheServer::spawn()?;
    let photos = PhotoServer::spawn(config.query_delay)?;
    let mut seeder = PhotoClient::connect(photos.addr())?;
    for i in 0..10 {
        seeder.add("alice", &format!("photo {i}"))?;
    }

    // Baseline: no QoS.
    let plain_app = PhotoApp::spawn(AppConfig {
        cache_addr: cache.addr(),
        photo_addr: photos.addr(),
        qos: None,
        latest_count: 10,
    })?;
    let (no_qos_hist, _, _) = drive(plain_app.addr(), config.rate, config.duration, config.seed);
    plain_app.shutdown();

    // QoS-wrapped: Janus deployment with the custom rule for this
    // client's IP (all loopback requests share 127.0.0.1, exactly like
    // the paper's single known-IP client).
    let deployment_config = DeploymentConfig {
        rules: vec![QosRule::per_second(
            QosKey::new("127.0.0.1")?,
            config.rule_capacity,
            config.rule_refill,
        )],
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(deployment_config)?;
    let qos_app = PhotoApp::spawn(AppConfig {
        cache_addr: cache.addr(),
        photo_addr: photos.addr(),
        qos: Some(deployment.endpoint()),
        latest_count: 10,
    })?;
    let (accepted_hist, rejected_hist, series) = drive(
        qos_app.addr(),
        config.rate,
        config.duration,
        config.seed ^ 0xdead,
    );

    Ok(Fig13Live {
        no_qos: LatencyStats::from_histogram(&no_qos_hist),
        accepted: LatencyStats::from_histogram(&accepted_hist),
        rejected: LatencyStats::from_histogram(&rejected_hist),
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_trace_custom_rule_bursts_then_settles() {
        // Paper Fig. 13a, custom rule: ~130 req/s accepted while the
        // bucket drains (net -30/s from 1000 credits ≈ 33 s), then the
        // accepted rate settles at the 100/s refill.
        let trace = fig13a_trace("Refill=100", 1000, 100, 130.0, 0.2, 100, 7);
        let early = trace.series.mean_accepted_rate(1, 20);
        assert!(
            (120.0..140.0).contains(&early),
            "early accepted rate {early}"
        );
        let late = trace.series.mean_accepted_rate(60, 100);
        assert!((95.0..106.0).contains(&late), "late accepted rate {late}");
        // Rejections only appear after the burst window.
        let early_rejected: u64 = trace.series.samples()[..20]
            .iter()
            .map(|s| s.rejected)
            .sum();
        assert_eq!(early_rejected, 0);
        let late_rejected: u64 = trace.series.samples()[60..]
            .iter()
            .map(|s| s.rejected)
            .sum();
        assert!(late_rejected > 500, "late rejected {late_rejected}");
    }

    #[test]
    fn virtual_trace_default_rule_throttles_within_seconds() {
        // Default rule: 100 credits at ~-120/s are gone in about a
        // second; thereafter 10/s.
        let trace = fig13a_trace("Refill=10", 100, 10, 130.0, 0.2, 100, 9);
        let first_second = trace.series.samples()[0].accepted;
        assert!(first_second > 90, "first second accepted {first_second}");
        let late = trace.series.mean_accepted_rate(10, 100);
        assert!((9.0..11.5).contains(&late), "late accepted rate {late}");
    }

    #[test]
    fn virtual_traces_are_deterministic() {
        let a = fig13a_virtual(2018);
        let b = fig13a_virtual(2018);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.series.total_accepted(), y.series.total_accepted());
            assert_eq!(x.series.total_rejected(), y.series.total_rejected());
        }
    }

    #[test]
    fn live_run_shape() {
        // Scaled-down live run: 2 s at 60 req/s with a small rule so
        // throttling kicks in quickly; photo-store delay 5 ms.
        let config = Fig13LiveConfig {
            rate: 60.0,
            duration: Duration::from_secs(2),
            rule_capacity: 20,
            rule_refill: 10,
            query_delay: Duration::from_millis(5),
            seed: 42,
        };
        let fig = fig13_live(config).unwrap();
        assert!(fig.no_qos.count > 80, "baseline count {}", fig.no_qos.count);
        assert!(fig.accepted.count > 10, "accepted {}", fig.accepted.count);
        assert!(fig.rejected.count > 10, "rejected {}", fig.rejected.count);
        // Rejected requests bypass the app: they must be much faster than
        // admitted ones (paper: 3 ms vs 30 ms at P90).
        assert!(
            fig.rejected.p90_us < fig.accepted.p90_us / 2.0,
            "rejected P90 {} vs accepted P90 {}",
            fig.rejected.p90_us,
            fig.accepted.p90_us
        );
        // QoS adds only modest overhead to accepted requests.
        assert!(
            fig.accepted.p90_us < fig.no_qos.p90_us * 3.0,
            "accepted P90 {} vs baseline {}",
            fig.accepted.p90_us,
            fig.no_qos.p90_us
        );
    }
}
