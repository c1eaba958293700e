//! Overload soak: drive one QoS server past saturation with duplicated,
//! deadline-stamped traffic and score the overload-control invariants.
//!
//! The soak talks to the server the way a deadline-propagating router
//! does — `stamp_deadlines` on, so every attempt carries its remaining
//! budget and logical-request nonce — and injects datagram duplication on
//! the request path, which is indistinguishable from a router retry at
//! the server. Three phases:
//!
//! 1. **Calibrate** — closed-loop workers hammer an effectively unmetered
//!    key with no faults, measuring the healthy throughput and p99.
//! 2. **Overload** — twice the workers, duplication on: offered load is
//!    ~2× the calibrated saturation point plus the duplicate copies.
//! 3. **Meter** — each zero-refill metered key takes several times its
//!    burst in logical requests, every datagram subject to duplication.
//!
//! Scored invariants ([`OverloadReport::passed`]):
//!
//! * **Bounded latency** — overload p99 stays under
//!   `max(healthy p99 × p99_multiplier, p99_floor)`; the floor absorbs
//!   loopback scheduler jitter on busy CI boxes.
//! * **Goodput** — answered throughput under 2× offered load stays above
//!   `goodput_floor` of the calibrated healthy throughput (no congestion
//!   collapse: shed cheap, answer the rest).
//! * **Credit exactness** — every zero-refill metered key admits *exactly*
//!   its capacity despite duplicated attempts: the dedup window must
//!   absorb every duplicate (at-least-once delivery, exactly-once
//!   charging), and the drain must still spend the whole burst.
//! * **Dedup evidence** — the server reports duplicate hits, proving the
//!   duplication actually exercised the window.
//!
//! The harness returns an [`OverloadReport`]; `tests/overload.rs` asserts
//! the verdicts and archives the report as `target/tmp/overload_soak.json`.

use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
use janus_net::FaultPlan;
use janus_server::{QosServer, QosServerConfig};
use janus_types::{JanusError, QosKey, QosRequest, QosRule, Result, Verdict};
use janus_workload::Histogram;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for one overload soak run.
#[derive(Debug, Clone)]
pub struct OverloadSoakConfig {
    /// Closed-loop workers in the calibration phase; the overload phase
    /// doubles this.
    pub concurrency: usize,
    /// Wall-clock length of the calibration and overload phases each.
    pub phase_duration: Duration,
    /// Per-attempt response timeout of the soak clients.
    pub request_timeout: Duration,
    /// Retries after the first attempt.
    pub max_retries: u32,
    /// Probability that a request datagram is duplicated (overload and
    /// meter phases).
    pub duplicate_prob: f64,
    /// How long after the original the duplicate copy is transmitted.
    pub duplicate_delay: Duration,
    /// Zero-refill metered keys checked for credit exactness.
    pub meter_keys: usize,
    /// Burst capacity of each metered key.
    pub meter_capacity: u64,
    /// Overload p99 must stay under `healthy p99 × p99_multiplier` …
    pub p99_multiplier: f64,
    /// … or under this absolute floor, whichever is larger (loopback
    /// jitter makes a pure multiple flaky when the healthy p99 is tiny).
    pub p99_floor: Duration,
    /// Overload-phase answered throughput must stay above this fraction
    /// of the calibrated healthy throughput.
    pub goodput_floor: f64,
    /// The server under test. Defaults to two workers and a modest FIFO
    /// so the overload phase actually queues.
    pub server: QosServerConfig,
}

impl Default for OverloadSoakConfig {
    fn default() -> Self {
        let mut server = QosServerConfig::test_defaults();
        server.workers = 2;
        server.fifo_capacity = 512;
        OverloadSoakConfig {
            concurrency: 4,
            phase_duration: Duration::from_millis(750),
            request_timeout: Duration::from_millis(5),
            max_retries: 3,
            duplicate_prob: 0.4,
            duplicate_delay: Duration::from_micros(200),
            meter_keys: 4,
            meter_capacity: 20,
            p99_multiplier: 5.0,
            p99_floor: Duration::from_millis(5),
            // Measured, not guessed: the soak's clients share the box with
            // the server, so the 40 % duplicated datagrams cost the same
            // CPUs the answers need. Unloaded 2-vCPU runs score 0.79–1.03
            // (one in ~35 dips to ~0.6), runs beside a CPU hog 0.55–0.70;
            // a congestion collapse scores far below either.
            goodput_floor: 0.5,
            server,
        }
    }
}

/// Outcome counts for one closed-loop phase.
#[derive(Debug, Clone)]
pub struct OverloadPhase {
    /// Phase name (`calibrate`, `overload`).
    pub name: String,
    /// Closed-loop workers driving the phase.
    pub workers: usize,
    /// Requests that got an answer (allow or deny).
    pub answered: u64,
    /// Requests admitted.
    pub allowed: u64,
    /// Requests throttled.
    pub denied: u64,
    /// Requests that exhausted the retry budget unanswered.
    pub errors: u64,
    /// Answered throughput, requests per second.
    pub throughput_rps: f64,
    /// Client-observed p99 call latency, microseconds.
    pub p99_us: u64,
    /// Wall-clock length of the phase.
    pub duration_ms: u64,
}

janus_types::impl_to_json!(OverloadPhase {
    name,
    workers,
    answered,
    allowed,
    denied,
    errors,
    throughput_rps,
    p99_us,
    duration_ms,
});

/// Everything an overload soak measured, plus the pass/fail verdicts.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// The calibration and overload phases, in order.
    pub phases: Vec<OverloadPhase>,
    /// `max(healthy p99 × multiplier, floor)`, microseconds.
    pub p99_bound_us: u64,
    /// Overload p99 stayed under the bound.
    pub latency_ok: bool,
    /// Overload answered throughput over calibrated throughput.
    pub goodput_ratio: f64,
    /// The floor the ratio was scored against.
    pub goodput_floor: f64,
    /// `goodput_ratio >= goodput_floor`.
    pub goodput_ok: bool,
    /// Allow verdicts observed per metered key, in key order.
    pub meter_allowed: Vec<u64>,
    /// The burst capacity every metered key was provisioned with.
    pub meter_capacity: u64,
    /// Every metered key admitted exactly its capacity.
    pub credit_exact_ok: bool,
    /// Request datagrams the fault plan duplicated across the soak.
    pub duplicates_injected: u64,
    /// Duplicate attempts the server absorbed from its dedup window.
    pub dedup_hits: u64,
    /// `dedup_hits > 0` — the duplication actually reached the window.
    pub dedup_ok: bool,
    /// Server-side sheds: full queue.
    pub shed_full: u64,
    /// Server-side sheds: deadline budget spent.
    pub shed_expired: u64,
    /// Server-side sheds: sojourn governor.
    pub shed_sojourn: u64,
    /// Server-side 99th-percentile queue sojourn, microseconds.
    pub sojourn_p99_us: u64,
    /// Wall-clock length of the soak.
    pub elapsed_ms: u64,
}

janus_types::impl_to_json!(OverloadReport {
    phases,
    p99_bound_us,
    latency_ok,
    goodput_ratio,
    goodput_floor,
    goodput_ok,
    meter_allowed,
    meter_capacity,
    credit_exact_ok,
    duplicates_injected,
    dedup_hits,
    dedup_ok,
    shed_full,
    shed_expired,
    shed_sojourn,
    sojourn_p99_us,
    elapsed_ms,
});

impl OverloadReport {
    /// All four invariants held.
    pub fn passed(&self) -> bool {
        self.latency_ok && self.goodput_ok && self.credit_exact_ok && self.dedup_ok
    }

    /// Pretty-printed JSON for archiving (`target/tmp/overload_soak.json`).
    pub fn to_json_string(&self) -> String {
        janus_types::json::ToJson::to_json(self).pretty()
    }
}

struct PhaseOutcome {
    answered: u64,
    allowed: u64,
    denied: u64,
    errors: u64,
    latency: Histogram,
    elapsed: Duration,
}

impl PhaseOutcome {
    fn report(&self, name: &str, workers: usize) -> OverloadPhase {
        OverloadPhase {
            name: name.to_string(),
            workers,
            answered: self.answered,
            allowed: self.allowed,
            denied: self.denied,
            errors: self.errors,
            throughput_rps: self.answered as f64 / self.elapsed.as_secs_f64().max(1e-9),
            p99_us: self.latency.quantile(0.99) / 1_000,
            duration_ms: self.elapsed.as_millis() as u64,
        }
    }
}

/// Closed-loop hammer: `workers` threads issue back-to-back calls against
/// `key` until `duration` elapses. Ids are partitioned per thread so a
/// stale response can never satisfy another thread's call.
fn hammer(
    server: SocketAddr,
    key: &QosKey,
    rpc: &UdpRpcConfig,
    faults: &Arc<FaultPlan>,
    workers: usize,
    duration: Duration,
    id_base: u64,
) -> Result<PhaseOutcome> {
    let started = Instant::now();
    let mut handles = Vec::with_capacity(workers);
    for task in 0..workers {
        let client = UdpRpcClient::with_faults(rpc.clone(), Arc::clone(faults));
        let key = key.clone();
        let mut id = id_base + ((task as u64) << 32);
        handles.push(std::thread::spawn(move || {
            let mut latency = Histogram::new();
            let (mut allowed, mut denied, mut errors) = (0u64, 0u64, 0u64);
            let phase_end = Instant::now() + duration;
            while Instant::now() < phase_end {
                let begun = Instant::now();
                match client.call(server, &QosRequest::new(id, key.clone())) {
                    Ok(response) => {
                        latency.record_duration(begun.elapsed());
                        match response.verdict {
                            Verdict::Allow => allowed += 1,
                            Verdict::Deny => denied += 1,
                        }
                    }
                    Err(_) => errors += 1,
                }
                id += 1;
            }
            (latency, allowed, denied, errors)
        }));
    }
    let mut outcome = PhaseOutcome {
        answered: 0,
        allowed: 0,
        denied: 0,
        errors: 0,
        latency: Histogram::new(),
        elapsed: Duration::ZERO,
    };
    for handle in handles {
        let (latency, allowed, denied, errors) = handle
            .join()
            .map_err(|_| JanusError::state("soak worker panicked"))?;
        outcome.latency.merge(&latency);
        outcome.allowed += allowed;
        outcome.denied += denied;
        outcome.errors += errors;
    }
    outcome.answered = outcome.allowed + outcome.denied;
    outcome.elapsed = started.elapsed();
    Ok(outcome)
}

/// Run the overload schedule end to end and score the invariants.
pub fn run_overload_soak(config: OverloadSoakConfig) -> Result<OverloadReport> {
    let soak_started = Instant::now();
    // Standalone server: rules are inserted directly into its table, so
    // the soak measures the admission plane, not a database.
    let server = QosServer::spawn(config.server.clone(), None, janus_clock::system())?;
    let hot = QosKey::new("overload-hot")?;
    let now = server.clock().now();
    // The throughput key never runs dry: the soak's congestion signal
    // must come from queueing, not from a drained bucket.
    server
        .table()
        .insert(QosRule::per_second(hot.clone(), 1_000_000_000, 0), now);
    let meter_names: Vec<QosKey> = (0..config.meter_keys)
        .map(|i| Ok(QosKey::new(format!("overload-meter-{i}"))?))
        .collect::<Result<_>>()?;
    for key in &meter_names {
        server.table().insert(
            QosRule::per_second(key.clone(), config.meter_capacity, 0),
            now,
        );
    }

    let rpc = UdpRpcConfig {
        timeout: config.request_timeout,
        max_retries: config.max_retries,
        stamp_deadlines: true,
        ..UdpRpcConfig::lan_defaults()
    };
    let clean = FaultPlan::none();
    let duplicating = FaultPlan::new(0.0, 0.0, Duration::ZERO, 0xC0DE1);
    duplicating.set_duplication(config.duplicate_prob, config.duplicate_delay);

    // Phase 1: calibrate the healthy operating point.
    let calibrate = hammer(
        server.udp_addr(),
        &hot,
        &rpc,
        &clean,
        config.concurrency,
        config.phase_duration,
        0,
    )?;

    // Phase 2: double the closed-loop workers and duplicate datagrams —
    // offered load is ~2× the calibrated saturation point, and every
    // duplicate looks like a router retry to the server.
    let overload = hammer(
        server.udp_addr(),
        &hot,
        &rpc,
        &duplicating,
        config.concurrency * 2,
        config.phase_duration,
        1 << 20,
    )?;

    // Phase 3: drain every zero-refill metered key with several times its
    // burst in logical requests, all under duplication. Sequential per
    // key so a full queue can never explain a missing admission.
    let mut meter_allowed = Vec::with_capacity(meter_names.len());
    let meter_client = UdpRpcClient::with_faults(rpc.clone(), Arc::clone(&duplicating));
    for (key_index, key) in meter_names.iter().enumerate() {
        let mut allowed = 0u64;
        let attempts = config.meter_capacity * 3;
        for seq in 0..attempts {
            let id = (2 << 20) + (key_index as u64) * attempts + seq;
            if let Ok(response) =
                meter_client.call(server.udp_addr(), &QosRequest::new(id, key.clone()))
            {
                if response.verdict == Verdict::Allow {
                    allowed += 1;
                }
            }
        }
        meter_allowed.push(allowed);
    }

    let snapshot = server.stats().snapshot();
    let phases = vec![
        calibrate.report("calibrate", config.concurrency),
        overload.report("overload", config.concurrency * 2),
    ];
    let p99_bound_us = ((phases[0].p99_us as f64) * config.p99_multiplier)
        .max(config.p99_floor.as_micros() as f64) as u64;
    let goodput_ratio = if phases[0].throughput_rps > 0.0 {
        phases[1].throughput_rps / phases[0].throughput_rps
    } else {
        0.0
    };
    let credit_exact_ok = meter_allowed
        .iter()
        .all(|&allowed| allowed == config.meter_capacity);

    Ok(OverloadReport {
        p99_bound_us,
        latency_ok: phases[1].p99_us <= p99_bound_us,
        goodput_ratio,
        goodput_floor: config.goodput_floor,
        goodput_ok: goodput_ratio >= config.goodput_floor,
        phases,
        meter_allowed,
        meter_capacity: config.meter_capacity,
        credit_exact_ok,
        duplicates_injected: duplicating.duplicated(),
        dedup_hits: snapshot.dedup_hits,
        dedup_ok: snapshot.dedup_hits > 0,
        shed_full: snapshot.shed_full,
        shed_expired: snapshot.shed_expired,
        shed_sojourn: snapshot.shed_sojourn,
        sojourn_p99_us: snapshot.sojourn_p99_us,
        elapsed_ms: soak_started.elapsed().as_millis() as u64,
    })
}
