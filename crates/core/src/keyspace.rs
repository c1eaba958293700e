//! Keyspace-churn soak: cycle a drifting hot set through far more
//! distinct keys than the table has slots and score the memory engine.
//!
//! The overload soak (`crate::overload`) saturates one hot key; this
//! soak does the opposite — nearly every request names a *new* key. Each
//! closed-loop driver picks from a Zipf window whose base slides forward
//! every `drift_every` picks ([`janus_workload::KeyPicker::drifting_zipf`]),
//! so old hot keys go cold and become reclaim fodder while new ones keep
//! arriving. The server runs the lock-free table with a deliberately tiny
//! initial slot count, idle-key reclamation on, and a real database
//! behind it for the cold tier.
//!
//! Scored invariants ([`KeyspaceReport::passed`]):
//!
//! * **Flat residency** — the open-slot high-watermark stays within
//!   `residency_multiplier` (default 2×) of the measured live working
//!   set (`answered_rate × (idle_ttl + 2 × reclaim_interval)` plus the
//!   instantaneous Zipf windows), even though the soak cycles orders of
//!   magnitude more distinct keys than that. Reclamation, not table
//!   growth, absorbs the churn.
//! * **Bounded latency** — client p99 stays under an absolute floor;
//!   resize migration and reclaim sweeps must not stall the hot path.
//! * **Credit exactness / no minting** — a zero-refill meter key is
//!   touched every couple of idle TTLs, so it is repeatedly demoted to
//!   the cold tier and readmitted. Across every demote/readmit cycle it
//!   must admit exactly `min(touches, capacity)` — one extra allow means
//!   a reclaim or readmission minted credit (hard fail).
//! * **Churn evidence** — the engine actually resized (`resizes ≥ 1`)
//!   and actually reclaimed (`reclaimed_keys > 0`); a soak that never
//!   exercised the machinery proves nothing.
//!
//! `tests/keyspace.rs` runs the ≈100k-key smoke shape and archives the
//! report as `target/tmp/keyspace_soak.json`; EXPERIMENTS.md documents the
//! 10M-key full soak.

use janus_bucket::DefaultRulePolicy;
use janus_db::{DbServer, RulesEngine};
use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
use janus_server::{QosServer, QosServerConfig, TableKind};
use janus_types::{JanusError, QosKey, QosRequest, QosRule, Result, Verdict};
use janus_workload::{Histogram, KeyPicker};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for one keyspace-churn soak run.
#[derive(Debug, Clone)]
pub struct KeyspaceSoakConfig {
    /// Closed-loop driver threads, each with its own drifting key window.
    pub concurrency: usize,
    /// Total requests issued across all drivers (the distinct-key count
    /// tracks this 1:1 at `drift_every = 1`).
    pub total_requests: u64,
    /// Instantaneous Zipf window of each driver.
    pub window: usize,
    /// Zipf exponent inside the window.
    pub zipf_exponent: f64,
    /// Picks per window-base advance; 1 is maximum churn.
    pub drift_every: u64,
    /// Every driver sleeps ~1ms after this many requests, capping offered
    /// load so the reclaim sweep (bounded keys per tick) can keep up.
    /// 0 disables pacing.
    pub pace_every: u64,
    /// Initial slot count of the lock-free table — deliberately tiny so
    /// the soak crosses the resize watermark early.
    pub table_slots: usize,
    /// Idle TTL after which an untouched key is demoted to the cold tier.
    pub idle_ttl: Duration,
    /// Reclaim sweep interval.
    pub reclaim_interval: Duration,
    /// Burst capacity of the zero-refill meter key.
    pub meter_capacity: u64,
    /// Gap between meter-key touches; a couple of idle TTLs, so the key
    /// is demoted and readmitted between touches.
    pub meter_interval: Duration,
    /// Absolute client p99 bound.
    pub p99_floor: Duration,
    /// Resident high-watermark must stay within this multiple of the
    /// measured live working set.
    pub residency_multiplier: f64,
    /// Per-attempt response timeout of the soak clients.
    pub request_timeout: Duration,
    /// Retries after the first attempt.
    pub max_retries: u32,
    /// Workload seed (each driver derives its own from this).
    pub seed: u64,
    /// The server under test; `table`, `table_slots`, `idle_ttl` and
    /// `reclaim_interval` are overwritten from the fields above.
    pub server: QosServerConfig,
}

impl Default for KeyspaceSoakConfig {
    fn default() -> Self {
        let mut server = QosServerConfig::test_defaults();
        // Drifting keys are unknown to the database: the default policy
        // must grant them buckets or nothing would ever be resident.
        server.default_policy = DefaultRulePolicy::Limited {
            capacity: 4,
            rate_per_sec: 100,
        };
        KeyspaceSoakConfig {
            concurrency: 2,
            total_requests: 100_000,
            window: 64,
            zipf_exponent: 1.0,
            drift_every: 1,
            pace_every: 16,
            table_slots: 32,
            idle_ttl: Duration::from_millis(50),
            reclaim_interval: Duration::from_millis(5),
            meter_capacity: 25,
            meter_interval: Duration::from_millis(120),
            p99_floor: Duration::from_millis(10),
            residency_multiplier: 2.0,
            request_timeout: Duration::from_millis(5),
            max_retries: 3,
            seed: 0xC0FFEE,
            server,
        }
    }
}

/// Everything a keyspace soak measured, plus the pass/fail verdicts.
#[derive(Debug, Clone)]
pub struct KeyspaceReport {
    /// Requests issued across all drivers.
    pub requests: u64,
    /// Requests that got an answer (allow or deny).
    pub answered: u64,
    /// Requests admitted.
    pub allowed: u64,
    /// Requests throttled.
    pub denied: u64,
    /// Requests that exhausted the retry budget unanswered.
    pub errors: u64,
    /// Distinct keys the drivers cycled through (window bases plus the
    /// instantaneous windows).
    pub distinct_keys: u64,
    /// Answered throughput, requests per second.
    pub throughput_rps: f64,
    /// Client-observed p99 call latency, microseconds.
    pub p99_us: u64,
    /// The absolute p99 bound scored against, microseconds.
    pub p99_bound_us: u64,
    /// `p99_us <= p99_bound_us`.
    pub latency_ok: bool,
    /// Highest resident open-slot count sampled during the soak.
    pub resident_high_watermark: u64,
    /// The residency bound scored against (multiplier × measured live
    /// working set, plus one sweep batch of slack).
    pub resident_bound: u64,
    /// `resident_high_watermark <= resident_bound`.
    pub residency_ok: bool,
    /// Times the zero-refill meter key was touched.
    pub meter_touches: u64,
    /// Allow verdicts the meter key produced across every
    /// demote/readmit cycle.
    pub meter_allowed: u64,
    /// The meter key's burst capacity.
    pub meter_capacity: u64,
    /// `meter_allowed == min(meter_touches, meter_capacity)` — demotion
    /// and readmission preserved credit exactly.
    pub credit_exact_ok: bool,
    /// `meter_allowed <= meter_capacity` — the hard no-minting bound.
    pub no_mint_ok: bool,
    /// Completed generation doublings.
    pub resizes: u64,
    /// Live rules carried across generations by incremental migration.
    pub migrated_slots: u64,
    /// Idle keys demoted to the cold tier.
    pub reclaimed_keys: u64,
    /// Reclaim sweeps the server completed (its `reclaim_sweeps` stat).
    pub reclaim_sweeps: u64,
    /// Longest wall time between two sweeps the residency sampler saw
    /// (from the start of the soak to the first sweep and from the last
    /// sweep to the end count too), microseconds. Sweeps are paced by a
    /// sleep of `reclaim_interval`; a gap many intervals long means the
    /// sweep thread was starved of CPU, which lets residency climb past
    /// a bound that assumes sweeps keep pace. The sampler itself wakes
    /// every 2 ms, so the gap is resolved to about that.
    pub longest_sweep_gap_us: u64,
    /// Resident open slots when the soak ended.
    pub open_slots_final: u64,
    /// `resizes >= 1` — the watermark machinery actually ran.
    pub resizes_ok: bool,
    /// `reclaimed_keys > 0` — the reclamation machinery actually ran.
    pub reclaim_ok: bool,
    /// Wall-clock length of the soak.
    pub elapsed_ms: u64,
}

janus_types::impl_to_json!(KeyspaceReport {
    requests,
    answered,
    allowed,
    denied,
    errors,
    distinct_keys,
    throughput_rps,
    p99_us,
    p99_bound_us,
    latency_ok,
    resident_high_watermark,
    resident_bound,
    residency_ok,
    meter_touches,
    meter_allowed,
    meter_capacity,
    credit_exact_ok,
    no_mint_ok,
    resizes,
    migrated_slots,
    reclaimed_keys,
    reclaim_sweeps,
    longest_sweep_gap_us,
    open_slots_final,
    resizes_ok,
    reclaim_ok,
    elapsed_ms,
});

impl KeyspaceReport {
    /// All scored invariants held.
    pub fn passed(&self) -> bool {
        self.latency_ok
            && self.residency_ok
            && self.credit_exact_ok
            && self.no_mint_ok
            && self.resizes_ok
            && self.reclaim_ok
    }

    /// Pretty-printed JSON for archiving (`target/tmp/keyspace_soak.json`).
    pub fn to_json_string(&self) -> String {
        janus_types::json::ToJson::to_json(self).pretty()
    }
}

/// Run the keyspace-churn schedule end to end and score the invariants.
pub fn run_keyspace_soak(config: KeyspaceSoakConfig) -> Result<KeyspaceReport> {
    let started = Instant::now();
    // A real database backs the cold tier: reclaim sweeps checkpoint
    // credit and hotness into it, readmissions fetch from it.
    let db = DbServer::spawn(Arc::new(RulesEngine::new()))?;
    let meter_key = QosKey::new("soak-meter")?;
    db.engine().put(QosRule::per_second(
        meter_key.clone(),
        config.meter_capacity,
        0,
    ));

    let mut server_config = config.server.clone();
    server_config.table = TableKind::LockFree;
    server_config.table_slots = config.table_slots;
    server_config.idle_ttl = Some(config.idle_ttl);
    server_config.reclaim_interval = config.reclaim_interval;
    let server = QosServer::spawn(server_config, Some(db.addr().into()), janus_clock::system())?;

    let rpc = UdpRpcConfig {
        timeout: config.request_timeout,
        max_retries: config.max_retries,
        ..UdpRpcConfig::lan_defaults()
    };

    // Residency sampler: track the open-slot high-watermark while the
    // drivers churn, and the longest stretch without a completed reclaim
    // sweep, so a residency failure says whether the sweeps kept pace.
    let done = Arc::new(AtomicBool::new(false));
    let watermark = Arc::new(AtomicU64::new(0));
    let sampler = {
        let stats = Arc::clone(server.stats());
        let done = Arc::clone(&done);
        let watermark = Arc::clone(&watermark);
        std::thread::spawn(move || {
            let (mut sweeps, mut last_sweep) = (0, Instant::now());
            let mut longest_gap = Duration::ZERO;
            loop {
                let open = stats.engine.open_slots.load(Ordering::Relaxed);
                watermark.fetch_max(open, Ordering::Relaxed);
                let now_sweeps = stats.reclaim_sweeps.load(Ordering::Relaxed);
                let stopping = done.load(Ordering::Relaxed);
                if now_sweeps != sweeps || stopping {
                    longest_gap = longest_gap.max(last_sweep.elapsed());
                    (sweeps, last_sweep) = (now_sweeps, Instant::now());
                }
                if stopping {
                    return longest_gap;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Meter thread: touch the zero-refill key every couple of idle TTLs so
    // it keeps getting demoted to the cold tier and readmitted.
    // The meter must be an exact observer: a readmission fetches from the
    // database and can outlast the drivers' 5 ms attempt timeout on a busy
    // box, and a plain-frame retry would then charge the bucket a second
    // time behind the soak's back. So the meter waits patiently and stamps
    // its attempts — a retry is answered from the dedup window, and every
    // charge is observed exactly once.
    let meter = {
        let client = UdpRpcClient::new(UdpRpcConfig {
            timeout: Duration::from_millis(250),
            stamp_deadlines: true,
            ..rpc.clone()
        });
        let addr = server.udp_addr();
        let key = meter_key.clone();
        let interval = config.meter_interval;
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let (mut touches, mut allowed) = (0u64, 0u64);
            let mut id = 1u64 << 48;
            while !done.load(Ordering::Relaxed) {
                if let Ok(response) = client.call(addr, &QosRequest::new(id, key.clone())) {
                    touches += 1;
                    if response.verdict == Verdict::Allow {
                        allowed += 1;
                    }
                }
                id += 1;
                std::thread::sleep(interval);
            }
            (touches, allowed)
        })
    };

    // Closed-loop churn drivers, each with its own drifting window.
    let per_driver = (config.total_requests / config.concurrency.max(1) as u64).max(1);
    let mut drivers = Vec::with_capacity(config.concurrency);
    for w in 0..config.concurrency {
        let client = UdpRpcClient::new(rpc.clone());
        let addr = server.udp_addr();
        let mut picker = KeyPicker::drifting_zipf(
            &format!("soak-w{w}-"),
            config.window,
            config.zipf_exponent,
            config.drift_every,
            config.seed.wrapping_add(w as u64),
        );
        let pace_every = config.pace_every;
        drivers.push(std::thread::spawn(move || {
            let mut latency = Histogram::new();
            let (mut allowed, mut denied, mut errors) = (0u64, 0u64, 0u64);
            let id_base = (w as u64) << 32;
            for i in 0..per_driver {
                let key = picker.pick();
                let begun = Instant::now();
                match client.call(addr, &QosRequest::new(id_base + i, key)) {
                    Ok(response) => {
                        latency.record_duration(begun.elapsed());
                        match response.verdict {
                            Verdict::Allow => allowed += 1,
                            Verdict::Deny => denied += 1,
                        }
                    }
                    Err(_) => errors += 1,
                }
                if pace_every > 0 && (i + 1) % pace_every == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let distinct = picker.drift_base() + picker.population() as u64;
            (latency, allowed, denied, errors, distinct)
        }));
    }

    let mut latency = Histogram::new();
    let (mut allowed, mut denied, mut errors, mut distinct_keys) = (0u64, 0u64, 0u64, 0u64);
    for driver in drivers {
        let (l, a, d, e, k) = driver
            .join()
            .map_err(|_| JanusError::state("soak driver panicked"))?;
        latency.merge(&l);
        allowed += a;
        denied += d;
        errors += e;
        distinct_keys += k;
    }
    done.store(true, Ordering::Relaxed);
    let (meter_touches, meter_allowed) = meter
        .join()
        .map_err(|_| JanusError::state("meter thread panicked"))?;
    let longest_sweep_gap = sampler
        .join()
        .map_err(|_| JanusError::state("residency sampler panicked"))?;

    let elapsed = started.elapsed();
    let answered = allowed + denied;
    let throughput_rps = answered as f64 / elapsed.as_secs_f64().max(1e-9);
    let snapshot = server.stats().snapshot();

    // The live working set: keys touched within one demotion horizon
    // (idle TTL plus a couple of sweep intervals) at the measured rate,
    // plus every driver's instantaneous window and the meter key. The
    // high-watermark must stay within the configured multiple of it —
    // plus one sweep batch of slack, since demotion happens in bounded
    // batches — no matter how many distinct keys cycled through.
    let horizon = config.idle_ttl + 2 * config.reclaim_interval;
    let working_set =
        throughput_rps * horizon.as_secs_f64() + (config.window * config.concurrency + 1) as f64;
    let resident_bound = (config.residency_multiplier * working_set) as u64 + 256;
    let resident_high_watermark = watermark.load(Ordering::Relaxed);

    let p99_us = latency.quantile(0.99) / 1_000;
    let p99_bound_us = config.p99_floor.as_micros() as u64;
    let meter_expected = meter_touches.min(config.meter_capacity);

    Ok(KeyspaceReport {
        requests: per_driver * config.concurrency as u64,
        answered,
        allowed,
        denied,
        errors,
        distinct_keys,
        throughput_rps,
        p99_us,
        p99_bound_us,
        latency_ok: p99_us <= p99_bound_us,
        resident_high_watermark,
        resident_bound,
        residency_ok: resident_high_watermark <= resident_bound,
        meter_touches,
        meter_allowed,
        meter_capacity: config.meter_capacity,
        credit_exact_ok: meter_allowed == meter_expected,
        no_mint_ok: meter_allowed <= config.meter_capacity,
        resizes: snapshot.resizes,
        migrated_slots: snapshot.migrated_slots,
        reclaimed_keys: snapshot.reclaimed_keys,
        reclaim_sweeps: snapshot.reclaim_sweeps,
        longest_sweep_gap_us: longest_sweep_gap.as_micros() as u64,
        open_slots_final: snapshot.open_slots,
        resizes_ok: snapshot.resizes >= 1,
        reclaim_ok: snapshot.reclaimed_keys > 0,
        elapsed_ms: elapsed.as_millis() as u64,
    })
}
