//! Gray-failure soak: one partition turns slow-but-alive, then heals.
//!
//! Unlike the blackout chaos soak ([`crate::chaos`]), nothing here ever
//! drops a datagram or kills a node: the fault is a per-datagram defer
//! on the QoS server's socket (requests *and* responses), the
//! gray-failure shape that never trips a consecutive-timeout circuit
//! breaker. The router runs the full gray plane — adaptive per-attempt
//! timeouts learned from observed RTT, credit-safe same-nonce hedges,
//! and the node-global retry budget (DESIGN.md ablation 15) — and three
//! properties are scored:
//!
//! * **Availability** — every request gets an answer through the slow
//!   window (adaptive timeouts cut losses at `clamp(p99 × multiplier)`
//!   instead of riding the fixed 20 ms discipline to the deadline).
//! * **Recovery** — after the link heals, the rolling p99 returns to a
//!   small multiple of the healthy baseline within a budget.
//! * **Bounded amplification** — extra wire attempts (retries + hedges)
//!   measured at the server stay under the retry budget's deposit
//!   stream: `wire / primaries ≤ 1 + deposit% + reserve/primaries +
//!   slack`. A gray partition must not provoke a retry storm.
//!
//! The harness returns a [`GraySoakReport`]; `tests/gray_soak.rs`
//! asserts the verdicts and archives `target/tmp/gray_soak.json`.

use janus_net::fault::FaultPlan;
use janus_net::http::HttpClient;
use janus_router::core::GrayConfig;
use janus_router::{parse_qos_response, qos_http_request, RequestRouter, RouterConfig};
use janus_server::{QosServer, QosServerConfig};
use janus_types::{QosKey, QosRule, Result, Verdict};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Tuning for one gray soak run.
#[derive(Debug, Clone, Copy)]
pub struct GraySoakConfig {
    /// Requests hammered in each phase.
    pub requests_per_phase: u32,
    /// Pause between consecutive requests.
    pub request_gap: Duration,
    /// Per-datagram defer while the partition is gray. Applied on both
    /// directions of the server socket, so the observed RTT grows by
    /// twice this — 5 ms each way turns a ~200 µs loopback round trip
    /// into ~10 ms, the "50× slower" shape from the paper's LAN budget.
    pub gray_delay: Duration,
    /// Healed rolling p99 must come back under `healthy_p99 ×
    /// recovery_multiplier` (or [`GraySoakConfig::recovery_floor`],
    /// whichever is larger) within this budget.
    pub recovery_budget: Duration,
    /// Multiplier on the healthy p99 that counts as recovered.
    pub recovery_multiplier: u64,
    /// Absolute recovery ceiling floor, so a sub-100 µs healthy baseline
    /// on a quiet box doesn't demand the impossible of a busy CI one.
    pub recovery_floor: Duration,
    /// Extra amplification allowed over the budget's analytic bound,
    /// absorbing measurement noise (in-flight attempts at phase edges).
    pub amplification_slack: f64,
}

impl Default for GraySoakConfig {
    fn default() -> Self {
        GraySoakConfig {
            requests_per_phase: 150,
            request_gap: Duration::from_millis(1),
            gray_delay: Duration::from_millis(5),
            recovery_budget: Duration::from_secs(2),
            recovery_multiplier: 10,
            recovery_floor: Duration::from_millis(2),
            amplification_slack: 0.25,
        }
    }
}

/// Outcome counts and latency marks for one phase.
#[derive(Debug, Clone)]
pub struct GrayPhase {
    /// Phase name (`healthy`, `gray`, `healed`).
    pub name: String,
    /// Requests issued.
    pub requests: u32,
    /// Requests admitted.
    pub allowed: u32,
    /// Requests throttled (including default replies under Deny).
    pub denied: u32,
    /// Requests that got no answer at all.
    pub errors: u32,
    /// Median end-to-end latency, µs.
    pub p50_us: u64,
    /// Tail end-to-end latency, µs.
    pub p99_us: u64,
    /// Wall-clock length of the phase.
    pub duration_ms: u64,
}

janus_types::impl_to_json!(GrayPhase {
    name,
    requests,
    allowed,
    denied,
    errors,
    p50_us,
    p99_us,
    duration_ms,
});

/// Everything a gray soak measured, plus the pass/fail verdicts.
#[derive(Debug, Clone)]
pub struct GraySoakReport {
    /// Per-phase outcomes, in schedule order.
    pub phases: Vec<GrayPhase>,
    /// Healthy-phase p99, µs — the recovery baseline.
    pub healthy_p99_us: u64,
    /// Gray-phase p99, µs.
    pub gray_p99_us: u64,
    /// Healed-phase p99, µs.
    pub healed_p99_us: u64,
    /// Time from heal until the rolling p99 came back under the
    /// recovery ceiling, if within budget.
    pub recovered_ms: Option<u64>,
    /// The ceiling the recovery was scored against, µs.
    pub recovery_ceiling_us: u64,
    /// Whether the p99 recovered within budget.
    pub recovery_ok: bool,
    /// Fraction of requests that got an answer.
    pub availability: f64,
    /// `availability == 1.0` — the gray plane must never hang a caller.
    pub availability_ok: bool,
    /// Hedged attempts the router issued.
    pub hedges_sent: u64,
    /// Hedged calls whose answer landed after the hedge went out.
    pub hedge_wins: u64,
    /// Retries/hedges refused by the exhausted retry budget.
    pub retry_budget_exhausted: u64,
    /// Last adaptive per-attempt timeout the router derived, µs.
    pub adaptive_timeout_us: u64,
    /// HTTP requests issued (primary wire attempts).
    pub primaries: u64,
    /// Datagrams the server saw (answered + dedup-absorbed + shed):
    /// primaries plus every retry and hedge that reached the wire.
    pub wire_attempts: u64,
    /// `wire_attempts / primaries`.
    pub amplification: f64,
    /// The budget-derived ceiling the amplification was scored against.
    pub amplification_bound: f64,
    /// `amplification <= amplification_bound`.
    pub amplification_ok: bool,
    /// Wall-clock length of the soak.
    pub elapsed_ms: u64,
}

janus_types::impl_to_json!(GraySoakReport {
    phases,
    healthy_p99_us,
    gray_p99_us,
    healed_p99_us,
    recovered_ms,
    recovery_ceiling_us,
    recovery_ok,
    availability,
    availability_ok,
    hedges_sent,
    hedge_wins,
    retry_budget_exhausted,
    adaptive_timeout_us,
    primaries,
    wire_attempts,
    amplification,
    amplification_bound,
    amplification_ok,
    elapsed_ms,
});

impl GraySoakReport {
    /// All three invariants held.
    pub fn passed(&self) -> bool {
        self.availability_ok && self.recovery_ok && self.amplification_ok
    }

    /// Pretty-printed JSON for archiving (`target/tmp/gray_soak.json`).
    pub fn to_json_string(&self) -> String {
        janus_types::json::ToJson::to_json(self).pretty()
    }
}

/// Nearest-rank percentile over raw µs samples.
fn percentile_us(samples: &mut [u64], pct: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as u64 * pct).div_ceil(100)).clamp(1, samples.len() as u64);
    samples[(rank - 1) as usize]
}

fn hammer(client: &mut HttpClient, key: &QosKey, config: &GraySoakConfig, name: &str) -> GrayPhase {
    let started = Instant::now();
    let (mut allowed, mut denied, mut errors) = (0u32, 0u32, 0u32);
    let mut samples = Vec::with_capacity(config.requests_per_phase as usize);
    for _ in 0..config.requests_per_phase {
        let t = Instant::now();
        match client.request(&qos_http_request(key)) {
            Ok(resp) => match parse_qos_response(&resp) {
                Ok(Verdict::Allow) => allowed += 1,
                Ok(Verdict::Deny) => denied += 1,
                Err(_) => errors += 1,
            },
            Err(_) => errors += 1,
        }
        samples.push(t.elapsed().as_micros() as u64);
        std::thread::sleep(config.request_gap);
    }
    GrayPhase {
        name: name.to_string(),
        requests: config.requests_per_phase,
        allowed,
        denied,
        errors,
        p50_us: percentile_us(&mut samples, 50),
        p99_us: percentile_us(&mut samples, 99),
        duration_ms: started.elapsed().as_millis() as u64,
    }
}

/// Run the gray schedule (healthy → one partition 50× slower → heal)
/// end to end and score availability, p99 recovery and amplification.
pub fn run_gray_soak(config: GraySoakConfig) -> Result<GraySoakReport> {
    let key = QosKey::new("gray-tenant")?;
    // The slow link: every datagram through the server's socket is
    // deferred (never dropped) while the gray window is open.
    let faults = FaultPlan::new(0.0, 0.0, Duration::ZERO, 0x6A71);
    let server = QosServer::spawn_with_faults(
        QosServerConfig::test_defaults(),
        None,
        janus_clock::system(),
        std::sync::Arc::clone(&faults),
    )?;
    server.table().insert(
        QosRule::per_second(key.clone(), 1_000_000, 1_000_000),
        server.clock().now(),
    );

    let gray = GrayConfig::default();
    let budget = gray.budget.expect("default gray config carries a budget");
    let mut router_config = RouterConfig::direct([server.udp_addr()]);
    router_config.default_verdict = Verdict::Deny;
    // Breakers only trip on *hard* consecutive timeouts; leaving them on
    // shows the gray window never closes them — the adaptive plane, not
    // the breaker, is what keeps the tail bounded.
    router_config.gray = Some(gray);
    let router = RequestRouter::spawn(router_config, None)?;
    let mut client = HttpClient::connect(router.addr())?;

    let soak_started = Instant::now();
    let mut phases = Vec::new();

    // Phase 1: healthy baseline — also warms the RTT windows so the
    // adaptive timeout and hedge delay are learned, not the fallbacks.
    let healthy = hammer(&mut client, &key, &config, "healthy");
    let healthy_p99 = healthy.p99_us;
    phases.push(healthy);

    // Phase 2: the partition goes gray — alive, answering, 50× slower.
    faults.set_reordering(1.0, config.gray_delay);
    let gray_phase = hammer(&mut client, &key, &config, "gray");
    let gray_p99 = gray_phase.p99_us;
    phases.push(gray_phase);

    // Phase 3: heal, then probe until the rolling p99 (last 50 answers)
    // is back under the ceiling.
    faults.set_reordering(0.0, Duration::ZERO);
    let ceiling_us =
        (healthy_p99 * config.recovery_multiplier).max(config.recovery_floor.as_micros() as u64);
    let heal_started = Instant::now();
    let mut recovered: Option<Duration> = None;
    let mut window: Vec<u64> = Vec::new();
    let mut probes = 0u64;
    while heal_started.elapsed() < config.recovery_budget {
        let t = Instant::now();
        let _ = client.request(&qos_http_request(&key));
        probes += 1;
        window.push(t.elapsed().as_micros() as u64);
        if window.len() > 50 {
            window.remove(0);
        }
        if window.len() >= 20 {
            let mut sorted = window.clone();
            if percentile_us(&mut sorted, 99) <= ceiling_us {
                recovered = Some(heal_started.elapsed());
                break;
            }
        }
        std::thread::sleep(config.request_gap);
    }
    let healed = hammer(&mut client, &key, &config, "healed");
    let healed_p99 = healed.p99_us;
    phases.push(healed);

    // Scoring. Wire attempts are counted where they land: every router
    // datagram — primary, retry or hedge — reaches the server (the gray
    // fault defers, never drops) and shows up as an answer, a
    // dedup-window hit, or a shed.
    let sstats = server.stats();
    let wire_attempts = sstats.answered.load(Ordering::Relaxed)
        + sstats.dedup_hits.load(Ordering::Relaxed)
        + sstats.shed_full.load(Ordering::Relaxed)
        + sstats.shed_expired.load(Ordering::Relaxed)
        + sstats.shed_sojourn.load(Ordering::Relaxed);
    let primaries = u64::from(config.requests_per_phase) * 3 + probes;
    let amplification = wire_attempts as f64 / primaries as f64;
    let amplification_bound = 1.0
        + f64::from(budget.deposit_pct) / 100.0
        + (f64::from(budget.min_reserve) + 1.0) / primaries as f64
        + config.amplification_slack;

    let rstats = router.stats();
    let total_requests: u64 = phases.iter().map(|p| u64::from(p.requests)).sum();
    let total_errors: u64 = phases.iter().map(|p| u64::from(p.errors)).sum();
    let availability = if total_requests == 0 {
        1.0
    } else {
        (total_requests - total_errors) as f64 / total_requests as f64
    };

    Ok(GraySoakReport {
        phases,
        healthy_p99_us: healthy_p99,
        gray_p99_us: gray_p99,
        healed_p99_us: healed_p99,
        recovered_ms: recovered.map(|d| d.as_millis() as u64),
        recovery_ceiling_us: ceiling_us,
        recovery_ok: recovered.is_some(),
        availability,
        availability_ok: total_errors == 0,
        hedges_sent: rstats.hedges_sent.load(Ordering::Relaxed),
        hedge_wins: rstats.hedge_wins.load(Ordering::Relaxed),
        retry_budget_exhausted: rstats.retry_budget_exhausted.load(Ordering::Relaxed),
        adaptive_timeout_us: rstats.adaptive_timeout_us.load(Ordering::Relaxed),
        primaries,
        wire_attempts,
        amplification,
        amplification_bound,
        amplification_ok: amplification <= amplification_bound,
        elapsed_ms: soak_started.elapsed().as_millis() as u64,
    })
}
