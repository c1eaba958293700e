//! Scripted chaos soak: drive a metered key through a fault schedule
//! (master kill → partition blackout → DB outage → heal) and check the
//! brownout invariants.
//!
//! The soak runs a full HA deployment (gateway LB with active health
//! checks, two routers with circuit breakers, one replicated QoS
//! partition, Multi-AZ database) and hammers a single metered key
//! through every phase. Three properties are scored:
//!
//! * **Safety** — total admissions never exceed the rule's budget plus
//!   the bounded slack each authority transfer may add (see
//!   [`ChaosReport::admission_bound`]). Degraded local admission must
//!   not oversell.
//! * **Availability** — every request gets *an* answer (allow or deny);
//!   the error fraction stays under a floor even while the partition is
//!   dark.
//! * **Recovery** — after the partition heals, every router's breaker
//!   closes within a budget (one half-open probe interval plus traffic).
//!
//! The harness returns a [`ChaosReport`]; `tests/chaos.rs` asserts the
//! verdicts and archives the report as `target/tmp/chaos_soak.json`.

use crate::client::QosClient;
use crate::deployment::{Deployment, DeploymentConfig, LbMode};
use janus_lb::{HealthCheckConfig, LbPolicy};
use janus_net::BreakerConfig;
use janus_types::{QosKey, QosRule, Result, Verdict};
use std::time::{Duration, Instant};

/// Tuning for one chaos soak run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Bucket capacity of the metered rule.
    pub capacity: u64,
    /// Refill rate of the metered rule, credits per second.
    pub refill_per_sec: u64,
    /// Requests hammered in each phase.
    pub requests_per_phase: u32,
    /// Pause between consecutive requests.
    pub request_gap: Duration,
    /// Router-side circuit breaker discipline.
    pub breaker: BreakerConfig,
    /// Minimum acceptable fraction of requests that get an answer.
    pub availability_floor: f64,
    /// How long after healing every breaker must be closed again.
    pub breaker_recovery_budget: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            capacity: 30,
            refill_per_sec: 20,
            requests_per_phase: 60,
            request_gap: Duration::from_millis(5),
            breaker: BreakerConfig {
                failure_threshold: 3,
                open_timeout: Duration::from_millis(150),
            },
            availability_floor: 0.95,
            breaker_recovery_budget: Duration::from_secs(2),
        }
    }
}

/// Outcome counts for one phase of the schedule.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (`baseline`, `master-kill-failover`, ...).
    pub name: String,
    /// Requests issued.
    pub requests: u32,
    /// Requests admitted.
    pub allowed: u32,
    /// Requests throttled.
    pub denied: u32,
    /// Requests that got no answer at all (client-visible errors).
    pub errors: u32,
    /// Wall-clock length of the phase.
    pub duration_ms: u64,
}

janus_types::impl_to_json!(PhaseReport {
    name,
    requests,
    allowed,
    denied,
    errors,
    duration_ms,
});

/// Everything a soak run measured, plus the pass/fail verdicts.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-phase outcome counts, in schedule order.
    pub phases: Vec<PhaseReport>,
    /// Admissions summed over the whole soak.
    pub total_allowed: u64,
    /// Throttles summed over the whole soak.
    pub total_denied: u64,
    /// Unanswered requests summed over the whole soak.
    pub total_errors: u64,
    /// Wall-clock length of the soak.
    pub elapsed_ms: u64,
    /// The safety ceiling: `capacity × authority_transfers + refill ×
    /// elapsed`. Each transfer of admission authority (initial fill,
    /// slave promotion with replication lag, degraded-bucket seeding,
    /// heal-time re-hydration) may re-grant at most one capacity.
    pub admission_bound: u64,
    /// `total_allowed <= admission_bound`.
    pub safety_ok: bool,
    /// Fraction of requests that got an answer.
    pub availability: f64,
    /// The floor the run was scored against.
    pub availability_floor: f64,
    /// `availability >= availability_floor`.
    pub availability_ok: bool,
    /// Breaker fast-fails over the router fleet (blackout evidence).
    pub breaker_fast_fails: u64,
    /// Degraded-mode local admissions over the router fleet.
    pub degraded_allowed: u64,
    /// Degraded-mode local denials over the router fleet.
    pub degraded_denied: u64,
    /// Routers the gateway ejected on failed health probes.
    pub gateway_ejections: u64,
    /// Ejected routers the gateway later readmitted.
    pub gateway_readmissions: u64,
    /// Time from heal to every breaker closed, if within budget.
    pub breaker_recovered_ms: Option<u64>,
    /// Whether every breaker closed within the recovery budget.
    pub breaker_recovery_ok: bool,
}

janus_types::impl_to_json!(ChaosReport {
    phases,
    total_allowed,
    total_denied,
    total_errors,
    elapsed_ms,
    admission_bound,
    safety_ok,
    availability,
    availability_floor,
    availability_ok,
    breaker_fast_fails,
    degraded_allowed,
    degraded_denied,
    gateway_ejections,
    gateway_readmissions,
    breaker_recovered_ms,
    breaker_recovery_ok,
});

impl ChaosReport {
    /// All three invariants held.
    pub fn passed(&self) -> bool {
        self.safety_ok && self.availability_ok && self.breaker_recovery_ok
    }

    /// Pretty-printed JSON for archiving (`target/tmp/chaos_soak.json`).
    pub fn to_json_string(&self) -> String {
        janus_types::json::ToJson::to_json(self).pretty()
    }
}

/// Authority transfers a full soak performs, each worth at most one
/// capacity of slack: initial hydration, slave promotion (replication
/// lag may re-grant spent credit), router-local degraded seeding
/// (split across the fleet, at most one capacity total), and heal-time
/// re-hydration by the replacement node.
const AUTHORITY_TRANSFERS: u64 = 4;

fn hammer(client: &mut QosClient, key: &QosKey, config: &ChaosConfig, name: &str) -> PhaseReport {
    let started = Instant::now();
    let (mut allowed, mut denied, mut errors) = (0u32, 0u32, 0u32);
    for _ in 0..config.requests_per_phase {
        match client.qos_check(key) {
            Ok(true) => allowed += 1,
            Ok(false) => denied += 1,
            Err(_) => errors += 1,
        }
        std::thread::sleep(config.request_gap);
    }
    PhaseReport {
        name: name.to_string(),
        requests: config.requests_per_phase,
        allowed,
        denied,
        errors,
        duration_ms: started.elapsed().as_millis() as u64,
    }
}

/// Run the fault schedule end to end and score the invariants.
pub fn run_chaos_soak(config: ChaosConfig) -> Result<ChaosReport> {
    let key = QosKey::new("chaos-tenant")?;
    let deployment_config = DeploymentConfig {
        qos_servers: 1,
        routers: 2,
        lb: LbMode::Gateway(LbPolicy::RoundRobin),
        default_verdict: Verdict::Deny,
        ha: true,
        db_ha: true,
        replication_interval: Duration::from_millis(25),
        breaker: Some(config.breaker),
        gateway_health: Some(HealthCheckConfig {
            interval: Duration::from_millis(20),
            fail_threshold: 2,
            probe_timeout: Duration::from_millis(100),
        }),
        rules: vec![QosRule::per_second(
            key.clone(),
            config.capacity,
            config.refill_per_sec,
        )],
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::launch(deployment_config)?;
    let mut client = deployment.client()?;
    let soak_started = Instant::now();
    let mut phases = Vec::new();

    // Phase 1: everything healthy.
    phases.push(hammer(&mut client, &key, &config, "baseline"));

    // Phase 2: the partition master dies; DNS failover promotes the
    // slave, which answers with (approximately) the replicated credit.
    deployment.kill_qos_master(0);
    deployment.await_failover(0, Duration::from_secs(5))?;
    phases.push(hammer(&mut client, &key, &config, "master-kill-failover"));

    // Phase 3: the promoted slave dies too — total partition blackout.
    // Breakers trip and routers serve degraded local admission from the
    // learned rule shape.
    deployment.kill_qos_slave(0);
    phases.push(hammer(&mut client, &key, &config, "partition-blackout"));

    // Phase 4: the database master dies while the partition is still
    // dark. Multi-AZ failover promotes the standby, so heal-time
    // hydration still has a rules source.
    deployment.kill_db_master();
    deployment.await_db_failover(Duration::from_secs(5))?;
    phases.push(hammer(
        &mut client,
        &key,
        &config,
        "db-outage-during-blackout",
    ));

    // Phase 5: heal the partition and measure breaker recovery: drive
    // light traffic until every router's half-open probe has closed.
    deployment.heal_partition(0)?;
    let heal_started = Instant::now();
    let mut recovered: Option<Duration> = None;
    let mut recovery_allowed = 0u64;
    while heal_started.elapsed() < config.breaker_recovery_budget {
        if let Ok(true) = client.qos_check(&key) {
            recovery_allowed += 1;
        }
        if deployment.breakers_closed_everywhere(0) {
            recovered = Some(heal_started.elapsed());
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    phases.push(hammer(&mut client, &key, &config, "healed"));

    let elapsed = soak_started.elapsed();
    let total_allowed = phases.iter().map(|p| u64::from(p.allowed)).sum::<u64>() + recovery_allowed;
    let total_denied = phases.iter().map(|p| u64::from(p.denied)).sum();
    let total_errors = phases.iter().map(|p| u64::from(p.errors)).sum();
    let total_requests: u64 = phases.iter().map(|p| u64::from(p.requests)).sum();
    let admission_bound = config.capacity * AUTHORITY_TRANSFERS
        + (config.refill_per_sec as f64 * elapsed.as_secs_f64()).ceil() as u64;
    let availability = if total_requests == 0 {
        1.0
    } else {
        (total_requests - total_errors) as f64 / total_requests as f64
    };
    let (degraded_allowed, degraded_denied) = deployment.router_degraded_totals();
    let gateway_stats = deployment.gateway().map(|g| {
        let stats = g.stats();
        (
            stats.ejections.load(std::sync::atomic::Ordering::Relaxed),
            stats
                .readmissions
                .load(std::sync::atomic::Ordering::Relaxed),
        )
    });

    Ok(ChaosReport {
        phases,
        total_allowed,
        total_denied,
        total_errors,
        elapsed_ms: elapsed.as_millis() as u64,
        admission_bound,
        safety_ok: total_allowed <= admission_bound,
        availability,
        availability_floor: config.availability_floor,
        availability_ok: availability >= config.availability_floor,
        breaker_fast_fails: deployment.router_fast_fail_total(),
        degraded_allowed,
        degraded_denied,
        gateway_ejections: gateway_stats.map_or(0, |(e, _)| e),
        gateway_readmissions: gateway_stats.map_or(0, |(_, r)| r),
        breaker_recovered_ms: recovered.map(|d| d.as_millis() as u64),
        breaker_recovery_ok: recovered.is_some(),
    })
}
