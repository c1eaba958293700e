//! Brownout integration test: a dead partition trips the router's
//! circuit breaker, after which requests to it fast-fail locally
//! instead of burning the full UDP retry budget; healthy partitions
//! keep their latency; and one half-open probe closes the breaker once
//! the partition heals.

use janus_core::{
    BreakerConfig, Deployment, DeploymentConfig, LbMode, QosKey, QosRule, UdpRpcConfig, Verdict,
};
use janus_hash::routing::{ModuloRouter, Router};
use std::time::{Duration, Instant};

fn key(s: &str) -> QosKey {
    QosKey::new(s).unwrap()
}

/// Pick one key per partition under `CRC32 mod 2`.
fn keys_for_two_partitions() -> (QosKey, QosKey) {
    let hash = ModuloRouter::new(2);
    let (mut first, mut second) = (None, None);
    let mut i = 0;
    while first.is_none() || second.is_none() {
        let candidate = key(&format!("tenant-{i}"));
        i += 1;
        match hash.route(&candidate) {
            0 if first.is_none() => first = Some(candidate),
            1 if second.is_none() => second = Some(candidate),
            _ => {}
        }
    }
    (first.unwrap(), second.unwrap())
}

fn timed_check(
    client: &mut janus_core::QosClient,
    key: &QosKey,
) -> (Result<bool, janus_types::JanusError>, Duration) {
    let started = Instant::now();
    let outcome = client.qos_check(key);
    (outcome, started.elapsed())
}

fn p99(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[(samples.len() * 99) / 100]
}

#[test]
fn open_breaker_fast_fails_and_spares_healthy_partition() {
    let (dead_key, live_key) = keys_for_two_partitions();
    // A slow retry discipline so "skipped the retry budget" is
    // measurable: a request to a dead partition that exhausts retries
    // takes at least 5 x 5 ms.
    let udp = UdpRpcConfig {
        timeout: Duration::from_millis(5),
        max_retries: 5,
        ..Default::default()
    };
    let udp_timeout = udp.timeout;
    let breaker = BreakerConfig {
        failure_threshold: 3,
        open_timeout: Duration::from_secs(1),
    };
    let config = DeploymentConfig {
        qos_servers: 2,
        routers: 1,
        lb: LbMode::None,
        udp,
        default_verdict: Verdict::Deny,
        breaker: Some(breaker),
        rules: vec![
            QosRule::per_second(dead_key.clone(), 1_000_000, 1_000_000),
            QosRule::per_second(live_key.clone(), 1_000_000, 1_000_000),
        ],
        ..DeploymentConfig::default()
    };
    let mut deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();

    // Warm both partitions (hydrates rules, teaches the router the
    // dead key's shape for degraded admission) and take a healthy
    // latency baseline.
    assert!(client.qos_check(&dead_key).unwrap());
    let mut baseline = Vec::new();
    for _ in 0..50 {
        let (outcome, latency) = timed_check(&mut client, &live_key);
        assert!(outcome.unwrap());
        baseline.push(latency);
    }
    let baseline_p99 = p99(&mut baseline);

    // Kill partition 0 (no HA: nothing will answer until heal). The
    // first `failure_threshold` requests burn the full retry budget and
    // trip the breaker.
    deployment.kill_qos_master(0);
    for _ in 0..breaker.failure_threshold {
        let _ = client.qos_check(&dead_key).unwrap();
    }
    assert!(deployment.breaker_open_anywhere(0), "breaker never opened");

    // Open breaker: 20 requests to the dead partition must answer
    // locally (degraded bucket, learned shape -> Allow) without the
    // retry budget. Retrying would cost >= 20 x 25 ms = 500 ms; demand
    // less than half that for the whole batch.
    let fast_started = Instant::now();
    for _ in 0..20 {
        assert!(
            client.qos_check(&dead_key).unwrap(),
            "degraded admission lost the learned shape"
        );
    }
    let fast_elapsed = fast_started.elapsed();
    assert!(
        fast_elapsed < Duration::from_millis(250),
        "fast-fail path took {fast_elapsed:?}; requests are still burning the retry budget"
    );
    assert!(deployment.router_fast_fail_total() >= 20);

    // Healthy partition keeps its latency: p99 while partition 0 is
    // dark stays within 2x the baseline, plus a noise floor of one late
    // attempt (on a busy 2-vCPU box a scheduler hiccup can outlast the
    // 5 ms attempt timeout once in a few hundred requests; queueing
    // behind the dead partition's retry budget would cost 30 ms).
    let mut during = Vec::new();
    for _ in 0..50 {
        let (outcome, latency) = timed_check(&mut client, &live_key);
        assert!(outcome.unwrap());
        during.push(latency);
    }
    let during_p99 = p99(&mut during);
    assert!(
        during_p99 <= baseline_p99 * 2 + udp_timeout + Duration::from_millis(2),
        "healthy partition degraded: p99 {during_p99:?} vs baseline {baseline_p99:?}"
    );

    // Heal. After the open timeout, the next request is the single
    // half-open probe; it succeeds against the fresh node and closes
    // the breaker immediately.
    deployment.heal_partition(0).unwrap();
    std::thread::sleep(breaker.open_timeout + Duration::from_millis(50));
    assert!(client.qos_check(&dead_key).unwrap());
    assert!(
        deployment.breakers_closed_everywhere(0),
        "breaker still open after a successful half-open probe"
    );
}
