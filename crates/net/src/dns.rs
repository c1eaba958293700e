//! DNS substrate: round-robin answers, TTL caching, health-checked
//! failover.
//!
//! Janus uses DNS in three places (paper §II-A, §III-A, §III-C):
//!
//! 1. **DNS load balancing** — the Janus endpoint resolves to the request
//!    router fleet, and "with each DNS query request, the IP address
//!    sequence in the list is permuted".
//! 2. **Client-side caching** — "most operating systems cache DNS
//!    resolution results until the TTL expires", which pins each client to
//!    one router per TTL cycle and causes the skew the paper reports.
//! 3. **Failover records** — a master/slave QoS-server pair (and the
//!    Multi-AZ database) is one DNS name whose answer is the master while
//!    healthy, replaced by the slave on failure (the Route53 health-check
//!    mechanism).
//!
//! [`Zone`] is the authoritative server, [`Resolver`] the caching stub
//! resolver a client host runs. Records map names to socket addresses (see
//! the crate-level note on why ports are included).

use janus_clock::{Nanos, SharedClock};
use janus_types::sync::{Mutex, Shutdown};
use janus_types::{JanusError, Result};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A record set as returned by a zone query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsRecord {
    /// The queried name.
    pub name: String,
    /// Answer targets, already permuted for this query.
    pub targets: Vec<SocketAddr>,
    /// How long a resolver may cache this answer.
    pub ttl: Duration,
}

#[derive(Debug)]
enum RecordState {
    /// A plain multi-target record (DNS load balancing).
    RoundRobin {
        targets: Vec<SocketAddr>,
        rotation: u64,
    },
    /// A health-checked master/standby pair: answers contain only the
    /// active primary.
    Failover {
        primary: SocketAddr,
        standby: Option<SocketAddr>,
    },
}

#[derive(Debug)]
struct RecordEntry {
    state: RecordState,
    ttl: Duration,
}

/// An authoritative DNS zone.
#[derive(Debug, Default)]
pub struct Zone {
    records: Mutex<HashMap<String, RecordEntry>>,
}

impl Zone {
    /// An empty zone.
    pub fn new() -> Arc<Zone> {
        Arc::new(Zone::default())
    }

    /// Install (or replace) a round-robin record.
    pub fn insert(&self, name: &str, targets: Vec<SocketAddr>, ttl: Duration) {
        assert!(!targets.is_empty(), "record needs at least one target");
        self.records.lock().insert(
            name.to_string(),
            RecordEntry {
                state: RecordState::RoundRobin {
                    targets,
                    rotation: 0,
                },
                ttl,
            },
        );
    }

    /// Install (or replace) a failover record.
    pub fn insert_failover(
        &self,
        name: &str,
        primary: SocketAddr,
        standby: Option<SocketAddr>,
        ttl: Duration,
    ) {
        self.records.lock().insert(
            name.to_string(),
            RecordEntry {
                state: RecordState::Failover { primary, standby },
                ttl,
            },
        );
    }

    /// Remove a record. Returns true if it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.records.lock().remove(name).is_some()
    }

    /// Authoritative query. Round-robin answers rotate one position per
    /// query; failover answers contain only the active primary.
    pub fn query(&self, name: &str) -> Result<DnsRecord> {
        let mut records = self.records.lock();
        let entry = records
            .get_mut(name)
            .ok_or_else(|| JanusError::dns(format!("NXDOMAIN: {name}")))?;
        let targets = match &mut entry.state {
            RecordState::RoundRobin { targets, rotation } => {
                let shift = (*rotation as usize) % targets.len();
                *rotation = rotation.wrapping_add(1);
                let mut permuted = Vec::with_capacity(targets.len());
                permuted.extend_from_slice(&targets[shift..]);
                permuted.extend_from_slice(&targets[..shift]);
                permuted
            }
            RecordState::Failover { primary, .. } => vec![*primary],
        };
        Ok(DnsRecord {
            name: name.to_string(),
            targets,
            ttl: entry.ttl,
        })
    }

    /// Promote the standby of a failover record: the standby address
    /// replaces the failed primary in subsequent answers (the paper's
    /// master/slave fail-over). Returns the new primary.
    ///
    /// Errors if the record does not exist, is not a failover record, or
    /// has no standby configured.
    pub fn promote_standby(&self, name: &str) -> Result<SocketAddr> {
        let mut records = self.records.lock();
        let entry = records
            .get_mut(name)
            .ok_or_else(|| JanusError::dns(format!("NXDOMAIN: {name}")))?;
        match &mut entry.state {
            RecordState::Failover { primary, standby } => match standby.take() {
                Some(next) => {
                    *primary = next;
                    Ok(next)
                }
                None => Err(JanusError::dns(format!("{name} has no standby to promote"))),
            },
            RecordState::RoundRobin { .. } => {
                Err(JanusError::dns(format!("{name} is not a failover record")))
            }
        }
    }

    /// Install a fresh standby on a failover record (after a promotion,
    /// "launch a new slave node to form a new master-slave pair").
    pub fn set_standby(&self, name: &str, standby: SocketAddr) -> Result<()> {
        let mut records = self.records.lock();
        let entry = records
            .get_mut(name)
            .ok_or_else(|| JanusError::dns(format!("NXDOMAIN: {name}")))?;
        match &mut entry.state {
            RecordState::Failover { standby: slot, .. } => {
                *slot = Some(standby);
                Ok(())
            }
            RecordState::RoundRobin { .. } => {
                Err(JanusError::dns(format!("{name} is not a failover record")))
            }
        }
    }

    /// Current active primary of a failover record (diagnostics).
    pub fn active_primary(&self, name: &str) -> Result<SocketAddr> {
        let records = self.records.lock();
        match records.get(name).map(|e| &e.state) {
            Some(RecordState::Failover { primary, .. }) => Ok(*primary),
            Some(_) => Err(JanusError::dns(format!("{name} is not a failover record"))),
            None => Err(JanusError::dns(format!("NXDOMAIN: {name}"))),
        }
    }
}

/// A caching stub resolver, one per client host.
///
/// Cached answers are returned *in cached order* until the TTL expires —
/// precisely the OS behaviour that makes DNS load balancing sticky within
/// a TTL cycle.
#[derive(Debug)]
pub struct Resolver {
    zone: Arc<Zone>,
    clock: SharedClock,
    cache: Mutex<HashMap<String, (Vec<SocketAddr>, Nanos)>>,
}

impl Resolver {
    /// A resolver against `zone` using `clock` for TTL expiry.
    pub fn new(zone: Arc<Zone>, clock: SharedClock) -> Resolver {
        Resolver {
            zone,
            clock,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Resolve `name`, consulting the cache first.
    pub fn resolve(&self, name: &str) -> Result<Vec<SocketAddr>> {
        let now = self.clock.now();
        {
            let cache = self.cache.lock();
            if let Some((targets, expires)) = cache.get(name) {
                if now < *expires {
                    return Ok(targets.clone());
                }
            }
        }
        let record = self.zone.query(name)?;
        let expires = now + record.ttl;
        self.cache
            .lock()
            .insert(name.to_string(), (record.targets.clone(), expires));
        Ok(record.targets)
    }

    /// Resolve and take the first answer — "usually, the QoS client
    /// attempts to connect the request router with the first IP address
    /// returned from the DNS query" (paper §II-A).
    pub fn resolve_one(&self, name: &str) -> Result<SocketAddr> {
        Ok(self.resolve(name)?[0])
    }

    /// Drop all cached answers (e.g. after a known failover, or to model a
    /// host whose cache flushed).
    pub fn flush(&self) {
        self.cache.lock().clear();
    }
}

/// Handle to a spawned health monitor; dropping it stops the probes.
#[derive(Debug)]
pub struct HealthMonitor {
    stop: Shutdown,
}

impl HealthMonitor {
    /// Stop probing.
    pub fn stop(&self) {
        self.stop.trigger();
    }
}

impl Drop for HealthMonitor {
    fn drop(&mut self) {
        self.stop.trigger();
    }
}

/// Watch the active primary of failover record `name` by TCP-connecting to
/// `health_port_of(primary)` every `interval`; after `fail_threshold`
/// consecutive failures, promote the standby (Route53 health check + DNS
/// failover). The probes run on their own thread.
///
/// The probe target is derived from the record's data-plane address via
/// `health_addr`, because the QoS server's data port is UDP and cannot be
/// TCP-probed.
pub fn spawn_tcp_health_monitor(
    zone: Arc<Zone>,
    name: String,
    health_addr: impl Fn(SocketAddr) -> SocketAddr + Send + 'static,
    interval: Duration,
    fail_threshold: u32,
) -> HealthMonitor {
    let stop = Shutdown::new();
    let stopped = stop.clone();
    let probe_loop = move || {
        let mut failures = 0u32;
        while !stopped.is_triggered() {
            let Ok(primary) = zone.active_primary(&name) else {
                return;
            };
            let healthy =
                std::net::TcpStream::connect_timeout(&health_addr(primary), interval).is_ok();
            if healthy {
                failures = 0;
            } else {
                failures += 1;
                if failures >= fail_threshold {
                    let _ = zone.promote_standby(&name);
                    failures = 0;
                }
            }
            if stopped.wait_timeout(interval) {
                return;
            }
        }
    };
    std::thread::Builder::new()
        .name("janus-dns-health".into())
        .spawn(probe_loop)
        .expect("spawn health monitor thread");
    HealthMonitor { stop }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_clock::SimClock;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn round_robin_permutes_per_query() {
        let zone = Zone::new();
        zone.insert(
            "janus.test",
            vec![addr(1), addr(2), addr(3)],
            Duration::from_secs(30),
        );
        let a = zone.query("janus.test").unwrap().targets;
        let b = zone.query("janus.test").unwrap().targets;
        let c = zone.query("janus.test").unwrap().targets;
        let d = zone.query("janus.test").unwrap().targets;
        assert_eq!(a, vec![addr(1), addr(2), addr(3)]);
        assert_eq!(b, vec![addr(2), addr(3), addr(1)]);
        assert_eq!(c, vec![addr(3), addr(1), addr(2)]);
        assert_eq!(d, a, "rotation should wrap");
    }

    #[test]
    fn first_answers_cycle_over_all_routers() {
        // Uncached clients hitting the zone directly spread across nodes.
        let zone = Zone::new();
        zone.insert(
            "janus.test",
            vec![addr(1), addr(2)],
            Duration::from_secs(30),
        );
        let firsts: Vec<_> = (0..4)
            .map(|_| zone.query("janus.test").unwrap().targets[0])
            .collect();
        assert_eq!(firsts, vec![addr(1), addr(2), addr(1), addr(2)]);
    }

    #[test]
    fn nxdomain_errors() {
        let zone = Zone::new();
        assert!(zone.query("missing.test").is_err());
    }

    #[test]
    fn resolver_caches_within_ttl() {
        let zone = Zone::new();
        zone.insert(
            "janus.test",
            vec![addr(1), addr(2)],
            Duration::from_secs(30),
        );
        let clock = Arc::new(SimClock::new());
        let resolver = Resolver::new(Arc::clone(&zone), clock.clone());

        let first = resolver.resolve("janus.test").unwrap();
        // Within the TTL every resolve returns the same (cached) answer:
        // the client is pinned to one router — the paper's skew mechanism.
        for _ in 0..10 {
            clock.advance(Duration::from_secs(2));
            assert_eq!(resolver.resolve("janus.test").unwrap(), first);
        }
        // Past the TTL the zone is re-queried and rotation shows.
        clock.advance(Duration::from_secs(30));
        let second = resolver.resolve("janus.test").unwrap();
        assert_ne!(second, first, "expected a rotated answer after TTL");
    }

    #[test]
    fn two_resolvers_get_different_routers() {
        // Two client hosts each cache a different permutation: DNS LB
        // spreads clients across routers even while each is pinned.
        let zone = Zone::new();
        zone.insert(
            "janus.test",
            vec![addr(1), addr(2)],
            Duration::from_secs(30),
        );
        let clock: SharedClock = Arc::new(SimClock::new());
        let host_a = Resolver::new(Arc::clone(&zone), Arc::clone(&clock));
        let host_b = Resolver::new(Arc::clone(&zone), clock);
        assert_ne!(
            host_a.resolve_one("janus.test").unwrap(),
            host_b.resolve_one("janus.test").unwrap()
        );
    }

    #[test]
    fn resolver_flush_forces_requery() {
        let zone = Zone::new();
        zone.insert(
            "janus.test",
            vec![addr(1), addr(2)],
            Duration::from_secs(3600),
        );
        let clock: SharedClock = Arc::new(SimClock::new());
        let resolver = Resolver::new(Arc::clone(&zone), clock);
        let first = resolver.resolve_one("janus.test").unwrap();
        resolver.flush();
        let second = resolver.resolve_one("janus.test").unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn failover_answers_primary_then_standby() {
        let zone = Zone::new();
        zone.insert_failover(
            "qos-1.test",
            addr(10),
            Some(addr(11)),
            Duration::from_secs(5),
        );
        assert_eq!(zone.query("qos-1.test").unwrap().targets, vec![addr(10)]);
        assert_eq!(zone.active_primary("qos-1.test").unwrap(), addr(10));

        let promoted = zone.promote_standby("qos-1.test").unwrap();
        assert_eq!(promoted, addr(11));
        assert_eq!(zone.query("qos-1.test").unwrap().targets, vec![addr(11)]);

        // No standby left until a replacement is installed.
        assert!(zone.promote_standby("qos-1.test").is_err());
        zone.set_standby("qos-1.test", addr(12)).unwrap();
        assert_eq!(zone.promote_standby("qos-1.test").unwrap(), addr(12));
    }

    #[test]
    fn failover_ops_reject_round_robin_records() {
        let zone = Zone::new();
        zone.insert("rr.test", vec![addr(1)], Duration::from_secs(5));
        assert!(zone.promote_standby("rr.test").is_err());
        assert!(zone.set_standby("rr.test", addr(2)).is_err());
        assert!(zone.active_primary("rr.test").is_err());
    }

    #[test]
    fn health_monitor_promotes_on_dead_primary() {
        // Primary "health port" is a dead socket; standby should be
        // promoted after the failure threshold.
        let dead = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);

        let zone = Zone::new();
        zone.insert_failover(
            "qos-0.test",
            dead_addr,
            Some(addr(999)),
            Duration::from_secs(1),
        );
        let _monitor = spawn_tcp_health_monitor(
            Arc::clone(&zone),
            "qos-0.test".to_string(),
            |primary| primary,
            Duration::from_millis(10),
            3,
        );
        // Wait up to 2 s for promotion.
        for _ in 0..200 {
            if zone.active_primary("qos-0.test").unwrap() == addr(999) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("standby was never promoted");
    }

    #[test]
    fn health_monitor_leaves_healthy_primary_alone() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let healthy_addr = listener.local_addr().unwrap();
        std::thread::spawn(move || loop {
            let _ = listener.accept();
        });
        let zone = Zone::new();
        zone.insert_failover(
            "qos-0.test",
            healthy_addr,
            Some(addr(999)),
            Duration::from_secs(1),
        );
        let _monitor = spawn_tcp_health_monitor(
            Arc::clone(&zone),
            "qos-0.test".to_string(),
            |primary| primary,
            Duration::from_millis(10),
            3,
        );
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(zone.active_primary("qos-0.test").unwrap(), healthy_addr);
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_record_panics() {
        let zone = Zone::new();
        zone.insert("empty.test", vec![], Duration::from_secs(1));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use janus_hash::rng::Rng;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 1000 + i).parse().unwrap())
            .collect()
    }

    /// Every answer is a permutation of the full target set — DNS round
    /// robin reorders, never drops or duplicates.
    #[test]
    fn answers_are_permutations() {
        let mut rng = Rng::seed_from_u64(0xD45_0001);
        for _ in 0..256 {
            let n = rng.gen_range_inclusive(1, 19) as usize;
            let zone = Zone::new();
            let mut expected = addrs(n);
            zone.insert("x.test", expected.clone(), Duration::from_secs(1));
            expected.sort();
            for _ in 0..rng.gen_range_inclusive(1, 49) {
                let mut answer = zone.query("x.test").unwrap().targets;
                answer.sort();
                assert_eq!(answer, expected);
            }
        }
    }

    /// First answers cycle through all targets with period n: after k·n
    /// queries every target led exactly k times.
    #[test]
    fn rotation_is_fair() {
        for n in 1usize..12 {
            for rounds in 1usize..5 {
                let zone = Zone::new();
                zone.insert("x.test", addrs(n), Duration::from_secs(1));
                let mut firsts = HashMap::new();
                for _ in 0..n * rounds {
                    let first = zone.query("x.test").unwrap().targets[0];
                    *firsts.entry(first).or_insert(0usize) += 1;
                }
                assert_eq!(firsts.len(), n);
                assert!(firsts.values().all(|&c| c == rounds));
            }
        }
    }

    /// A resolver never fabricates targets and always answers from the
    /// record, whatever the interleaving of advances and queries.
    #[test]
    fn resolver_answers_subset_of_zone() {
        let mut rng = Rng::seed_from_u64(0xD45_0003);
        for _ in 0..256 {
            let n = rng.gen_range_inclusive(1, 7) as usize;
            let zone = Zone::new();
            let targets = addrs(n);
            zone.insert("x.test", targets.clone(), Duration::from_secs(60));
            let clock = Arc::new(janus_clock::SimClock::new());
            let resolver = Resolver::new(Arc::clone(&zone), clock.clone());
            for _ in 0..rng.gen_range_inclusive(1, 39) {
                clock.advance(Duration::from_secs(rng.gen_range(90)));
                let answer = resolver.resolve("x.test").unwrap();
                assert_eq!(answer.len(), n);
                assert!(answer.iter().all(|a| targets.contains(a)));
            }
        }
    }
}
