#![warn(missing_docs)]
//! The load balancer layer (paper §II-A, §III-A).
//!
//! Janus's service endpoint is a load balancer in front of the request
//! router fleet, in one of two shapes:
//!
//! * [`GatewayLb`] — an ELB-style HTTP reverse proxy. The client holds a
//!   connection to the LB; for each request the LB opens a *fresh*
//!   connection to a router, relays the exchange and closes it — exactly
//!   the per-request hop the paper identifies as the source of the extra
//!   ~500 µs latency (Fig. 5) and the router-side TIME_WAIT pile-up.
//!   Routing policies: round robin and least connections.
//! * [`DnsLb`] — Route53-style DNS load balancing: the Janus endpoint is a
//!   DNS name whose A record lists every router; each query permutes the
//!   answer. Clients resolve through a TTL cache, so a client sticks to
//!   one router per TTL cycle (the skew the paper measures).
//!
//! Both can be combined (DNS across multiple gateway LBs) just as §II-A
//! describes; `DnsLb` happily takes gateway addresses as its targets.

use janus_net::dns::{Resolver, Zone};
use janus_net::http::{HttpClient, HttpHandler, HttpRequest, HttpResponse, HttpServer, StatusCode};
use janus_types::sync::{RwLock, Shutdown};
use janus_types::{JanusError, Result};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How the gateway LB spreads requests over routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbPolicy {
    /// Strict rotation over the backend list.
    RoundRobin,
    /// Pick the backend with the fewest in-flight proxied requests.
    LeastConnections,
}

/// Active health checking: the gateway probes each router's `/healthz`
/// and stops routing to nodes that keep failing (ELB-style ejection).
/// A probe fails on connect error, timeout, or any non-200 status — so a
/// router answering 503 (all its breakers open) is drained exactly like
/// a dead one. One later success readmits the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthCheckConfig {
    /// Time between probe rounds.
    pub interval: Duration,
    /// Consecutive probe failures that eject a backend.
    pub fail_threshold: u32,
    /// Per-probe response budget.
    pub probe_timeout: Duration,
}

impl Default for HealthCheckConfig {
    fn default() -> Self {
        HealthCheckConfig {
            interval: Duration::from_millis(50),
            fail_threshold: 3,
            probe_timeout: Duration::from_millis(250),
        }
    }
}

/// Counters exported by a gateway LB.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Requests proxied successfully.
    pub proxied: AtomicU64,
    /// Requests that failed against every backend (502 returned).
    pub failed: AtomicU64,
    /// Connect errors observed against individual backends.
    pub backend_errors: AtomicU64,
    /// Backends ejected by the health checker.
    pub ejections: AtomicU64,
    /// Ejected backends readmitted after a successful probe.
    pub readmissions: AtomicU64,
}

/// Live state for one registered backend (survives fleet resizes as long
/// as the address stays registered).
#[derive(Debug)]
struct BackendState {
    addr: SocketAddr,
    in_flight: AtomicUsize,
    proxied: AtomicU64,
    /// Set by the health checker; ejected backends get no proxied traffic.
    ejected: AtomicBool,
    /// Consecutive failed probes (health-checker private).
    fail_streak: AtomicU32,
}

impl BackendState {
    fn new(addr: SocketAddr) -> Arc<BackendState> {
        Arc::new(BackendState {
            addr,
            in_flight: AtomicUsize::new(0),
            proxied: AtomicU64::new(0),
            ejected: AtomicBool::new(false),
            fail_streak: AtomicU32::new(0),
        })
    }
}

struct GatewayHandler {
    backends: RwLock<Vec<Arc<BackendState>>>,
    policy: LbPolicy,
    cursor: AtomicUsize,
    stats: Arc<GatewayStats>,
}

impl GatewayHandler {
    fn backend_states(addrs: Vec<SocketAddr>) -> Vec<Arc<BackendState>> {
        addrs.into_iter().map(BackendState::new).collect()
    }

    /// Backends in preference order for one request (snapshot; a
    /// concurrent resize affects only subsequent requests). Ejected
    /// backends are skipped — unless every backend is ejected, in which
    /// case the full list is used: attempting delivery beats an instant
    /// 502, and doubles as the probe that detects recovery.
    fn pick_order(&self) -> Vec<Arc<BackendState>> {
        let pool: Vec<Arc<BackendState>> = {
            let guard = self.backends.read();
            let healthy: Vec<Arc<BackendState>> = guard
                .iter()
                .filter(|b| !b.ejected.load(Ordering::Relaxed))
                .cloned()
                .collect();
            if healthy.is_empty() {
                guard.clone()
            } else {
                healthy
            }
        };
        let n = pool.len();
        match self.policy {
            LbPolicy::RoundRobin => {
                let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n.max(1);
                (0..n).map(|i| Arc::clone(&pool[(start + i) % n])).collect()
            }
            LbPolicy::LeastConnections => {
                let mut order = pool;
                order.sort_by_key(|b| b.in_flight.load(Ordering::Relaxed));
                order
            }
        }
    }

    /// Replace the backend fleet, carrying over live counters (and
    /// ejection state) for addresses present in both the old and new
    /// lists.
    fn set_backends(&self, addrs: Vec<SocketAddr>) {
        let mut guard = self.backends.write();
        let old: Vec<Arc<BackendState>> = guard.clone();
        *guard = addrs
            .into_iter()
            .map(|addr| {
                old.iter()
                    .find(|b| b.addr == addr)
                    .cloned()
                    .unwrap_or_else(|| BackendState::new(addr))
            })
            .collect();
    }

    /// One health-check round: probe every registered backend's
    /// `/healthz` and update ejection state.
    fn probe_round(&self, health: HealthCheckConfig) {
        let backends: Vec<Arc<BackendState>> = self.backends.read().clone();
        for backend in backends {
            let probe = HttpClient::oneshot_timeout(
                backend.addr,
                &HttpRequest::get("/healthz"),
                health.probe_timeout,
            );
            let healthy = matches!(probe, Ok(ref resp) if resp.status == StatusCode::OK);
            if healthy {
                backend.fail_streak.store(0, Ordering::Relaxed);
                if backend.ejected.swap(false, Ordering::Relaxed) {
                    self.stats.readmissions.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                let streak = backend.fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
                if streak >= health.fail_threshold && !backend.ejected.swap(true, Ordering::Relaxed)
                {
                    self.stats.ejections.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl HttpHandler for GatewayHandler {
    fn handle(&self, request: HttpRequest, peer: SocketAddr) -> HttpResponse {
        // Annotate the original client, like real proxies do.
        let request = request.with_header("x-forwarded-for", &peer.ip().to_string());
        for backend in self.pick_order() {
            backend.in_flight.fetch_add(1, Ordering::Relaxed);
            let outcome = HttpClient::oneshot(backend.addr, &request);
            backend.in_flight.fetch_sub(1, Ordering::Relaxed);
            match outcome {
                Ok(response) => {
                    backend.proxied.fetch_add(1, Ordering::Relaxed);
                    self.stats.proxied.fetch_add(1, Ordering::Relaxed);
                    return response;
                }
                Err(_) => {
                    // Dead or overloaded router: try the next one.
                    self.stats.backend_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
        }
        self.stats.failed.fetch_add(1, Ordering::Relaxed);
        HttpResponse::status(StatusCode::BAD_GATEWAY)
    }
}

/// A running gateway load balancer.
pub struct GatewayLb {
    http: HttpServer,
    stats: Arc<GatewayStats>,
    handler: Arc<GatewayHandler>,
    /// Stops the health-checker thread, when there is one.
    health_stop: Shutdown,
}

impl GatewayLb {
    /// Spawn a gateway LB over `backends` with the given policy and no
    /// active health checking (passive skip-on-error only).
    pub fn spawn(backends: Vec<SocketAddr>, policy: LbPolicy) -> Result<GatewayLb> {
        GatewayLb::spawn_inner(backends, policy, None)
    }

    /// Spawn a gateway LB that additionally runs an active health
    /// checker: every `health.interval` it probes each backend's
    /// `/healthz`, ejecting backends after `health.fail_threshold`
    /// consecutive failures and readmitting them on the next success.
    pub fn spawn_with_health(
        backends: Vec<SocketAddr>,
        policy: LbPolicy,
        health: HealthCheckConfig,
    ) -> Result<GatewayLb> {
        GatewayLb::spawn_inner(backends, policy, Some(health))
    }

    fn spawn_inner(
        backends: Vec<SocketAddr>,
        policy: LbPolicy,
        health: Option<HealthCheckConfig>,
    ) -> Result<GatewayLb> {
        if backends.is_empty() {
            return Err(JanusError::config("gateway LB needs at least one backend"));
        }
        let stats = Arc::new(GatewayStats::default());
        let handler = Arc::new(GatewayHandler {
            backends: RwLock::new(GatewayHandler::backend_states(backends)),
            policy,
            cursor: AtomicUsize::new(0),
            stats: Arc::clone(&stats),
        });
        let http = HttpServer::spawn(Arc::clone(&handler) as Arc<dyn HttpHandler>)?;
        let health_stop = Shutdown::new();
        if let Some(config) = health {
            let (stop, checker) = (health_stop.clone(), Arc::clone(&handler));
            std::thread::Builder::new()
                .name("janus-lb-health".into())
                .spawn(move || {
                    while !stop.wait_timeout(config.interval) {
                        checker.probe_round(config);
                    }
                })?;
        }
        Ok(GatewayLb {
            http,
            stats,
            handler,
            health_stop,
        })
    }

    /// The service endpoint clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Counters.
    pub fn stats(&self) -> &Arc<GatewayStats> {
        &self.stats
    }

    /// Requests proxied to each backend, in backend order (workload
    /// distribution checks).
    pub fn per_backend_counts(&self) -> Vec<u64> {
        self.handler
            .backends
            .read()
            .iter()
            .map(|b| b.proxied.load(Ordering::Relaxed))
            .collect()
    }

    /// The current backend fleet.
    pub fn backends(&self) -> Vec<SocketAddr> {
        self.handler
            .backends
            .read()
            .iter()
            .map(|b| b.addr)
            .collect()
    }

    /// Backends currently ejected by the health checker (empty when
    /// health checking is off).
    pub fn ejected_backends(&self) -> Vec<SocketAddr> {
        self.handler
            .backends
            .read()
            .iter()
            .filter(|b| b.ejected.load(Ordering::Relaxed))
            .map(|b| b.addr)
            .collect()
    }

    /// Replace the backend fleet at runtime (autoscaling). Counters for
    /// retained addresses are preserved; in-flight requests to removed
    /// backends complete normally.
    pub fn set_backends(&self, backends: Vec<SocketAddr>) -> Result<()> {
        if backends.is_empty() {
            return Err(JanusError::config("gateway LB needs at least one backend"));
        }
        self.handler.set_backends(backends);
        Ok(())
    }

    /// Stop accepting connections and halt the health checker.
    pub fn shutdown(&self) {
        self.health_stop.trigger();
        self.http.shutdown();
    }
}

impl Drop for GatewayLb {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// DNS load balancing: register the router fleet under a name in a zone.
///
/// Clients build a [`Resolver`] against the same zone; OS-style TTL
/// caching on the resolver produces the stickiness the paper analyzes.
#[derive(Debug, Clone)]
pub struct DnsLb {
    zone: Arc<Zone>,
    name: String,
}

impl DnsLb {
    /// Publish `targets` as the A record for `name` with the given TTL
    /// (the paper's evaluation uses 30 s).
    pub fn publish(
        zone: Arc<Zone>,
        name: impl Into<String>,
        targets: Vec<SocketAddr>,
        ttl: Duration,
    ) -> Result<DnsLb> {
        if targets.is_empty() {
            return Err(JanusError::config("DNS LB needs at least one target"));
        }
        let name = name.into();
        zone.insert(&name, targets, ttl);
        Ok(DnsLb { zone, name })
    }

    /// The service DNS name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The zone this LB publishes into.
    pub fn zone(&self) -> &Arc<Zone> {
        &self.zone
    }

    /// Build a fresh per-client-host resolver (each client host has its
    /// own DNS cache).
    pub fn client_resolver(&self, clock: janus_clock::SharedClock) -> Resolver {
        Resolver::new(Arc::clone(&self.zone), clock)
    }

    /// Re-publish a new target list (scale in/out of the router fleet).
    pub fn update_targets(&self, targets: Vec<SocketAddr>, ttl: Duration) -> Result<()> {
        if targets.is_empty() {
            return Err(JanusError::config("DNS LB needs at least one target"));
        }
        self.zone.insert(&self.name, targets, ttl);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tagged_backend(tag: &'static str) -> HttpServer {
        HttpServer::spawn(Arc::new(move |req: HttpRequest, _peer: SocketAddr| {
            HttpResponse::ok(format!("{tag}:{}", req.target)).with_header("x-backend", tag)
        }))
        .unwrap()
    }

    #[test]
    fn round_robin_spreads_uniformly() {
        let a = tagged_backend("a");
        let b = tagged_backend("b");
        let lb = GatewayLb::spawn(vec![a.addr(), b.addr()], LbPolicy::RoundRobin).unwrap();
        for _ in 0..20 {
            let resp = HttpClient::oneshot(lb.addr(), &HttpRequest::get("/x")).unwrap();
            assert_eq!(resp.status, StatusCode::OK);
        }
        let counts = lb.per_backend_counts();
        assert_eq!(counts, vec![10, 10], "round robin skewed: {counts:?}");
    }

    #[test]
    fn proxies_bodies_and_headers_both_ways() {
        let backend = HttpServer::spawn(Arc::new(|req: HttpRequest, _peer: SocketAddr| {
            let body = format!(
                "got {} bytes, xff={}",
                req.body.len(),
                req.header("x-forwarded-for").unwrap_or("-")
            );
            HttpResponse::ok(body).with_header("x-custom", "yes")
        }))
        .unwrap();
        let lb = GatewayLb::spawn(vec![backend.addr()], LbPolicy::RoundRobin).unwrap();
        let resp =
            HttpClient::oneshot(lb.addr(), &HttpRequest::post("/upload", vec![7u8; 100])).unwrap();
        assert_eq!(resp.body_text(), "got 100 bytes, xff=127.0.0.1");
        assert_eq!(resp.header("x-custom"), Some("yes"));
    }

    #[test]
    fn skips_dead_backend() {
        let dead = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let live = tagged_backend("live");
        let lb = GatewayLb::spawn(vec![dead_addr, live.addr()], LbPolicy::RoundRobin).unwrap();
        for _ in 0..6 {
            let resp = HttpClient::oneshot(lb.addr(), &HttpRequest::get("/y")).unwrap();
            assert_eq!(resp.status, StatusCode::OK);
            assert!(resp.body_text().starts_with("live:"));
        }
        assert!(lb.stats().backend_errors.load(Ordering::Relaxed) >= 1);
        assert_eq!(lb.stats().failed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn all_dead_returns_502() {
        let dead = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let lb = GatewayLb::spawn(vec![dead_addr], LbPolicy::RoundRobin).unwrap();
        let resp = HttpClient::oneshot(lb.addr(), &HttpRequest::get("/z")).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_GATEWAY);
        assert_eq!(lb.stats().failed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn least_connections_avoids_busy_backend() {
        // Backend "slow" stalls; least-connections should route the bulk
        // of traffic to "fast" once slow accumulates in-flight requests.
        let slow = HttpServer::spawn(Arc::new(|_req: HttpRequest, _peer: SocketAddr| {
            std::thread::sleep(Duration::from_millis(300));
            HttpResponse::ok("slow")
        }))
        .unwrap();
        let fast = tagged_backend("fast");
        let lb = Arc::new(
            GatewayLb::spawn(vec![slow.addr(), fast.addr()], LbPolicy::LeastConnections).unwrap(),
        );
        let mut handles = Vec::new();
        for _ in 0..20 {
            let addr = lb.addr();
            handles.push(std::thread::spawn(move || {
                HttpClient::oneshot(addr, &HttpRequest::get("/w"))
                    .unwrap()
                    .body_text()
            }));
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut fast_count = 0;
        for h in handles {
            if h.join().unwrap().starts_with("fast") {
                fast_count += 1;
            }
        }
        assert!(
            fast_count >= 15,
            "least-connections sent only {fast_count}/20 to the idle backend"
        );
    }

    #[test]
    fn rejects_empty_backends() {
        assert!(GatewayLb::spawn(vec![], LbPolicy::RoundRobin).is_err());
    }

    #[test]
    fn health_checker_drains_and_readmits_unhealthy_backend() {
        // A backend that flips between healthy and "all breakers open"
        // (503 on /healthz), like a router whose partitions all browned
        // out and later healed.
        let sick = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&sick);
        let flappy = HttpServer::spawn(Arc::new(move |req: HttpRequest, _peer: SocketAddr| {
            if req.target == "/healthz" && flag.load(Ordering::Relaxed) {
                HttpResponse::status(StatusCode::SERVICE_UNAVAILABLE)
            } else {
                HttpResponse::ok("flappy").with_header("x-backend", "flappy")
            }
        }))
        .unwrap();
        let steady = tagged_backend("steady");
        let lb = GatewayLb::spawn_with_health(
            vec![flappy.addr(), steady.addr()],
            LbPolicy::RoundRobin,
            HealthCheckConfig {
                interval: Duration::from_millis(10),
                fail_threshold: 2,
                probe_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();

        // Phase 1: both healthy — traffic reaches both.
        std::thread::sleep(Duration::from_millis(50));
        for _ in 0..8 {
            HttpClient::oneshot(lb.addr(), &HttpRequest::get("/a")).unwrap();
        }
        let before = lb.per_backend_counts();
        assert!(
            before[0] > 0 && before[1] > 0,
            "warmup skipped a backend: {before:?}"
        );
        assert!(lb.ejected_backends().is_empty());

        // Phase 2: flappy's health endpoint goes 503 — after two failed
        // probes the LB drains it; every request lands on steady.
        sick.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(lb.ejected_backends(), vec![flappy.addr()]);
        for _ in 0..10 {
            let resp = HttpClient::oneshot(lb.addr(), &HttpRequest::get("/b")).unwrap();
            assert_eq!(resp.header("x-backend"), Some("steady"));
        }
        assert!(lb.stats().ejections.load(Ordering::Relaxed) >= 1);

        // Phase 3: heal — one passing probe readmits flappy and traffic
        // resumes flowing to it.
        sick.store(false, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(100));
        assert!(lb.ejected_backends().is_empty());
        let drained = lb.per_backend_counts()[0];
        for _ in 0..8 {
            HttpClient::oneshot(lb.addr(), &HttpRequest::get("/c")).unwrap();
        }
        assert!(
            lb.per_backend_counts()[0] > drained,
            "readmitted backend got no traffic"
        );
        assert!(lb.stats().readmissions.load(Ordering::Relaxed) >= 1);
        lb.shutdown();
    }

    #[test]
    fn dns_lb_publish_and_resolve() {
        let zone = Zone::new();
        let targets: Vec<SocketAddr> = vec![
            "127.0.0.1:1001".parse().unwrap(),
            "127.0.0.1:1002".parse().unwrap(),
        ];
        let lb = DnsLb::publish(
            Arc::clone(&zone),
            "janus.test",
            targets.clone(),
            Duration::from_secs(30),
        )
        .unwrap();
        let clock = janus_clock::system();
        let resolver_a = lb.client_resolver(Arc::clone(&clock));
        let resolver_b = lb.client_resolver(clock);
        let first_a = resolver_a.resolve_one("janus.test").unwrap();
        let first_b = resolver_b.resolve_one("janus.test").unwrap();
        assert_ne!(
            first_a, first_b,
            "two hosts should land on different routers"
        );
        assert!(targets.contains(&first_a) && targets.contains(&first_b));
    }

    #[test]
    fn dns_lb_update_targets() {
        let zone = Zone::new();
        let lb = DnsLb::publish(
            Arc::clone(&zone),
            "janus.test",
            vec!["127.0.0.1:1001".parse().unwrap()],
            Duration::ZERO,
        )
        .unwrap();
        lb.update_targets(vec!["127.0.0.1:2002".parse().unwrap()], Duration::ZERO)
            .unwrap();
        let resolver = lb.client_resolver(janus_clock::system());
        assert_eq!(
            resolver.resolve_one("janus.test").unwrap(),
            "127.0.0.1:2002".parse::<SocketAddr>().unwrap()
        );
        assert!(lb.update_targets(vec![], Duration::ZERO).is_err());
        assert!(DnsLb::publish(zone, "x", vec![], Duration::ZERO).is_err());
    }
}
