#![warn(missing_docs)]
//! The request router layer (paper §II-B, §III-B).
//!
//! A request router is a *stateless* web application: it accepts QoS
//! requests over HTTP (`GET /qos?key=<qos-key>`), picks the owning QoS
//! server with `CRC32(key) mod N`, forwards the request over UDP with the
//! 100 µs × 5-retry discipline, and relays the verdict. If every retry is
//! lost it returns a configurable **default reply** instead of an error —
//! admission control must answer quickly even when a partition is sick.
//!
//! Statelessness is the point: any router node computes the same hash, so
//! the fleet scales out by just adding nodes behind the load balancer, and
//! a router can be killed at any time without losing QoS state.
//!
//! Back ends are identified by DNS names resolved through the
//! [`janus_net::dns`] substrate ("the request router identifies the QoS
//! server nodes in the back end via their DNS names"), which is how
//! master→slave failover reaches routers without reconfiguration; direct
//! socket addresses are also accepted for simple deployments.

use crate::core::{
    GrayConfig, LeaseEvent, LocalAnswer, RouterCore, RouterCoreConfig, RouterLeaseConfig,
    RouterStep,
};
use janus_clock::SharedClock;
use janus_net::breaker::{BreakerConfig, BreakerState};
use janus_net::dns::Resolver;
use janus_net::fault::FaultPlan;
use janus_net::http::{HttpHandler, HttpRequest, HttpResponse, HttpServer, StatusCode};
use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
use janus_types::{JanusError, QosKey, QosRequest, QosResponse, Result, Verdict};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub mod core;

/// How the router addresses one QoS server partition.
#[derive(Debug, Clone)]
pub enum Backend {
    /// A fixed socket address.
    Direct(SocketAddr),
    /// A DNS name (e.g. `qos-3.janus.internal`) resolved per request
    /// through the router's TTL-caching resolver. Used for HA pairs.
    Named(String),
}

impl From<SocketAddr> for Backend {
    fn from(addr: SocketAddr) -> Backend {
        Backend::Direct(addr)
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The QoS server fleet, in partition order. The fleet size N is
    /// baked into the hash, so all routers must agree on this list.
    pub backends: Vec<Backend>,
    /// UDP retry discipline (paper: 100 µs × 5 retries).
    pub udp: UdpRpcConfig,
    /// The verdict to return when the QoS server never answers.
    /// Fail-open (`Allow`) favours availability; fail-closed (`Deny`)
    /// favours protection. The paper leaves the "default reply"
    /// unspecified, so it is explicit configuration here.
    pub default_verdict: Verdict,
    /// Reuse idle connected UDP sockets across checks instead of the
    /// paper's PHP-style socket-per-request (an optimization ablation;
    /// see [`UdpRpcClient::reusing`]). Either way each check owns its
    /// socket while in flight, and both put one frame per datagram on the
    /// wire. Default: false, the faithful discipline.
    pub pooled_rpc: bool,
    /// Per-partition circuit breaking plus degraded local admission.
    /// While a partition's breaker is open the router answers its keys
    /// from a local leaky bucket seeded by rule hints learned from the
    /// QoS server (scaled by `fleet_size`), instead of burning the full
    /// retry budget per request. `None` is the paper-faithful ablation:
    /// no breakers, no hint soliciting, default reply on every timeout.
    pub breaker: Option<BreakerConfig>,
    /// How many router nodes share admission duty. Degraded local
    /// buckets enforce `1/fleet_size` of a hinted rule so the fleet
    /// jointly approximates the purchased rate. Clamped to at least 1.
    pub fleet_size: usize,
    /// Propagate the end-to-end deadline: stamp every UDP attempt with
    /// the remaining retry budget and a per-logical-request nonce (see
    /// [`UdpRpcConfig::stamp_deadlines`], which this flag turns on), so
    /// the QoS server can shed work this router has already given up on
    /// and answer duplicate attempts from a cached verdict instead of
    /// charging the bucket twice. Safe against old servers — the final
    /// attempt always falls back to the legacy frame.
    pub deadline_propagation: bool,
    /// Participate in credit leases (DESIGN.md ablation 13): solicit
    /// short-TTL slices of hot keys from the QoS server and admit them
    /// from a router-local bucket with zero network I/O, renewing
    /// proactively and reconciling spend asynchronously. Safe against
    /// old servers — they drop the lease frame kind and retries fall
    /// back to the lease-free encoding.
    pub lease: bool,
    /// Gray-failure resistance (DESIGN.md ablation 15): per-partition
    /// adaptive attempt timeouts, credit-safe same-nonce hedging, and a
    /// node-global retry budget. `None` (the default) keeps the paper's
    /// fixed wire discipline byte-for-byte.
    pub gray: Option<GrayConfig>,
}

impl RouterConfig {
    /// A config for a fixed fleet of direct addresses with LAN-friendly
    /// retry timing, a fail-open default, and brownout protection on.
    pub fn direct(backends: impl IntoIterator<Item = SocketAddr>) -> Self {
        RouterConfig {
            backends: backends.into_iter().map(Backend::Direct).collect(),
            udp: UdpRpcConfig::lan_defaults(),
            default_verdict: Verdict::Allow,
            pooled_rpc: false,
            breaker: Some(BreakerConfig::default()),
            fleet_size: 1,
            deadline_propagation: true,
            lease: false,
            gray: None,
        }
    }
}

/// Counters exported by a router node.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// QoS requests served over HTTP.
    pub served: AtomicU64,
    /// Requests answered by the QoS server.
    pub forwarded_ok: AtomicU64,
    /// Requests that exhausted the retry budget and got the default reply.
    pub defaulted: AtomicU64,
    /// Malformed HTTP requests rejected.
    pub bad_requests: AtomicU64,
    /// Requests answered without touching the network because the
    /// partition's breaker was open.
    pub breaker_fast_fails: AtomicU64,
    /// Degraded local admissions that allowed the request.
    pub degraded_allowed: AtomicU64,
    /// Degraded local admissions that denied the request.
    pub degraded_denied: AtomicU64,
    /// Rule hints learned (first sightings and shape changes).
    pub hints_learned: AtomicU64,
    /// Requests admitted from a held credit lease — zero network I/O.
    pub lease_admits: AtomicU64,
    /// Lease renewals installed (same-epoch re-grants).
    pub lease_renewals: AtomicU64,
    /// Held leases superseded by an epoch bump (server-side revocation).
    pub lease_revocations: AtomicU64,
    /// Hedged (second in-flight, same-nonce) attempts put on the wire.
    pub hedges_sent: AtomicU64,
    /// Hedged attempts answered after the hedge fired — the window in
    /// which the duplicate could have been the copy that won.
    pub hedge_wins: AtomicU64,
    /// Retries or hedges refused because the global retry budget was dry.
    pub retry_budget_exhausted: AtomicU64,
    /// Latest adaptively-derived per-attempt timeout, µs (gauge; 0 until
    /// the adaptive mode first engages).
    pub adaptive_timeout_us: AtomicU64,
}

/// A running request-router node.
pub struct RequestRouter {
    http: HttpServer,
    stats: Arc<RouterStats>,
    partitions: usize,
    handler: Arc<RouterHandler>,
}

struct RouterHandler {
    /// The sans-IO decision core: partition hashing, breakers, learned
    /// hints and degraded buckets. The handler owns only the I/O halves —
    /// resolution, the RPC transport, stats attribution.
    core: RouterCore,
    backends: Vec<Backend>,
    resolver: Option<Arc<Resolver>>,
    /// A socket per request (the paper's PHP router) or reused idle
    /// sockets, per [`RouterConfig::pooled_rpc`].
    rpc: UdpRpcClient,
    stats: Arc<RouterStats>,
    next_id: AtomicU64,
    clock: SharedClock,
    /// The transport's configured fixed timeout — the baseline the
    /// core's adaptive policy falls back to while warming up.
    baseline_timeout: std::time::Duration,
}

/// How a verdict was produced, for stats attribution.
enum Served {
    /// The owning QoS server answered.
    Backend(Verdict),
    /// A held credit lease admitted the request locally (always Allow).
    Leased,
    /// The partition is browned out; a router-local bucket answered.
    Degraded(Verdict),
    /// No backend answer and no learned rule: the configured default.
    Default,
}

impl RouterHandler {
    fn resolve(&self, partition: usize) -> Result<SocketAddr> {
        match &self.backends[partition] {
            Backend::Direct(addr) => Ok(*addr),
            Backend::Named(name) => match &self.resolver {
                Some(resolver) => resolver.resolve_one(name),
                None => Err(JanusError::config(format!(
                    "backend {name:?} is a DNS name but the router has no resolver"
                ))),
            },
        }
    }

    fn qos_check(&self, key: QosKey) -> Served {
        let (partition, solicit_hint, lease_ask) = match self.core.begin(&key, self.clock.now()) {
            RouterStep::LeaseAdmit { .. } => {
                self.stats.lease_admits.fetch_add(1, Ordering::Relaxed);
                return Served::Leased;
            }
            RouterStep::FastFail { answer, .. } => {
                self.stats
                    .breaker_fast_fails
                    .fetch_add(1, Ordering::Relaxed);
                return self.serve_local(answer);
            }
            RouterStep::Forward {
                partition,
                solicit_hint,
                lease_ask,
            } => (partition, solicit_hint, lease_ask),
        };
        let result = match self.resolve(partition) {
            Ok(addr) => self.call_backend(addr, partition, &key, solicit_hint, lease_ask),
            Err(e) => Err(e),
        };
        self.mirror_gray_stats();
        match result {
            Ok(response) => {
                let outcome = self
                    .core
                    .on_response(partition, &key, &response, self.clock.now());
                if outcome.hint_learned {
                    self.stats.hints_learned.fetch_add(1, Ordering::Relaxed);
                }
                match outcome.lease {
                    Some(LeaseEvent::Renewed) => {
                        self.stats.lease_renewals.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(LeaseEvent::Revoked) => {
                        self.stats.lease_revocations.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(LeaseEvent::Granted) | None => {}
                }
                Served::Backend(response.verdict)
            }
            Err(_) => {
                let served = match self.core.on_failure(partition, &key, self.clock.now()) {
                    Some(answer) => self.serve_local(answer),
                    None => Served::Default,
                };
                if matches!(served, Served::Default) {
                    // Retry budget exhausted (or resolution failed) and
                    // no learned rule. Counted here, not where the reply
                    // is built: a breaker fast-fail also answers with the
                    // default, but spent no retry budget — it is already
                    // a `breaker_fast_fails`.
                    self.stats.defaulted.fetch_add(1, Ordering::Relaxed);
                }
                served
            }
        }
    }

    /// Attribute a core-produced local answer to the right counters.
    fn serve_local(&self, answer: LocalAnswer) -> Served {
        match answer {
            LocalAnswer::Degraded(verdict) => {
                match verdict {
                    Verdict::Allow => self.stats.degraded_allowed.fetch_add(1, Ordering::Relaxed),
                    Verdict::Deny => self.stats.degraded_denied.fetch_add(1, Ordering::Relaxed),
                };
                Served::Degraded(verdict)
            }
            LocalAnswer::Default(_) => Served::Default,
        }
    }

    /// One UDP exchange. With breakers on, the first attempt solicits a
    /// rule hint; with leases on, it piggybacks the lease report from
    /// the core (retries inside the client fall back to the plain
    /// frame, so hint- and lease-unaware servers cost at most one
    /// attempt). The wire discipline (adaptive timeout, hedge delay,
    /// retry budget, RTT recording) comes from the core per partition;
    /// with the gray plane off it is the all-`None` no-op and both socket
    /// strategies reproduce the legacy byte-for-byte behaviour. Request
    /// ids come from one per-router counter, so they never repeat while a
    /// late answer can still reach a reused socket.
    fn call_backend(
        &self,
        addr: SocketAddr,
        partition: usize,
        key: &QosKey,
        solicit: bool,
        lease_ask: Option<janus_types::LeaseReport>,
    ) -> Result<QosResponse> {
        let discipline = self.core.discipline(partition, self.baseline_timeout);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let request = forward_request(id, key.clone(), solicit, lease_ask);
        self.rpc.call_disciplined(addr, &request, &discipline)
    }

    /// Mirror the gray-plane counters into the exported [`RouterStats`].
    /// The live counters are shared with the transports via the
    /// discipline; this copies their current values (cheap, monotone),
    /// so the stats struct stays plain atomics.
    fn mirror_gray_stats(&self) {
        if !self.core.gray_enabled() {
            return;
        }
        let hedge = self.core.hedge_stats();
        self.stats
            .hedges_sent
            .store(hedge.hedges_sent.load(Ordering::Relaxed), Ordering::Relaxed);
        self.stats
            .hedge_wins
            .store(hedge.hedge_wins.load(Ordering::Relaxed), Ordering::Relaxed);
        self.stats.adaptive_timeout_us.store(
            hedge.adaptive_timeout_us.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        if let Some(budget) = self.core.retry_budget() {
            self.stats
                .retry_budget_exhausted
                .store(budget.exhausted(), Ordering::Relaxed);
        }
    }
}

impl HttpHandler for RouterHandler {
    fn handle(&self, request: HttpRequest, _peer: SocketAddr) -> HttpResponse {
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        match request.path() {
            "/qos" => {
                let Some(key) = request.query_param("key") else {
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    return HttpResponse::status(StatusCode::BAD_REQUEST);
                };
                let Ok(key) = QosKey::new(&key) else {
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    return HttpResponse::status(StatusCode::BAD_REQUEST);
                };
                let verdict = match self.qos_check(key) {
                    Served::Backend(verdict) => {
                        self.stats.forwarded_ok.fetch_add(1, Ordering::Relaxed);
                        verdict
                    }
                    // The lease admit was counted in qos_check; a
                    // held slice only ever admits.
                    Served::Leased => Verdict::Allow,
                    // Degraded counters were recorded at the bucket.
                    Served::Degraded(verdict) => verdict,
                    // No backend answer and no learned rule: the default
                    // reply keeps the client unblocked (§III-B).
                    Served::Default => self.core.default_verdict(),
                };
                HttpResponse::ok(verdict.to_string())
            }
            // Healthy while any partition is reachable; a node whose
            // every breaker is open serves nothing but defaults, so
            // it reports unhealthy and the LB drains it.
            "/healthz" => {
                if self.core.all_breakers_open(self.clock.now()) {
                    HttpResponse::status(StatusCode::SERVICE_UNAVAILABLE)
                } else {
                    HttpResponse::ok("ok")
                }
            }
            _ => {
                self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                HttpResponse::status(StatusCode::NOT_FOUND)
            }
        }
    }
}

impl RequestRouter {
    /// Spawn a router node. `resolver` is required iff any backend is
    /// [`Backend::Named`].
    pub fn spawn(config: RouterConfig, resolver: Option<Arc<Resolver>>) -> Result<RequestRouter> {
        if config.backends.is_empty() {
            return Err(JanusError::config("router needs at least one backend"));
        }
        if resolver.is_none()
            && config
                .backends
                .iter()
                .any(|b| matches!(b, Backend::Named(_)))
        {
            return Err(JanusError::config("named backends require a resolver"));
        }
        let stats = Arc::new(RouterStats::default());
        let partitions = config.backends.len();
        let mut udp = config.udp;
        udp.stamp_deadlines |= config.deadline_propagation;
        // Hedging re-presents an attempt nonce, which only the stamped
        // frame carries; the discipline degrades gracefully without it,
        // but a gray config almost certainly wants deadline propagation.
        udp.stamp_deadlines |= config.gray.is_some();
        let baseline_timeout = udp.timeout;
        let rpc = if config.pooled_rpc {
            UdpRpcClient::reusing(udp, FaultPlan::none())
        } else {
            UdpRpcClient::new(udp)
        };
        let handler = Arc::new(RouterHandler {
            core: RouterCore::new(RouterCoreConfig {
                partitions,
                default_verdict: config.default_verdict,
                fleet_size: config.fleet_size,
                breaker: config.breaker,
                // Holder identity only has to be stable for this node's
                // lifetime and unlikely to collide within the fleet.
                lease: config
                    .lease
                    .then(|| RouterLeaseConfig::new(rand_seed() as u32)),
                gray: config.gray,
            }),
            backends: config.backends,
            resolver,
            rpc,
            stats: Arc::clone(&stats),
            next_id: AtomicU64::new(rand_seed()),
            clock: janus_clock::system(),
            baseline_timeout,
        });
        let http = HttpServer::spawn(Arc::clone(&handler) as Arc<dyn HttpHandler>)?;
        Ok(RequestRouter {
            http,
            stats,
            partitions,
            handler,
        })
    }

    /// The HTTP address clients (or the gateway LB) talk to.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Number of QoS-server partitions this router hashes over.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Counters.
    pub fn stats(&self) -> &Arc<RouterStats> {
        &self.stats
    }

    /// Breaker state for `partition`; `None` when breakers are disabled
    /// or the partition index is out of range.
    pub fn breaker_state(&self, partition: usize) -> Option<BreakerState> {
        self.handler
            .core
            .breaker_state(partition, self.handler.clock.now())
    }

    /// Times `partition`'s breaker has tripped open; `None` as above.
    pub fn breaker_opens(&self, partition: usize) -> Option<u64> {
        self.handler.core.breaker_opens(partition)
    }

    /// True when every partition's breaker is currently open (the
    /// condition under which `/healthz` reports 503).
    pub fn all_breakers_open(&self) -> bool {
        self.handler
            .core
            .all_breakers_open(self.handler.clock.now())
    }

    /// Keys with a learned rule hint (diagnostics).
    pub fn hinted_keys(&self) -> usize {
        self.handler.core.hinted_keys()
    }

    /// Keys currently holding a live credit lease (diagnostics).
    pub fn leased_keys(&self) -> usize {
        self.handler.core.leased_keys()
    }

    /// Stop accepting requests.
    pub fn shutdown(&self) {
        self.http.shutdown();
    }
}

/// Seed request ids from the router's identity so two router nodes never
/// reuse the same id space (ids only need per-socket uniqueness, but
/// distinct spaces make debugging traces unambiguous).
///
/// Mixing in a process-global spawn counter guarantees distinct seeds for
/// routers created inside one process (a whole test deployment shares one
/// pid, and two spawns can share a clock reading); splitmix64 finalization
/// spreads the entropy over all 64 bits instead of packing pid and nanos
/// into disjoint halves.
fn rand_seed() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    static SPAWNS: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let spawn = SPAWNS.fetch_add(1, Ordering::Relaxed);
    let mut z = (std::process::id() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ nanos
        ^ spawn.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The admission request a [`RouterStep::Forward`] puts on the wire: the
/// first attempt solicits a rule hint and piggybacks the lease report as
/// the core asked (retries inside the client fall back to the plain
/// frame).
pub fn forward_request(
    id: janus_types::RequestId,
    key: QosKey,
    solicit_hint: bool,
    lease_ask: Option<janus_types::LeaseReport>,
) -> QosRequest {
    let request = if solicit_hint {
        QosRequest::soliciting_hint(id, key)
    } else {
        QosRequest::new(id, key)
    };
    match lease_ask {
        Some(report) => request.with_lease(report),
        None => request,
    }
}

/// Build the HTTP request a QoS client sends for `key` (shared by the
/// client library and tests).
pub fn qos_http_request(key: &QosKey) -> HttpRequest {
    HttpRequest::get(format!(
        "/qos?key={}",
        janus_net::http::percent_encode(key.as_str())
    ))
}

/// Interpret a router HTTP response as a verdict.
pub fn parse_qos_response(response: &HttpResponse) -> Result<Verdict> {
    if response.status != StatusCode::OK {
        return Err(JanusError::http(format!(
            "router answered {}",
            response.status
        )));
    }
    match response.body_text().trim() {
        "TRUE" => Ok(Verdict::Allow),
        "FALSE" => Ok(Verdict::Deny),
        other => Err(JanusError::http(format!("bad verdict body {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_hash::{ModuloRouter, Router as _};
    use janus_net::http::HttpClient;
    use janus_server::{QosServer, QosServerConfig};
    use janus_types::QosRule;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn standalone_server(rules: &[(&str, u64, u64)]) -> QosServer {
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            None,
            janus_clock::system(),
        )
        .unwrap();
        let now = server.clock().now();
        for (k, cap, rate) in rules {
            server
                .table()
                .insert(QosRule::per_second(key(k), *cap, *rate), now);
        }
        server
    }

    fn check(client: &mut HttpClient, k: &str) -> Verdict {
        let resp = client.request(&qos_http_request(&key(k))).unwrap();
        parse_qos_response(&resp).unwrap()
    }

    #[test]
    fn routes_and_relays_verdicts() {
        let server = standalone_server(&[("alice", 2, 0)]);
        let router = RequestRouter::spawn(RouterConfig::direct([server.udp_addr()]), None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        assert_eq!(check(&mut client, "alice"), Verdict::Allow);
        assert_eq!(check(&mut client, "alice"), Verdict::Allow);
        assert_eq!(check(&mut client, "alice"), Verdict::Deny);
        assert_eq!(router.stats().forwarded_ok.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn partitions_requests_across_backends() {
        // Two QoS servers; keys should split between them per CRC32 mod 2,
        // and the same key must always hit the same server.
        let a = standalone_server(&[]);
        let b = standalone_server(&[]);
        // Both allow-all so every check succeeds regardless of partition.
        let mut config = QosServerConfig::test_defaults();
        config.default_policy = janus_bucket::DefaultRulePolicy::AllowAll;
        drop((a, b));
        let a = QosServer::spawn(config.clone(), None, janus_clock::system()).unwrap();
        let b = QosServer::spawn(config, None, janus_clock::system()).unwrap();
        let router =
            RequestRouter::spawn(RouterConfig::direct([a.udp_addr(), b.udp_addr()]), None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        for i in 0..40 {
            assert_eq!(check(&mut client, &format!("user-{i}")), Verdict::Allow);
        }
        let hash = ModuloRouter::new(2);
        let a_expected = (0..40)
            .filter(|i| hash.route(&key(&format!("user-{i}"))) == 0)
            .count() as u64;
        let a_stats = a.stats().answered.load(Ordering::Relaxed);
        let b_stats = b.stats().answered.load(Ordering::Relaxed);
        assert_eq!(a_stats, a_expected);
        assert_eq!(a_stats + b_stats, 40);
        assert!(
            a_stats > 0 && b_stats > 0,
            "one partition starved: {a_stats}/{b_stats}"
        );
    }

    #[test]
    fn dead_backend_gets_default_reply() {
        // Router pointed at a dead UDP port: every request times out and
        // the default verdict is returned.
        let dead = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let mut config = RouterConfig::direct([dead_addr]);
        config.udp = UdpRpcConfig {
            timeout: std::time::Duration::from_millis(1),
            max_retries: 2,
            ..Default::default()
        };
        config.default_verdict = Verdict::Deny;
        let router = RequestRouter::spawn(config, None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        assert_eq!(check(&mut client, "anyone"), Verdict::Deny);
        assert_eq!(router.stats().defaulted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn paper_discipline_against_a_silent_server_defaults_within_five_milliseconds() {
        // Both socket strategies, the paper's 100 us x (1 + 5 retries), a
        // server that holds its port open and never answers: the default reply
        // must come back in about 600 us plus one HTTP hop — not the
        // 6-24 ms a scheduler-tick timeout would make of it.
        let silent = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        for pooled_rpc in [false, true] {
            let mut config = RouterConfig::direct([silent.local_addr().unwrap()]);
            config.udp = UdpRpcConfig::default();
            config.pooled_rpc = pooled_rpc;
            config.default_verdict = Verdict::Deny;
            config.breaker = None; // every request must go to the wire
            let router = RequestRouter::spawn(config, None).unwrap();
            let mut client = HttpClient::connect(router.addr()).unwrap();
            let mut took: Vec<std::time::Duration> = (0..20)
                .map(|_| {
                    let started = std::time::Instant::now();
                    assert_eq!(check(&mut client, "anyone"), Verdict::Deny);
                    started.elapsed()
                })
                .collect();
            took.sort();
            let median = took[took.len() / 2];
            assert!(
                median >= std::time::Duration::from_micros(600),
                "pooled_rpc={pooled_rpc}: gave up early after {median:?}"
            );
            assert!(
                median < std::time::Duration::from_millis(5),
                "pooled_rpc={pooled_rpc}: default reply took {median:?}"
            );
            assert_eq!(router.stats().defaulted.load(Ordering::Relaxed), 20);
        }
    }

    #[test]
    fn named_backend_follows_dns_failover() {
        use janus_net::dns::{Resolver, Zone};
        let master = standalone_server(&[]);
        let mut config = QosServerConfig::test_defaults();
        config.default_policy = janus_bucket::DefaultRulePolicy::AllowAll;
        let slave = QosServer::spawn(config, None, janus_clock::system()).unwrap();

        let zone = Zone::new();
        zone.insert_failover(
            "qos-0.janus",
            master.udp_addr(),
            Some(slave.udp_addr()),
            std::time::Duration::ZERO, // no client caching: failover is instant
        );
        let resolver = Arc::new(Resolver::new(Arc::clone(&zone), janus_clock::system()));

        let mut rconfig = RouterConfig::direct([]);
        rconfig.backends = vec![Backend::Named("qos-0.janus".into())];
        rconfig.default_verdict = Verdict::Deny;
        let router = RequestRouter::spawn(rconfig, Some(resolver)).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();

        // Master denies unknown keys (Deny policy); slave allows all.
        assert_eq!(check(&mut client, "probe"), Verdict::Deny);
        zone.promote_standby("qos-0.janus").unwrap();
        assert_eq!(check(&mut client, "probe"), Verdict::Allow);
    }

    #[test]
    fn rejects_bad_requests() {
        let server = standalone_server(&[]);
        let router = RequestRouter::spawn(RouterConfig::direct([server.udp_addr()]), None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        let resp = client.request(&HttpRequest::get("/qos")).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        let resp = client.request(&HttpRequest::get("/nonsense")).unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        assert_eq!(router.stats().bad_requests.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn health_endpoint() {
        let server = standalone_server(&[]);
        let router = RequestRouter::spawn(RouterConfig::direct([server.udp_addr()]), None).unwrap();
        let resp = HttpClient::oneshot(router.addr(), &HttpRequest::get("/healthz")).unwrap();
        assert_eq!(resp.body_text(), "ok");
    }

    #[test]
    fn config_validation() {
        assert!(RequestRouter::spawn(RouterConfig::direct([]), None).is_err());
        let mut config = RouterConfig::direct([]);
        config.backends = vec![Backend::Named("x".into())];
        assert!(RequestRouter::spawn(config, None).is_err());
    }

    #[test]
    fn pooled_rpc_mode_routes_identically() {
        let server = standalone_server(&[("pooled", 3, 0)]);
        let mut config = RouterConfig::direct([server.udp_addr()]);
        config.pooled_rpc = true;
        let router = RequestRouter::spawn(config, None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        assert_eq!(check(&mut client, "pooled"), Verdict::Allow);
        assert_eq!(check(&mut client, "pooled"), Verdict::Allow);
        assert_eq!(check(&mut client, "pooled"), Verdict::Allow);
        assert_eq!(check(&mut client, "pooled"), Verdict::Deny);
        assert_eq!(router.stats().forwarded_ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pooled_unbatched_ablation_routes_identically() {
        // The pooled router keeps the paper's single-frame wire format:
        // checks from concurrent clients in flight on its reusing client
        // still leave as one request frame per datagram, never a
        // datagram in the retired 0x03 batch format (which `codec::decode`
        // refuses).
        use janus_types::codec::{self, Frame};
        let server = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr().unwrap();
        let datagrams = Arc::new(AtomicU64::new(0));
        let malformed = Arc::new(AtomicU64::new(0));
        {
            let (datagrams, malformed) = (Arc::clone(&datagrams), Arc::clone(&malformed));
            std::thread::spawn(move || {
                let mut buf = [0u8; janus_net::udp::RECV_BUF_BYTES];
                while let Ok((len, peer)) = server.recv_from(&mut buf) {
                    datagrams.fetch_add(1, Ordering::SeqCst);
                    let Ok(Frame::Request(req)) = codec::decode(&buf[..len]) else {
                        malformed.fetch_add(1, Ordering::SeqCst);
                        continue;
                    };
                    // Deny, against the router's Allow default: a Deny
                    // at the client proves the answer was relayed.
                    let wire = codec::encode_response(&QosResponse::deny(req.id));
                    let _ = server.send_to(&wire, peer);
                }
            });
        }
        let mut config = RouterConfig::direct([addr]);
        config.pooled_rpc = true;
        let router = RequestRouter::spawn(config, None).unwrap();
        let router_addr = router.addr();
        let clients: Vec<_> = (0..4)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(router_addr).unwrap();
                    for i in 0..4 {
                        assert_eq!(check(&mut client, &format!("k{c}-{i}")), Verdict::Deny);
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        assert_eq!(router.stats().forwarded_ok.load(Ordering::Relaxed), 16);
        assert!(datagrams.load(Ordering::SeqCst) >= 16);
        assert_eq!(malformed.load(Ordering::SeqCst), 0, "a batched datagram");
    }

    #[test]
    fn breaker_trips_on_dead_backend_and_fast_fails() {
        let dead = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let mut config = RouterConfig::direct([dead_addr]);
        config.udp = UdpRpcConfig {
            timeout: std::time::Duration::from_millis(1),
            max_retries: 1,
            ..Default::default()
        };
        config.default_verdict = Verdict::Deny;
        config.breaker = Some(BreakerConfig {
            failure_threshold: 3,
            open_timeout: std::time::Duration::from_secs(60),
        });
        let router = RequestRouter::spawn(config, None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        for _ in 0..10 {
            assert_eq!(check(&mut client, "anyone"), Verdict::Deny);
        }
        assert_eq!(router.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(router.breaker_opens(0), Some(1));
        let stats = router.stats();
        // Three timed-out requests tripped the breaker; the remaining
        // seven never touched the network.
        assert_eq!(stats.defaulted.load(Ordering::Relaxed), 3);
        assert_eq!(stats.breaker_fast_fails.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn degraded_admission_serves_learned_rule_during_outage() {
        // Learn the rule shape while healthy, kill the partition, and
        // verify the router enforces the learned shape locally instead of
        // answering blind.
        let server = standalone_server(&[("tenant", 5, 0)]);
        let mut config = RouterConfig::direct([server.udp_addr()]);
        config.udp = UdpRpcConfig {
            timeout: std::time::Duration::from_millis(5),
            max_retries: 1,
            ..Default::default()
        };
        config.default_verdict = Verdict::Deny;
        config.breaker = Some(BreakerConfig {
            failure_threshold: 2,
            open_timeout: std::time::Duration::from_secs(60),
        });
        let router = RequestRouter::spawn(config, None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        assert_eq!(check(&mut client, "tenant"), Verdict::Allow);
        assert_eq!(router.hinted_keys(), 1, "hint was not learned");

        server.shutdown();
        drop(server);
        std::thread::sleep(std::time::Duration::from_millis(50));

        let mut allowed = 0;
        let mut denied = 0;
        for _ in 0..20 {
            match check(&mut client, "tenant") {
                Verdict::Allow => allowed += 1,
                Verdict::Deny => denied += 1,
            }
        }
        let stats = router.stats();
        assert_eq!(router.breaker_state(0), Some(BreakerState::Open));
        // Request 1 fails below threshold (blind default Deny); request 2
        // trips the breaker and every request from there is served from
        // the local bucket: capacity 5, zero refill => exactly 5 allowed.
        assert_eq!(allowed, 5, "degraded bucket did not enforce capacity");
        assert_eq!(denied, 15);
        assert_eq!(stats.degraded_allowed.load(Ordering::Relaxed), 5);
        assert_eq!(stats.degraded_denied.load(Ordering::Relaxed), 14);
        assert_eq!(stats.defaulted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn degraded_bucket_splits_rule_across_fleet() {
        let server = standalone_server(&[("shared", 8, 0)]);
        let mut config = RouterConfig::direct([server.udp_addr()]);
        config.udp = UdpRpcConfig {
            timeout: std::time::Duration::from_millis(5),
            max_retries: 1,
            ..Default::default()
        };
        config.default_verdict = Verdict::Deny;
        config.breaker = Some(BreakerConfig {
            failure_threshold: 1,
            open_timeout: std::time::Duration::from_secs(60),
        });
        config.fleet_size = 4; // this node may serve 8/4 = 2 locally
        let router = RequestRouter::spawn(config, None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        assert_eq!(check(&mut client, "shared"), Verdict::Allow);
        server.shutdown();
        drop(server);
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut allowed = 0;
        for _ in 0..10 {
            if check(&mut client, "shared") == Verdict::Allow {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 2, "fleet split not enforced");
    }

    #[test]
    fn healthz_degrades_to_503_when_all_breakers_open() {
        let dead = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let mut config = RouterConfig::direct([dead_addr]);
        config.udp = UdpRpcConfig {
            timeout: std::time::Duration::from_millis(1),
            max_retries: 0,
            ..Default::default()
        };
        config.breaker = Some(BreakerConfig {
            failure_threshold: 1,
            open_timeout: std::time::Duration::from_secs(60),
        });
        let router = RequestRouter::spawn(config, None).unwrap();
        let resp = HttpClient::oneshot(router.addr(), &HttpRequest::get("/healthz")).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "healthy before any failure");
        let mut client = HttpClient::connect(router.addr()).unwrap();
        check(&mut client, "victim");
        assert!(router.all_breakers_open());
        let resp = HttpClient::oneshot(router.addr(), &HttpRequest::get("/healthz")).unwrap();
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
    }

    #[test]
    fn breaker_ablation_preserves_paper_behavior() {
        let dead = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        let mut config = RouterConfig::direct([dead_addr]);
        config.udp = UdpRpcConfig {
            timeout: std::time::Duration::from_millis(1),
            max_retries: 1,
            ..Default::default()
        };
        config.default_verdict = Verdict::Deny;
        config.breaker = None; // paper-faithful: retry budget every time
        let router = RequestRouter::spawn(config, None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        for _ in 0..10 {
            assert_eq!(check(&mut client, "anyone"), Verdict::Deny);
        }
        let stats = router.stats();
        assert_eq!(stats.defaulted.load(Ordering::Relaxed), 10);
        assert_eq!(stats.breaker_fast_fails.load(Ordering::Relaxed), 0);
        assert_eq!(router.breaker_state(0), None);
        assert_eq!(router.hinted_keys(), 0, "ablation must not solicit hints");
    }

    #[test]
    fn deadline_propagation_reaches_the_wire() {
        // An unanswering sink in place of the QoS server: the router
        // burns its retry budget, and we inspect the per-attempt frames.
        let sink = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let mut config = RouterConfig::direct([sink_addr]);
        config.udp = UdpRpcConfig {
            timeout: std::time::Duration::from_millis(20),
            max_retries: 1,
            ..Default::default()
        };
        config.default_verdict = Verdict::Deny;
        config.breaker = None;
        assert!(config.deadline_propagation, "direct() enables propagation");
        let router = RequestRouter::spawn(config, None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        let check = std::thread::spawn(move || check(&mut client, "tenant"));
        let mut kinds = Vec::new();
        let mut buf = [0u8; 2048];
        for _ in 0..2 {
            let (len, _) = sink.recv_from(&mut buf).unwrap();
            kinds.push(buf[..len][3]);
        }
        assert_eq!(check.join().unwrap(), Verdict::Deny, "default reply");
        // Attempt 0 carries the deadline stamp; the final attempt is the
        // legacy frame an old QoS server still understands.
        use janus_types::codec::{KIND_REQUEST, KIND_REQUEST_DEADLINE};
        assert_eq!(kinds, vec![KIND_REQUEST_DEADLINE, KIND_REQUEST]);
    }

    #[test]
    fn rand_seed_is_unique_within_a_process() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|_| rand_seed()).collect();
        assert_eq!(seeds.len(), 1000, "seed collision within one process");
    }

    #[test]
    fn hedge_reuses_nonce_and_never_double_charges() {
        use janus_net::latency::{HedgePolicy, RetryBudgetConfig, TimeoutPolicy};

        // A slow-but-alive backend: every response deferred out-of-band,
        // none dropped — the gray shape a breaker never sees. The hedge
        // policy is pinned eager (floor == ceil == 1 µs) so every
        // post-warmup attempt sends its duplicate long before the
        // deferred answer lands, under both socket strategies.
        for pooled in [false, true] {
            let faults = FaultPlan::new(0.0, 0.0, std::time::Duration::ZERO, 0x9E37);
            faults.set_reordering(1.0, std::time::Duration::from_millis(1));
            let server = QosServer::spawn_with_faults(
                QosServerConfig::test_defaults(),
                None,
                janus_clock::system(),
                Arc::clone(&faults),
            )
            .unwrap();
            server.table().insert(
                QosRule::per_second(key("hedged"), 10, 0),
                server.clock().now(),
            );

            let mut config = RouterConfig::direct([server.udp_addr()]);
            config.pooled_rpc = pooled;
            config.default_verdict = Verdict::Deny;
            // The deferred answer must beat the attempt timeout, or the
            // paper's 100 µs discipline would retry instead of hedging.
            config.udp = UdpRpcConfig {
                timeout: std::time::Duration::from_millis(50),
                max_retries: 2,
                ..Default::default()
            };
            config.gray = Some(GrayConfig {
                timeout: TimeoutPolicy::Fixed,
                hedge: Some(HedgePolicy {
                    percentile: 95,
                    floor: std::time::Duration::from_micros(1),
                    ceil: std::time::Duration::from_micros(1),
                }),
                // Every primary funds a whole hedge: no refusals cloud
                // the double-charge accounting this test pins down.
                budget: Some(RetryBudgetConfig {
                    deposit_pct: 100,
                    min_reserve: 10,
                    cap: 100,
                }),
                window: 64,
            });
            let router = RequestRouter::spawn(config, None).unwrap();
            let mut client = HttpClient::connect(router.addr()).unwrap();

            let mut allowed = 0;
            for _ in 0..40 {
                if check(&mut client, "hedged") == Verdict::Allow {
                    allowed += 1;
                }
            }

            let hedges = router.stats().hedges_sent.load(Ordering::Relaxed);
            assert!(hedges > 0, "pooled={pooled}: no hedge ever fired");
            // Every hedge re-presents its primary's attempt nonce, so the
            // duplicate is absorbed by the server's dedup window instead
            // of charging the bucket a second time...
            assert!(
                server.stats().dedup_hits.load(Ordering::Relaxed) > 0,
                "pooled={pooled}: no duplicate ever reached the dedup window"
            );
            // ...which is why capacity 10 yields exactly 10 allows no
            // matter how many duplicates went out. A hedge that drew a
            // fresh nonce would spend extra credits and fail this count.
            assert_eq!(
                allowed, 10,
                "pooled={pooled}: {hedges} hedges double-charged the bucket"
            );
        }
    }

    #[test]
    fn leases_ride_both_socket_strategies() {
        // The lease report piggybacks on the first attempt whichever
        // socket strategy carries it: the server grants a slice of the
        // hot key once it crosses the threshold, and the router then
        // admits from it without touching the network.
        for pooled_rpc in [false, true] {
            let mut server_config = QosServerConfig::test_defaults();
            server_config.lease = janus_server::LeaseConfig {
                enabled: true,
                ttl: std::time::Duration::from_secs(10),
                hot_threshold: 2,
                max_holders: 4,
                slice_fraction: 4,
            };
            let server = QosServer::spawn(server_config, None, janus_clock::system()).unwrap();
            server.table().insert(
                QosRule::per_second(key("hot"), 100, 0),
                server.clock().now(),
            );
            let mut config = RouterConfig::direct([server.udp_addr()]);
            config.pooled_rpc = pooled_rpc;
            config.lease = true;
            let router = RequestRouter::spawn(config, None).unwrap();
            let mut client = HttpClient::connect(router.addr()).unwrap();
            for _ in 0..20 {
                assert_eq!(check(&mut client, "hot"), Verdict::Allow);
            }
            let grants = server.stats().snapshot().lease_grants;
            let admits = router.stats().lease_admits.load(Ordering::Relaxed);
            assert!(grants >= 1, "pooled_rpc={pooled_rpc}: no lease granted");
            assert!(admits > 0, "pooled_rpc={pooled_rpc}: no local admit");
        }
    }

    #[test]
    fn keys_with_special_characters_roundtrip() {
        let server = standalone_server(&[("a b&c=d", 1, 0)]);
        let router = RequestRouter::spawn(RouterConfig::direct([server.udp_addr()]), None).unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        assert_eq!(check(&mut client, "a b&c=d"), Verdict::Allow);
        assert_eq!(check(&mut client, "a b&c=d"), Verdict::Deny);
    }
}
