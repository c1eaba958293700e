//! The cluster model: closed-loop clients → LB → routers → QoS servers.
//!
//! Each request is a chain of events through two resource kinds:
//!
//! * **core pools** — one per node, capacity = vCPUs; service times are
//!   lognormal with calibrated means, inflated slightly to fold in the
//!   per-node background load;
//! * **the QoS-table lock** — one pool per QoS server whose capacity is 1
//!   (the paper's synchronized hash map) or the shard count. A request
//!   holds a core for phase A, releases it while queueing on the lock
//!   (a blocked Java thread is descheduled), holds the lock for the
//!   critical section, then takes a core again for phase B. This is what
//!   lets a 32-core server saturate below its core capacity *with idle
//!   CPU* — the paper's Fig. 10 observation.
//!
//! Network hops add lognormal latency; the UDP leg can lose datagrams,
//! engaging the 100 µs × 5-retry discipline and, on exhaustion, the
//! router's default reply.

use crate::calibration::Calibration;
use crate::catalog::InstanceType;
use crate::engine::{EventQueue, SimRng, SimTime};
use janus_workload::{Histogram, LatencyStats};
use std::collections::VecDeque;
use std::time::Duration;

/// Load balancer flavour in front of the router fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimLbMode {
    /// ELB-style proxy: per-request round robin + extra latency.
    Gateway,
    /// DNS round robin with client-side caching: each client sticks to
    /// one router.
    Dns,
}

/// QoS-table locking discipline on the simulated QoS servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockModel {
    /// One global lock (the paper's synchronized hash map).
    Synchronized,
    /// Lock striping with this many shards.
    Sharded(u32),
}

impl LockModel {
    fn ways(self) -> u32 {
        match self {
            LockModel::Synchronized => 1,
            LockModel::Sharded(n) => n.max(1),
        }
    }
}

/// One simulated deployment + workload.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// LB flavour.
    pub lb: SimLbMode,
    /// Router fleet (one entry per node).
    pub routers: Vec<InstanceType>,
    /// QoS server fleet (one entry per node).
    pub qos_servers: Vec<InstanceType>,
    /// QoS-table locking discipline.
    pub lock: LockModel,
    /// Closed-loop client count (`ab -c N`).
    pub clients: usize,
    /// Tenant-popularity skew: requests pick their QoS partition from a
    /// Zipf(`s`) distribution over partitions instead of uniformly.
    /// `None`/0.0 models the paper's uniform 100 M-key workload; higher
    /// exponents model a SaaS where a few tenants dominate (all of a hot
    /// tenant's traffic lands on one partition — mod-N hashing cannot
    /// spread a single key).
    pub partition_skew: Option<f64>,
    /// Per-datagram loss probability on each UDP direction.
    pub loss_probability: f64,
    /// Measurement starts after this much simulated time.
    pub warmup: Duration,
    /// Measurement window length.
    pub measure: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Model constants.
    pub calibration: Calibration,
}

impl ClusterSpec {
    /// A saturation workload against the given fleets (gateway LB, no
    /// loss, enough closed-loop clients to keep every queue non-empty).
    pub fn saturation(
        routers: Vec<InstanceType>,
        qos_servers: Vec<InstanceType>,
        seed: u64,
    ) -> ClusterSpec {
        ClusterSpec {
            lb: SimLbMode::Gateway,
            routers,
            qos_servers,
            lock: LockModel::Synchronized,
            clients: 512,
            partition_skew: None,
            loss_probability: 0.0,
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(2),
            seed,
            calibration: Calibration::default(),
        }
    }
}

/// Measured outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completed admission checks per second over the measure window.
    pub throughput_rps: f64,
    /// Round-trip latency summary.
    pub latency: LatencyStats,
    /// Completions inside the measure window.
    pub completed: u64,
    /// Requests answered by the router's default reply (retry budget
    /// exhausted) inside the window.
    pub defaulted: u64,
    /// Per-router-node CPU utilization over the window, 0–1.
    pub router_cpu: Vec<f64>,
    /// Per-QoS-node CPU utilization over the window, 0–1.
    pub qos_cpu: Vec<f64>,
    /// Per-QoS-node lock utilization over the window, 0–1 (1 = the lock
    /// is the saturated resource).
    pub lock_utilization: Vec<f64>,
}

impl SimReport {
    /// Mean router CPU utilization.
    pub fn mean_router_cpu(&self) -> f64 {
        mean(&self.router_cpu)
    }

    /// Mean QoS-server CPU utilization.
    pub fn mean_qos_cpu(&self) -> f64 {
        mean(&self.qos_cpu)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Req {
    issued_at: SimTime,
    client: u32,
    server: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    A,
    B,
}

#[derive(Debug)]
enum Ev {
    Issue { client: u32 },
    RouterArrive { router: u32, req: Req },
    RouterDone { router: u32, req: Req },
    ServerArrive { req: Req },
    PhaseDone { phase: Phase, req: Req },
    LockDone { req: Req },
    ClientDone { req: Req, defaulted: bool },
}

/// A multi-server resource with FIFO queueing and busy-time accounting.
#[derive(Debug)]
struct Pool<T> {
    cap: u32,
    busy: u32,
    queue: VecDeque<T>,
    busy_ns: u128,
    last_change: SimTime,
    window_start_busy_ns: u128,
}

impl<T> Pool<T> {
    fn new(cap: u32) -> Self {
        Pool {
            cap,
            busy: 0,
            queue: VecDeque::new(),
            busy_ns: 0,
            last_change: 0,
            window_start_busy_ns: 0,
        }
    }

    fn flush(&mut self, now: SimTime) {
        self.busy_ns += self.busy as u128 * (now.saturating_sub(self.last_change)) as u128;
        self.last_change = now;
    }

    /// Take one server if available.
    fn try_acquire(&mut self, now: SimTime) -> bool {
        self.flush(now);
        if self.busy < self.cap {
            self.busy += 1;
            true
        } else {
            false
        }
    }

    /// Finish one unit of work; if a waiter exists it immediately takes
    /// the freed server and is returned for scheduling.
    fn release(&mut self, now: SimTime) -> Option<T> {
        self.flush(now);
        debug_assert!(self.busy > 0);
        self.busy -= 1;
        let next = self.queue.pop_front();
        if next.is_some() {
            self.busy += 1;
        }
        next
    }

    fn mark_window_start(&mut self, at: SimTime) {
        self.flush(at);
        self.window_start_busy_ns = self.busy_ns;
    }

    fn window_utilization(&mut self, end: SimTime, window_ns: u128) -> f64 {
        self.flush(end);
        let busy = self.busy_ns - self.window_start_busy_ns;
        busy as f64 / (window_ns as f64 * self.cap as f64)
    }
}

struct RouterNode {
    cores: Pool<Req>,
    service_us: f64,
}

struct ServerNode {
    cores: Pool<(Req, Phase)>,
    lock: Pool<Req>,
    phase_a_us: f64,
    phase_b_us: f64,
}

/// Run one simulation to completion.
///
/// # Panics
/// Panics if the spec has no routers, no QoS servers or no clients.
pub fn simulate(spec: &ClusterSpec) -> SimReport {
    assert!(!spec.routers.is_empty(), "need at least one router");
    assert!(!spec.qos_servers.is_empty(), "need at least one QoS server");
    assert!(spec.clients > 0, "need at least one client");

    let cal = &spec.calibration;
    let mut rng = SimRng::new(spec.seed);
    let mut events: EventQueue<Ev> = EventQueue::new();

    let mut routers: Vec<RouterNode> = spec
        .routers
        .iter()
        .map(|t| RouterNode {
            cores: Pool::new(t.vcpus),
            service_us: cal.effective_service_us(cal.router_service_us, t.vcpus),
        })
        .collect();
    let mut servers: Vec<ServerNode> = spec
        .qos_servers
        .iter()
        .map(|t| ServerNode {
            cores: Pool::new(t.vcpus),
            lock: Pool::new(spec.lock.ways()),
            phase_a_us: cal.effective_service_us(cal.qos_phase_a_us, t.vcpus),
            phase_b_us: cal.effective_service_us(cal.qos_phase_b_us, t.vcpus),
        })
        .collect();

    // Cumulative Zipf over partitions when skew is configured.
    let skew_cdf: Option<Vec<f64>> = spec.partition_skew.filter(|&s| s > 0.0).map(|s| {
        let mut cdf = Vec::with_capacity(servers.len());
        let mut acc = 0.0;
        for rank in 1..=servers.len() {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for p in &mut cdf {
            *p /= acc;
        }
        cdf
    });

    let warmup_end = spec.warmup.as_nanos() as SimTime;
    let end = warmup_end + spec.measure.as_nanos() as SimTime;
    let window_ns = (end - warmup_end) as u128;

    // Stagger client starts over the first millisecond.
    for client in 0..spec.clients as u32 {
        events.push((client as u64) * 1_000, Ev::Issue { client });
    }

    let mut rr_cursor = 0usize;
    let mut histogram = Histogram::new();
    let mut completed = 0u64;
    let mut defaulted_count = 0u64;
    let mut window_marked = false;
    let timeout_ns = (cal.udp_timeout_us * 1_000.0) as SimTime;

    while let Some((now, ev)) = events.pop() {
        if now > end {
            break;
        }
        if !window_marked && now >= warmup_end {
            for r in &mut routers {
                r.cores.mark_window_start(warmup_end);
            }
            for s in &mut servers {
                s.cores.mark_window_start(warmup_end);
                s.lock.mark_window_start(warmup_end);
            }
            window_marked = true;
        }
        match ev {
            Ev::Issue { client } => {
                let server = match &skew_cdf {
                    None => rng.index(servers.len()) as u32,
                    Some(cdf) => {
                        let u = rng.uniform();
                        cdf.partition_point(|&p| p < u).min(servers.len() - 1) as u32
                    }
                };
                let req = Req {
                    issued_at: now,
                    client,
                    server,
                };
                let (router, lb_extra) = match spec.lb {
                    SimLbMode::Gateway => {
                        rr_cursor = (rr_cursor + 1) % routers.len();
                        (
                            rr_cursor as u32,
                            rng.lognormal_us(cal.gateway_extra_us, cal.hop_sigma),
                        )
                    }
                    SimLbMode::Dns => ((client as usize % routers.len()) as u32, 0),
                };
                let hop = rng.lognormal_us(cal.tcp_hop_us, cal.hop_sigma);
                events.push(now + hop + lb_extra, Ev::RouterArrive { router, req });
            }
            Ev::RouterArrive { router, req } => {
                let node = &mut routers[router as usize];
                if node.cores.try_acquire(now) {
                    let service = rng.lognormal_us(node.service_us, cal.service_sigma);
                    events.push(now + service, Ev::RouterDone { router, req });
                } else {
                    node.cores.queue.push_back(req);
                }
            }
            Ev::RouterDone { router, req } => {
                let node = &mut routers[router as usize];
                if let Some(next) = node.cores.release(now) {
                    let service = rng.lognormal_us(node.service_us, cal.service_sigma);
                    events.push(now + service, Ev::RouterDone { router, req: next });
                }
                // UDP forward with loss + retries: find the first attempt
                // whose request and response datagrams both survive.
                let mut winning_attempt = None;
                for attempt in 0..=cal.udp_retries {
                    let req_lost = rng.chance(spec.loss_probability);
                    let resp_lost = rng.chance(spec.loss_probability);
                    if !req_lost && !resp_lost {
                        winning_attempt = Some(attempt as u64);
                        break;
                    }
                }
                match winning_attempt {
                    Some(k) => {
                        let hop = rng.lognormal_us(cal.udp_hop_us, cal.hop_sigma);
                        events.push(now + k * timeout_ns + hop, Ev::ServerArrive { req });
                    }
                    None => {
                        // Retry budget exhausted: default reply.
                        let budget = (cal.udp_retries as u64 + 1) * timeout_ns;
                        let hop = rng.lognormal_us(cal.tcp_hop_us, cal.hop_sigma);
                        events.push(
                            now + budget + hop,
                            Ev::ClientDone {
                                req,
                                defaulted: true,
                            },
                        );
                    }
                }
            }
            Ev::ServerArrive { req } => {
                let node = &mut servers[req.server as usize];
                if node.cores.try_acquire(now) {
                    let service = rng.lognormal_us(node.phase_a_us, cal.service_sigma);
                    events.push(
                        now + service,
                        Ev::PhaseDone {
                            phase: Phase::A,
                            req,
                        },
                    );
                } else {
                    node.cores.queue.push_back((req, Phase::A));
                }
            }
            Ev::PhaseDone { phase, req } => {
                let node = &mut servers[req.server as usize];
                if let Some((next, next_phase)) = node.cores.release(now) {
                    let mean = match next_phase {
                        Phase::A => node.phase_a_us,
                        Phase::B => node.phase_b_us,
                    };
                    let service = rng.lognormal_us(mean, cal.service_sigma);
                    events.push(
                        now + service,
                        Ev::PhaseDone {
                            phase: next_phase,
                            req: next,
                        },
                    );
                }
                match phase {
                    Phase::A => {
                        // Enter the critical section (or queue on the lock).
                        if node.lock.try_acquire(now) {
                            let hold = rng.lognormal_us(cal.qos_lock_us, cal.service_sigma);
                            events.push(now + hold, Ev::LockDone { req });
                        } else {
                            node.lock.queue.push_back(req);
                        }
                    }
                    Phase::B => {
                        // Response: UDP back to the router, TCP back to
                        // the client (the router relays without further
                        // CPU cost in this model).
                        let hop = rng.lognormal_us(cal.udp_hop_us, cal.hop_sigma)
                            + rng.lognormal_us(cal.tcp_hop_us, cal.hop_sigma);
                        events.push(
                            now + hop,
                            Ev::ClientDone {
                                req,
                                defaulted: false,
                            },
                        );
                    }
                }
            }
            Ev::LockDone { req } => {
                let node = &mut servers[req.server as usize];
                if let Some(next) = node.lock.release(now) {
                    let hold = rng.lognormal_us(cal.qos_lock_us, cal.service_sigma);
                    events.push(now + hold, Ev::LockDone { req: next });
                }
                // Phase B competes for a core again.
                if node.cores.try_acquire(now) {
                    let service = rng.lognormal_us(node.phase_b_us, cal.service_sigma);
                    events.push(
                        now + service,
                        Ev::PhaseDone {
                            phase: Phase::B,
                            req,
                        },
                    );
                } else {
                    node.cores.queue.push_back((req, Phase::B));
                }
            }
            Ev::ClientDone { req, defaulted } => {
                if now >= warmup_end {
                    completed += 1;
                    if defaulted {
                        defaulted_count += 1;
                    }
                    histogram.record(now - req.issued_at);
                }
                events.push(now, Ev::Issue { client: req.client });
            }
        }
    }

    let measure_secs = spec.measure.as_secs_f64();
    SimReport {
        throughput_rps: completed as f64 / measure_secs,
        latency: LatencyStats::from_histogram(&histogram),
        completed,
        defaulted: defaulted_count,
        router_cpu: routers
            .iter_mut()
            .map(|r| r.cores.window_utilization(end, window_ns))
            .collect(),
        qos_cpu: servers
            .iter_mut()
            .map(|s| s.cores.window_utilization(end, window_ns))
            .collect(),
        lock_utilization: servers
            .iter_mut()
            .map(|s| s.lock.window_utilization(end, window_ns))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::*;

    fn quick(mut spec: ClusterSpec) -> SimReport {
        // Shorter windows keep debug-mode tests fast; release accuracy is
        // exercised by the figure harness.
        spec.warmup = Duration::from_millis(200);
        spec.measure = Duration::from_millis(600);
        simulate(&spec)
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = ClusterSpec::saturation(vec![C3_XLARGE], vec![C3_XLARGE], 1);
        let a = quick(spec.clone());
        let b = quick(spec);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.throughput_rps, b.throughput_rps);
    }

    #[test]
    fn light_load_latency_matches_budget() {
        // 2 clients, big nodes: no queueing, so RTT ≈ the Fig. 5 DNS
        // budget (~1150 µs).
        let mut spec = ClusterSpec::saturation(vec![C3_8XLARGE; 2], vec![C3_8XLARGE; 2], 7);
        spec.lb = SimLbMode::Dns;
        spec.clients = 2;
        let report = quick(spec);
        let avg = report.latency.average_us;
        assert!((1000.0..1350.0).contains(&avg), "avg latency {avg}");
        assert!(report.latency.p90_us > avg);
        assert_eq!(report.defaulted, 0);
    }

    #[test]
    fn gateway_adds_about_half_a_millisecond() {
        let base = ClusterSpec::saturation(vec![C3_8XLARGE; 2], vec![C3_8XLARGE; 2], 7);
        let mut dns = base.clone();
        dns.lb = SimLbMode::Dns;
        dns.clients = 2;
        let mut gw = base;
        gw.lb = SimLbMode::Gateway;
        gw.clients = 2;
        let dns_avg = quick(dns).latency.average_us;
        let gw_avg = quick(gw).latency.average_us;
        let delta = gw_avg - dns_avg;
        assert!(
            (350.0..650.0).contains(&delta),
            "gateway delta {delta} µs (dns {dns_avg}, gw {gw_avg})"
        );
    }

    #[test]
    fn small_router_is_the_bottleneck() {
        // 1 c3.xlarge router + 1 c3.8xlarge QoS server: throughput pins at
        // the router's ~10.5 k req/s and its CPU saturates.
        let report = quick(ClusterSpec::saturation(
            vec![C3_XLARGE],
            vec![C3_8XLARGE],
            11,
        ));
        assert!(
            (9_000.0..12_000.0).contains(&report.throughput_rps),
            "throughput {}",
            report.throughput_rps
        );
        assert!(
            report.router_cpu[0] > 0.9,
            "router cpu {}",
            report.router_cpu[0]
        );
        assert!(report.qos_cpu[0] < 0.30, "qos cpu {}", report.qos_cpu[0]);
    }

    #[test]
    fn big_qos_server_saturates_at_lock_bound_with_idle_cpu() {
        // 5 big routers + 1 c3.8xlarge QoS server, synchronized table:
        // ~85-92 k req/s with QoS CPU well below 100% (Fig. 10).
        let report = quick(ClusterSpec::saturation(
            vec![C3_8XLARGE; 5],
            vec![C3_8XLARGE],
            13,
        ));
        assert!(
            (78_000.0..95_000.0).contains(&report.throughput_rps),
            "throughput {}",
            report.throughput_rps
        );
        assert!(
            report.qos_cpu[0] < 0.92,
            "expected lock-induced underutilization, got {}",
            report.qos_cpu[0]
        );
        assert!(
            report.lock_utilization[0] > 0.95,
            "lock should be saturated: {}",
            report.lock_utilization[0]
        );
    }

    #[test]
    fn sharded_table_lifts_the_lock_ceiling() {
        let mut sync_spec = ClusterSpec::saturation(vec![C3_8XLARGE; 5], vec![C3_8XLARGE], 17);
        let mut sharded_spec = sync_spec.clone();
        sync_spec.lock = LockModel::Synchronized;
        sharded_spec.lock = LockModel::Sharded(64);
        let sync = quick(sync_spec).throughput_rps;
        let sharded = quick(sharded_spec).throughput_rps;
        assert!(
            sharded > sync * 1.15,
            "sharding gained too little: {sync} -> {sharded}"
        );
    }

    #[test]
    fn horizontal_qos_scaling_is_linear() {
        let one = quick(ClusterSpec::saturation(
            vec![C3_8XLARGE; 5],
            vec![C3_XLARGE],
            19,
        ))
        .throughput_rps;
        let four = quick(ClusterSpec::saturation(
            vec![C3_8XLARGE; 5],
            vec![C3_XLARGE; 4],
            19,
        ))
        .throughput_rps;
        let ratio = four / one;
        assert!((3.6..4.4).contains(&ratio), "scaling ratio {ratio}");
    }

    #[test]
    fn loss_triggers_retries_and_defaults() {
        let mut spec = ClusterSpec::saturation(vec![C3_8XLARGE], vec![C3_8XLARGE], 23);
        spec.clients = 8;
        spec.loss_probability = 0.5;
        let report = quick(spec);
        // With p=0.5 per direction, an attempt succeeds w.p. 0.25; six
        // attempts fail together w.p. 0.75^6 ≈ 17.8%.
        let default_rate = report.defaulted as f64 / report.completed as f64;
        assert!(
            (0.10..0.27).contains(&default_rate),
            "default rate {default_rate}"
        );
        let clean = quick(ClusterSpec::saturation(
            vec![C3_8XLARGE],
            vec![C3_8XLARGE],
            23,
        ));
        assert_eq!(clean.defaulted, 0);
    }

    #[test]
    fn dns_mode_skews_when_clients_fewer_than_routers() {
        // 1 client host, 2 routers, DNS stickiness: one router idles —
        // the skew the paper warns about (§V-A).
        let mut spec = ClusterSpec::saturation(vec![C3_XLARGE; 2], vec![C3_8XLARGE], 29);
        spec.lb = SimLbMode::Dns;
        spec.clients = 1;
        let report = quick(spec);
        let (a, b) = (report.router_cpu[0], report.router_cpu[1]);
        let (hot, cold) = if a > b { (a, b) } else { (b, a) };
        assert!(cold < hot / 10.0, "expected skew, got {a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "at least one router")]
    fn empty_router_fleet_panics() {
        simulate(&ClusterSpec::saturation(vec![], vec![C3_XLARGE], 1));
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;
    use crate::catalog::*;

    /// Measured throughput never exceeds the analytic capacity bound of
    /// the bottleneck layer, across a grid of fleet shapes and seeds.
    #[test]
    fn throughput_respects_analytic_bounds() {
        let cal = Calibration::default();
        let shapes: &[(Vec<InstanceType>, Vec<InstanceType>)] = &[
            (vec![C3_XLARGE], vec![C3_XLARGE]),
            (vec![C3_2XLARGE; 2], vec![C3_XLARGE]),
            (vec![C3_8XLARGE; 2], vec![C3_2XLARGE; 2]),
            (vec![C3_LARGE; 3], vec![C3_8XLARGE]),
        ];
        for (seed, (routers, qos)) in shapes.iter().enumerate() {
            let mut spec = ClusterSpec::saturation(routers.clone(), qos.clone(), seed as u64 + 1);
            spec.warmup = Duration::from_millis(200);
            spec.measure = Duration::from_millis(500);
            let report = simulate(&spec);
            let router_bound: f64 = routers.iter().map(|t| cal.router_capacity(t.vcpus)).sum();
            let qos_bound: f64 = qos
                .iter()
                .map(|t| cal.qos_core_capacity(t.vcpus).min(cal.qos_lock_capacity(1)))
                .sum();
            let bound = router_bound.min(qos_bound);
            assert!(
                report.throughput_rps <= bound * 1.03,
                "shape {routers:?}/{qos:?}: {} above bound {bound}",
                report.throughput_rps
            );
            // And saturation gets within 15% of the bound.
            assert!(
                report.throughput_rps >= bound * 0.85,
                "shape {routers:?}/{qos:?}: {} far below bound {bound}",
                report.throughput_rps
            );
        }
    }
}
