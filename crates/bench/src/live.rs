//! Live (loopback-process) admission throughput sweeps.
//!
//! Unlike the `janus-sim` experiments, these spin up a real
//! [`QosServer`] and a real reusing UDP client in-process and
//! hammer the admission path, so the numbers include every syscall,
//! wakeup and lock the data plane actually pays. The sweep contrasts the
//! server's two planes — the paper's listener + FIFO under every table
//! kind, and the per-core run-to-completion plane (DESIGN.md ablations
//! 9, 10 and 12) — plus the lease and gray client disciplines on the
//! listener plane; `bench_admission` emits the machine-readable
//! `BENCH_admission.json` from it.

use janus_bucket::DefaultRulePolicy;
use janus_net::fault::FaultPlan;
use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
use janus_router::core::{GrayConfig, RouterCore, RouterCoreConfig, RouterLeaseConfig, RouterStep};
use janus_router::forward_request;
use janus_server::{LeaseConfig, QosServer, QosServerConfig, SocketMode, TableKind};
use janus_types::{QosKey, QosRequest, QosRule, Verdict};
use std::time::Duration;

/// One configuration of the admission data plane under test.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionVariant {
    /// Stable identifier used in tables and JSON (`mode` field).
    pub name: &'static str,
    /// Local table flavour.
    pub table: TableKind,
    /// Server plane: the listener + FIFO, or per-core `SO_REUSEPORT`
    /// sockets (DESIGN.md ablation 12).
    pub socket_mode: SocketMode,
    /// Zero-RTT admission: clients run a [`janus_router::core::RouterCore`]
    /// holding credit leases over shared hot keys, so leased checks skip
    /// the RPC entirely (DESIGN.md ablation 13).
    pub lease: bool,
    /// Gray-failure plane: clients run a [`RouterCore`] whose
    /// [`GrayConfig`] puts adaptive attempt timeouts, same-nonce hedges
    /// and the global retry budget on the wire (DESIGN.md ablation 15).
    pub gray: bool,
}

/// The sweep every harness runs: the paper plane (listener + FIFO,
/// sharded table), the listener plane over the other two table kinds,
/// the lease and gray client disciplines on it, and the per-core plane.
pub fn admission_variants() -> Vec<AdmissionVariant> {
    let listener = |name, table| AdmissionVariant {
        name,
        table,
        socket_mode: SocketMode::SingleListener,
        lease: false,
        gray: false,
    };
    let mut variants = vec![
        listener("listener+sharded", TableKind::Sharded),
        // The paper's own table: one global lock (DESIGN.md ablation 10).
        listener("listener+synchronized", TableKind::Synchronized),
        // Any worker decides any key off the FIFO — the worst
        // interleaving for the CAS loop.
        listener("listener+lock_free", TableKind::LockFree),
        AdmissionVariant {
            // Zero-RTT admission: clients hold short-TTL credit leases
            // over shared hot keys and admit leased checks locally — the
            // RPC-per-decision vs lease-delegated contrast of DESIGN.md
            // ablation 13.
            lease: true,
            ..listener("lease+listener+lock_free", TableKind::LockFree)
        },
        AdmissionVariant {
            // Gray-failure plane on a healthy link: adaptive timeouts,
            // same-nonce hedges and the retry budget ride every RPC —
            // the overhead-when-healthy point of DESIGN.md ablation 15.
            gray: true,
            ..listener("hedge+listener+lock_free", TableKind::LockFree)
        },
    ];
    if cfg!(target_os = "linux") {
        // SO_REUSEPORT flow steering is Linux-only; spawning PerCore
        // elsewhere fails by design, so the sweep simply omits it.
        variants.push(AdmissionVariant {
            socket_mode: SocketMode::PerCore,
            ..listener("per_core+lock_free", TableKind::LockFree)
        });
    }
    variants
}

/// Stable JSON label for a [`SocketMode`] (the `socket_mode` column).
pub fn socket_mode_label(mode: SocketMode) -> &'static str {
    match mode {
        SocketMode::SingleListener => "single_listener",
        SocketMode::PerCore => "per_core",
    }
}

/// Stable JSON label for a [`TableKind`] (the `table_kind` column).
pub fn table_kind_label(kind: TableKind) -> &'static str {
    match kind {
        TableKind::Sharded => "sharded",
        TableKind::Synchronized => "synchronized",
        TableKind::LockFree => "lock_free",
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct AdmissionPoint {
    /// Which [`AdmissionVariant`] produced this point.
    pub mode: String,
    /// The variant's table discipline (see [`table_kind_label`]), so the
    /// lock ablation can be sliced out of the sweep without parsing
    /// `mode`.
    pub table_kind: &'static str,
    /// The variant's kernel path (see [`socket_mode_label`]).
    pub socket_mode: &'static str,
    /// Server worker count — the denominator of
    /// [`AdmissionPoint::decisions_per_sec_per_core`].
    pub workers: usize,
    /// Concurrent client tasks sharing the client socket.
    pub clients: usize,
    /// Checks each client issued.
    pub requests_per_client: usize,
    /// Checks that completed with a verdict.
    pub completed: u64,
    /// Checks that exhausted the retry budget.
    pub timed_out: u64,
    /// Wall-clock for the whole sweep point.
    pub elapsed_ms: f64,
    /// Completed checks per second, in thousands.
    pub krps: f64,
    /// Completed checks per second divided by server workers — the
    /// decisions/sec/core curve the plane ablation (DESIGN.md ablation
    /// 12) plots.
    pub decisions_per_sec_per_core: f64,
    /// Datagrams the server shed at full queues.
    pub shed_full: u64,
    /// Datagrams the server shed because their deadline budget was spent.
    pub shed_expired: u64,
    /// Datagrams the sojourn governor shed (standing queue).
    pub shed_sojourn: u64,
    /// Duplicate attempts absorbed by the server's dedup window.
    pub dedup_hits: u64,
    /// Server-side median queue sojourn, microseconds.
    pub sojourn_p50_us: u64,
    /// Server-side 99th-percentile queue sojourn, microseconds.
    pub sojourn_p99_us: u64,
    /// Bucket CAS retries the server's table paid (lock-free only).
    pub cas_retries: u64,
    /// Open-addressing probe steps beyond the home slot (lock-free only).
    pub probe_steps: u64,
    /// Resident open slots when the point ended (lock-free only).
    pub open_slots: u64,
    /// Integer occupancy percent of the active generation (lock-free
    /// only).
    pub occupancy_pct: u64,
    /// Completed generation doublings during the point (lock-free only).
    pub resizes: u64,
    /// Live rules carried across generations by incremental migration
    /// (lock-free only).
    pub migrated_slots: u64,
    /// Idle keys demoted to the cold tier (0 in this harness: reclaim
    /// needs a database behind the server).
    pub reclaimed_keys: u64,
    /// Streaming warm-up batches applied at preload (0 in this harness:
    /// preload is off).
    pub warmup_batches: u64,
    /// Checks admitted router-locally against a held lease slice with
    /// zero network I/O (0 for non-lease variants).
    pub lease_admits: u64,
    /// Lease grants (first grants and renewals) the server attached to
    /// responses, each pre-paid from the authoritative bucket.
    pub lease_grants: u64,
    /// `lease_admits / completed` — the fraction of checks that never
    /// touched the network.
    pub lease_admit_ratio: f64,
    /// Hedged second copies put on the wire (0 unless the variant runs
    /// the gray plane).
    pub hedges_sent: u64,
    /// Hedged attempts answered after the duplicate went out — the
    /// window in which the hedge could have been the copy that won.
    pub hedge_wins: u64,
    /// Retries or hedges refused because the global retry budget was
    /// dry.
    pub retry_budget_exhausted: u64,
    /// Latest adaptively-derived per-attempt timeout across the client
    /// fleet, µs (gauge; 0 while the gray plane is off).
    pub adaptive_timeout_us: u64,
}

janus_types::impl_to_json!(AdmissionPoint {
    mode,
    table_kind,
    socket_mode,
    workers,
    clients,
    requests_per_client,
    completed,
    timed_out,
    elapsed_ms,
    krps,
    decisions_per_sec_per_core,
    shed_full,
    shed_expired,
    shed_sojourn,
    dedup_hits,
    sojourn_p50_us,
    sojourn_p99_us,
    cas_retries,
    probe_steps,
    open_slots,
    occupancy_pct,
    resizes,
    migrated_slots,
    reclaimed_keys,
    warmup_batches,
    lease_admits,
    lease_grants,
    lease_admit_ratio,
    hedges_sent,
    hedge_wins,
    retry_budget_exhausted,
    adaptive_timeout_us,
});

/// Optional memory-engine axes of an admission sweep point
/// (`--table-slots` / `--keyspace`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionAxes {
    /// Initial lock-free table slot count; `None` keeps the server
    /// default. Small values make the sweep cross the resize watermark.
    pub table_slots: Option<usize>,
    /// Distinct keys per client task; `None` keeps the harness default
    /// of 8. Large values grow the resident key population.
    pub keyspace: Option<usize>,
}

/// Run one variant: spawn a standalone allow-all QoS server configured
/// per `variant`, share one reusing client across `clients` concurrent
/// tasks, and time `clients × requests_per_client` checks.
pub fn run_admission_variant(
    variant: &AdmissionVariant,
    clients: usize,
    requests_per_client: usize,
) -> AdmissionPoint {
    run_admission_variant_with(
        variant,
        clients,
        requests_per_client,
        AdmissionAxes::default(),
    )
}

/// [`run_admission_variant`] with explicit memory-engine axes.
pub fn run_admission_variant_with(
    variant: &AdmissionVariant,
    clients: usize,
    requests_per_client: usize,
    axes: AdmissionAxes,
) -> AdmissionPoint {
    let mut config = QosServerConfig::test_defaults();
    config.workers = 4;
    config.table = variant.table;
    config.socket_mode = variant.socket_mode;
    config.default_policy = DefaultRulePolicy::AllowAll;
    if let Some(slots) = axes.table_slots {
        config.table_slots = slots;
    }
    if variant.lease {
        config.lease = LeaseConfig {
            enabled: true,
            ttl: Duration::from_millis(100),
            hot_threshold: 2,
            max_holders: 16,
            slice_fraction: 4,
        };
    }
    let workers = config.workers;
    let server = QosServer::spawn(config, None, janus_clock::system()).expect("qos server");
    let addr = server.udp_addr();

    // The lease variant hammers a handful of *shared* hot keys with
    // explicit rule shapes (leases delegate a slice of a real bucket;
    // the allow-all guest shape would cap at the ledger's slice bound
    // and say nothing about real workloads).
    let hot_keys = 4usize;
    if variant.lease {
        let now = server.clock().now();
        for k in 0..hot_keys {
            let rule =
                QosRule::per_second(QosKey::new(format!("hot-k{k}")).unwrap(), 100_000, 50_000);
            server.table().insert(rule, now);
        }
    }

    // One reusing client for every task: each call in flight owns its
    // socket, hence its own flow for SO_REUSEPORT to steer.
    let rpc = UdpRpcClient::reusing(UdpRpcConfig::lan_defaults(), FaultPlan::none());
    // Request ids must not repeat while a late answer can still reach a
    // reused socket: client task `c` numbers its checks in its own 2^32
    // range.
    let request_id = |c: usize, seq: usize| ((c as u64) << 32) | seq as u64;

    // Warm the table (first sighting of every key inserts a guest rule)
    // so the timed section measures the steady-state hot path. The lease
    // variant warms its shared hot keys instead.
    let keys_per_client = axes.keyspace.unwrap_or(8);
    for c in 0..clients {
        for k in 0..keys_per_client {
            let key = if variant.lease {
                QosKey::new(format!("hot-k{}", k % hot_keys)).unwrap()
            } else {
                QosKey::new(format!("c{c}-k{k}")).unwrap()
            };
            let _ = rpc.call(addr, &QosRequest::new(request_id(c, k), key));
        }
    }

    let start = std::time::Instant::now();
    let clock = janus_clock::system();
    let lease = variant.lease;
    let gray = variant.gray;
    // The discipline's adaptive timeout falls back to the transport's
    // configured fixed timeout until the RTT window warms up.
    let baseline = UdpRpcConfig::lan_defaults().timeout;
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let rpc = rpc.clone();
        let clock = clock.clone();
        handles.push(std::thread::spawn(move || {
            let keys: Vec<QosKey> = if lease {
                (0..hot_keys)
                    .map(|k| QosKey::new(format!("hot-k{k}")).unwrap())
                    .collect()
            } else {
                (0..keys_per_client)
                    .map(|k| QosKey::new(format!("c{c}-k{k}")).unwrap())
                    .collect()
            };
            // One RouterCore per client task: each is its own holder in
            // the server's lease ledger (and its own retry-budget node),
            // like one node of a router fleet.
            let router = (lease || gray).then(|| {
                RouterCore::new(RouterCoreConfig {
                    partitions: 1,
                    default_verdict: Verdict::Allow,
                    fleet_size: clients,
                    breaker: None,
                    lease: lease.then(|| RouterLeaseConfig::new(c as u32)),
                    gray: gray.then(GrayConfig::default),
                })
            });
            let mut completed = 0u64;
            let mut timed_out = 0u64;
            let mut lease_admits = 0u64;
            for j in 0..requests_per_client {
                let key = keys[j % keys.len()].clone();
                let id = request_id(c, keys_per_client + j);
                let Some(core) = &router else {
                    match rpc.call(addr, &QosRequest::new(id, key)) {
                        Ok(_) => completed += 1,
                        Err(_) => timed_out += 1,
                    }
                    continue;
                };
                match core.begin(&key, clock.now()) {
                    RouterStep::LeaseAdmit { .. } => {
                        lease_admits += 1;
                        completed += 1;
                    }
                    RouterStep::Forward {
                        partition,
                        solicit_hint,
                        lease_ask,
                    } => {
                        // With the gray plane off this discipline is the
                        // all-`None` no-op, so the lease variant's wire
                        // behaviour is unchanged.
                        let discipline = core.discipline(partition, baseline);
                        let request = forward_request(id, key.clone(), solicit_hint, lease_ask);
                        match rpc.call_disciplined(addr, &request, &discipline) {
                            Ok(response) => {
                                core.on_response(partition, &key, &response, clock.now());
                                completed += 1;
                            }
                            Err(_) => timed_out += 1,
                        }
                    }
                    // Breakers are off in this harness; FastFail is
                    // unreachable, but count it as a non-completion
                    // rather than panic if that ever changes.
                    RouterStep::FastFail { .. } => timed_out += 1,
                }
            }
            use std::sync::atomic::Ordering;
            let gray_counters = router
                .as_ref()
                .map(|core| {
                    let h = core.hedge_stats();
                    (
                        h.hedges_sent.load(Ordering::Relaxed),
                        h.hedge_wins.load(Ordering::Relaxed),
                        core.retry_budget().map_or(0, |b| b.exhausted()),
                        h.adaptive_timeout_us.load(Ordering::Relaxed),
                    )
                })
                .unwrap_or((0, 0, 0, 0));
            (completed, timed_out, lease_admits, gray_counters)
        }));
    }
    let mut completed = 0u64;
    let mut timed_out = 0u64;
    let mut lease_admits = 0u64;
    let mut hedges_sent = 0u64;
    let mut hedge_wins = 0u64;
    let mut retry_budget_exhausted = 0u64;
    let mut adaptive_timeout_us = 0u64;
    for handle in handles {
        let (ok, lost, leased, (hedged, won, refused, timeout_us)) =
            handle.join().expect("client thread");
        completed += ok;
        timed_out += lost;
        lease_admits += leased;
        hedges_sent += hedged;
        hedge_wins += won;
        retry_budget_exhausted += refused;
        adaptive_timeout_us = adaptive_timeout_us.max(timeout_us);
    }
    let elapsed = start.elapsed();
    let stats = server.stats().snapshot();
    AdmissionPoint {
        mode: variant.name.to_string(),
        table_kind: table_kind_label(variant.table),
        socket_mode: socket_mode_label(variant.socket_mode),
        workers,
        clients,
        requests_per_client,
        completed,
        timed_out,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        krps: completed as f64 / elapsed.as_secs_f64() / 1e3,
        decisions_per_sec_per_core: completed as f64 / elapsed.as_secs_f64() / workers as f64,
        shed_full: stats.shed_full,
        shed_expired: stats.shed_expired,
        shed_sojourn: stats.shed_sojourn,
        dedup_hits: stats.dedup_hits,
        sojourn_p50_us: stats.sojourn_p50_us,
        sojourn_p99_us: stats.sojourn_p99_us,
        cas_retries: stats.cas_retries,
        probe_steps: stats.probe_steps,
        open_slots: stats.open_slots,
        occupancy_pct: stats.occupancy_pct,
        resizes: stats.resizes,
        migrated_slots: stats.migrated_slots,
        reclaimed_keys: stats.reclaimed_keys,
        warmup_batches: stats.warmup_batches,
        lease_admits,
        lease_grants: stats.lease_grants,
        lease_admit_ratio: if completed > 0 {
            lease_admits as f64 / completed as f64
        } else {
            0.0
        },
        hedges_sent,
        hedge_wins,
        retry_budget_exhausted,
        adaptive_timeout_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_completes_a_tiny_sweep() {
        for variant in admission_variants() {
            let point = run_admission_variant(&variant, 2, 10);
            assert_eq!(point.mode, variant.name);
            assert_eq!(point.table_kind, table_kind_label(variant.table));
            assert_eq!(point.socket_mode, socket_mode_label(variant.socket_mode));
            assert_eq!(point.completed + point.timed_out, 20, "{}", variant.name);
            assert!(point.completed > 0, "{} completed nothing", variant.name);
            assert!(
                point.decisions_per_sec_per_core > 0.0,
                "{} has a zero per-core rate",
                variant.name
            );
            if variant.table != TableKind::LockFree {
                assert_eq!(
                    point.cas_retries, 0,
                    "{}: locked tables never CAS",
                    variant.name
                );
                assert_eq!(point.probe_steps, 0, "{}", variant.name);
                assert_eq!(
                    point.open_slots, 0,
                    "{}: only the lock-free engine exports slot gauges",
                    variant.name
                );
                assert_eq!(point.occupancy_pct, 0, "{}", variant.name);
                assert_eq!(point.resizes, 0, "{}", variant.name);
            } else {
                assert!(
                    point.open_slots > 0,
                    "{}: warmed keys must be resident in the slot gauge",
                    variant.name
                );
                assert!(point.occupancy_pct <= 100, "{}", variant.name);
            }
            // Reclaim needs a database and preload is off: both gauges
            // stay zero in this standalone harness.
            assert_eq!(point.reclaimed_keys, 0, "{}", variant.name);
            assert_eq!(point.warmup_batches, 0, "{}", variant.name);
            if variant.lease {
                assert!(
                    point.lease_grants > 0,
                    "{}: hot keys never earned a grant",
                    variant.name
                );
                assert!(
                    point.lease_admits > 0 && point.lease_admit_ratio > 0.0,
                    "{}: no check was admitted from a held lease",
                    variant.name
                );
            } else {
                assert_eq!(
                    point.lease_admits, 0,
                    "{}: leases are off for this variant",
                    variant.name
                );
                assert_eq!(point.lease_admit_ratio, 0.0, "{}", variant.name);
            }
            if variant.gray {
                // The adaptive gauge is set from the very first
                // disciplined attempt (baseline until the window warms),
                // so it proves the gray plane rode the wire. Hedge
                // counts depend on loopback jitter — a tiny sweep may
                // legitimately see none, so only the gauge is asserted.
                assert!(
                    point.adaptive_timeout_us > 0,
                    "{}: the gray discipline never engaged",
                    variant.name
                );
            } else {
                assert_eq!(
                    point.hedges_sent, 0,
                    "{}: the gray plane is off for this variant",
                    variant.name
                );
                assert_eq!(point.hedge_wins, 0, "{}", variant.name);
                assert_eq!(point.retry_budget_exhausted, 0, "{}", variant.name);
                assert_eq!(point.adaptive_timeout_us, 0, "{}", variant.name);
            }
        }
    }

    #[test]
    fn table_axes_drive_resizes_in_the_lock_free_variant() {
        let variant = admission_variants()
            .into_iter()
            .find(|v| v.name == "listener+lock_free")
            .unwrap();
        // 2 clients × 64 distinct keys against 8 initial slots: the
        // engine must cross the ¾ watermark and migrate live rules while
        // the sweep hammers it.
        let axes = AdmissionAxes {
            table_slots: Some(8),
            keyspace: Some(64),
        };
        let point = run_admission_variant_with(&variant, 2, 50, axes);
        assert_eq!(point.completed + point.timed_out, 100);
        assert!(point.resizes >= 1, "tiny table never resized");
        assert!(
            point.migrated_slots > 0,
            "a resize must carry live rules across generations"
        );
        assert!(
            point.open_slots >= 64,
            "distinct keys must be resident: {} open slots",
            point.open_slots
        );
        assert!(point.occupancy_pct <= 100);
    }
}
