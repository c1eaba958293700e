//! End-to-end admission latency: a real `qos_check` through the full
//! four-layer stack on loopback (the microbenchmark behind the paper's
//! "90% of decisions in 3 ms" claim — loopback removes the network, so
//! this measures the framework's own overhead).

use janus_bench::micro::{BenchmarkId, Harness};
use janus_bench::{bench_group, bench_main};
use janus_core::{
    DefaultRulePolicy, Deployment, DeploymentConfig, LbMode, LbPolicy, QosClient, QosKey,
    QosServerConfig,
};

fn build_stack(lb: LbMode, qos_servers: usize, routers: usize) -> (Deployment, QosClient) {
    let mut server = QosServerConfig::test_defaults();
    server.default_policy = DefaultRulePolicy::AllowAll;
    let config = DeploymentConfig {
        qos_servers,
        routers,
        lb,
        server,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).expect("deployment");
    let client = deployment.client().expect("client");
    (deployment, client)
}

fn bench_full_stack(h: &mut Harness) {
    let mut group = h.benchmark_group("admission/full_stack");
    group.sample_size(30);
    for (label, lb) in [
        ("gateway", LbMode::Gateway(LbPolicy::RoundRobin)),
        ("direct_router", LbMode::None),
    ] {
        let (_deployment, mut client) = build_stack(lb, 2, 2);
        let keys: Vec<QosKey> = (0..64)
            .map(|i| QosKey::new(format!("tenant-{i}")).unwrap())
            .collect();
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("qos_check", label), |b| {
            b.iter(|| {
                i += 1;
                client.qos_check(&keys[i % keys.len()]).expect("qos check")
            });
        });
    }
    group.finish();
}

fn bench_udp_leg_only(h: &mut Harness) {
    // Router→QoS-server UDP exchange in isolation (no HTTP, no LB): the
    // paper's socket-per-request strategy vs the reusing client.
    use janus_net::fault::FaultPlan;
    use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
    use janus_server::QosServer;
    use janus_types::QosRequest;

    let mut config = QosServerConfig::test_defaults();
    config.default_policy = DefaultRulePolicy::AllowAll;
    let server = QosServer::spawn(config, None, janus_clock::system()).expect("server");
    let key = QosKey::new("tenant").unwrap();

    for (label, rpc) in [
        (
            "per_request_socket",
            UdpRpcClient::new(UdpRpcConfig::lan_defaults()),
        ),
        (
            "pooled_socket",
            UdpRpcClient::reusing(UdpRpcConfig::lan_defaults(), FaultPlan::none()),
        ),
    ] {
        let mut id = 0u64;
        h.bench_function(format!("admission/udp_leg/{label}"), |b| {
            b.iter(|| {
                id += 1;
                rpc.call(server.udp_addr(), &QosRequest::new(id, key.clone()))
                    .expect("udp call")
            });
        });
    }
}

fn bench_udp_leg_concurrent(h: &mut Harness) {
    // 8 in-flight checks, one frame per datagram, against each server
    // plane (DESIGN.md ablations 9 and 12). One iteration = 8 concurrent
    // checks, so divide the reported time by 8 for per-check latency.
    use janus_net::fault::FaultPlan;
    use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
    use janus_server::{QosServer, SocketMode, TableKind};
    use janus_types::QosRequest;

    const CONCURRENCY: usize = 8;

    let mut planes = vec![(
        "single_listener",
        SocketMode::SingleListener,
        TableKind::Sharded,
    )];
    if cfg!(target_os = "linux") {
        planes.push(("per_core", SocketMode::PerCore, TableKind::LockFree));
    }
    let mut group = h.benchmark_group("admission/udp_leg_x8");
    for (label, socket_mode, table) in planes {
        let mut config = QosServerConfig::test_defaults();
        config.default_policy = DefaultRulePolicy::AllowAll;
        config.workers = 4;
        config.socket_mode = socket_mode;
        config.table = table;
        let server = QosServer::spawn(config, None, janus_clock::system()).expect("server");
        let addr = server.udp_addr();
        // One reusing client: each check in flight owns its socket, so
        // per-core sockets see one flow per check thread.
        let rpc = UdpRpcClient::reusing(UdpRpcConfig::lan_defaults(), FaultPlan::none());
        let keys: Vec<QosKey> = (0..CONCURRENCY)
            .map(|i| QosKey::new(format!("tenant-{i}")).unwrap())
            .collect();
        group.bench_function(BenchmarkId::new("qos_check", label), |b| {
            // One thread per in-flight check, each doing `iters` checks
            // with ids from its own range.
            b.iter_custom(|iters| {
                let start = std::time::Instant::now();
                std::thread::scope(|scope| {
                    for (t, key) in keys.iter().enumerate() {
                        let rpc = &rpc;
                        scope.spawn(move || {
                            for i in 0..iters {
                                let id = ((t as u64) << 32) | i;
                                rpc.call(addr, &QosRequest::new(id, key.clone()))
                                    .expect("udp call");
                            }
                        });
                    }
                });
                start.elapsed()
            });
        });
    }
    group.finish();
}

bench_group! {
    name = benches;
    config = Harness::default();
    targets = bench_full_stack, bench_udp_leg_only, bench_udp_leg_concurrent
}
bench_main!(benches);
