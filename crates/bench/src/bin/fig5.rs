//! Fig. 5 — gateway load balancer vs DNS load balancer latency.
//!
//! Default: the calibrated simulation at the paper's AWS scale.
//! `--live`: additionally measures the same comparison against real
//! loopback processes (absolute numbers are loopback-scale; the
//! gateway-adds-a-hop ordering is the invariant).

use janus_bench::{fmt_us, print_table, FigureCli};
use janus_sim::experiments::fig5;
use janus_workload::{Histogram, LatencyStats};

struct Output {
    simulated: janus_sim::experiments::Fig5,
    live: Option<LiveFig5>,
}

janus_types::impl_to_json!(Output { simulated, live });

struct LiveFig5 {
    dns: LatencyStats,
    gateway: LatencyStats,
}

janus_types::impl_to_json!(LiveFig5 { dns, gateway });

fn main() {
    let cli = FigureCli::parse();
    let simulated = fig5(cli.seed, cli.fidelity());
    let live = if cli.live {
        Some(run_live(if cli.quick { 2_000 } else { 20_000 }))
    } else {
        None
    };
    let output = Output { simulated, live };

    cli.emit(&output, |out| {
        let s = &out.simulated;
        let rows = vec![
            row("DNS LB (paper)", 1140.0, 1410.0, f64::NAN, f64::NAN),
            row(
                "DNS LB (simulated)",
                s.dns.average_us,
                s.dns.p90_us,
                s.dns.p99_us,
                s.dns.p999_us,
            ),
            row("Gateway LB (paper)", 1650.0, 2370.0, f64::NAN, f64::NAN),
            row(
                "Gateway LB (simulated)",
                s.gateway.average_us,
                s.gateway.p90_us,
                s.gateway.p99_us,
                s.gateway.p999_us,
            ),
        ];
        print_table(
            "Fig. 5: load balancer latency (µs)",
            &["configuration", "average", "P90", "P99", "P99.9"],
            &rows,
        );
        println!(
            "gateway overhead: {} (paper: ~500us)",
            fmt_us(s.gateway_overhead_us())
        );
        if let Some(live) = &out.live {
            let rows = vec![
                row(
                    "DNS LB (live loopback)",
                    live.dns.average_us,
                    live.dns.p90_us,
                    live.dns.p99_us,
                    live.dns.p999_us,
                ),
                row(
                    "Gateway LB (live loopback)",
                    live.gateway.average_us,
                    live.gateway.p90_us,
                    live.gateway.p99_us,
                    live.gateway.p999_us,
                ),
            ];
            print_table(
                "Fig. 5 (live): loopback processes",
                &["configuration", "average", "P90", "P99", "P99.9"],
                &rows,
            );
        }
    });
}

fn row(label: &str, avg: f64, p90: f64, p99: f64, p999: f64) -> Vec<String> {
    let fmt = |v: f64| {
        if v.is_nan() {
            "-".to_string()
        } else {
            fmt_us(v)
        }
    };
    vec![label.to_string(), fmt(avg), fmt(p90), fmt(p99), fmt(p999)]
}

/// Live comparison: two routers + two QoS servers on real sockets and threads,
/// two sequential clients, measured through a gateway LB and through DNS.
fn run_live(requests_per_client: usize) -> LiveFig5 {
    use janus_core::{
        DefaultRulePolicy, Deployment, DeploymentConfig, LbMode, LbPolicy, QosKey, QosServerConfig,
    };
    let mut stats = Vec::new();
    for lb in [
        LbMode::Dns {
            ttl: std::time::Duration::from_secs(30),
        },
        LbMode::Gateway(LbPolicy::RoundRobin),
    ] {
        let mut server = QosServerConfig::test_defaults();
        server.default_policy = DefaultRulePolicy::AllowAll;
        let config = DeploymentConfig {
            qos_servers: 2,
            routers: 2,
            lb,
            server,
            ..Default::default()
        };
        let deployment = Deployment::launch(config).expect("deployment");
        let mut histogram = Histogram::new();
        let mut handles = Vec::new();
        for client_id in 0..2u64 {
            let mut client = deployment.client().expect("client");
            handles.push(std::thread::spawn(move || {
                let mut h = Histogram::new();
                for i in 0..requests_per_client {
                    let key = QosKey::new(format!("tenant-{client_id}-{}", i % 1000)).unwrap();
                    let start = std::time::Instant::now();
                    client.qos_check(&key).expect("qos check");
                    h.record_duration(start.elapsed());
                }
                h
            }));
        }
        for handle in handles {
            histogram.merge(&handle.join().expect("client thread"));
        }
        stats.push(LatencyStats::from_histogram(&histogram));
        deployment.shutdown();
    }
    let gateway = stats.pop().unwrap();
    let dns = stats.pop().unwrap();
    LiveFig5 { dns, gateway }
}
