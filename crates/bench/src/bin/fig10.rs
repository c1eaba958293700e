//! Fig. 10 — QoS-server vertical scalability, including the
//! lock-contention CPU underutilization and its sharded-table ablation.

use janus_bench::{fmt_krps, fmt_pct, print_table, FigureCli};
use janus_sim::catalog::{C3_8XLARGE, C3_FAMILY};
use janus_sim::experiments::fig10;
use janus_sim::{ClusterSpec, LockModel};

struct Output {
    curve: janus_sim::experiments::ScalingCurve,
    /// Ablation: the same c3.8xlarge point with a sharded (lock-striped)
    /// QoS table — the paper's "can be further optimized in future work".
    sharded_8xlarge_rps: f64,
    synchronized_8xlarge_rps: f64,
}

janus_types::impl_to_json!(Output {
    curve,
    sharded_8xlarge_rps,
    synchronized_8xlarge_rps,
});

fn main() {
    let cli = FigureCli::parse();
    let fidelity = cli.fidelity();
    let curve = fig10(cli.seed, fidelity);
    let synchronized_8xlarge_rps = curve
        .points
        .last()
        .map(|p| p.throughput_rps)
        .unwrap_or_default();

    // Lock ablation at the largest instance.
    let mut spec = ClusterSpec::saturation(vec![C3_8XLARGE; 5], vec![C3_8XLARGE], cli.seed);
    spec.clients = fidelity.clients;
    spec.warmup = fidelity.warmup;
    spec.measure = fidelity.measure;
    spec.lock = LockModel::Sharded(64);
    let sharded_8xlarge_rps = janus_sim::model::simulate(&spec).throughput_rps;

    let output = Output {
        curve,
        sharded_8xlarge_rps,
        synchronized_8xlarge_rps,
    };

    cli.emit(&output, |out| {
        let rows: Vec<Vec<String>> = out
            .curve
            .points
            .iter()
            .map(|p| {
                vec![
                    p.instance.to_string(),
                    p.vcpus.to_string(),
                    fmt_krps(p.throughput_rps),
                    fmt_pct(p.qos_cpu),
                    fmt_pct(p.router_cpu),
                ]
            })
            .collect();
        print_table(
            "Fig. 10: QoS-server vertical scaling (5 x c3.8xlarge routers)",
            &[
                "QoS server type",
                "vCPU",
                "throughput",
                "QoS CPU",
                "router CPU",
            ],
            &rows,
        );
        println!(
            "paper shape: throughput grows with size but the synchronized QoS table leaves \
             the big instance's CPU underutilized (Fig. 10b)."
        );
        println!(
            "lock ablation on c3.8xlarge: synchronized {} -> sharded {} req/s \
             (the paper's future-work optimization)",
            fmt_krps(out.synchronized_8xlarge_rps),
            fmt_krps(out.sharded_8xlarge_rps)
        );
        let _ = C3_FAMILY; // catalog anchored in the curve itself
    });
}
