//! The abstract's headline claims: >100 000 req/s with 10 × 4-vCPU QoS
//! server nodes, and 90 % of admission decisions within 3 ms.

use janus_bench::{fmt_krps, FigureCli};
use janus_sim::experiments::headline;

fn main() {
    let cli = FigureCli::parse();
    let result = headline(cli.seed, cli.fidelity());
    cli.emit(&result, |h| {
        println!("== Headline claims (§abstract / §V) ==");
        println!(
            "throughput with 10 x c3.xlarge QoS nodes (40 vCPU): {} req/s   (paper: >100k)   [{}]",
            fmt_krps(h.throughput_10_nodes_rps),
            if h.throughput_10_nodes_rps > 100_000.0 {
                "OK"
            } else {
                "MISS"
            }
        );
        println!(
            "P90 admission decision latency at moderate load:   {:.2} ms      (paper: <=3ms)  [{}]",
            h.p90_decision_ms,
            if h.p90_decision_ms <= 3.0 {
                "OK"
            } else {
                "MISS"
            }
        );
    });
}
