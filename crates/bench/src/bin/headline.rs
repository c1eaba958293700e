//! The abstract's headline claims: >100 000 req/s with 10 × 4-vCPU QoS
//! server nodes, and 90 % of admission decisions within 3 ms.
//!
//! Both numbers are the `janus-sim` cluster model's output under the
//! paper's calibration (`Calibration::default()`, anchored to the
//! paper's PHP/Java timings), not a measurement of this implementation;
//! the output says so beside the numbers.

use janus_bench::{fmt_krps, FigureCli};
use janus_sim::experiments::{headline, Headline};

const SOURCE: &str = "janus-sim model under the paper's calibration \
                      (Calibration::default()), not a measurement of this implementation";

/// The headline numbers with their provenance, for `--json`.
struct Labelled<'a> {
    source: &'static str,
    headline: &'a Headline,
}

janus_types::impl_to_json!(Labelled<'_> { source, headline });

fn main() {
    let cli = FigureCli::parse();
    let result = headline(cli.seed, cli.fidelity());
    let labelled = Labelled {
        source: SOURCE,
        headline: &result,
    };
    cli.emit(&labelled, |l| {
        let h = l.headline;
        println!("== Headline claims (§abstract / §V) ==");
        println!("source: {}", l.source);
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
