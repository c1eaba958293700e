//! Table I — the EC2 instance catalog used throughout the evaluation.

use janus_bench::{print_table, FigureCli};
use janus_sim::catalog::TABLE_I;

fn main() {
    let cli = FigureCli::parse();
    cli.emit(&TABLE_I.to_vec(), |types| {
        let rows: Vec<Vec<String>> = types
            .iter()
            .map(|t| {
                vec![
                    t.name.to_string(),
                    t.vcpus.to_string(),
                    format!("{:.2}", t.memory_gb),
                    t.network_mbps.to_string(),
                    format!("{:.3}", t.price_usd_hr),
                ]
            })
            .collect();
        print_table(
            "Table I: EC2 instance types",
            &[
                "type",
                "vCPU",
                "memory (GB)",
                "network (Mbps)",
                "price (USD/hr)",
            ],
            &rows,
        );
    });
}
