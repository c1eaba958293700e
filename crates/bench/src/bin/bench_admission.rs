//! Admission data-plane sweep (DESIGN.md ablation 9).
//!
//! Spawns a real QoS server per variant and hammers it over loopback
//! with a reusing UDP client, contrasting the paper plane (one
//! listener, one FIFO) under each table kind with the per-core fast
//! plane. Writes
//! `BENCH_admission.json` next to the working directory so the measured
//! numbers travel with the repo.
//!
//! ```text
//! cargo run --release -p janus-bench --bin bench_admission
//! cargo run --release -p janus-bench --bin bench_admission -- --quick --json
//! cargo run --release -p janus-bench --bin bench_admission -- --smoke
//! cargo run --release -p janus-bench --bin bench_admission -- --smoke --socket-mode per_core
//! ```
//!
//! `--smoke` (the CI preset) runs every variant at 1 client ×
//! 1000 requests purely as a did-the-data-plane-survive check; it prints
//! the table but deliberately does **not** rewrite `BENCH_admission.json`
//! — a loaded CI box would overwrite real measurements with noise.
//! `--socket-mode` restricts the sweep to one plane (the plane
//! ablation's decisions/sec/core curve comes from comparing the two).
//! `--mode <substring>` restricts it to matching variant names — CI's
//! lease smoke runs `--smoke --mode lease` and checks the
//! `lease_ratio` column is non-zero (DESIGN.md ablation 13), and its
//! gray smoke runs `--smoke --mode hedge`, whose `hedges/wins`,
//! `budget_refused` and `adapt_us` columns record what the gray plane
//! (adaptive timeouts, same-nonce hedges, retry budget) did on a
//! healthy link (DESIGN.md ablation 15).
//! `--table-slots <n>` and `--keyspace <n>` set the memory-engine axes
//! (initial lock-free slot count, distinct keys per client): a tiny slot
//! count with a large keyspace forces incremental resizes mid-sweep, and
//! the per-point gauges (`open_slots`, `occupancy_pct`, `resizes`,
//! `migrated_slots`) record what the engine did (DESIGN.md ablation 14).
//! Axis overrides, like `--smoke`, never rewrite `BENCH_admission.json`.

use janus_bench::live::{
    admission_variants, run_admission_variant_with, socket_mode_label, AdmissionAxes,
    AdmissionPoint,
};
use janus_bench::{fmt_krps, print_table, FigureCli};

#[derive(Debug)]
struct Output {
    /// How to regenerate this file.
    regenerate: &'static str,
    /// Client-task counts swept per variant.
    client_sweep: Vec<usize>,
    /// Initial lock-free slot count override (`--table-slots`), if any.
    table_slots: Option<usize>,
    /// Distinct keys per client override (`--keyspace`), if any.
    keyspace: Option<usize>,
    points: Vec<AdmissionPoint>,
}

janus_types::impl_to_json!(Output {
    regenerate,
    client_sweep,
    table_slots,
    keyspace,
    points,
});

fn main() {
    let cli = FigureCli::parse();

    let (client_sweep, per_client) = if cli.smoke {
        (vec![1], 1_000)
    } else if cli.quick {
        (vec![8], 500)
    } else {
        (vec![1, 4, 8, 16], 2_000)
    };

    let variants: Vec<_> = admission_variants()
        .into_iter()
        .filter(|v| match &cli.socket_mode {
            Some(label) => socket_mode_label(v.socket_mode) == label,
            None => true,
        })
        .filter(|v| match &cli.mode {
            Some(needle) => v.name.contains(needle.as_str()),
            None => true,
        })
        .collect();
    if variants.is_empty() {
        // e.g. `--socket-mode per_core` on a non-Linux host, where the
        // sweep omits the per-core variant entirely.
        eprintln!("no variants match this --socket-mode/--mode on this platform");
        return;
    }

    let axes = AdmissionAxes {
        table_slots: cli.table_slots,
        keyspace: cli.keyspace,
    };
    let mut points = Vec::new();
    for variant in variants {
        for &clients in &client_sweep {
            let point = run_admission_variant_with(&variant, clients, per_client, axes);
            eprintln!(
                "{:<32} clients={:<3} {:>8} completed, {} ({:.0}/s/core, lease_ratio={:.2}, \
                 hedges={}/{} budget_refused={} adapt_us={})",
                point.mode,
                point.clients,
                point.completed,
                fmt_krps(point.krps * 1_000.0),
                point.decisions_per_sec_per_core,
                point.lease_admit_ratio,
                point.hedges_sent,
                point.hedge_wins,
                point.retry_budget_exhausted,
                point.adaptive_timeout_us
            );
            points.push(point);
        }
    }

    let output = Output {
        regenerate: "cargo run --release -p janus-bench --bin bench_admission",
        client_sweep,
        table_slots: cli.table_slots,
        keyspace: cli.keyspace,
        points,
    };

    if cli.smoke
        || cli.socket_mode.is_some()
        || cli.mode.is_some()
        || cli.table_slots.is_some()
        || cli.keyspace.is_some()
    {
        // A filtered sweep is partial by construction; only the full
        // sweep may replace the checked-in measurements.
        eprintln!("smoke/filtered run: BENCH_admission.json left untouched");
    } else {
        let json = janus_types::json::ToJson::to_json(&output).pretty();
        std::fs::write("BENCH_admission.json", format!("{json}\n"))
            .expect("write BENCH_admission.json");
        eprintln!("wrote BENCH_admission.json");
    }

    cli.emit(&output, |out| {
        let rows: Vec<Vec<String>> = out
            .points
            .iter()
            .map(|p| {
                vec![
                    p.mode.clone(),
                    p.table_kind.to_string(),
                    p.socket_mode.to_string(),
                    p.clients.to_string(),
                    fmt_krps(p.krps * 1_000.0),
                    format!("{:.0}", p.decisions_per_sec_per_core),
                    p.completed.to_string(),
                    p.timed_out.to_string(),
                    (p.shed_full + p.shed_expired + p.shed_sojourn).to_string(),
                    p.dedup_hits.to_string(),
                    format!("{}us", p.sojourn_p99_us),
                    p.cas_retries.to_string(),
                    format!("{}({}%)", p.open_slots, p.occupancy_pct),
                    format!("{}/{}", p.resizes, p.migrated_slots),
                    format!("{:.2}", p.lease_admit_ratio),
                    format!("{}/{}", p.hedges_sent, p.hedge_wins),
                    p.retry_budget_exhausted.to_string(),
                    p.adaptive_timeout_us.to_string(),
                    format!("{:.1}ms", p.elapsed_ms),
                ]
            })
            .collect();
        print_table(
            "Admission data plane (live loopback)",
            &[
                "mode",
                "table_kind",
                "socket_mode",
                "clients",
                "krps",
                "per_core",
                "completed",
                "timed_out",
                "shed",
                "dedup_hits",
                "sojourn_p99",
                "cas_retries",
                "open(occ)",
                "rsz/migr",
                "lease_ratio",
                "hedges/wins",
                "budget_refused",
                "adapt_us",
                "elapsed",
            ],
            &rows,
        );
    });
}
