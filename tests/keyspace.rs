//! Keyspace-churn soak: cycle a drifting Zipf working set through ~100k
//! distinct keys against a lock-free table with a tiny initial slot
//! count, and hold the memory-engine invariants — flat residency under
//! churn, bounded p99, and exact credit across demote/readmit cycles.
//! EXPERIMENTS.md documents the 10M-key full-scale shape of this soak.

use janus_core::{run_keyspace_soak, KeyspaceSoakConfig};

#[test]
fn keyspace_soak_holds_invariants() {
    let report = run_keyspace_soak(KeyspaceSoakConfig::default()).unwrap();

    let json = report.to_json_string();
    assert!(
        report.no_mint_ok,
        "reclaim/readmit minted credit: {} allows from capacity {}\n{json}",
        report.meter_allowed, report.meter_capacity
    );
    assert!(
        report.credit_exact_ok,
        "meter key lost credit across demote/readmit: {} allows, expected min({}, {})\n{json}",
        report.meter_allowed, report.meter_touches, report.meter_capacity
    );
    assert!(
        report.residency_ok,
        "residency not flat: high-watermark {} slots over bound {}; {} reclaim sweeps, \
         longest gap between sweeps {}us against a {}us interval\n{json}",
        report.resident_high_watermark,
        report.resident_bound,
        report.reclaim_sweeps,
        report.longest_sweep_gap_us,
        KeyspaceSoakConfig::default().reclaim_interval.as_micros()
    );
    assert!(
        report.latency_ok,
        "churn p99 {}us exceeds bound {}us\n{json}",
        report.p99_us, report.p99_bound_us
    );
    assert!(
        report.resizes_ok && report.reclaim_ok,
        "soak never exercised the engine: {} resizes, {} reclaimed\n{json}",
        report.resizes,
        report.reclaimed_keys
    );
    // The churn was real: far more distinct keys than resident slots.
    assert!(
        report.distinct_keys > report.resident_high_watermark * 10,
        "only {} distinct keys against watermark {}",
        report.distinct_keys,
        report.resident_high_watermark
    );
    assert!(report.answered > 0, "soak answered nothing");
    assert!(report.passed());

    // Archive the report under the build's scratch directory (CI uploads
    // it from there): `cargo test` must never rewrite a tracked file.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("keyspace_soak.json"), json).unwrap();
}
