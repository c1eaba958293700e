//! Overload soak: drive a QoS server to 2× its calibrated saturation
//! point with duplicated, deadline-stamped traffic and hold the
//! overload-control invariants — bounded p99, preserved goodput, and
//! exactly-once charging despite at-least-once delivery.

use janus_core::{run_overload_soak, OverloadSoakConfig};

#[test]
fn overload_soak_holds_invariants() {
    // Calibrate -> 2× overload with duplication -> meter drain. The
    // harness scores latency, goodput, credit exactness and dedup
    // evidence; the report is archived for CI.
    let report = run_overload_soak(OverloadSoakConfig::default()).unwrap();

    let json = report.to_json_string();
    assert!(
        report.latency_ok,
        "overload p99 {}us exceeds bound {}us\n{json}",
        report.phases[1].p99_us, report.p99_bound_us
    );
    assert!(
        report.goodput_ok,
        "goodput collapsed: ratio {:.3} under floor {:.2}\n{json}",
        report.goodput_ratio, report.goodput_floor
    );
    assert!(
        report.credit_exact_ok,
        "metered keys overcharged or undercharged: {:?} (capacity {})\n{json}",
        report.meter_allowed, report.meter_capacity
    );
    assert!(
        report.dedup_ok,
        "duplication never reached the dedup window ({} injected)\n{json}",
        report.duplicates_injected
    );
    // The schedule really pushed past saturation: duplicates were
    // injected and the soak answered traffic in both phases.
    assert!(report.duplicates_injected > 0, "duplication never fired");
    assert!(
        report.phases[0].answered > 0,
        "calibration answered nothing"
    );
    assert!(report.phases[1].answered > 0, "overload answered nothing");
    assert!(report.passed());

    // Archive the report under the build's scratch directory (CI uploads
    // it from there): `cargo test` must never rewrite a tracked file.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("overload_soak.json"), json).unwrap();
}
