//! Gray-failure soak: one partition turns slow-but-alive (every
//! datagram deferred, none dropped — the shape that never trips a
//! circuit breaker), then heals. The router's gray plane (adaptive
//! timeouts, same-nonce hedges, global retry budget) must keep every
//! caller answered, bring the p99 back after the heal, and cap retry
//! amplification at the budget's deposit stream.

#[test]
fn gray_soak_holds_recovery_and_amplification_bounds() {
    let report = janus_core::run_gray_soak(janus_core::GraySoakConfig::default()).unwrap();

    assert!(
        report.availability_ok,
        "gray window hung callers: availability {:.4}",
        report.availability
    );
    assert!(
        report.recovery_ok,
        "p99 never recovered after heal: healed window stayed over {}us \
         (healthy {}us, gray {}us)",
        report.recovery_ceiling_us, report.healthy_p99_us, report.gray_p99_us
    );
    assert!(
        report.amplification_ok,
        "retry storm: {:.3}x wire amplification over bound {:.3} \
         ({} wire attempts / {} primaries)",
        report.amplification, report.amplification_bound, report.wire_attempts, report.primaries
    );
    // The schedule really exercised the gray plane: the learned timeout
    // engaged and the budget was consulted under pressure.
    assert!(
        report.adaptive_timeout_us > 0,
        "adaptive timeout never engaged"
    );

    // Archive the report under the build's scratch directory (CI uploads
    // it from there): `cargo test` must never rewrite a tracked file.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("gray_soak.json"), report.to_json_string()).unwrap();
}
