//! Smoke tests over every figure driver: each experiment regenerates its
//! paper shape at quick fidelity. These are the assertions EXPERIMENTS.md
//! is built on.

use janus_hash::routing::ModuloRouter;
use janus_hash::PressureReport;
use janus_sim::experiments::{fig10, fig11, fig12, fig5, fig7, fig8, fig9, headline, Fidelity};

fn f() -> Fidelity {
    Fidelity::quick()
}

#[test]
fn table1_has_the_paper_rows() {
    assert_eq!(janus_sim::catalog::TABLE_I.len(), 7);
    assert_eq!(janus_sim::catalog::by_name("c3.8xlarge").unwrap().vcpus, 32);
}

#[test]
fn fig5_gateway_slower_than_dns_by_about_half_a_ms() {
    let fig = fig5(1, f());
    let overhead = fig.gateway_overhead_us();
    assert!(
        (300.0..700.0).contains(&overhead),
        "gateway overhead {overhead}"
    );
    assert!((950.0..1400.0).contains(&fig.dns.average_us));
}

#[test]
fn fig6_key_pressure_is_uniform_for_all_families() {
    let report = PressureReport::run(&ModuloRouter::new(20), 100_000, 2018);
    assert!(
        report.global_min_percent() > 4.8,
        "{}",
        report.global_min_percent()
    );
    assert!(
        report.global_max_percent() < 5.2,
        "{}",
        report.global_max_percent()
    );
    for m in &report.measurements {
        assert!(
            m.stddev_percent() < 0.1,
            "{:?}: {}",
            m.family,
            m.stddev_percent()
        );
    }
}

#[test]
fn fig7_and_fig8_share_a_qos_bound() {
    // Paper: "the maximum throughput in Figure 7a is very close to the
    // maximum throughput in Figure 8a, which supports the speculation
    // that the QoS server is the bottleneck."
    let vertical_max = fig7(2, f()).max_throughput();
    let horizontal_max = fig8(2, f()).max_throughput();
    let ratio = vertical_max / horizontal_max;
    assert!(
        (0.85..1.15).contains(&ratio),
        "vertical {vertical_max} vs horizontal {horizontal_max}"
    );
}

#[test]
fn fig9_router_strategies_equivalent() {
    let fig = fig9(3, f());
    let (v, h) = fig.at_vcpus(8);
    let (v, h) = (v.unwrap(), h.unwrap());
    assert!((v / h - 1.0).abs() < 0.2, "8 vCPUs: {v} vs {h}");
}

#[test]
fn fig10_lock_underutilization_appears_only_on_big_instances() {
    let curve = fig10(4, f());
    let small = &curve.points[0]; // c3.large
    let big = &curve.points[4]; // c3.8xlarge
    assert!(
        small.qos_cpu > 0.93,
        "small instance should be CPU-bound: {}",
        small.qos_cpu
    );
    assert!(
        big.qos_cpu < 0.92,
        "big instance should idle on the lock: {}",
        big.qos_cpu
    );
}

#[test]
fn fig11_reaches_the_abstract_throughput() {
    let curve = fig11(5, f());
    assert!(curve.max_throughput() > 100_000.0);
}

#[test]
fn fig12_horizontal_overtakes_vertical() {
    let fig = fig12(6, f());
    assert!(fig.horizontal.max_throughput() > fig.vertical.max_throughput());
}

#[test]
fn headline_numbers_hold() {
    let h = headline(7, f());
    assert!(h.throughput_10_nodes_rps > 100_000.0);
    assert!(h.p90_decision_ms <= 3.0);
}

#[test]
fn fig13a_virtual_traces_match_paper_story() {
    let traces = janus_app::experiments::fig13a_virtual(2018);
    let custom = &traces[0];
    let default_rule = &traces[1];
    // Custom rule: full 130 req/s early, settles at ~100/s.
    assert!(custom.series.mean_accepted_rate(1, 15) > 120.0);
    assert!((95.0..106.0).contains(&custom.series.mean_accepted_rate(60, 100)));
    // Default rule: throttled to ~10/s within seconds.
    assert!((9.0..11.5).contains(&default_rule.series.mean_accepted_rate(10, 100)));
}

#[test]
fn experiments_are_deterministic() {
    let a = fig11(9, f());
    let b = fig11(9, f());
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.throughput_rps, y.throughput_rps);
    }
}
