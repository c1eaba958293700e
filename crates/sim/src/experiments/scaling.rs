//! Figs. 7–12 — vertical and horizontal scalability of the request
//! router and the QoS server layers, plus the §V headline numbers.

use super::Fidelity;
use crate::catalog::{InstanceType, C3_8XLARGE, C3_FAMILY, C3_XLARGE};
use crate::model::{simulate, ClusterSpec, SimReport};

/// One sweep point of a scalability figure.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Instance type of the scaled layer.
    pub instance: &'static str,
    /// Nodes in the scaled layer.
    pub nodes: usize,
    /// Total vCPUs in the scaled layer.
    pub vcpus: u32,
    /// Measured throughput, req/s.
    pub throughput_rps: f64,
    /// Mean CPU utilization of the router layer, 0–1.
    pub router_cpu: f64,
    /// Mean CPU utilization of the QoS server layer, 0–1.
    pub qos_cpu: f64,
}

janus_types::impl_to_json!(ScalingPoint {
    instance,
    nodes,
    vcpus,
    throughput_rps,
    router_cpu,
    qos_cpu,
});

/// A figure's series of sweep points.
#[derive(Debug, Clone)]
pub struct ScalingCurve {
    /// Figure id, e.g. "fig7".
    pub figure: &'static str,
    /// Sweep points in order.
    pub points: Vec<ScalingPoint>,
}

janus_types::impl_to_json!(ScalingCurve { figure, points });

impl ScalingCurve {
    /// Peak throughput over the sweep.
    pub fn max_throughput(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.throughput_rps)
            .fold(0.0, f64::max)
    }
}

fn point(instance: InstanceType, nodes: usize, report: &SimReport) -> ScalingPoint {
    ScalingPoint {
        instance: instance.name,
        nodes,
        vcpus: instance.vcpus * nodes as u32,
        throughput_rps: report.throughput_rps,
        router_cpu: report.mean_router_cpu(),
        qos_cpu: report.mean_qos_cpu(),
    }
}

fn run(routers: Vec<InstanceType>, qos: Vec<InstanceType>, seed: u64, f: Fidelity) -> SimReport {
    let spec = ClusterSpec {
        clients: f.clients,
        warmup: f.warmup,
        measure: f.measure,
        ..ClusterSpec::saturation(routers, qos, seed)
    };
    simulate(&spec)
}

/// Fig. 7 — request-router **vertical** scalability: one router node of
/// each c3 size against a fixed c3.8xlarge QoS server.
pub fn fig7(seed: u64, f: Fidelity) -> ScalingCurve {
    let points = C3_FAMILY
        .iter()
        .map(|&instance| {
            let report = run(vec![instance], vec![C3_8XLARGE], seed, f);
            point(instance, 1, &report)
        })
        .collect();
    ScalingCurve {
        figure: "fig7",
        points,
    }
}

/// Fig. 8 — request-router **horizontal** scalability: 1–10 c3.xlarge
/// routers against a fixed c3.8xlarge QoS server.
pub fn fig8(seed: u64, f: Fidelity) -> ScalingCurve {
    let points = (1..=10)
        .map(|n| {
            let report = run(vec![C3_XLARGE; n], vec![C3_8XLARGE], seed, f);
            point(C3_XLARGE, n, &report)
        })
        .collect();
    ScalingCurve {
        figure: "fig8",
        points,
    }
}

/// A vertical-vs-horizontal comparison at matching vCPU counts (Figs. 9
/// and 12).
#[derive(Debug, Clone)]
pub struct VerticalVsHorizontal {
    /// Figure id ("fig9" or "fig12").
    pub figure: &'static str,
    /// The vertical sweep (one node, growing instance size).
    pub vertical: ScalingCurve,
    /// The horizontal sweep (growing count of c3.xlarge nodes).
    pub horizontal: ScalingCurve,
}

janus_types::impl_to_json!(VerticalVsHorizontal {
    figure,
    vertical,
    horizontal,
});

impl VerticalVsHorizontal {
    /// Throughput of both strategies at `vcpus` total cores, when both
    /// sampled that point.
    pub fn at_vcpus(&self, vcpus: u32) -> (Option<f64>, Option<f64>) {
        let find = |curve: &ScalingCurve| {
            curve
                .points
                .iter()
                .find(|p| p.vcpus == vcpus)
                .map(|p| p.throughput_rps)
        };
        (find(&self.vertical), find(&self.horizontal))
    }
}

/// Fig. 9 — router layer, vertical vs horizontal at equal vCPUs.
pub fn fig9(seed: u64, f: Fidelity) -> VerticalVsHorizontal {
    VerticalVsHorizontal {
        figure: "fig9",
        vertical: ScalingCurve {
            figure: "fig9-vertical",
            points: fig7(seed, f).points,
        },
        horizontal: ScalingCurve {
            figure: "fig9-horizontal",
            points: fig8(seed, f).points,
        },
    }
}

/// Fig. 10 — QoS-server **vertical** scalability: five c3.8xlarge routers
/// against one QoS server of each c3 size.
pub fn fig10(seed: u64, f: Fidelity) -> ScalingCurve {
    let points = C3_FAMILY
        .iter()
        .map(|&instance| {
            let report = run(vec![C3_8XLARGE; 5], vec![instance], seed, f);
            point(instance, 1, &report)
        })
        .collect();
    ScalingCurve {
        figure: "fig10",
        points,
    }
}

/// Fig. 11 — QoS-server **horizontal** scalability: five c3.8xlarge
/// routers against 1–10 c3.xlarge QoS servers.
pub fn fig11(seed: u64, f: Fidelity) -> ScalingCurve {
    let points = (1..=10)
        .map(|n| {
            let report = run(vec![C3_8XLARGE; 5], vec![C3_XLARGE; n], seed, f);
            point(C3_XLARGE, n, &report)
        })
        .collect();
    ScalingCurve {
        figure: "fig11",
        points,
    }
}

/// Fig. 12 — QoS server layer, vertical vs horizontal at equal vCPUs.
pub fn fig12(seed: u64, f: Fidelity) -> VerticalVsHorizontal {
    VerticalVsHorizontal {
        figure: "fig12",
        vertical: ScalingCurve {
            figure: "fig12-vertical",
            points: fig10(seed, f).points,
        },
        horizontal: ScalingCurve {
            figure: "fig12-horizontal",
            points: fig11(seed, f).points,
        },
    }
}

/// The abstract/§V headline claims.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Throughput with 10 × 4-vCPU QoS server nodes (paper: >100 000
    /// req/s with 40 vCPU cores in the QoS server layer).
    pub throughput_10_nodes_rps: f64,
    /// P90 admission latency at that operating point, ms (paper: 90% of
    /// decisions within 3 ms).
    pub p90_decision_ms: f64,
}

janus_types::impl_to_json!(Headline {
    throughput_10_nodes_rps,
    p90_decision_ms,
});

/// Evaluate the headline claims on the Fig. 11 top configuration.
///
/// Throughput is measured at saturation; the latency claim is measured at
/// a moderate operating point (~70 % load), matching how the paper
/// obtains it — the 3 ms figure comes from the application-integration
/// runs, not from the saturated `ab` fleet (a saturated closed loop
/// necessarily shows queueing latency equal to in-flight ÷ capacity).
pub fn headline(seed: u64, f: Fidelity) -> Headline {
    let saturated = run(vec![C3_8XLARGE; 5], vec![C3_XLARGE; 10], seed, f);
    let moderate_spec = ClusterSpec {
        clients: 96,
        warmup: f.warmup,
        measure: f.measure,
        ..ClusterSpec::saturation(vec![C3_8XLARGE; 5], vec![C3_XLARGE; 10], seed)
    };
    let moderate = simulate(&moderate_spec);
    Headline {
        throughput_10_nodes_rps: saturated.throughput_rps,
        p90_decision_ms: moderate.latency.p90_us / 1_000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> Fidelity {
        Fidelity::quick()
    }

    #[test]
    fn fig7_router_vertical_grows_then_hits_qos_ceiling() {
        let curve = fig7(1, f());
        assert_eq!(curve.points.len(), 5);
        // Monotone non-decreasing throughput with instance size.
        for pair in curve.points.windows(2) {
            assert!(
                pair[1].throughput_rps >= pair[0].throughput_rps * 0.97,
                "throughput dropped: {pair:?}"
            );
        }
        // Small routers saturate their own CPU; the biggest router pushes
        // the pressure onto the QoS server (Fig. 7b).
        assert!(curve.points[0].router_cpu > 0.9);
        assert!(curve.points[4].qos_cpu > curve.points[0].qos_cpu);
        // c3.xlarge ≈ 10.5 k; c3.8xlarge approaches the QoS ceiling.
        let xl = curve.points[1].throughput_rps;
        assert!((9_000.0..12_000.0).contains(&xl), "c3.xlarge {xl}");
        let max = curve.max_throughput();
        assert!((70_000.0..95_000.0).contains(&max), "max {max}");
    }

    #[test]
    fn fig8_router_horizontal_linear_then_saturates() {
        let curve = fig8(2, f());
        assert_eq!(curve.points.len(), 10);
        let t1 = curve.points[0].throughput_rps;
        let t4 = curve.points[3].throughput_rps;
        assert!(
            (3.4..4.4).contains(&(t4 / t1)),
            "early scaling not linear: {t1} -> {t4}"
        );
        // Past ~8 nodes the QoS server is the bottleneck (paper): the
        // last two points gain little.
        let t8 = curve.points[7].throughput_rps;
        let t10 = curve.points[9].throughput_rps;
        assert!(t10 < t8 * 1.12, "should have saturated: t8={t8} t10={t10}");
        // Router CPU per node decreases as nodes are added (Fig. 8b).
        assert!(curve.points[9].router_cpu < curve.points[0].router_cpu);
    }

    #[test]
    fn fig9_vertical_matches_horizontal_for_routers() {
        // Paper: "approximately the same throughput, regardless of the
        // scaling technique" for the router layer.
        let fig = fig9(3, f());
        for vcpus in [4u32, 8, 16] {
            let (v, h) = fig.at_vcpus(vcpus);
            let (v, h) = (v.unwrap(), h.unwrap());
            let ratio = v / h;
            assert!(
                (0.85..1.2).contains(&ratio),
                "at {vcpus} vCPUs: vertical {v} vs horizontal {h}"
            );
        }
    }

    #[test]
    fn fig10_qos_vertical_underutilizes_big_instances() {
        let curve = fig10(4, f());
        assert_eq!(curve.points.len(), 5);
        for pair in curve.points.windows(2) {
            assert!(pair[1].throughput_rps >= pair[0].throughput_rps * 0.97);
        }
        // Big instance: lock-bound, CPU visibly below full (Fig. 10b).
        let big = &curve.points[4];
        assert!(
            (70_000.0..95_000.0).contains(&big.throughput_rps),
            "c3.8xlarge {}",
            big.throughput_rps
        );
        assert!(big.qos_cpu < 0.92, "qos cpu {}", big.qos_cpu);
        // Router layer (5 × c3.8xlarge) is deliberately overprovisioned.
        assert!(big.router_cpu < 0.75, "router cpu {}", big.router_cpu);
    }

    #[test]
    fn fig11_qos_horizontal_is_linear_to_125k() {
        let curve = fig11(5, f());
        let t1 = curve.points[0].throughput_rps;
        let t10 = curve.points[9].throughput_rps;
        assert!((11_000.0..15_500.0).contains(&t1), "one node {t1}");
        assert!(
            (8.0..11.0).contains(&(t10 / t1)),
            "not linear: {t1} -> {t10}"
        );
        assert!(t10 > 100_000.0, "10 nodes only reached {t10}");
    }

    #[test]
    fn fig12_vertical_slightly_ahead_then_overtaken() {
        let fig = fig12(6, f());
        // Mid-range: vertical slightly higher at equal vCPUs.
        let (v16, h16) = fig.at_vcpus(16);
        let (v16, h16) = (v16.unwrap(), h16.unwrap());
        assert!(
            v16 > h16 * 0.98,
            "vertical should be at least on par at 16 vCPUs: {v16} vs {h16}"
        );
        // End-range: horizontal keeps scaling past the biggest instance.
        let best_vertical = fig.vertical.max_throughput();
        let best_horizontal = fig.horizontal.max_throughput();
        assert!(
            best_horizontal > best_vertical * 1.2,
            "horizontal {best_horizontal} vs vertical {best_vertical}"
        );
    }

    #[test]
    fn headline_claims_hold() {
        let h = headline(7, f());
        assert!(
            h.throughput_10_nodes_rps > 100_000.0,
            "headline throughput {}",
            h.throughput_10_nodes_rps
        );
        assert!(
            h.p90_decision_ms < 3.0,
            "P90 decision latency {} ms",
            h.p90_decision_ms
        );
    }
}
