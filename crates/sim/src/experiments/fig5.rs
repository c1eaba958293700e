//! Fig. 5 — gateway LB vs DNS LB round-trip latency.
//!
//! Paper setup: two c3.8xlarge request routers, two c3.8xlarge QoS
//! servers, two single-threaded clients (~1000 req/s each, 100 k requests
//! per client), comparing the latency distribution through an ELB against
//! direct DNS-balanced connections.

use super::Fidelity;
use crate::catalog::C3_8XLARGE;
use crate::model::{simulate, ClusterSpec, SimLbMode};
use janus_workload::LatencyStats;

/// The two latency distributions of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// DNS load balancer path.
    pub dns: LatencyStats,
    /// Gateway load balancer path.
    pub gateway: LatencyStats,
}

janus_types::impl_to_json!(Fig5 { dns, gateway });

impl Fig5 {
    /// Average extra latency the gateway adds, µs (paper: ~500).
    pub fn gateway_overhead_us(&self) -> f64 {
        self.gateway.average_us - self.dns.average_us
    }
}

/// Run the Fig. 5 experiment.
pub fn fig5(seed: u64, fidelity: Fidelity) -> Fig5 {
    let base = ClusterSpec {
        clients: 2, // two single-thread client nodes, as in the paper
        warmup: fidelity.warmup,
        measure: fidelity.measure,
        ..ClusterSpec::saturation(vec![C3_8XLARGE; 2], vec![C3_8XLARGE; 2], seed)
    };

    let mut dns_spec = base.clone();
    dns_spec.lb = SimLbMode::Dns;
    let mut gateway_spec = base;
    gateway_spec.lb = SimLbMode::Gateway;

    Fig5 {
        dns: simulate(&dns_spec).latency,
        gateway: simulate(&gateway_spec).latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_shape() {
        let fig = fig5(2018, Fidelity::quick());
        // Paper: DNS avg 1140 µs / P90 1410 µs; gateway avg 1650 µs /
        // P90 2370 µs. The simulation should land in the same regime and
        // preserve the ordering at every percentile.
        assert!(
            (950.0..1400.0).contains(&fig.dns.average_us),
            "dns avg {}",
            fig.dns.average_us
        );
        assert!(
            (1400.0..2000.0).contains(&fig.gateway.average_us),
            "gateway avg {}",
            fig.gateway.average_us
        );
        assert!(
            (300.0..700.0).contains(&fig.gateway_overhead_us()),
            "overhead {}",
            fig.gateway_overhead_us()
        );
        assert!(fig.dns.p90_us < fig.gateway.p90_us);
        assert!(fig.dns.p99_us < fig.gateway.p99_us);
        assert!(fig.dns.p999_us < fig.gateway.p999_us);
        // Percentiles ordered within each mode.
        for stats in [&fig.dns, &fig.gateway] {
            assert!(stats.average_us < stats.p90_us);
            assert!(stats.p90_us < stats.p99_us);
            assert!(stats.p99_us <= stats.p999_us);
        }
    }
}
