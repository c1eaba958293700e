//! Calibration constants for the cluster model.
//!
//! Each constant is anchored to a number the paper reports; the
//! *structure* of the model (cores, lock, hops, retries) then produces
//! the rest of the figures without per-figure tuning. Provenance:
//!
//! | Constant | Anchor |
//! |----------|--------|
//! | `router_service_us` ≈ 367 µs | Fig. 8a: one c3.xlarge router (4 vCPU) peaks near 10.5 k req/s. |
//! | `qos_phase_a_us + qos_phase_b_us` ≈ 272 µs | Fig. 11a: one c3.xlarge QoS server sustains ~12.5 k req/s at ~full CPU. |
//! | `qos_lock_us` ≈ 11.4 µs | Fig. 10a: a c3.8xlarge QoS server (32 vCPU) saturates near 88 k req/s with visible CPU underutilization (Fig. 10b) — the synchronized-map bound `1/L`. |
//! | `background_cores` = 0.15 | Fig. 12: at equal vCPU counts vertical scaling is *slightly* ahead of horizontal — consistent with a fixed per-node OS/listener overhead that smaller nodes amortize worse. |
//! | `tcp_hop_us` ≈ 150 µs, `udp_hop_us` ≈ 100 µs | Fig. 5: DNS-LB round trip averages 1140 µs = client hop + router service + 2 UDP hops + server service + return hop. |
//! | `gateway_extra_us` ≈ 500 µs | Fig. 5: "using the gateway load balancer adds approximately 500 microseconds". |
//! | `udp_timeout_us` = 100, `udp_retries` = 5 | §III-B, verbatim. |

/// All tunable constants of the cluster model.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Mean router CPU time per request, µs (PHP request handling +
    /// UDP exchange management).
    pub router_service_us: f64,
    /// Mean QoS-server CPU time before the table lock, µs (datagram
    /// decode, queue handling).
    pub qos_phase_a_us: f64,
    /// Mean QoS-server CPU time after the lock, µs (response encode +
    /// send).
    pub qos_phase_b_us: f64,
    /// Mean critical-section length under the QoS-table lock, µs.
    pub qos_lock_us: f64,
    /// Fraction of one core each node permanently spends on OS noise,
    /// interrupt handling and listener threads.
    pub background_cores: f64,
    /// Median one-way client↔router latency, µs (TCP, in-AZ).
    pub tcp_hop_us: f64,
    /// Median one-way router↔QoS-server latency, µs (UDP, in-AZ).
    pub udp_hop_us: f64,
    /// Extra latency a gateway LB adds to a round trip, µs (its own
    /// connect + proxy hop).
    pub gateway_extra_us: f64,
    /// Lognormal sigma for network hops (tail heaviness).
    pub hop_sigma: f64,
    /// Lognormal sigma for CPU service times.
    pub service_sigma: f64,
    /// Router→server retry timeout, µs (paper: 100).
    pub udp_timeout_us: f64,
    /// Maximum retries after the first attempt (paper: 5).
    pub udp_retries: u32,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            router_service_us: 367.0,
            qos_phase_a_us: 170.0,
            qos_phase_b_us: 102.0,
            qos_lock_us: 11.4,
            background_cores: 0.15,
            tcp_hop_us: 150.0,
            udp_hop_us: 100.0,
            gateway_extra_us: 500.0,
            hop_sigma: 0.45,
            service_sigma: 0.20,
            udp_timeout_us: 100.0,
            udp_retries: 5,
        }
    }
}

impl Calibration {
    /// Effective per-request service time on a node with `cores` vCPUs:
    /// the background load is folded in by inflating service times, which
    /// preserves capacity `(cores - background) / service`.
    pub fn effective_service_us(&self, base_us: f64, cores: u32) -> f64 {
        let cores = cores as f64;
        base_us * cores / (cores - self.background_cores)
    }

    /// Ideal (queueing-free) capacity of a router node, req/s.
    pub fn router_capacity(&self, cores: u32) -> f64 {
        (cores as f64 - self.background_cores) / (self.router_service_us * 1e-6)
    }

    /// Ideal core-bound capacity of a QoS server node, req/s.
    pub fn qos_core_capacity(&self, cores: u32) -> f64 {
        (cores as f64 - self.background_cores)
            / ((self.qos_phase_a_us + self.qos_phase_b_us) * 1e-6)
    }

    /// Lock-bound capacity of a QoS server node, req/s.
    pub fn qos_lock_capacity(&self, lock_ways: u32) -> f64 {
        lock_ways as f64 / (self.qos_lock_us * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_paper_anchors() {
        let c = Calibration::default();
        // c3.xlarge router ≈ 10.5 k req/s (Fig. 8a).
        let router = c.router_capacity(4);
        assert!((10_000.0..11_200.0).contains(&router), "router {router}");
        // c3.xlarge QoS server ≈ 12.5-14 k req/s (Fig. 11a).
        let qos = c.qos_core_capacity(4);
        assert!((12_000.0..14_800.0).contains(&qos), "qos {qos}");
        // Synchronized-lock ceiling ≈ 88 k req/s (Fig. 10a).
        let lock = c.qos_lock_capacity(1);
        assert!((80_000.0..95_000.0).contains(&lock), "lock {lock}");
        // c3.8xlarge core bound exceeds the lock bound: the lock is what
        // saturates the big instance.
        assert!(c.qos_core_capacity(32) > lock);
    }

    #[test]
    fn vertical_beats_horizontal_slightly_at_equal_cores() {
        let c = Calibration::default();
        // 16 vCPUs: one c3.4xlarge vs four c3.xlarge.
        let vertical = c.qos_core_capacity(16);
        let horizontal = 4.0 * c.qos_core_capacity(4);
        assert!(vertical > horizontal, "{vertical} <= {horizontal}");
        assert!(vertical / horizontal < 1.1, "gap too large");
    }

    #[test]
    fn effective_service_preserves_capacity() {
        let c = Calibration::default();
        let s_eff = c.effective_service_us(367.0, 4);
        let capacity = 4.0 / (s_eff * 1e-6);
        assert!((capacity - c.router_capacity(4)).abs() < 1.0);
    }

    #[test]
    fn fig5_latency_budget_sums_to_paper_average() {
        // DNS-LB path: tcp + router + udp + (A + L + B) + udp + tcp.
        let c = Calibration::default();
        let budget = c.tcp_hop_us
            + c.router_service_us
            + c.udp_hop_us
            + c.qos_phase_a_us
            + c.qos_lock_us
            + c.qos_phase_b_us
            + c.udp_hop_us
            + c.tcp_hop_us;
        assert!(
            (1050.0..1250.0).contains(&budget),
            "DNS budget {budget} vs paper 1140 µs"
        );
        // Gateway adds ~500 µs -> ~1650 µs.
        let gateway = budget + c.gateway_extra_us;
        assert!((1550.0..1750.0).contains(&gateway), "gateway {gateway}");
    }
}
