//! Ablation studies beyond the paper's figures (DESIGN.md §4).
//!
//! The paper makes several design choices without quantifying their
//! sensitivity; these sweeps do:
//!
//! * [`loss_sweep`] — how UDP loss interacts with the 100 µs × 5-retry
//!   discipline: decision latency percentiles and the default-reply rate
//!   as loss grows.
//! * [`lock_sweep`] — synchronized vs sharded QoS table across instance
//!   sizes: where the global lock starts to bind.
//! * [`dns_skew`] — DNS load balancing with M routers and N client hosts:
//!   the idle-router fraction the paper warns about when M > N (§V-A).

use super::Fidelity;
use crate::catalog::{C3_8XLARGE, C3_FAMILY, C3_XLARGE};
use crate::model::{simulate, ClusterSpec, LockModel, SimLbMode};

/// One point of the UDP-loss ablation.
#[derive(Debug, Clone)]
pub struct LossPoint {
    /// Per-direction datagram loss probability.
    pub loss: f64,
    /// Average decision latency, µs.
    pub average_us: f64,
    /// P99 decision latency, µs.
    pub p99_us: f64,
    /// Fraction of requests answered by the router's default reply.
    pub default_rate: f64,
    /// Throughput, req/s.
    pub throughput_rps: f64,
}

janus_types::impl_to_json!(LossPoint {
    loss,
    average_us,
    p99_us,
    default_rate,
    throughput_rps,
});

/// Sweep UDP loss from 0 to 50 % on a lightly-loaded deployment.
pub fn loss_sweep(seed: u64, f: Fidelity) -> Vec<LossPoint> {
    [0.0, 0.01, 0.05, 0.10, 0.20, 0.35, 0.50]
        .iter()
        .map(|&loss| {
            let spec = ClusterSpec {
                clients: 16, // light load: isolates the retry latency
                loss_probability: loss,
                warmup: f.warmup,
                measure: f.measure,
                ..ClusterSpec::saturation(vec![C3_8XLARGE; 2], vec![C3_8XLARGE; 2], seed)
            };
            let report = simulate(&spec);
            LossPoint {
                loss,
                average_us: report.latency.average_us,
                p99_us: report.latency.p99_us,
                default_rate: report.defaulted as f64 / report.completed.max(1) as f64,
                throughput_rps: report.throughput_rps,
            }
        })
        .collect()
}

/// One point of the lock ablation.
#[derive(Debug, Clone)]
pub struct LockPoint {
    /// QoS server instance type.
    pub instance: &'static str,
    /// vCPUs.
    pub vcpus: u32,
    /// Throughput with the synchronized (single-lock) table, req/s.
    pub synchronized_rps: f64,
    /// Throughput with the 64-way sharded table, req/s.
    pub sharded_rps: f64,
    /// QoS CPU utilization under the synchronized table.
    pub synchronized_cpu: f64,
}

janus_types::impl_to_json!(LockPoint {
    instance,
    vcpus,
    synchronized_rps,
    sharded_rps,
    synchronized_cpu,
});

/// Compare both table disciplines on each c3 size (5 big routers).
pub fn lock_sweep(seed: u64, f: Fidelity) -> Vec<LockPoint> {
    C3_FAMILY
        .iter()
        .map(|&instance| {
            let base = ClusterSpec {
                clients: f.clients,
                warmup: f.warmup,
                measure: f.measure,
                ..ClusterSpec::saturation(vec![C3_8XLARGE; 5], vec![instance], seed)
            };
            let mut synchronized = base.clone();
            synchronized.lock = LockModel::Synchronized;
            let mut sharded = base;
            sharded.lock = LockModel::Sharded(64);
            let sync_report = simulate(&synchronized);
            let sharded_report = simulate(&sharded);
            LockPoint {
                instance: instance.name,
                vcpus: instance.vcpus,
                synchronized_rps: sync_report.throughput_rps,
                sharded_rps: sharded_report.throughput_rps,
                synchronized_cpu: sync_report.mean_qos_cpu(),
            }
        })
        .collect()
}

/// One point of the DNS-skew ablation.
#[derive(Debug, Clone)]
pub struct SkewPoint {
    /// Router fleet size M.
    pub routers: usize,
    /// Client host count N.
    pub clients: usize,
    /// Routers that received effectively no traffic (CPU < 1 %).
    pub idle_routers: usize,
    /// Max/mean router CPU ratio (1.0 = perfectly even).
    pub imbalance: f64,
}

janus_types::impl_to_json!(SkewPoint {
    routers,
    clients,
    idle_routers,
    imbalance,
});

/// DNS load balancing with client-side caching: sweep client counts
/// against a 4-router fleet. With N < M, `M - N` routers idle for the
/// whole TTL cycle — the skew that made the paper pick the gateway LB.
pub fn dns_skew(seed: u64, f: Fidelity) -> Vec<SkewPoint> {
    [1usize, 2, 4, 8, 32]
        .iter()
        .map(|&clients| {
            let spec = ClusterSpec {
                lb: SimLbMode::Dns,
                clients,
                warmup: f.warmup,
                measure: f.measure,
                ..ClusterSpec::saturation(vec![C3_XLARGE; 4], vec![C3_8XLARGE], seed)
            };
            let report = simulate(&spec);
            let mean_cpu = report.mean_router_cpu().max(1e-9);
            let max_cpu = report.router_cpu.iter().copied().fold(0.0, f64::max);
            SkewPoint {
                routers: 4,
                clients,
                idle_routers: report.router_cpu.iter().filter(|&&c| c < 0.01).count(),
                imbalance: max_cpu / mean_cpu,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> Fidelity {
        Fidelity::quick()
    }

    #[test]
    fn loss_sweep_monotone_in_pain() {
        let points = loss_sweep(1, f());
        assert_eq!(points.len(), 7);
        // Clean network: no defaults, baseline latency.
        assert_eq!(points[0].default_rate, 0.0);
        // Latency and default rate grow with loss. The retry budget caps
        // the added tail at ~(retries × timeout) = 500 µs, so the bound
        // is absolute, not multiplicative.
        let worst = points.last().unwrap();
        assert!(
            worst.average_us > points[0].average_us + 100.0,
            "average grew only {} -> {}",
            points[0].average_us,
            worst.average_us
        );
        assert!(
            worst.p99_us > points[0].p99_us + 50.0,
            "P99 grew only {} -> {}",
            points[0].p99_us,
            worst.p99_us
        );
        assert!(worst.default_rate > 0.05);
        for pair in points.windows(2) {
            assert!(
                pair[1].default_rate >= pair[0].default_rate - 0.01,
                "default rate not monotone: {pair:?}"
            );
        }
    }

    #[test]
    fn lock_sweep_gap_opens_with_size() {
        let points = lock_sweep(2, f());
        // Small instance: the lock never binds, disciplines equal.
        let small = &points[0];
        assert!(
            (small.sharded_rps / small.synchronized_rps - 1.0).abs() < 0.08,
            "small instance gap: {small:?}"
        );
        // Biggest instance: sharding wins significantly.
        let big = points.last().unwrap();
        assert!(
            big.sharded_rps > big.synchronized_rps * 1.15,
            "big instance gap missing: {big:?}"
        );
    }

    #[test]
    fn dns_skew_matches_paper_warning() {
        let points = dns_skew(3, f());
        // 1 client, 4 routers: 3 routers idle.
        assert_eq!(points[0].idle_routers, 3, "{:?}", points[0]);
        // 32 clients over 4 routers: nobody idle, modest imbalance.
        let crowded = points.last().unwrap();
        assert_eq!(crowded.idle_routers, 0, "{crowded:?}");
        assert!(crowded.imbalance < 1.5, "{crowded:?}");
    }
}

/// One point of the tenant-skew ablation.
#[derive(Debug, Clone)]
pub struct SkewLoadPoint {
    /// Zipf exponent over partitions (0 = the paper's uniform workload).
    pub exponent: f64,
    /// Fleet throughput, req/s.
    pub throughput_rps: f64,
    /// Hottest partition's CPU utilization.
    pub hottest_cpu: f64,
    /// Coldest partition's CPU utilization.
    pub coldest_cpu: f64,
}

janus_types::impl_to_json!(SkewLoadPoint {
    exponent,
    throughput_rps,
    hottest_cpu,
    coldest_cpu,
});

/// Tenant-popularity skew vs fleet throughput: mod-N hashing cannot
/// split one hot tenant across partitions, so a skewed tenant mix
/// saturates one QoS server while the rest idle. The paper evaluates a
/// uniform 100 M-key workload; this sweep quantifies how far that
/// assumption carries.
pub fn skew_sweep(seed: u64, f: Fidelity) -> Vec<SkewLoadPoint> {
    [0.0, 0.3, 0.6, 0.9, 1.2]
        .iter()
        .map(|&exponent| {
            let spec = crate::model::ClusterSpec {
                clients: f.clients,
                warmup: f.warmup,
                measure: f.measure,
                partition_skew: (exponent > 0.0).then_some(exponent),
                ..crate::model::ClusterSpec::saturation(
                    vec![C3_8XLARGE; 5],
                    vec![C3_XLARGE; 8],
                    seed,
                )
            };
            let report = simulate(&spec);
            SkewLoadPoint {
                exponent,
                throughput_rps: report.throughput_rps,
                hottest_cpu: report.qos_cpu.iter().copied().fold(0.0, f64::max),
                coldest_cpu: report.qos_cpu.iter().copied().fold(f64::INFINITY, f64::min),
            }
        })
        .collect()
}

#[cfg(test)]
mod skew_tests {
    use super::*;

    #[test]
    fn skew_degrades_throughput_and_creates_hot_partitions() {
        let points = skew_sweep(11, Fidelity::quick());
        let uniform = &points[0];
        let worst = points.last().unwrap();
        // Uniform workload keeps the fleet balanced.
        assert!(
            uniform.hottest_cpu - uniform.coldest_cpu < 0.15,
            "uniform should be balanced: {uniform:?}"
        );
        // Heavy skew: a hot partition saturates while others idle, and
        // fleet throughput collapses well below the balanced case.
        assert!(worst.hottest_cpu > 0.9, "{worst:?}");
        assert!(worst.coldest_cpu < worst.hottest_cpu / 2.0, "{worst:?}");
        assert!(
            worst.throughput_rps < uniform.throughput_rps * 0.6,
            "skew should cost throughput: {} vs {}",
            worst.throughput_rps,
            uniform.throughput_rps
        );
        // Monotone-ish degradation.
        assert!(points[2].throughput_rps <= uniform.throughput_rps * 1.02);
    }
}
