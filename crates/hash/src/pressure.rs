//! Key-pressure analysis: how evenly routing spreads keys over servers.
//!
//! The paper defines *key pressure* as the percentage of the key population
//! a QoS server receives; with `N` servers a perfectly uniform router gives
//! every server `100/N` percent. Fig. 6 reports, for 500 000 keys of each
//! family routed across 20 servers, a minimum pressure of 4.933 %, a
//! maximum of 5.065 % and standard deviations below 0.03 %.

use crate::keygen::{KeyFamily, KeyGenerator};
use crate::routing::Router;

/// Distribution of one key population across the QoS-server fleet.
#[derive(Debug, Clone)]
pub struct KeyPressure {
    /// Key family the population was drawn from (None for ad-hoc key sets).
    pub family: Option<KeyFamily>,
    /// Number of keys routed.
    pub total_keys: usize,
    /// Keys received per server.
    pub per_server: Vec<usize>,
}

janus_types::impl_to_json!(KeyPressure {
    family,
    total_keys,
    per_server,
});

impl KeyPressure {
    /// Route `keys` strings through `router` and tally per-server counts.
    pub fn measure_strings<R: Router>(router: &R, keys: impl IntoIterator<Item = String>) -> Self {
        let mut per_server = vec![0usize; router.backends()];
        let mut total = 0usize;
        for key in keys {
            let k = janus_types::QosKey::new(&key).expect("valid key");
            per_server[router.route(&k)] += 1;
            total += 1;
        }
        KeyPressure {
            family: None,
            total_keys: total,
            per_server,
        }
    }

    /// Generate `count` keys of `family` (seeded) and measure their spread.
    pub fn measure_family<R: Router>(
        router: &R,
        family: KeyFamily,
        count: usize,
        seed: u64,
    ) -> Self {
        let mut gen = KeyGenerator::new(family, seed);
        let mut per_server = vec![0usize; router.backends()];
        for _ in 0..count {
            let key = gen.next_string();
            per_server[router_route_str(router, &key)] += 1;
        }
        KeyPressure {
            family: Some(family),
            total_keys: count,
            per_server,
        }
    }

    /// Pressure (fraction of the population) on each server, as percents.
    pub fn percentages(&self) -> Vec<f64> {
        self.per_server
            .iter()
            .map(|&c| 100.0 * c as f64 / self.total_keys.max(1) as f64)
            .collect()
    }

    /// Smallest per-server pressure, percent.
    pub fn min_percent(&self) -> f64 {
        self.percentages().into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Largest per-server pressure, percent.
    pub fn max_percent(&self) -> f64 {
        self.percentages().into_iter().fold(0.0, f64::max)
    }

    /// Population standard deviation of per-server pressure, percent.
    pub fn stddev_percent(&self) -> f64 {
        let pct = self.percentages();
        let n = pct.len() as f64;
        let mean = pct.iter().sum::<f64>() / n;
        (pct.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n).sqrt()
    }

    /// The uniform ideal: `100 / servers` percent.
    pub fn ideal_percent(&self) -> f64 {
        100.0 / self.per_server.len() as f64
    }
}

fn router_route_str<R: Router>(router: &R, key: &str) -> usize {
    let k = janus_types::QosKey::new(key).expect("valid key");
    router.route(&k)
}

/// The full Fig. 6 study: all four families routed over one fleet.
#[derive(Debug, Clone)]
pub struct PressureReport {
    /// Number of QoS servers behind the router layer.
    pub servers: usize,
    /// Keys per family.
    pub keys_per_family: usize,
    /// One measurement per family, in [`KeyFamily::ALL`] order.
    pub measurements: Vec<KeyPressure>,
}

janus_types::impl_to_json!(PressureReport {
    servers,
    keys_per_family,
    measurements,
});

impl PressureReport {
    /// Run the study with the paper's parameters by default
    /// (`servers = 20`, `keys_per_family = 500_000`).
    pub fn run<R: Router>(router: &R, keys_per_family: usize, seed: u64) -> Self {
        let measurements = KeyFamily::ALL
            .iter()
            .map(|&family| KeyPressure::measure_family(router, family, keys_per_family, seed))
            .collect();
        PressureReport {
            servers: router.backends(),
            keys_per_family,
            measurements,
        }
    }

    /// Global minimum pressure across all families, percent.
    pub fn global_min_percent(&self) -> f64 {
        self.measurements
            .iter()
            .map(KeyPressure::min_percent)
            .fold(f64::INFINITY, f64::min)
    }

    /// Global maximum pressure across all families, percent.
    pub fn global_max_percent(&self) -> f64 {
        self.measurements
            .iter()
            .map(KeyPressure::max_percent)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::ModuloRouter;

    #[test]
    fn counts_sum_to_total() {
        let router = ModuloRouter::new(20);
        let p = KeyPressure::measure_family(&router, KeyFamily::Uuid, 10_000, 1);
        assert_eq!(p.per_server.iter().sum::<usize>(), 10_000);
        assert_eq!(p.per_server.len(), 20);
    }

    #[test]
    fn percentages_sum_to_100() {
        let router = ModuloRouter::new(20);
        let p = KeyPressure::measure_family(&router, KeyFamily::Timestamp, 5_000, 1);
        let sum: f64 = p.percentages().iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    /// The paper's Fig. 6 claim at reduced scale: pressure within ±0.5 % of
    /// the 5 % ideal for every family. (The full 500 k-key run lives in the
    /// fig6 bench binary.)
    #[test]
    fn all_families_near_uniform_on_20_servers() {
        let router = ModuloRouter::new(20);
        let report = PressureReport::run(&router, 50_000, 2018);
        for m in &report.measurements {
            let family = m.family.unwrap();
            assert!(
                m.min_percent() > 4.3,
                "{family:?} min pressure {}",
                m.min_percent()
            );
            assert!(
                m.max_percent() < 5.7,
                "{family:?} max pressure {}",
                m.max_percent()
            );
            assert!(
                m.stddev_percent() < 0.3,
                "{family:?} stddev {}",
                m.stddev_percent()
            );
        }
    }

    #[test]
    fn ideal_percent_is_uniform_share() {
        let router = ModuloRouter::new(20);
        let p = KeyPressure::measure_family(&router, KeyFamily::Uuid, 100, 1);
        assert!((p.ideal_percent() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn measure_strings_ad_hoc() {
        let router = ModuloRouter::new(2);
        let p = KeyPressure::measure_strings(
            &router,
            ["a", "b", "c", "d"].into_iter().map(String::from),
        );
        assert_eq!(p.total_keys, 4);
        assert_eq!(p.per_server.iter().sum::<usize>(), 4);
        assert!(p.family.is_none());
    }

    #[test]
    fn report_global_bounds_bracket_family_bounds() {
        let router = ModuloRouter::new(10);
        let report = PressureReport::run(&router, 10_000, 7);
        for m in &report.measurements {
            assert!(report.global_min_percent() <= m.min_percent() + 1e-12);
            assert!(report.global_max_percent() >= m.max_percent() - 1e-12);
        }
    }
}
