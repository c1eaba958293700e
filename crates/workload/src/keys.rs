//! Key selection over a population (which tenant issues each request).

use janus_hash::rng::Rng;
use janus_types::QosKey;

/// Picks the QoS key for each generated request.
///
/// * `Uniform` — every tenant equally likely, the paper's `ab` runs over
///   100 M keys.
/// * `Zipf` — a few hot tenants dominate, the realistic SaaS case and a
///   stress test for per-partition hot spots.
/// * `Single` — one tenant, the Fig. 13 photo-sharing client.
/// * `DriftingZipf` — Zipf over a sliding window of synthesized keys
///   whose base advances every `drift_every` picks, so the hot working
///   set churns through an unbounded keyspace. This is the keyspace-soak
///   workload: old hot keys go cold (reclaim fodder) while new ones keep
///   arriving.
#[derive(Debug)]
pub struct KeyPicker {
    keys: Vec<QosKey>,
    rng: Rng,
    /// Precomputed cumulative distribution for Zipf; empty means uniform.
    cdf: Vec<f64>,
    /// Sliding-window synthesis state; `None` for the fixed populations.
    drift: Option<Drift>,
}

/// Sliding-window state for [`KeyPicker::drifting_zipf`]: keys are
/// synthesized as `{prefix}{base + rank}` instead of drawn from a fixed
/// vector, so a soak can cycle tens of millions of distinct keys without
/// materializing them up front.
#[derive(Debug)]
struct Drift {
    prefix: String,
    base: u64,
    drift_every: u64,
    picks: u64,
}

/// Normalized Zipf(`exponent`) CDF over `n` ranks (rank 0 hottest).
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    assert!(
        exponent.is_finite() && exponent > 0.0,
        "zipf exponent must be positive"
    );
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += 1.0 / (rank as f64).powf(exponent);
        cdf.push(acc);
    }
    let total = acc;
    for p in &mut cdf {
        *p /= total;
    }
    cdf
}

impl KeyPicker {
    /// Uniform selection over `keys`.
    ///
    /// # Panics
    /// Panics if `keys` is empty.
    pub fn uniform(keys: Vec<QosKey>, seed: u64) -> Self {
        assert!(!keys.is_empty(), "key population must be non-empty");
        KeyPicker {
            keys,
            rng: Rng::seed_from_u64(seed),
            cdf: Vec::new(),
            drift: None,
        }
    }

    /// Zipf(`exponent`) selection over `keys`; rank 0 is the hottest.
    ///
    /// # Panics
    /// Panics if `keys` is empty or `exponent` is not finite/positive.
    pub fn zipf(keys: Vec<QosKey>, exponent: f64, seed: u64) -> Self {
        assert!(!keys.is_empty(), "key population must be non-empty");
        let cdf = zipf_cdf(keys.len(), exponent);
        KeyPicker {
            keys,
            rng: Rng::seed_from_u64(seed),
            cdf,
            drift: None,
        }
    }

    /// Zipf(`exponent`) over a sliding window of `window` synthesized
    /// keys `{prefix}{base + rank}`; the window base advances by one
    /// every `drift_every` picks (`0` never drifts), so the hot set
    /// churns through an unbounded keyspace while staying head-heavy at
    /// every instant.
    ///
    /// # Panics
    /// Panics if `window` is zero, `exponent` is not finite/positive, or
    /// `prefix` does not form valid QoS keys.
    pub fn drifting_zipf(
        prefix: &str,
        window: usize,
        exponent: f64,
        drift_every: u64,
        seed: u64,
    ) -> Self {
        assert!(window > 0, "drift window must be non-empty");
        let cdf = zipf_cdf(window, exponent);
        // Fail fast on a bad prefix rather than mid-soak.
        QosKey::new(format!("{prefix}0")).expect("prefix must form valid QoS keys");
        KeyPicker {
            keys: Vec::new(),
            rng: Rng::seed_from_u64(seed),
            cdf,
            drift: Some(Drift {
                prefix: prefix.to_string(),
                base: 0,
                drift_every,
                picks: 0,
            }),
        }
    }

    /// Always the same key.
    pub fn single(key: QosKey) -> Self {
        KeyPicker {
            keys: vec![key],
            rng: Rng::seed_from_u64(0),
            cdf: Vec::new(),
            drift: None,
        }
    }

    /// Size of the key population: the instantaneous window for a
    /// drifting picker, the fixed vector length otherwise.
    pub fn population(&self) -> usize {
        if self.drift.is_some() {
            self.cdf.len()
        } else {
            self.keys.len()
        }
    }

    /// Current window base of a drifting picker (`0` for fixed
    /// populations): `base + population()` bounds the distinct keys
    /// emitted so far.
    pub fn drift_base(&self) -> u64 {
        self.drift.as_ref().map_or(0, |d| d.base)
    }

    /// Draw the key for the next request.
    pub fn pick(&mut self) -> QosKey {
        if let Some(drift) = self.drift.as_mut() {
            let u = self.rng.gen_f64();
            let rank = self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1) as u64;
            let key = QosKey::new(format!("{}{}", drift.prefix, drift.base + rank))
                .expect("prefix validated at construction");
            drift.picks += 1;
            if drift.drift_every > 0 && drift.picks % drift.drift_every == 0 {
                drift.base += 1;
            }
            return key;
        }
        let idx = if self.cdf.is_empty() {
            self.rng.gen_range(self.keys.len() as u64) as usize
        } else {
            let u = self.rng.gen_f64();
            self.cdf
                .partition_point(|&p| p < u)
                .min(self.keys.len() - 1)
        };
        self.keys[idx].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(n: usize) -> Vec<QosKey> {
        (0..n)
            .map(|i| QosKey::new(format!("tenant-{i}")).unwrap())
            .collect()
    }

    #[test]
    fn uniform_covers_population() {
        let mut picker = KeyPicker::uniform(population(10), 1);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let k = picker.pick();
            let idx: usize = k.as_str()["tenant-".len()..].parse().unwrap();
            counts[idx] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "tenant-{i} picked {c} times");
        }
    }

    #[test]
    fn zipf_is_head_heavy() {
        let mut picker = KeyPicker::zipf(population(100), 1.0, 1);
        let mut head = 0usize;
        let n = 10_000;
        for _ in 0..n {
            let k = picker.pick();
            let idx: usize = k.as_str()["tenant-".len()..].parse().unwrap();
            if idx < 10 {
                head += 1;
            }
        }
        // With s=1 over 100 ranks, the top 10 hold ~56% of the mass.
        assert!(
            head > n * 45 / 100,
            "head keys only picked {head}/{n} times"
        );
    }

    #[test]
    fn single_always_returns_same_key() {
        let mut picker = KeyPicker::single(QosKey::new("10.1.2.3").unwrap());
        for _ in 0..100 {
            assert_eq!(picker.pick().as_str(), "10.1.2.3");
        }
        assert_eq!(picker.population(), 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let a: Vec<_> = {
            let mut p = KeyPicker::uniform(population(50), 9);
            (0..100).map(|_| p.pick()).collect()
        };
        let b: Vec<_> = {
            let mut p = KeyPicker::uniform(population(50), 9);
            (0..100).map(|_| p.pick()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn drifting_zipf_cycles_many_distinct_keys() {
        let mut picker = KeyPicker::drifting_zipf("soak-", 16, 1.0, 4, 7);
        assert_eq!(picker.population(), 16);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(picker.pick());
        }
        // The base advances 10_000/4 = 2_500 times, so far more distinct
        // keys than any fixed 16-key window could ever produce.
        assert!(seen.len() > 2_000, "only {} distinct keys", seen.len());
        assert_eq!(picker.drift_base(), 2_500);
        // Every key stays inside [base, base + window) at pick time.
        for k in &seen {
            let n: u64 = k.as_str()["soak-".len()..].parse().unwrap();
            assert!(n < 2_500 + 16);
        }
    }

    #[test]
    fn drifting_zipf_is_deterministic_under_seed() {
        let run = || {
            let mut p = KeyPicker::drifting_zipf("soak-", 32, 1.2, 10, 42);
            (0..500).map(|_| p.pick()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn drift_every_zero_is_a_static_window() {
        let mut picker = KeyPicker::drifting_zipf("fix-", 8, 1.0, 0, 3);
        for _ in 0..1_000 {
            let k = picker.pick();
            let n: u64 = k.as_str()["fix-".len()..].parse().unwrap();
            assert!(n < 8, "static window leaked key {k:?}");
        }
        assert_eq!(picker.drift_base(), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_population_panics() {
        KeyPicker::uniform(Vec::new(), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_drift_window_panics() {
        KeyPicker::drifting_zipf("x-", 0, 1.0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_zipf_exponent_panics() {
        KeyPicker::zipf(population(3), 0.0, 0);
    }
}
