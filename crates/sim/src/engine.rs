//! Discrete-event machinery: the event queue and random variates.

use janus_hash::rng::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in nanoseconds.
pub type SimTime = u64;

/// A deterministic future-event list.
///
/// Events at equal timestamps pop in insertion order (a monotonic
/// sequence number breaks ties), so runs are reproducible regardless of
/// heap internals.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventBox<E>)>>,
    seq: u64,
}

/// Wrapper that exempts the payload from ordering.
#[derive(Debug)]
struct EventBox<E>(E);

impl<E> PartialEq for EventBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventBox<E> {}
impl<E> PartialOrd for EventBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.heap.push(Reverse((at, self.seq, EventBox(event))));
        self.seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse((at, _, ev))| (at, ev.0))
    }

    /// Events still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Seeded random variates for the model, drawn from the in-tree
/// [`janus_hash::rng::Rng`] (xoshiro256++), so the whole simulation is a
/// pure function of the seed with no external-crate sequence drift.
#[derive(Debug)]
pub struct SimRng {
    rng: Rng,
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Deterministic generator from `seed`.
    pub fn new(seed: u64) -> Self {
        SimRng {
            rng: Rng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen_f64()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(n as u64) as usize
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_f64() < p
    }

    /// Standard normal via Box–Muller (cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0).
        let u1: f64 = loop {
            let u = self.rng.gen_f64();
            if u > 1e-12 {
                break u;
            }
        };
        let u2: f64 = self.rng.gen_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Lognormal with the given *mean* and log-space sigma, in
    /// nanoseconds, from a mean given in microseconds.
    pub fn lognormal_us(&mut self, mean_us: f64, sigma: f64) -> SimTime {
        if mean_us <= 0.0 {
            return 0;
        }
        let mu = mean_us.ln() - sigma * sigma / 2.0;
        let sample_us = (mu + sigma * self.normal()).exp();
        (sample_us * 1_000.0) as SimTime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_hash::rng::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.lognormal_us(100.0, 0.4), b.lognormal_us(100.0, 0.4));
        }
    }

    #[test]
    fn normal_has_unit_moments() {
        let mut rng = SimRng::new(7);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.normal();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn lognormal_mean_matches_request() {
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let mut sum = 0u128;
        for _ in 0..n {
            sum += rng.lognormal_us(367.0, 0.2) as u128;
        }
        let mean_us = sum as f64 / n as f64 / 1_000.0;
        assert!((mean_us - 367.0).abs() / 367.0 < 0.02, "mean {mean_us}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn queue_always_pops_nondecreasing() {
        let mut rng = Rng::seed_from_u64(0x51E_0001);
        for _ in 0..256 {
            let mut q = EventQueue::new();
            let pushed = rng.gen_range_inclusive(1, 199);
            for _ in 0..pushed {
                let t = rng.gen_range(1_000_000);
                q.push(t, t);
            }
            let (mut prev, mut popped) = (0, 0);
            while let Some((at, _)) = q.pop() {
                assert!(at >= prev);
                prev = at;
                popped += 1;
            }
            assert_eq!(popped, pushed);
        }
    }

    #[test]
    fn lognormal_is_bounded() {
        let mut draw = Rng::seed_from_u64(0x51E_0002);
        for _ in 0..256 {
            let mean = 1.0 + draw.gen_f64() * 9_999.0;
            let sigma = draw.gen_f64();
            let mut rng = SimRng::new(9);
            for _ in 0..100 {
                // Zero is possible only from rounding sub-nanosecond samples.
                let v = rng.lognormal_us(mean, sigma);
                assert!(v < (mean * 1000.0 * 1000.0) as u64);
            }
        }
    }
}
