//! The in-tree microbenchmark harness behind `benches/*.rs`.
//!
//! A benchmark is warmed up, its iteration count calibrated so one sample
//! takes about [`SAMPLE_TARGET`], and then sampled `sample_size` times;
//! the report is the median and p99 nanoseconds per iteration over the
//! samples (plus bytes or elements per second when a throughput is
//! declared). `cargo bench` prints one line per benchmark; with `--json`
//! after `--`, one JSON document per bench binary.
//!
//! The surface is the handful of names the bench files use — groups,
//! ids, `iter` / `iter_custom`, `sample_size`, `throughput` — nothing
//! more.

use janus_types::json::{Json, ToJson};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How long the warm-up runs before sampling starts.
const WARM_UP: Duration = Duration::from_millis(100);
/// How long one sample should take; the iteration count is calibrated
/// during warm-up to hit it.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);

/// What one iteration processes, for the derived rate column.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes per iteration.
    Bytes(u64),
    /// Elements (requests, decisions, …) per iteration.
    Elements(u64),
}

/// `function/parameter` — a benchmark's name within its group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function` measured at `parameter`.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId(name.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId(name)
    }
}

/// One finished benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full name, `group/function/parameter`.
    pub name: String,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// 99th-percentile nanoseconds per iteration (over samples).
    pub p99_ns: f64,
    /// Bytes or elements per second at the median, when declared.
    pub per_second: Option<f64>,
}

janus_types::impl_to_json!(Measurement {
    name,
    samples,
    iters_per_sample,
    median_ns,
    p99_ns,
    per_second,
});

/// The harness: collects measurements, prints them as they finish.
#[derive(Debug)]
pub struct Harness {
    sample_size: usize,
    json: bool,
    results: Vec<Measurement>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            sample_size: 30,
            json: std::env::args().any(|arg| arg == "--json"),
            results: Vec::new(),
        }
    }
}

impl Harness {
    /// Samples per benchmark (groups may override).
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.sample_size = samples.max(2);
        self
    }

    /// A named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            sample_size: self.sample_size,
            harness: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// One stand-alone benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        routine: impl FnMut(&mut Bencher),
    ) {
        let samples = self.sample_size;
        self.run(id.into().0, samples, None, routine);
    }

    fn run(
        &mut self,
        name: String,
        samples: usize,
        throughput: Option<Throughput>,
        mut routine: impl FnMut(&mut Bencher),
    ) {
        let mut bencher = Bencher {
            samples,
            iters_per_sample: 0,
            ns_per_iter: Vec::new(),
        };
        routine(&mut bencher);
        let mut ns = bencher.ns_per_iter;
        if ns.is_empty() {
            eprintln!("{name}: the routine never called iter()");
            return;
        }
        ns.sort_by(f64::total_cmp);
        let at = |q: f64| ns[((ns.len() - 1) as f64 * q).round() as usize];
        let median_ns = at(0.5);
        let per_second = throughput.map(|t| {
            let (Throughput::Bytes(n) | Throughput::Elements(n)) = t;
            n as f64 * 1e9 / median_ns
        });
        let measurement = Measurement {
            name,
            samples: ns.len(),
            iters_per_sample: bencher.iters_per_sample,
            median_ns,
            p99_ns: at(0.99),
            per_second,
        };
        if !self.json {
            let rate = match (throughput, per_second) {
                (Some(Throughput::Bytes(_)), Some(rate)) => format!("  {:.1} MB/s", rate / 1e6),
                (Some(Throughput::Elements(_)), Some(rate)) => format!("  {:.0} elem/s", rate),
                _ => String::new(),
            };
            println!(
                "{:<56} median {:>12.1} ns  p99 {:>12.1} ns{rate}",
                measurement.name, measurement.median_ns, measurement.p99_ns
            );
        }
        self.results.push(measurement);
    }

    /// Print the JSON document when `--json` was asked for.
    pub fn final_summary(&self) {
        if self.json {
            let doc = Json::Obj(vec![("benchmarks".to_string(), self.results.to_json())]);
            println!("{}", doc.pretty());
        }
    }
}

/// Benchmarks sharing a name prefix, a sample size and a throughput.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    harness: &'a mut Harness,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Samples per benchmark in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(2);
        self
    }

    /// What one iteration of the following benchmarks processes.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Measure `routine`.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        routine: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into().0);
        self.harness
            .run(name, self.sample_size, self.throughput, routine);
        self
    }

    /// Measure `routine` over a prepared input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut routine: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |bencher| routine(bencher, input))
    }

    /// End the group (kept so bench files read top to bottom).
    pub fn finish(self) {}
}

/// Handed to a benchmark routine: call [`iter`](Self::iter) (or
/// [`iter_custom`](Self::iter_custom)) exactly once.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    iters_per_sample: u64,
    ns_per_iter: Vec<f64>,
}

impl Bencher {
    /// Time `routine`, called back-to-back.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.iter_custom(|iters| {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            started.elapsed()
        });
    }

    /// Let the routine do its own timing: it runs `iters` iterations
    /// however it likes (in parallel, say) and returns the time they took.
    pub fn iter_custom(&mut self, mut routine: impl FnMut(u64) -> Duration) {
        // Warm up with doubling batches; the last batch calibrates how
        // many iterations fill one sample.
        let mut iters = 1u64;
        let warm_up_started = Instant::now();
        let per_iter = loop {
            let took = routine(iters);
            if warm_up_started.elapsed() >= WARM_UP || took >= WARM_UP {
                break took.as_secs_f64() / iters as f64;
            }
            iters = iters.saturating_mul(2);
        };
        let iters = ((SAMPLE_TARGET.as_secs_f64() / per_iter.max(1e-12)) as u64).max(1);
        self.iters_per_sample = iters;
        self.ns_per_iter = (0..self.samples)
            .map(|_| routine(iters).as_nanos() as f64 / iters as f64)
            .collect();
    }
}

/// Bundle benchmark functions under a configured harness (the shape the
/// bench files were written in).
#[macro_export]
macro_rules! bench_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut harness: $crate::micro::Harness = $config;
            $($target(&mut harness);)+
            harness.final_summary();
        }
    };
}

/// `fn main` for a bench binary.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_routine_and_reports_throughput() {
        let mut harness = Harness::default().sample_size(5);
        let mut group = harness.benchmark_group("demo");
        group.throughput(Throughput::Bytes(64));
        group.bench_with_input(BenchmarkId::new("sum", 64), &[1u8; 64][..], |b, data| {
            b.iter(|| data.iter().map(|&x| u64::from(x)).sum::<u64>())
        });
        group.finish();
        harness.bench_function("demo/custom", |b| {
            b.iter_custom(|iters| Duration::from_nanos(100 * iters))
        });
        let [sum, custom] = &harness.results[..] else {
            panic!("expected two measurements: {:?}", harness.results);
        };
        assert_eq!(sum.name, "demo/sum/64");
        assert_eq!(sum.samples, 5);
        assert!(sum.median_ns > 0.0 && sum.median_ns <= sum.p99_ns);
        assert!(sum.per_second.unwrap() > 0.0);
        assert_eq!(custom.name, "demo/custom");
        assert!((custom.median_ns - 100.0).abs() < 1.0, "{custom:?}");
        assert_eq!(custom.per_second, None);
    }
}
