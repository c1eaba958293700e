//! Microbenchmarks of the leaky bucket: the innermost admission
//! operation, plus the two refill disciplines (DESIGN.md ablation 2).

use janus_bench::micro::{black_box, BenchmarkId, Harness};
use janus_bench::{bench_group, bench_main};
use janus_bucket::algorithms::{
    Admission, FixedWindowCounter, LeakyBucketLimiter, SlidingWindowCounter,
};
use janus_bucket::{LeakyBucket, QosTable, ShardedTable};
use janus_clock::Nanos;
use janus_types::{Credits, QosKey, QosRule, RefillRate};

fn bench_try_consume(h: &mut Harness) {
    let mut group = h.benchmark_group("bucket/try_consume");
    group.bench_function("allow_path", |b| {
        let mut bucket = LeakyBucket::full(
            Credits::from_whole(u64::MAX / 2_000_000),
            RefillRate::per_second(1_000_000),
            Nanos::ZERO,
        );
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            black_box(bucket.try_consume(Nanos::from_nanos(t)))
        });
    });
    group.bench_function("deny_path", |b| {
        let mut bucket = LeakyBucket::full(Credits::ZERO, RefillRate::ZERO, Nanos::ZERO);
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            black_box(bucket.try_consume(Nanos::from_nanos(t)))
        });
    });
    group.finish();
}

fn bench_refill_disciplines(h: &mut Harness) {
    let mut group = h.benchmark_group("bucket/refill");
    group.bench_function("lazy_refill", |b| {
        let mut bucket = LeakyBucket::full(
            Credits::from_whole(1_000),
            RefillRate::per_second(100),
            Nanos::ZERO,
        );
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000_000;
            bucket.refill(Nanos::from_nanos(t));
            black_box(&bucket);
        });
    });
    for table_size in [100usize, 10_000] {
        group.bench_with_input(
            BenchmarkId::new("housekeeping_sweep", table_size),
            &table_size,
            |b, &n| {
                let table = ShardedTable::new();
                for i in 0..n {
                    table.insert(
                        QosRule::per_second(
                            QosKey::new(format!("tenant-{i}")).unwrap(),
                            1_000,
                            100,
                        ),
                        Nanos::ZERO,
                    );
                }
                let mut t = 0u64;
                b.iter(|| {
                    t += 100_000_000;
                    table.sweep_refill(Nanos::from_nanos(t));
                });
            },
        );
    }
    group.finish();
}

fn bench_burst_drain(h: &mut Harness) {
    // Cost of draining a full 1000-credit bucket (the paper's burst
    // scenario) — 1000 consumes + the denial at the end.
    h.bench_function("bucket/burst_drain_1000", |b| {
        b.iter(|| {
            let mut bucket = LeakyBucket::full(
                Credits::from_whole(1_000),
                RefillRate::per_second(100),
                Nanos::ZERO,
            );
            let mut admitted = 0u32;
            for i in 0..1_001u64 {
                if bucket.try_consume(Nanos::from_nanos(i)).as_bool() {
                    admitted += 1;
                }
            }
            black_box(admitted)
        });
    });
}

type LimiterFactory = Box<dyn Fn() -> Box<dyn Admission>>;

fn bench_algorithm_comparison(h: &mut Harness) {
    // Per-decision cost of each rate-limiting algorithm at steady state.
    let mut group = h.benchmark_group("bucket/algorithms");
    let limiters: Vec<(&str, LimiterFactory)> = vec![
        (
            "leaky_bucket",
            Box::new(|| Box::new(LeakyBucketLimiter::new(1_000, 1_000_000))),
        ),
        (
            "fixed_window",
            Box::new(|| Box::new(FixedWindowCounter::per_second(1_000_000))),
        ),
        (
            "sliding_window",
            Box::new(|| Box::new(SlidingWindowCounter::per_second(1_000_000))),
        ),
    ];
    for (name, make) in limiters {
        group.bench_function(name, |b| {
            let mut limiter = make();
            let mut t = 0u64;
            b.iter(|| {
                t += 1_000;
                black_box(limiter.try_admit(Nanos::from_nanos(t)))
            });
        });
    }
    group.finish();
}

bench_group! {
    name = benches;
    config = Harness::default().sample_size(30);
    targets = bench_try_consume, bench_refill_disciplines, bench_burst_drain,
        bench_algorithm_comparison
}
bench_main!(benches);
