//! Latency-recorder microbenchmarks: the per-sample cost that sits on
//! every measured request path.

use janus_bench::micro::{black_box, Harness};
use janus_bench::{bench_group, bench_main};
use janus_workload::Histogram;

fn bench_record(h: &mut Harness) {
    let mut group = h.benchmark_group("histogram");
    group.bench_function("record", |b| {
        let mut h = Histogram::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(black_box(x >> 40));
        });
    });
    group.bench_function("quantile_after_1m", |b| {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..1_000_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 40);
        }
        b.iter(|| black_box(h.quantile(0.999)));
    });
    group.bench_function("merge_two", |b| {
        let mut a = Histogram::new();
        let mut other = Histogram::new();
        for i in 0..10_000u64 {
            a.record(i * 131);
            other.record(i * 257);
        }
        b.iter(|| {
            let mut merged = a.clone();
            merged.merge(&other);
            black_box(merged.count())
        });
    });
    group.finish();
}

bench_group! {
    name = benches;
    config = Harness::default().sample_size(40);
    targets = bench_record
}
bench_main!(benches);
