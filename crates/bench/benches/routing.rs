//! Routing microbenchmarks: modulo vs consistent-hash back-end selection
//! (DESIGN.md ablation 5), plus the resize remap cost they trade against.

use janus_bench::micro::{black_box, BenchmarkId, Harness};
use janus_bench::{bench_group, bench_main};
use janus_hash::keygen::{KeyFamily, KeyGenerator};
use janus_hash::routing::{remap_fraction, ConsistentRing, ModuloRouter, Router};
use janus_types::QosKey;

fn keys(n: usize) -> Vec<QosKey> {
    let mut gen = KeyGenerator::new(KeyFamily::Uuid, 7);
    (0..n).map(|_| gen.next_key()).collect()
}

fn bench_route(h: &mut Harness) {
    let mut group = h.benchmark_group("routing/route");
    let keys = keys(4096);
    for backends in [4usize, 20, 100] {
        let modulo = ModuloRouter::new(backends);
        let ring = ConsistentRing::new(backends);
        group.bench_with_input(BenchmarkId::new("modulo", backends), &keys, |b, keys| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                black_box(modulo.route(&keys[i % keys.len()]))
            })
        });
        group.bench_with_input(BenchmarkId::new("ring", backends), &keys, |b, keys| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                black_box(ring.route(&keys[i % keys.len()]))
            })
        });
    }
    group.finish();
}

fn bench_remap(h: &mut Harness) {
    // What each strategy pays when the QoS fleet grows from 10 to 11
    // nodes: the modulo router remaps ~91% of keys, the ring ~9%.
    let mut group = h.benchmark_group("routing/resize_remap");
    group.sample_size(10);
    let keys = keys(20_000);
    group.bench_function("modulo_10_to_11", |b| {
        let before = ModuloRouter::new(10);
        let after = ModuloRouter::new(11);
        b.iter(|| black_box(remap_fraction(&before, &after, &keys)))
    });
    group.bench_function("ring_10_to_11", |b| {
        let before = ConsistentRing::new(10);
        let after = ConsistentRing::new(11);
        b.iter(|| black_box(remap_fraction(&before, &after, &keys)))
    });
    group.finish();
}

fn bench_ring_construction(h: &mut Harness) {
    h.bench_function("routing/ring_build_20x128", |b| {
        b.iter(|| black_box(ConsistentRing::with_vnodes(20, 128)))
    });
}

bench_group! {
    name = benches;
    config = Harness::default().sample_size(30);
    targets = bench_route, bench_remap, bench_ring_construction
}
bench_main!(benches);
