//! CRC32 implementations compared (bitwise / Sarwate / slicing-by-8) on
//! the four key families of the routing study.

use janus_bench::micro::{black_box, BenchmarkId, Harness, Throughput};
use janus_bench::{bench_group, bench_main};
use janus_hash::crc32::{crc32, crc32_bitwise, crc32_sarwate};
use janus_hash::keygen::{KeyFamily, KeyGenerator};

fn bench_implementations(h: &mut Harness) {
    let mut group = h.benchmark_group("crc32/impl");
    for len in [8usize, 36, 255, 4096] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("slicing8", len), &data, |b, d| {
            b.iter(|| black_box(crc32(d)))
        });
        group.bench_with_input(BenchmarkId::new("sarwate", len), &data, |b, d| {
            b.iter(|| black_box(crc32_sarwate(d)))
        });
        if len <= 255 {
            group.bench_with_input(BenchmarkId::new("bitwise", len), &data, |b, d| {
                b.iter(|| black_box(crc32_bitwise(d)))
            });
        }
    }
    group.finish();
}

fn bench_key_families(h: &mut Harness) {
    let mut group = h.benchmark_group("crc32/key_family");
    for family in KeyFamily::ALL {
        let keys: Vec<String> = {
            let mut gen = KeyGenerator::new(family, 1);
            (0..1024).map(|_| gen.next_string()).collect()
        };
        group.bench_function(family.label().replace(' ', "_"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % keys.len();
                black_box(crc32(keys[i].as_bytes()))
            })
        });
    }
    group.finish();
}

bench_group! {
    name = benches;
    config = Harness::default().sample_size(50);
    targets = bench_implementations, bench_key_families
}
bench_main!(benches);
