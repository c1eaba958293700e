//! Wire-codec microbenchmarks: the per-datagram cost on the admission
//! path (one encode + one decode per direction per request).

use janus_bench::micro::{black_box, BenchmarkId, Harness, Throughput};
use janus_bench::{bench_group, bench_main};
use janus_types::codec::{decode, encode_request, encode_response};
use janus_types::{QosKey, QosRequest, QosResponse};

fn bench_encode(h: &mut Harness) {
    let mut group = h.benchmark_group("codec/encode");
    for key_len in [8usize, 36, 255] {
        let key = QosKey::new("k".repeat(key_len)).unwrap();
        let request = QosRequest::new(42, key);
        group.throughput(Throughput::Bytes((13 + key_len) as u64));
        group.bench_with_input(BenchmarkId::new("request", key_len), &request, |b, r| {
            b.iter(|| black_box(encode_request(r)))
        });
    }
    let response = QosResponse::allow(42);
    group.bench_function("response", |b| {
        b.iter(|| black_box(encode_response(&response)))
    });
    group.finish();
}

fn bench_decode(h: &mut Harness) {
    let mut group = h.benchmark_group("codec/decode");
    for key_len in [8usize, 36, 255] {
        let key = QosKey::new("k".repeat(key_len)).unwrap();
        let wire = encode_request(&QosRequest::new(42, key));
        group.bench_with_input(BenchmarkId::new("request", key_len), &wire, |b, w| {
            b.iter(|| black_box(decode(w).unwrap()))
        });
    }
    let wire = encode_response(&QosResponse::deny(42));
    group.bench_function("response", |b| b.iter(|| black_box(decode(&wire).unwrap())));
    group.bench_function("garbage_rejection", |b| {
        let junk = vec![0xAAu8; 64];
        b.iter(|| black_box(decode(&junk).is_err()))
    });
    group.finish();
}

fn bench_roundtrip(h: &mut Harness) {
    // The full per-request codec cost: encode request, decode request,
    // encode response, decode response.
    h.bench_function("codec/full_exchange", |b| {
        let key = QosKey::new("00000000-0000-0000-0000-000000000000").unwrap();
        b.iter(|| {
            let req = QosRequest::new(7, key.clone());
            let wire = encode_request(&req);
            let _ = black_box(decode(&wire).unwrap());
            let resp = QosResponse::allow(7);
            let wire = encode_response(&resp);
            black_box(decode(&wire).unwrap())
        })
    });
}

bench_group! {
    name = benches;
    config = Harness::default().sample_size(50);
    targets = bench_encode, bench_decode, bench_roundtrip
}
bench_main!(benches);
