//! The lock ablation (DESIGN.md ablation 1): lock-free vs sharded vs
//! synchronized (one-shard) QoS table under increasing thread counts.
//! The widening gap is the effect the paper observes as QoS-server CPU
//! underutilization (Fig. 10b); the lock-free table bounds how much of
//! it was the locks themselves rather than cache traffic.

use janus_bench::micro::{black_box, Bencher, BenchmarkId, Harness, Throughput};
use janus_bench::{bench_group, bench_main};
use janus_bucket::{LockFreeTable, QosTable, ShardedTable};
use janus_clock::Nanos;
use janus_types::{QosKey, QosRule};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const KEYS: usize = 1024;
const OPS_PER_THREAD: usize = 2_000;

fn populate(table: &dyn QosTable) -> Vec<QosKey> {
    let keys: Vec<QosKey> = (0..KEYS)
        .map(|i| QosKey::new(format!("tenant-{i}")).unwrap())
        .collect();
    for key in &keys {
        table.insert(
            QosRule::per_second(key.clone(), 1_000_000, 1_000_000),
            Nanos::ZERO,
        );
    }
    keys
}

/// Time `iters × OPS_PER_THREAD` decisions on each of `threads` workers
/// per call, over 1,024 keys. The workers start once per benchmark point
/// and a barrier steps them, so a sample pays two barrier crossings
/// rather than a thread start and join per iteration.
fn bench_contended(b: &mut Bencher, table: &dyn QosTable, keys: &[QosKey], threads: usize) {
    let barrier = Barrier::new(threads + 1);
    // Iterations in the round about to start; zero stops the workers.
    // Relaxed is enough: the barrier orders the store before every load.
    let iters_now = AtomicU64::new(0);
    let (barrier, iters_now) = (&barrier, &iters_now);
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut i = 0usize;
                loop {
                    barrier.wait();
                    let iters = iters_now.load(Ordering::Relaxed) as usize;
                    if iters == 0 {
                        return;
                    }
                    for _ in 0..iters * OPS_PER_THREAD {
                        let key = &keys[(t * 7919 + i) % keys.len()];
                        black_box(table.decide(key, Nanos::from_nanos(i as u64)));
                        i += 1;
                    }
                    barrier.wait();
                }
            });
        }
        b.iter_custom(|iters| {
            iters_now.store(iters, Ordering::Relaxed);
            let started = Instant::now();
            barrier.wait();
            barrier.wait();
            started.elapsed()
        });
        iters_now.store(0, Ordering::Relaxed);
        barrier.wait();
    });
}

fn bench_contention(h: &mut Harness) {
    let mut group = h.benchmark_group("table/contention");
    // 16 threads oversubscribes most CI boxes — that's the point: the
    // synchronized table collapses there while the lock-free one only
    // pays CAS retries.
    for threads in [1usize, 2, 4, 8, 16] {
        group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        type MakeTable = fn() -> Box<dyn QosTable>;
        let disciplines: [(&str, MakeTable); 3] = [
            ("lock_free", || Box::new(LockFreeTable::new())),
            ("sharded", || Box::new(ShardedTable::new())),
            ("synchronized", || Box::new(ShardedTable::with_shards(1))),
        ];
        for (name, make) in disciplines {
            group.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, &threads| {
                let table = make();
                let keys = populate(&*table);
                bench_contended(b, &*table, &keys, threads);
            });
        }
    }
    group.finish();
}

fn bench_single_thread_ops(h: &mut Harness) {
    let mut group = h.benchmark_group("table/single_thread");
    let table = ShardedTable::new();
    let keys = populate(&table);
    let mut i = 0usize;
    group.bench_function("decide_hit", |b| {
        b.iter(|| {
            i += 1;
            black_box(table.decide(&keys[i % keys.len()], Nanos::from_nanos(i as u64)))
        })
    });
    let ghost = QosKey::new("no-such-tenant").unwrap();
    group.bench_function("decide_miss", |b| {
        b.iter(|| black_box(table.decide(&ghost, Nanos::ZERO)))
    });
    group.bench_function("snapshot_1024", |b| {
        b.iter(|| black_box(table.snapshot(Nanos::ZERO).len()))
    });
    group.finish();
}

bench_group! {
    name = benches;
    config = Harness::default().sample_size(20);
    targets = bench_contention, bench_single_thread_ops
}
bench_main!(benches);
