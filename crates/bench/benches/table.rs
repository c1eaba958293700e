//! The lock ablation (DESIGN.md ablation 1): lock-free vs sharded vs
//! synchronized (one-shard) QoS table under increasing thread counts.
//! The widening gap is the effect the paper observes as QoS-server CPU
//! underutilization (Fig. 10b); the lock-free table bounds how much of
//! it was the locks themselves rather than cache traffic.

use janus_bench::micro::{black_box, BenchmarkId, Harness, Throughput};
use janus_bench::{bench_group, bench_main};
use janus_bucket::{LockFreeTable, QosTable, ShardedTable};
use janus_clock::Nanos;
use janus_types::{QosKey, QosRule};
use std::sync::Arc;

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

fn run_contended(table: Arc<dyn QosTable>, keys: Arc<Vec<QosKey>>, threads: usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let table = Arc::clone(&table);
            let keys = Arc::clone(&keys);
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let key = &keys[(t * 7919 + i) % keys.len()];
                    black_box(table.decide(key, Nanos::from_nanos(i as u64)));
                }
            });
        }
    });
}

fn bench_contention(h: &mut Harness) {
    let mut group = h.benchmark_group("table/contention");
    // 16 threads oversubscribes most CI boxes — that's the point: the
    // synchronized table collapses there while the lock-free one only
    // pays CAS retries.
    for threads in [1usize, 2, 4, 8, 16] {
        group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        type MakeTable = fn() -> Arc<dyn QosTable>;
        let disciplines: [(&str, MakeTable); 3] = [
            ("lock_free", || Arc::new(LockFreeTable::new())),
            ("sharded", || Arc::new(ShardedTable::new())),
            ("synchronized", || Arc::new(ShardedTable::with_shards(1))),
        ];
        for (name, make) in disciplines {
            group.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, &threads| {
                let table: Arc<dyn QosTable> = make();
                let keys = Arc::new(populate(&*table));
                b.iter(|| run_contended(Arc::clone(&table), Arc::clone(&keys), threads));
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
