//! Isolated layer probes: the workload's own key stream replayed straight
//! into one layer's public functions, timed in batches. A probe's number
//! is the layer's cost with nothing else on the path — set it beside the
//! span it sits inside to see what the span adds.

use crate::admission::{key_picker, Plane, Spec, TableKind, PARTITIONS};
use crate::metrics::Report;
use crate::stats::{median, vm_rss_kb};
use janus_bucket::{AtomicBucket, LockFreeTable, QosTable, ShardedTable};
use janus_clock::{Clock, SharedClock};
use janus_hash::{ModuloRouter, Router};
use janus_net::latency::{LatencyWindow, RetryBudget, RetryBudgetConfig};
use janus_server::{DedupWindow, LeaseConfig, LeaseLedger};
use janus_types::{Credits, LeaseReport, QosKey, QosRule, RefillRate, Verdict};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 1024;
const BUDGET: Duration = Duration::from_millis(30);
/// Keys replayed by the key-dependent probes (a power of two).
const STREAM: usize = 1 << 16;

/// Median ns per call of `call(i)` over batches of `batch` calls, for
/// `BUDGET` (at least 8 batches) or until `max_calls`.
fn per_call_ns(batch: usize, max_calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::new();
    let end = Instant::now() + BUDGET;
    let mut i = 0;
    while i + batch <= max_calls {
        let started = Instant::now();
        for _ in 0..batch {
            call(i);
            i += 1;
        }
        samples.push(started.elapsed().as_nanos() as f64 / batch as f64);
        if samples.len() >= 8 && Instant::now() >= end {
            break;
        }
    }
    median(&samples)
}

fn absent_key(i: usize) -> QosKey {
    QosKey::new(format!("absent-{i}")).expect("generated key is valid")
}

pub fn run(spec: &Spec, seed: u64, clock: &SharedClock, report: &mut Report) {
    // Resident growth while building the plane (its keys and its tables,
    // rules installed) per installed key. Read here, not in the timed
    // set-ups: two /proc reads would double a 64-key plane's `setup_s`.
    let rss_before = vm_rss_kb();
    let plane = Plane::build(spec, clock);
    let grown_kb = vm_rss_kb().saturating_sub(rss_before);
    report.set(
        "bucket.table.bytes_per_key",
        grown_kb as f64 * 1024.0 / spec.keys as f64,
    );
    let mut picker = key_picker(spec, &plane, 0, seed);
    let stream: Vec<QosKey> = (0..STREAM).map(|_| picker.pick()).collect();
    let names: Vec<String> = stream.iter().map(|k| k.as_str().to_string()).collect();
    let at = |i: usize| i & (STREAM - 1);
    let now = clock.now();

    report.set(
        "clock.now_ns",
        per_call_ns(BATCH, usize::MAX, |_| {
            black_box(clock.now());
        }),
    );
    report.set(
        "types.key.new_ns",
        per_call_ns(BATCH, usize::MAX, |i| {
            black_box(QosKey::new(black_box(&names[at(i)])).expect("valid"));
        }),
    );
    let router = ModuloRouter::new(PARTITIONS);
    report.set(
        "hash.routing.route_ns",
        per_call_ns(BATCH, usize::MAX, |i| {
            black_box(router.route(black_box(&stream[at(i)])));
        }),
    );

    // The workload's own tables, keys already routed to their partition.
    let homes: Vec<usize> = stream.iter().map(|k| router.route(k)).collect();
    report.set(
        "bucket.table.decide_hit_ns",
        per_call_ns(BATCH, usize::MAX, |i| {
            let j = at(i);
            black_box(plane.tables[homes[j]].decide(&stream[j], now));
        }),
    );
    let absent: Vec<QosKey> = (0..STREAM).map(absent_key).collect();
    report.set(
        "bucket.table.decide_miss_ns",
        per_call_ns(BATCH, usize::MAX, |i| {
            let j = at(i);
            black_box(plane.tables[homes[j]].decide(&absent[j], now));
        }),
    );
    let fresh: Arc<dyn QosTable> = match spec.table {
        TableKind::Sharded => Arc::new(ShardedTable::new()),
        TableKind::LockFree => Arc::new(LockFreeTable::new()),
    };
    let mut rules: Vec<Option<QosRule>> = (0..2 * STREAM)
        .map(|i| Some(QosRule::per_second(absent_key(i), 100, 10)))
        .collect();
    report.set(
        "bucket.table.insert_ns",
        per_call_ns(BATCH, rules.len(), |i| {
            fresh.insert(rules[i].take().expect("each rule inserted once"), now);
        }),
    );

    // One tick per batch refills the bucket, so every call admits.
    let rich = AtomicBucket::full(
        Credits::from_whole(1_000_000),
        RefillRate::per_second(1_000_000_000),
        now,
    );
    report.set(
        "bucket.atomic.admit_ns",
        per_call_ns(BATCH, usize::MAX, |i| {
            let tick = now.saturating_add(Duration::from_millis((i / BATCH) as u64));
            black_box(rich.try_consume(tick));
        }),
    );
    let dry = AtomicBucket::full(Credits::ZERO, RefillRate::ZERO, now);
    report.set(
        "bucket.atomic.deny_ns",
        per_call_ns(BATCH, usize::MAX, |_| {
            black_box(dry.try_consume(now));
        }),
    );

    if spec.fast_plane {
        // One fresh attempt through the window: lookup, pending, verdict.
        let mut dedup = DedupWindow::new(spec.dedup_window);
        report.set(
            "server.overload.dedup_ns",
            per_call_ns(BATCH, usize::MAX, |i| {
                let key = &stream[at(i)];
                let nonce = (i as u32).wrapping_mul(2_654_435_761);
                black_box(dedup.lookup(nonce, key));
                dedup.insert_pending(nonce, i as u64, key.clone());
                dedup.record(nonce, key, Verdict::Allow);
            }),
        );
        let mut window = LatencyWindow::new(64);
        report.set(
            "net.latency.record_ns",
            per_call_ns(BATCH, usize::MAX, |i| window.record((i & 3) as u64)),
        );
        report.set(
            "net.latency.percentile_ns",
            per_call_ns(BATCH, usize::MAX, |_| {
                black_box(window.percentile(black_box(99)));
            }),
        );
        let budget = RetryBudget::new(RetryBudgetConfig::default());
        report.set(
            "net.latency.budget_ns",
            per_call_ns(BATCH, usize::MAX, |_| {
                budget.deposit();
                black_box(budget.try_withdraw());
            }),
        );
    }

    if spec.lease {
        // A hot key's grant: the ledger drains slice + precharge from the
        // authoritative bucket one `decide` at a time. 5 ms of refill per
        // call keeps the bucket credit-positive, as on the workload.
        let mut ledger = LeaseLedger::new(LeaseConfig::enabled());
        let key = &stream[0];
        let table = &plane.tables[router.route(key)];
        let shape = table.shape(key);
        report.set(
            "server.lease.on_report_ns",
            per_call_ns(16, usize::MAX, |i| {
                let at = now.saturating_add(Duration::from_millis(5 * i as u64));
                let mut charge = || table.decide(key, at) == Some(Verdict::Allow);
                let report = LeaseReport::soliciting(7);
                black_box(ledger.on_report(key, report, shape, at, &mut charge));
            }),
        );
    }
}
