//! Runs one admission workload: repetitions of fresh set-up, warm-up and
//! timed phases on two client threads, the correctness gates, and the
//! assembly of the end-to-end or per-layer report.

use crate::admission::{
    run_phase, Client, PhaseResult, Plane, Sampling, Spec, Tally, SAMPLE_EVERY, THREADS,
};
use crate::json::Json;
use crate::metrics::{Report, SPANS};
use crate::stats::{median, reset_peak_rss, sample_setup, vm_hwm_kb, Histogram};
use crate::trace::{timer_overhead_ns, SpanStats, PICK_SPAN};
use crate::{probes, RunOutput, REPETITIONS};
use janus_clock::SharedClock;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Warm-up length as a share of one repetition's timed length (1 s
/// against 2.4 s at the committed `run_seconds`). Long on purpose: the
/// fast plane's two threads start out of phase at ~1.5 M decisions/s and
/// fall into a lock convoy (~0.7 M/s) within the first second, for good;
/// the steady state is what a server runs in.
const WARMUP_SHARE: f64 = 0.4;

/// What one repetition measured, both threads combined.
struct Repetition {
    setup_s: f64,
    /// Peak resident set from this repetition's set-up to its end, MB.
    peak_rss_mb: f64,
    /// Untraced timed phase.
    plain: Combined,
    /// Traced timed phase (traced runs only).
    traced: Option<Combined>,
    /// Warm-up + timed phases: what the gates count over.
    whole: Tally,
    counters: Counters,
}

struct Combined {
    tally: Tally,
    /// Σ over threads of ops ÷ own wall time.
    rate: f64,
    cpu_ns: u64,
    latency: Histogram,
    spans: Option<SpanStats>,
}

fn combine(results: Vec<PhaseResult>) -> Combined {
    let mut out = Combined {
        tally: Tally::default(),
        rate: 0.0,
        cpu_ns: 0,
        latency: Histogram::new(),
        spans: None,
    };
    for result in results {
        out.tally.add(&result.tally);
        out.rate += result.tally.ops as f64 / (result.wall_ns as f64 / 1e9);
        out.cpu_ns += result.cpu_ns;
        out.latency.merge(&result.latency);
        if let Some(spans) = result.spans {
            match out.spans.as_mut() {
                Some(mine) => mine.merge(&spans),
                None => out.spans = Some(spans),
            }
        }
    }
    out
}

/// Public-accessor counts read after a repetition's threads joined.
#[derive(Default)]
struct Counters {
    answered: u64,
    dedup_hits: u64,
    shed: u64,
    default_rule_hits: u64,
    lease_drained: u64,
    table_len: usize,
    probe_steps: u64,
    cas_retries: u64,
    resizes: u64,
    migrated_slots: u64,
    hinted_keys: usize,
    leased_keys: usize,
    budget_refused: u64,
}

fn read_counters(plane: &Plane, clients: &[Client]) -> Counters {
    let mut c = Counters {
        table_len: plane.tables.iter().map(|t| t.len()).sum(),
        hinted_keys: plane.router.hinted_keys(),
        leased_keys: plane.router.leased_keys(),
        budget_refused: plane.router.retry_budget().map_or(0, |b| b.exhausted()),
        ..Counters::default()
    };
    for server in clients.iter().flat_map(|client| &client.servers) {
        let stats = server.stats;
        c.answered += stats.answered;
        c.dedup_hits += stats.dedup_hits;
        c.shed += stats.shed_full + stats.shed_expired + stats.shed_sojourn;
        c.default_rule_hits += stats.default_rule_hits;
        c.lease_drained += server.lease_stats().map_or(0, |s| s.drained);
    }
    for cells in &plane.cells {
        c.probe_steps += cells.probe_steps.load(Ordering::Relaxed);
        c.cas_retries += cells.cas_retries.load(Ordering::Relaxed);
        c.resizes += cells.resizes.load(Ordering::Relaxed);
        c.migrated_slots += cells.migrated_slots.load(Ordering::Relaxed);
    }
    c
}

fn build(spec: &Spec, seed: u64, clock: &SharedClock) -> (Plane, Vec<Client>) {
    let plane = Plane::build(spec, clock);
    let clients = (0..THREADS)
        .map(|thread| Client::build(spec, &plane, thread, seed))
        .collect();
    (plane, clients)
}

fn repetition(
    spec: &Spec,
    seed: u64,
    timed: Duration,
    span_overhead: Option<f64>,
    clock: &SharedClock,
) -> Repetition {
    reset_peak_rss();
    let started = Instant::now();
    let (plane, mut clients) = build(spec, seed, clock);
    let setup_s = started.elapsed().as_secs_f64();

    let warm_end = Instant::now() + timed.mul_f64(WARMUP_SHARE);
    // A traced repetition splits its timed length: first half untraced
    // (the overhead baseline), second half traced.
    let plain_end = warm_end
        + if span_overhead.is_some() {
            timed / 2
        } else {
            timed
        };
    let traced_end = warm_end + timed;
    let per_thread: Vec<(Tally, PhaseResult, Option<PhaseResult>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(thread, client)| {
                let plane = &plane;
                scope.spawn(move || {
                    crate::stats::pin_to_allowed_cpu(thread);
                    let clock: &dyn janus_clock::Clock = &**clock;
                    let warm = run_phase(client, plane, clock, warm_end, Sampling::Off);
                    let plain = run_phase(client, plane, clock, plain_end, Sampling::Latency);
                    let traced = span_overhead.map(|overhead| {
                        run_phase(client, plane, clock, traced_end, Sampling::Spans(overhead))
                    });
                    (warm.tally, plain, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });

    let mut whole = Tally::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for (warm, plain_result, traced_result) in per_thread {
        whole.add(&warm);
        whole.add(&plain_result.tally);
        plain.push(plain_result);
        if let Some(result) = traced_result {
            whole.add(&result.tally);
            traced.push(result);
        }
    }
    Repetition {
        setup_s,
        peak_rss_mb: vm_hwm_kb() as f64 / 1024.0,
        plain: combine(plain),
        traced: (!traced.is_empty()).then(|| combine(traced)),
        whole,
        counters: read_counters(&plane, &clients),
    }
}

/// The correctness gates of one repetition; each breach is one line.
fn gate(spec: &Spec, rep: &Repetition, problems: &mut Vec<String>) {
    let (t, c) = (&rep.whole, &rep.counters);
    let mut check = |ok: bool, what: String| {
        if !ok {
            problems.push(format!("{}: {what}", spec.name));
        }
    };
    check(
        t.failed == 0,
        format!("{} of {} ops ended without a verdict", t.failed, t.ops),
    );
    check(c.shed == 0, format!("{} requests shed", c.shed));
    let forwarded = t.ops - t.lease_admit - t.failed;
    check(
        c.answered == forwarded,
        format!(
            "servers answered {} decisions for {forwarded} forwarded ops",
            c.answered
        ),
    );
    if spec.all_allow {
        check(
            t.deny == 0,
            format!("{} Deny verdicts on an all-Allow workload", t.deny),
        );
    }
    if let Some(exact) = spec.exact_allows {
        check(
            t.allow == exact,
            format!(
                "{} Allow verdicts, the installed credit is exactly {exact}",
                t.allow
            ),
        );
    }
    if spec.lease {
        check(
            t.lease_admit <= c.lease_drained,
            format!(
                "{} lease admits exceed the {} credits drained at grant",
                t.lease_admit, c.lease_drained
            ),
        );
    }
    if spec.miss_one_in > 0 {
        check(
            t.miss_not_allowed == 0,
            format!(
                "{} never-seen keys were not given the paper-default Allow",
                t.miss_not_allowed
            ),
        );
        check(
            c.default_rule_hits == t.miss_picks,
            format!(
                "{} default-rule inserts for {} never-seen picks",
                c.default_rule_hits, t.miss_picks
            ),
        );
        check(
            c.table_len == spec.keys,
            format!(
                "table holds {} keys, {} installed and every miss retired",
                c.table_len, spec.keys
            ),
        );
    } else {
        check(
            c.default_rule_hits == 0 && c.table_len == spec.keys,
            format!(
                "table holds {} keys ({} installed), {} default-rule inserts",
                c.table_len, spec.keys, c.default_rule_hits
            ),
        );
    }
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_dir: Option<&Path>,
) -> RunOutput {
    let clock = janus_clock::system();
    let timed = Duration::from_secs_f64(seconds / REPETITIONS as f64);
    let span_overhead = traced.then(timer_overhead_ns);
    let mut problems = Vec::new();
    let reps: Vec<Repetition> = (0..REPETITIONS)
        .map(|_| {
            let rep = repetition(spec, seed, timed, span_overhead, &clock);
            gate(spec, &rep, &mut problems);
            rep
        })
        .collect();

    let mut setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    sample_setup(&mut setup_s, || build(spec, seed, &clock));

    let attempted: u64 = reps.iter().map(|r| r.whole.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.whole.failed).sum();
    let over_reps = |f: &dyn Fn(&Repetition) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let rates = over_reps(&|r| r.plain.rate);
    let cpu = over_reps(&|r| r.plain.cpu_ns as f64 / r.plain.tally.ops as f64);
    let quantile = |q: f64| median(&over_reps(&|r| r.plain.latency.quantile(q)));

    if !traced {
        let mut report = Report::end_to_end();
        report.set("setup_s", median(&setup_s));
        report.set("decisions_per_s", median(&rates));
        report.set("cpu_ns_per_decision", median(&cpu));
        report.set("rss_mb", median(&over_reps(&|r| r.peak_rss_mb)));
        let list = |values: &[f64]| Json::Arr(values.iter().map(|v| Json::Num(*v)).collect());
        let repetitions = Json::obj(vec![
            ("decisions_per_s", list(&rates)),
            ("cpu_ns_per_decision", list(&cpu)),
            ("setup_s", list(&setup_s[..REPETITIONS])),
            ("rss_mb", list(&over_reps(&|r| r.peak_rss_mb))),
            // Not end-to-end metrics (see metrics.rs), but measured anyway.
            (
                "decision_p50_ns",
                list(&over_reps(&|r| r.plain.latency.quantile(0.5))),
            ),
            (
                "decision_p99_ns",
                list(&over_reps(&|r| r.plain.latency.quantile(0.99))),
            ),
        ]);
        return RunOutput {
            report,
            attempted,
            failed,
            problems,
            detail: vec![("repetition_values".to_string(), repetitions)],
        };
    }

    let mut report = Report::per_layer();
    let overhead = span_overhead.expect("traced run calibrated its timer");
    report.set("trace.timer_overhead_ns", overhead);
    report.set("e2e.decision_p50_ns", quantile(0.5));
    report.set("e2e.decision_p99_ns", quantile(0.99));
    report.set("e2e.decision_p999_ns", quantile(0.999));
    report.set(
        "e2e.latency_samples",
        reps.iter().map(|r| r.plain.latency.count()).sum::<u64>() as f64,
    );
    report.set("e2e.failed_share", failed as f64 / attempted as f64);

    // Spans: all traced phases pooled.
    let mut spans = SpanStats::new();
    for rep in &reps {
        let traced = rep.traced.as_ref().expect("traced run has a traced phase");
        spans.merge(traced.spans.as_ref().expect("traced phase recorded spans"));
    }
    // Medians describe a span; the ledger adds means, because medians
    // do not add when ops take different paths (a lease admit next to a
    // 200 µs grant).
    let decision_ns = spans.decision_ns as f64;
    let mut span_sum = 0.0;
    for (index, name) in SPANS.iter().enumerate() {
        let histogram = &spans.spans[index];
        report.set(&format!("{name}_ns"), histogram.quantile(0.5));
        report.set(
            &format!("{name}_share"),
            histogram.sum() as f64 / decision_ns,
        );
        if index != PICK_SPAN {
            span_sum += histogram.sum() as f64 / spans.sampled as f64;
        }
    }
    report.set("trace.sampled_ops", spans.sampled as f64);
    report.set("trace.span_sum_ns", span_sum);
    // The untraced phase times each decision with one timer pair.
    let mut untraced = Histogram::new();
    for rep in &reps {
        untraced.merge(&rep.plain.latency);
    }
    let mean_ns = untraced.sum() as f64 / untraced.count() as f64 - overhead;
    report.set("trace.unaccounted_share", 1.0 - span_sum / mean_ns);
    let overhead_shares =
        over_reps(&|r| 1.0 - r.traced.as_ref().expect("traced phase").rate / r.plain.rate);
    report.set("trace.overhead_share", median(&overhead_shares));

    // Counts, over every repetition's whole run.
    let ops: u64 = reps.iter().map(|r| r.whole.ops).sum();
    let per_op =
        |f: &dyn Fn(&Repetition) -> u64| reps.iter().map(f).sum::<u64>() as f64 / ops as f64;
    let decided = reps.iter().map(|r| r.counters.answered).sum::<u64>().max(1) as f64;
    let last = &reps[REPETITIONS - 1].counters;
    report.set(
        "bucket.table.probe_steps_per_decision",
        reps.iter().map(|r| r.counters.probe_steps).sum::<u64>() as f64 / decided,
    );
    report.set(
        "bucket.table.cas_retries_per_decision",
        reps.iter().map(|r| r.counters.cas_retries).sum::<u64>() as f64 / decided,
    );
    report.set("bucket.table.resizes", last.resizes as f64);
    report.set("bucket.table.migrated_slots", last.migrated_slots as f64);
    report.set("bucket.table.len", last.table_len as f64);
    report.set("server.core.answered", per_op(&|r| r.counters.answered));
    report.set("server.core.dedup_hits", per_op(&|r| r.counters.dedup_hits));
    report.set("server.core.shed", per_op(&|r| r.counters.shed));
    report.set(
        "server.core.default_rule_hits",
        per_op(&|r| r.counters.default_rule_hits),
    );
    report.set(
        "router.core.lease_admit_share",
        per_op(&|r| r.whole.lease_admit),
    );
    report.set(
        "router.core.forward_share",
        per_op(&|r| r.whole.ops - r.whole.lease_admit - r.whole.failed),
    );
    report.set("router.core.hinted_keys", last.hinted_keys as f64);
    report.set("router.core.leased_keys", last.leased_keys as f64);
    report.set("net.latency.budget_refused", last.budget_refused as f64);

    probes::run(spec, seed, &clock, &mut report);

    // Reconciliation row: the span ledger against the untraced latency,
    // each probe beside the span it sits inside.
    let beside = |span: &str, inside: &[&str]| {
        let probes = inside
            .iter()
            .map(|p| (*p, Json::Num(report.get(p))))
            .collect();
        (
            format!("{span}_ns"),
            Json::obj(vec![
                ("span_ns", Json::Num(report.get(&format!("{span}_ns")))),
                ("probes_inside", Json::obj(probes)),
            ]),
        )
    };
    let reconciliation = Json::obj(vec![
        ("span_mean_sum_ns", Json::Num(span_sum)),
        ("untraced_decision_mean_ns", Json::Num(mean_ns)),
        (
            "untraced_decision_p50_ns",
            Json::Num(untraced.quantile(0.5) - overhead),
        ),
        (
            "unaccounted_share",
            Json::Num(report.get("trace.unaccounted_share")),
        ),
        (
            "spans",
            Json::Obj(vec![
                beside("clock.system.now", &["clock.now_ns"]),
                beside("router.core.begin", &["hash.routing.route_ns"]),
                beside(
                    "router.core.discipline",
                    &["net.latency.percentile_ns", "net.latency.budget_ns"],
                ),
                beside("server.core.on_request", &["server.overload.dedup_ns"]),
                beside(
                    "server.core.poll_worker",
                    &[
                        "bucket.table.decide_hit_ns",
                        "bucket.table.decide_miss_ns",
                        "bucket.table.insert_ns",
                        "bucket.atomic.admit_ns",
                        "bucket.atomic.deny_ns",
                        "server.lease.on_report_ns",
                    ],
                ),
                beside("router.core.record_rtt", &["net.latency.record_ns"]),
            ]),
        ),
    ]);

    if let Some(dir) = trace_dir {
        let document = Json::obj(vec![
            ("workload", Json::str(spec.name)),
            ("seed", Json::Num(seed as f64)),
            ("sampled_one_op_in", Json::Num(SAMPLE_EVERY as f64)),
            ("sampled_ops", Json::Num(spans.sampled as f64)),
            ("timer_overhead_ns", Json::Num(overhead)),
            ("spans", Json::Arr(kept_spans(&reps))),
        ]);
        let path = dir.join(format!("trace-{}.json", spec.name));
        if let Err(error) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, document.render() + "\n"))
        {
            problems.push(format!("could not write {}: {error}", path.display()));
        }
    }

    RunOutput {
        report,
        attempted,
        failed,
        problems,
        detail: vec![("reconciliation".to_string(), reconciliation)],
    }
}

/// The raw spans the first repetition kept (a few hundred ops).
fn kept_spans(reps: &[Repetition]) -> Vec<Json> {
    reps[0]
        .traced
        .as_ref()
        .and_then(|traced| traced.spans.as_ref())
        .map_or_else(Vec::new, SpanStats::kept_spans)
}
