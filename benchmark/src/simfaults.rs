//! The `sim_faults` workload: `janus_dst::run_seed` over the committed
//! corpus plus seeds derived from `--seed` across every profile. One op
//! is one simulated client request; the latency distribution is wall ns
//! per simulated request, one sample per simulated cluster run.

use crate::metrics::Report;
use crate::stats::{median, thread_cpu_ns, Histogram};
use crate::{RunOutput, REPETITIONS};
use janus_dst::{parse_corpus, run_seed, CorpusEntry, Profile, SimReport, PROFILES};
use janus_hash::rng::mix64;
use std::time::{Duration, Instant};

/// The committed seed corpus, baked in at build time.
const CORPUS: &str = include_str!("../../tests/dst_corpus.txt");

/// Totals over every simulated run of the process.
#[derive(Default)]
struct Totals {
    seeds: u64,
    requests: u64,
    violating_seeds: u64,
    trace_bytes: u64,
    defaulted: u64,
    leased: u64,
    degraded: u64,
    reboots: u64,
    dropped: u64,
    hedges: u64,
    budget_refused: u64,
    /// Wall ns and requests per entry of `PROFILES`.
    per_profile: Vec<(u64, u64)>,
}

impl Totals {
    fn new() -> Self {
        Totals {
            per_profile: vec![(0, 0); PROFILES.len()],
            ..Totals::default()
        }
    }

    fn absorb(&mut self, profile: Profile, report: &SimReport, ns: u64) {
        let requests = u64::from(report.issued);
        self.seeds += 1;
        self.requests += requests;
        self.violating_seeds += u64::from(!report.ok());
        self.trace_bytes += report.trace.len() as u64;
        self.defaulted += u64::from(report.defaulted);
        self.leased += u64::from(report.leased);
        self.degraded += u64::from(report.degraded);
        self.reboots += report.reboots;
        self.dropped += report.dropped;
        self.hedges += report.hedges;
        self.budget_refused += report.budget_refused;
        let slot = PROFILES
            .iter()
            .position(|p| *p == profile)
            .expect("profile is listed in PROFILES");
        self.per_profile[slot].0 += ns;
        self.per_profile[slot].1 += requests;
    }
}

/// The `index`-th derived seed of `round` under `--seed`.
fn derived_seed(seed: u64, round: u64, index: usize) -> u64 {
    mix64(seed ^ mix64(round.wrapping_mul(PROFILES.len() as u64) + index as u64))
}

fn setup() -> Vec<CorpusEntry> {
    parse_corpus(CORPUS).expect("committed corpus parses")
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> RunOutput {
    let mut problems = Vec::new();
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut cpu_per_request = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut p999 = Vec::new();
    let mut seed_rates = Vec::new();
    let mut samples = 0;
    let mut all = Totals::new();

    let mut peak_rss_mb = Vec::new();
    for _ in 0..REPETITIONS {
        crate::stats::reset_peak_rss();
        let started = Instant::now();
        let corpus = setup();
        setup_s.push(started.elapsed().as_secs_f64());

        // Warm-up: one derived seed per profile, untimed.
        for (index, profile) in PROFILES.iter().enumerate() {
            run_seed(derived_seed(seed, u64::MAX, index), *profile);
        }

        let (seeds_before, requests_before) = (all.seeds, all.requests);
        let mut per_request = Histogram::new();
        let cpu_start = thread_cpu_ns();
        let phase = Instant::now();
        let deadline = phase + Duration::from_secs_f64(seconds / REPETITIONS as f64);
        let mut timed_run = |seed: u64, profile: Profile| {
            let began = Instant::now();
            let report = run_seed(seed, profile);
            let ns = began.elapsed().as_nanos() as u64;
            per_request.record(ns / u64::from(report.issued.max(1)));
            all.absorb(profile, &report, ns);
        };
        for entry in &corpus {
            timed_run(entry.seed, entry.profile);
        }
        let mut round = 0;
        while Instant::now() < deadline {
            for (index, profile) in PROFILES.iter().enumerate() {
                timed_run(derived_seed(seed, round, index), *profile);
            }
            round += 1;
        }
        let wall = phase.elapsed().as_secs_f64();
        let cpu_ns = thread_cpu_ns().saturating_sub(cpu_start);
        let requests = (all.requests - requests_before) as f64;

        rates.push(requests / wall);
        seed_rates.push((all.seeds - seeds_before) as f64 / wall);
        cpu_per_request.push(cpu_ns as f64 / requests);
        p50.push(per_request.quantile(0.5));
        p99.push(per_request.quantile(0.99));
        p999.push(per_request.quantile(0.999));
        samples += per_request.count();
        peak_rss_mb.push(crate::stats::vm_hwm_kb() as f64 / 1024.0);
    }

    crate::stats::sample_setup(&mut setup_s, setup);

    if all.violating_seeds > 0 {
        problems.push(format!(
            "{} of {} simulated runs violated an oracle",
            all.violating_seeds, all.seeds
        ));
    }
    // Determinism: one corpus seed and one derived seed, run twice.
    let first = &setup()[0];
    for (s, profile) in [
        (first.seed, first.profile),
        (derived_seed(seed, 0, 0), PROFILES[0]),
    ] {
        if run_seed(s, profile).trace != run_seed(s, profile).trace {
            problems.push(format!(
                "seed {s} {} is not byte-identical on re-run",
                profile.as_str()
            ));
        }
    }

    let mut report = if traced {
        Report::per_layer()
    } else {
        Report::end_to_end()
    };
    if traced {
        let per_seed = |total: u64| total as f64 / all.seeds as f64;
        let per_request = |total: u64| total as f64 / all.requests as f64;
        report.set("e2e.decision_p50_ns", median(&p50));
        report.set("e2e.decision_p99_ns", median(&p99));
        report.set("e2e.decision_p999_ns", median(&p999));
        report.set("e2e.latency_samples", samples as f64);
        report.set(
            "e2e.failed_share",
            all.violating_seeds as f64 / all.seeds as f64,
        );
        report.set("dst.sim.seeds_per_s", median(&seed_rates));
        report.set(
            "dst.sim.trace_bytes_per_request",
            per_request(all.trace_bytes),
        );
        report.set("dst.sim.defaulted_share", per_request(all.defaulted));
        report.set("dst.sim.leased_share", per_request(all.leased));
        report.set("dst.sim.degraded_share", per_request(all.degraded));
        report.set("dst.sim.reboots", per_seed(all.reboots));
        report.set("dst.sim.dropped", per_seed(all.dropped));
        report.set("dst.sim.hedges", per_seed(all.hedges));
        report.set("dst.sim.budget_refused", per_seed(all.budget_refused));
        for (profile, &(ns, requests)) in PROFILES.iter().zip(&all.per_profile) {
            let name = format!("dst.sim.ns_per_request.{}", profile.as_str());
            report.set(&name, ns as f64 / requests.max(1) as f64);
        }
    } else {
        report.set("setup_s", median(&setup_s));
        report.set("decisions_per_s", median(&rates));
        report.set("cpu_ns_per_decision", median(&cpu_per_request));
        report.set("rss_mb", median(&peak_rss_mb));
    }
    RunOutput {
        report,
        attempted: all.seeds,
        failed: all.violating_seeds,
        problems,
        detail: Vec::new(),
    }
}
