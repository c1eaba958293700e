//! Janus benchmark harness. `benchmark/run.sh` builds and drives it; see
//! `benchmark/README.md` for the workloads and metrics.
//!
//!   harness run --workload W --seed N --seconds S --trace 0|1 [--trace-dir D]
//!   harness compare BENCHMARK.json A.json B.json
//!   harness check-manifest BENCHMARK.json
//!
//! `run` prints a detail line and then, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`; it exits 1 when a
//! correctness gate was breached.

mod admission;
mod compare;
mod json;
mod metrics;
mod probes;
mod runner;
mod simfaults;
mod stats;
mod trace;

use json::Json;
use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Fresh set-up + warm-up + timed phase, this many times per run; every
/// metric is the median over them. Throughput under two-thread
/// contention moves by ±8 % from one fresh set-up to the next (heap
/// layout, hash seeds) however long a repetition runs, so the run's
/// seconds go to five short repetitions rather than three long ones.
pub const REPETITIONS: usize = 5;

pub const SIM_FAULTS: &str = "sim_faults";

/// What one workload run produced.
pub struct RunOutput {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Breached correctness gates, one line each; empty means correct.
    pub problems: Vec<String>,
    /// Extra members of the detail line.
    pub detail: Vec<(String, Json)>,
}

pub fn workload_names() -> Vec<&'static str> {
    let mut names: Vec<&str> = admission::SPECS.iter().map(|spec| spec.name).collect();
    names.push(SIM_FAULTS);
    names
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        traced: false,
        trace_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--trace-dir" => parsed.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            parsed.seconds
        ));
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let output = if args.workload == SIM_FAULTS {
        simfaults::run(args.seed, args.seconds, args.traced)
    } else {
        let spec = admission::SPECS
            .iter()
            .find(|spec| spec.name == args.workload)
            .ok_or_else(|| {
                format!(
                    "unknown workload {:?}; known: {}",
                    args.workload,
                    workload_names().join(", ")
                )
            })?;
        runner::run(
            spec,
            args.seed,
            args.seconds,
            args.traced,
            args.trace_dir.as_deref(),
        )
    };
    for problem in &output.problems {
        eprintln!("correctness gate breached: {problem}");
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut detail = vec![
        ("workload".to_string(), Json::str(args.workload.as_str())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        (
            "trace".to_string(),
            Json::Num(f64::from(u8::from(args.traced))),
        ),
        (
            "repetition_count".to_string(),
            Json::Num(REPETITIONS as f64),
        ),
        (
            "available_parallelism".to_string(),
            Json::Num(threads as f64),
        ),
        (
            "problems".to_string(),
            Json::Arr(output.problems.iter().map(Json::str).collect()),
        ),
    ];
    detail.extend(output.detail);
    println!("{}", Json::Obj(detail).render());
    let correct = output.problems.is_empty();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(output.attempted as f64)),
        ("failed", Json::Num(output.failed as f64)),
        ("metrics", output.report.to_json()),
    ]);
    println!("{}", result.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 4 => compare::compare(&args[1], &args[2], &args[3]),
        Some("check-manifest") if args.len() == 2 => compare::check_manifest(&args[1]),
        _ => Err(
            "usage: harness run --workload W --seed N --seconds S --trace 0|1 [--trace-dir D] \
                  | compare BENCHMARK.json A.json B.json | check-manifest BENCHMARK.json"
                .to_string(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("harness: {message}");
            ExitCode::from(2)
        }
    }
}
