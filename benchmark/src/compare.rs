//! `--compare`: two suite documents against the bounds in
//! `BENCHMARK.json`, row by row (workload × end-to-end metric); and the
//! check that `BENCHMARK.json` lists exactly what the harness prints.

use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END};
use crate::stats::median;
use std::process::ExitCode;

/// `failed ÷ attempted` may rise by this much, absolute.
const FAILED_SHARE_BOUND: f64 = 0.001;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The untraced run of `workload` in a suite document.
fn untraced<'a>(suite: &'a Json, workload: &str) -> Option<&'a Json> {
    suite.get("runs")?.as_arr().iter().find(|run| {
        let detail = run.get("detail");
        detail
            .and_then(|d| d.get("workload"))
            .and_then(Json::as_str)
            == Some(workload)
            && detail.and_then(|d| d.get("trace")).and_then(Json::as_f64) == Some(0.0)
    })
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Second-highest − second-lowest of the run's per-repetition values of
/// `name`, ÷ their median (an inter-quartile range for five values); 0
/// where the run carries no per-repetition values.
fn spread(run: &Json, name: &str) -> f64 {
    let mut values: Vec<f64> = run
        .get("detail")
        .and_then(|d| d.get("repetition_values"))
        .and_then(|r| r.get(name))
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    if values.len() < 4 {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    (values[values.len() - 2] - values[1]) / median(&values)
}

fn failed_share(run: &Json) -> Option<f64> {
    let result = run.get("result")?;
    Some(result.get("failed")?.as_f64()? / result.get("attempted")?.as_f64()?)
}

pub fn compare(bench: &str, a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let bench = load(bench)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressed = 0;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for workload in bench.get("workloads").map_or(&[][..], Json::as_arr) {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let (Some(run_a), Some(run_b)) = (untraced(&a, name), untraced(&b, name)) else {
            println!("{name:<14} missing from one document: unresolved");
            continue;
        };
        for row in bench.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let metric_name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = row
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower_is_better = row.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(va), Some(vb)) = (metric(run_a, metric_name), metric(run_b, metric_name))
            else {
                println!("{name:<14} {metric_name:<20} missing: unresolved");
                continue;
            };
            let worse = if lower_is_better {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let widest = spread(run_a, metric_name).max(spread(run_b, metric_name));
            let verdict = if widest > bound {
                "unresolved"
            } else if worse > bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{name:<14} {metric_name:<20} {va:>14.6e} {vb:>14.6e} {:>7.1}% {:>5.0}%  {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
        let (fa, fb) = (
            failed_share(run_a).unwrap_or(1.0),
            failed_share(run_b).unwrap_or(1.0),
        );
        let verdict = if fb > fa + FAILED_SHARE_BOUND {
            regressed += 1;
            "regressed"
        } else {
            "ok"
        };
        println!(
            "{name:<14} {:<20} {fa:>14.6} {fb:>14.6} {:>8} {:>6}  {verdict}",
            "failed_share", "", "+0.001"
        );
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Verify `BENCHMARK.json` names exactly the workloads and metrics this
/// harness prints, with the same units.
pub fn check_manifest(bench: &str) -> Result<ExitCode, String> {
    let bench = load(bench)?;
    let listed = |section: &str, field: &str| -> Vec<String> {
        bench
            .get(section)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .map(|row| {
                let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
                match row.get(field).and_then(Json::as_str) {
                    Some(unit) => format!("{name} [{unit}]"),
                    None => name.to_string(),
                }
            })
            .collect()
    };
    let mut ok = true;
    let mut expect = |section: &str, got: Vec<String>, want: Vec<String>| {
        if got != want {
            ok = false;
            eprintln!("BENCHMARK.json {section} differs from the harness:");
            for name in want.iter().filter(|n| !got.contains(n)) {
                eprintln!("  missing or out of place: {name}");
            }
            for name in got.iter().filter(|n| !want.contains(n)) {
                eprintln!("  not printed by the harness: {name}");
            }
        }
    };
    expect(
        "workloads",
        listed("workloads", "-"),
        crate::workload_names()
            .iter()
            .map(|n| n.to_string())
            .collect(),
    );
    expect(
        "end_to_end",
        listed("end_to_end", "unit"),
        END_TO_END
            .iter()
            .map(|(n, u)| format!("{n} [{u}]"))
            .collect(),
    );
    expect(
        "per_layer",
        listed("per_layer", "unit"),
        per_layer()
            .iter()
            .map(|(n, u)| format!("{n} [{u}]"))
            .collect(),
    );
    if ok {
        println!("BENCHMARK.json matches the harness");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
