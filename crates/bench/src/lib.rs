//! Shared scaffolding for the figure-regeneration binaries.
//!
//! Every table and figure in the paper's evaluation has a binary in
//! `src/bin/` (`table1`, `fig5` … `fig13`, `headline`). Each prints a
//! human-readable table with the paper's reported values alongside the
//! measured ones, and `--json` for machine-readable output. `--quick`
//! trades precision for speed (the CI preset).

use janus_types::json::ToJson;

pub mod live;
pub mod micro;

/// CLI conventions shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct FigureCli {
    /// Emit JSON instead of the table.
    pub json: bool,
    /// Use the fast simulation preset.
    pub quick: bool,
    /// Smallest possible correctness-only run (the CI smoke preset,
    /// smaller still than `--quick`). Binaries that support it must not
    /// overwrite checked-in measurement files under it.
    pub smoke: bool,
    /// Run the live (loopback-process) variant where one exists.
    pub live: bool,
    /// Restrict a sweep to one kernel-path label (`single_listener` or
    /// `per_core`); `None` sweeps them all.
    /// Binaries without a socket-mode axis ignore it.
    pub socket_mode: Option<String>,
    /// Restrict a sweep to variants whose name contains this substring
    /// (e.g. `--mode lease` runs only the lease-delegated admission
    /// variant). Binaries without a variant axis ignore it.
    pub mode: Option<String>,
    /// Initial lock-free table slot count for sweeps with a memory-engine
    /// axis (`bench_admission`); `None` keeps the server default.
    /// Binaries without the axis ignore it.
    pub table_slots: Option<usize>,
    /// Distinct keys per client task for sweeps with a keyspace axis
    /// (`bench_admission`); `None` keeps the harness default. Large
    /// values push the lock-free table across its resize watermark
    /// mid-sweep. Binaries without the axis ignore it.
    pub keyspace: Option<usize>,
    /// Seed for deterministic runs.
    pub seed: u64,
}

impl FigureCli {
    /// Parse `std::env::args`.
    pub fn parse() -> FigureCli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut cli = FigureCli {
            json: false,
            quick: false,
            smoke: false,
            live: false,
            socket_mode: None,
            mode: None,
            table_slots: None,
            keyspace: None,
            seed: 2018,
        };
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--json" => cli.json = true,
                "--quick" => cli.quick = true,
                "--smoke" => cli.smoke = true,
                "--live" => cli.live = true,
                "--seed" => {
                    cli.seed = iter
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--seed needs an integer"));
                }
                "--socket-mode" => {
                    let value = iter
                        .next()
                        .unwrap_or_else(|| die("--socket-mode needs a label"));
                    match value.as_str() {
                        "single_listener" | "per_core" => {
                            cli.socket_mode = Some(value.clone());
                        }
                        other => die(&format!(
                            "unknown socket mode {other:?} (expected single_listener \
                             or per_core)"
                        )),
                    }
                }
                "--mode" => {
                    let value = iter
                        .next()
                        .unwrap_or_else(|| die("--mode needs a variant-name substring"));
                    cli.mode = Some(value.clone());
                }
                "--table-slots" => {
                    cli.table_slots = Some(
                        iter.next()
                            .and_then(|s| s.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| die("--table-slots needs a positive integer")),
                    );
                }
                "--keyspace" => {
                    cli.keyspace = Some(
                        iter.next()
                            .and_then(|s| s.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| die("--keyspace needs a positive integer")),
                    );
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --json (machine output) --quick (fast preset) \
                         --smoke (tiny CI correctness run) \
                         --live (real loopback run where supported) \
                         --socket-mode <single_listener|per_core> \
                         --mode <variant-name-substring> \
                         --table-slots <n> (initial lock-free slots) \
                         --keyspace <n> (distinct keys per client) \
                         --seed <n>"
                    );
                    std::process::exit(0);
                }
                other => die(&format!("unknown argument {other:?}")),
            }
        }
        cli
    }

    /// The simulation fidelity this invocation asked for.
    pub fn fidelity(&self) -> janus_sim::experiments::Fidelity {
        if self.quick {
            janus_sim::experiments::Fidelity::quick()
        } else {
            janus_sim::experiments::Fidelity::full()
        }
    }

    /// Emit a result: JSON when asked, otherwise the provided renderer.
    pub fn emit<T: ToJson>(&self, value: &T, render: impl FnOnce(&T)) {
        if self.json {
            println!("{}", value.to_json().pretty());
        } else {
            render(value);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, cell)| format!("{cell:<width$}", width = widths[i]))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Format req/s as "12.3k".
pub fn fmt_krps(rps: f64) -> String {
    format!("{:.1}k", rps / 1_000.0)
}

/// Format a fraction as a percentage.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Format microseconds.
pub fn fmt_us(us: f64) -> String {
    format!("{us:.0}us")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_krps(12_345.0), "12.3k");
        assert_eq!(fmt_pct(0.856), "85.6%");
        assert_eq!(fmt_us(1140.4), "1140us");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[
                vec!["1".into(), "two".into()],
                vec!["333".into(), "4".into()],
            ],
        );
    }
}
