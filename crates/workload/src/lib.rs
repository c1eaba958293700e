#![warn(missing_docs)]
//! Workload generation and measurement for Janus experiments.
//!
//! The paper drives Janus with "a modified version of the Apache HTTP
//! server benchmarking tool" and reports average/P90/P99/P99.9 round-trip
//! latencies and requests-per-second throughput. This crate is that tool:
//!
//! * [`histogram::Histogram`] — a log-bucketed latency recorder (HDR-style)
//!   with bounded relative error, cheap enough to sit on the request path.
//! * [`stats::LatencyStats`] — the summary the paper's figures print
//!   (average, P90, P99, P99.9).
//! * [`generator`] — open-loop (fixed offered rate, with optional noise,
//!   like the Fig. 13 client) and closed-loop (fixed concurrency, like the
//!   `ab` saturation runs) drivers for any blocking request function.
//! * [`timeseries::SecondSeries`] — per-second accepted/rejected counters
//!   for the Fig. 13a time series.
//! * [`keys::KeyPicker`] — uniform and Zipf key selection over a key
//!   population.

pub mod generator;
pub mod histogram;
pub mod keys;
pub mod stats;
pub mod timeseries;

pub use generator::{ClosedLoopConfig, LoadReport, OpenLoopConfig};
pub use histogram::Histogram;
pub use keys::KeyPicker;
pub use stats::LatencyStats;
pub use timeseries::SecondSeries;
