//! The std-only modules of `janus-net`, re-rooted so the sans-IO cores
//! compile without the tokio transports around them.
#![allow(dead_code)]
#[path = "../../../crates/net/src/attempt.rs"]
pub mod attempt;
#[path = "../../../crates/net/src/breaker.rs"]
pub mod breaker;
#[path = "../../../crates/net/src/fault.rs"]
pub mod fault;
#[path = "../../../crates/net/src/latency.rs"]
pub mod latency;
