//! The std-only module of `janus-router`: the sans-IO core.
#[path = "../../../crates/router/src/core.rs"]
pub mod core;
pub use crate::core::{
    GrayConfig, LeaseEvent, LocalAnswer, ResponseOutcome, RouterCore, RouterCoreConfig,
    RouterLeaseConfig, RouterStep,
};
