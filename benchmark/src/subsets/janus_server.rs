//! The std-only modules of `janus-server`: the sans-IO core, its
//! overload control and the lease ledger.
#[path = "../../../crates/server/src/core.rs"]
pub mod core;
#[path = "../../../crates/server/src/lease.rs"]
pub mod lease;
#[path = "../../../crates/server/src/overload.rs"]
pub mod overload;
pub use lease::{LeaseConfig, LeaseLedger, LeaseLedgerStats};
pub use overload::{DedupOutcome, DedupWindow, OverloadConfig, SojournGovernor};
