#![warn(missing_docs)]
//! The QoS server layer (paper §III-C).
//!
//! A QoS server owns one partition of the key space and answers admission
//! requests over UDP. Its anatomy follows the paper's Java implementation:
//!
//! * a **UDP listener** thread receives datagrams and pushes them into a
//!   bounded FIFO,
//! * **N worker** threads (N = configured vCPUs) pop the FIFO, charge the
//!   key's leaky bucket in the local QoS table, and fire the response back
//!   — without caring whether it arrives (the router retries),
//! * a **house-keeping** thread refills the buckets at a fixed interval,
//! * a **DB sync** thread re-queries the database for the rules it holds
//!   locally and applies updates,
//! * a **check-pointing** thread writes remaining credits back to the
//!   database, so a replacement server resumes from the last checkpoint,
//! * an optional **HA listener** serves the local QoS table to a slave
//!   node, which replicates it at a configurable interval and can be
//!   promoted via the DNS failover record.
//!
//! Every one of these is a named OS thread owned by the [`QosServer`]
//! handle; dropping the handle (or [`QosServer::shutdown`]) stops them all.
//!
//! The data plane is one of two ([`SocketMode`]):
//!
//! * [`SocketMode::SingleListener`] is the paper's plane: the listener
//!   takes one request per wake-up and puts it on one bounded FIFO, and
//!   each of the N workers pops that FIFO and answers with its own
//!   datagram;
//! * [`SocketMode::PerCore`] is the fast plane: every worker owns its own
//!   `SO_REUSEPORT` socket and receives, decides and answers one datagram
//!   at a time, run-to-completion, so kernel flow steering replaces the
//!   listener→FIFO hop (DESIGN.md ablation 12).
//!
//! Both planes run one decision tail (decide, cache the verdict for
//! duplicates, drop an answer whose deadline passed, attach a lease
//! grant); they differ only in their triage and in where the arrival
//! stamp comes from.
//!
//! The local table is one of three ([`TableKind`]):
//! [`TableKind::Synchronized`] reproduces the paper's single-lock design
//! (a one-shard `ShardedTable`), [`TableKind::Sharded`] is the
//! lock-striped optimization (DESIGN.md ablation 1), and
//! [`TableKind::LockFree`] runs the open-addressing atomic-bucket table
//! with no lock on the decision path (DESIGN.md ablation 10), exporting
//! its CAS-retry and probe-length counters through [`ServerStats`]. The
//! listener plane runs any table; the per-core plane and idle-key
//! reclaim run on the lock-free one only.

mod config;
pub mod core;
mod ha;
mod lease;
mod overload;
mod percore;
mod server;

pub use crate::core::{
    IngressCore, IngressDecision, ServerCore, ServerCoreStats, WorkerCore, WorkerTriage,
};
pub use config::{DbTarget, OverloadConfig, QosServerConfig, SocketMode, TableKind};
pub use ha::{fetch_snapshot, SlaveReplicator};
pub use lease::{Charge, LeaseConfig, LeaseLedger, LeaseLedgerStats};
pub use overload::{DedupOutcome, DedupWindow, SojournGovernor};
pub use server::{QosServer, ServerStats, ServerStatsSnapshot};
