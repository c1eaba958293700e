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
//! The local table flavour is configurable: [`TableKind::Synchronized`]
//! reproduces the paper's single-lock design, [`TableKind::Sharded`] is
//! the lock-striped optimization (DESIGN.md ablation 1),
//! [`TableKind::PerWorker`] partitions the table per worker for the
//! key-affinity dispatch path (DESIGN.md ablation 9), and
//! [`TableKind::LockFree`] runs the open-addressing atomic-bucket table
//! with no lock on the decision path under either dispatch mode
//! (DESIGN.md ablation 10), exporting its CAS-retry and probe-length
//! counters through [`ServerStats`].
//!
//! Dispatch itself is configurable too: [`DispatchMode::SharedFifo`] is
//! the paper's single shared queue, and [`DispatchMode::KeyAffinity`]
//! routes `CRC32(key) % workers` through per-worker SPSC queues so one key
//! is always decided by the same worker. Either way the listener takes
//! one request per wake-up and a worker answers each request with its own
//! datagram.
//!
//! The kernel path is configurable on a third axis:
//! [`SocketMode::SingleListener`] is the paper's one-socket,
//! one-`recvfrom`-per-datagram plane, and [`SocketMode::PerCore`] gives
//! every worker its own `SO_REUSEPORT` socket so kernel flow steering
//! replaces the listener→queue hop entirely: each worker drains its own
//! socket with `recvmmsg` and answers with `sendmmsg`, with optional
//! `SO_BUSY_POLL` and core pinning (DESIGN.md ablation 12).

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
pub use config::{DbTarget, DispatchMode, OverloadConfig, QosServerConfig, SocketMode, TableKind};
pub use ha::{fetch_snapshot, SlaveReplicator};
pub use lease::{Charge, LeaseConfig, LeaseLedger, LeaseLedgerStats};
pub use overload::{DedupOutcome, DedupWindow, SojournGovernor};
pub use server::{QosServer, ServerStats, ServerStatsSnapshot};
