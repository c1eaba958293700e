#![warn(missing_docs)]
//! The admission-control core of Janus: leaky buckets with a refill
//! mechanism, and the local QoS table a QoS server keeps them in.
//!
//! Each QoS rule is represented by a leaky bucket (paper §II-C): a bucket
//! of capacity `C` holds the remaining credit, refills at the purchased
//! rate `A`, and each admitted request consumes one credit. Credit is
//! clamped to `[0, C]` (Eq. 2), which is what allows *bounded* bursts: an
//! idle user accumulates at most `C` credit and may briefly exceed the
//! purchased rate until the bucket drains.
//!
//! Two refill disciplines are provided (DESIGN.md ablation 2):
//!
//! * **Lazy** ([`LeakyBucket::refill`]) — credit is brought up to date from
//!   the bucket's anchored timestamp whenever the bucket is touched. Exact.
//! * **Housekeeping** ([`table::QosTable::sweep_refill`]) — a periodic
//!   thread adds `A × interval` to every bucket, the paper's design. Admits
//!   within one interval's rounding of lazy refill.
//!
//! The local QoS table comes in two engines: [`table::ShardedTable`]
//! (lock-striped, the "future work" optimization the paper alludes to;
//! with one shard it is the paper's one global lock, reproducing the
//! synchronized-hash-map contention visible in its Fig. 10b), and
//! [`lockfree::LockFreeTable`] (open addressing over inline
//! [`atomic::AtomicBucket`] slots: no lock anywhere on the decision path).

pub mod algorithms;
pub mod atomic;
mod bucket;
pub mod lockfree;
mod policy;
pub mod table;

pub use algorithms::{Admission, FixedWindowCounter, LeakyBucketLimiter, SlidingWindowCounter};
pub use atomic::AtomicBucket;
pub use bucket::LeakyBucket;
pub use lockfree::{LockFreeTable, TableEngineCells};
pub use policy::DefaultRulePolicy;
pub use table::{QosTable, ReclaimedRule, ShardedTable, TableStats};
