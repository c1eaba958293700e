//! Deterministic simulation testing for the Janus QoS cluster.
//!
//! The production router and server are split into sans-IO decision
//! cores ([`janus_router::core`], [`janus_server::core`]) driven by
//! thin blocking thread shells. This crate drives the *same cores* from a
//! single-threaded discrete-event scheduler over a virtual clock
//! ([`janus_clock::SimClock`]) and an in-memory network that drops,
//! delays, duplicates, reorders and partitions datagrams from a seeded
//! in-tree PRNG ([`janus_hash::Rng`]) — so a whole cluster's failure
//! behaviour is explored as a pure function of one `u64` seed:
//!
//! - [`sim`] — the world: event queue, partitions, router node, fault
//!   injection, byte-stable trace (written without `core::fmt` by the
//!   private `tracebuf` module).
//! - [`oracle`] — the seven invariants (credit exactness, at-most-one
//!   charge per attempt nonce, bounded over-admission during
//!   failover/brownout, availability floor, lease coverage, reclamation
//!   never minting credit, and bounded retry amplification with
//!   credit-exact hedging), checked after every event by a sweep over
//!   the keys the event touched.
//! - [`search`] — randomized fault-schedule search, greedy schedule
//!   shrinking to a minimal reproducer, and the committed seed corpus
//!   replayed by CI (`tests/dst_corpus.txt`).
//!
//! Like the whole workspace, the crate depends on nothing but `std`:
//! `cargo test -p janus-dst` replays the corpus and runs the search, and
//! byte-exact replay is pinned by `scripts/check_determinism.sh`.

pub mod oracle;
pub mod search;
pub mod sim;
mod tracebuf;

pub use oracle::OracleState;
pub use search::{
    config_for, parse_corpus, run_seed, search, shrink, shrink_directives, CorpusEntry, Profile,
    PROFILES,
};
pub use sim::{Completion, Directive, DirectiveKind, Sim, SimConfig, SimReport};
