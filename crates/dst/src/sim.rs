//! The seeded cluster simulator: a discrete-event scheduler driving the
//! sans-IO protocol cores through an in-memory faulty network.
//!
//! One [`Sim`] owns a [`RouterCore`] (the admission client: hashing,
//! retries, deadline stamping, breakers, degraded hints) and a set of
//! [`ServerCore`] partitions (admit/shed/dedup over a [`QosTable`]),
//! exactly the objects the production thread shells drive — the
//! simulator runs *byte-identical decision logic*, only the transport
//! and the clock are simulated. Datagrams pass through a
//! [`FaultPlan`] that drops, delays, duplicates and reorders them from
//! a seeded PRNG; [`Directive`]s crash partitions, sever links and
//! shift fault probabilities mid-run. Every event writes its lines into
//! one trace buffer (same seed ⇒ byte-identical trace) and is followed
//! by the [`OracleState::sweep`] over the keys it touched.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use janus_bucket::{DefaultRulePolicy, LockFreeTable, QosTable, ShardedTable};
use janus_clock::{Clock, Nanos, SimClock};
use janus_hash::Rng;
use janus_net::attempt::{AttemptPlan, AttemptStep};
use janus_net::breaker::BreakerConfig;
use janus_net::fault::{Fate, FaultPlan};
use janus_router::core::{
    GrayConfig, LeaseEvent, LocalAnswer, RouterCore, RouterCoreConfig, RouterLeaseConfig,
    RouterStep,
};
use janus_server::core::{decode_snapshot_header, encode_snapshot, ServerCore};
use janus_server::{LeaseConfig, OverloadConfig};
use janus_types::{
    AttemptMeta, Credits, QosKey, QosRequest, QosResponse, QosRule, RefillRate, Verdict,
};

use crate::oracle::OracleState;
use crate::tracebuf::TraceBuf;

/// Virtual start of time: past zero so breaker/bucket timestamp
/// arithmetic never sits on the epoch edge.
const T0: Nanos = Nanos::from_secs(1);

/// Runaway backstop: a healthy run of the default config processes a
/// few thousand events; hitting this cap is itself reported as a
/// violation rather than looping forever.
const EVENT_CAP: u64 = 500_000;

/// Bounded reclaim quantum per sweep tick, mirroring the production
/// maintenance loop's batch cap.
const RECLAIM_SWEEP: usize = 32;

/// Trace bytes reserved per configured request: the eleven fault
/// profiles write 190–310 bytes per request, so most runs never grow
/// the buffer. The reservation stops at [`TRACE_RESERVE_CAP`]; a longer
/// run grows the buffer as it writes.
const TRACE_BYTES_PER_REQUEST: usize = 320;
const TRACE_RESERVE_CAP: usize = 1 << 20;

/// Append one trace line, `[<µs since T0>us] <pieces>`, to `$sim`'s
/// trace buffer. Each piece (a `&str`, an integer) is written as `{}`
/// would print it, without `core::fmt` ([`TraceBuf`]). A macro rather
/// than a method so a piece may borrow other fields of the simulator
/// (key names) while the buffer is written.
macro_rules! note {
    ($sim:ident, $($piece:expr),+ $(,)?) => {{
        $sim.trace.line($sim.clock.now().as_nanos().saturating_sub(T0.as_nanos()) / 1_000);
        $($sim.trace.put($piece);)+
        $sim.trace.end_line();
    }};
}

/// One scripted fault, applied at a virtual-time offset from [`T0`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// Offset from the start of the run.
    pub at: Duration,
    /// What happens.
    pub kind: DirectiveKind,
}

/// The fault vocabulary the schedule searcher composes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectiveKind {
    /// Kill a partition's server process: table, queue and dedup state
    /// are lost. It reboots after the configured failover/restart
    /// delay (standby adoption when `ha`, cold restart otherwise).
    Crash {
        /// Victim partition (wrapped modulo the partition count).
        partition: usize,
    },
    /// Cut the router↔partition link in both directions.
    Sever {
        /// Victim partition (wrapped modulo the partition count).
        partition: usize,
        /// How long the link stays down.
        heal_after: Duration,
    },
    /// Degrade the whole network: percentages of datagrams dropped,
    /// duplicated and deferred (reordered) until healed.
    Burst {
        /// Percent of datagrams silently dropped.
        drop_pct: u8,
        /// Percent of datagrams delivered twice.
        dup_pct: u8,
        /// Percent of datagrams deferred so later sends overtake them.
        reorder_pct: u8,
        /// How long the burst lasts.
        heal_after: Duration,
    },
    /// Re-apply a key's rule on its owning partition (an administrative
    /// rule touch with the same shape). Credit is preserved, but the
    /// server's lease ledger bumps the key's epoch and revokes every
    /// outstanding lease — racing any zero-RTT admits in flight.
    RuleChange {
        /// Victim key (wrapped modulo the key count).
        key: usize,
    },
    /// Gray-fail one partition's links: every datagram to or from it is
    /// delivered `factor`× slower than the healthy link latency — no
    /// drops, no crash, nothing a liveness check would notice. A large
    /// factor over a short window models a GC-style stall.
    Gray {
        /// Victim partition (wrapped modulo the partition count).
        partition: usize,
        /// Latency multiplier while gray (≥ 1).
        factor: u32,
        /// How long the partition stays gray.
        heal_after: Duration,
    },
}

/// Everything that parameterizes one deterministic run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed: nonces and network fates derive from it.
    pub seed: u64,
    /// QoS server partitions behind the router.
    pub partitions: usize,
    /// Standby snapshot adoption on crash (`true`) vs cold restart.
    pub ha: bool,
    /// Client requests issued over the run.
    pub requests: u32,
    /// Distinct tenant keys the requests cycle through.
    pub keys: u32,
    /// Per-key bucket capacity in whole requests; refill is zero so
    /// credit arithmetic is exact.
    pub capacity: u64,
    /// Gap between consecutive client requests.
    pub request_gap: Duration,
    /// Per-attempt RPC timeout.
    pub rpc_timeout: Duration,
    /// Attempt slots per logical request (first try + retries).
    pub attempts: u32,
    /// Worker service time per queued job.
    pub service_time: Duration,
    /// One-way link latency.
    pub link_latency: Duration,
    /// Master→standby snapshot cadence (HA mode).
    pub replication_interval: Duration,
    /// Crash→standby-adoption delay (HA mode).
    pub failover_delay: Duration,
    /// Crash→cold-restart delay (non-HA mode).
    pub restart_delay: Duration,
    /// Server dedup window size; 0 disables deduplication (the oracle
    /// non-vacuousness lever).
    pub dedup_window: usize,
    /// Server ingress FIFO capacity.
    pub fifo_capacity: usize,
    /// Enable the credit-lease plane on both sides: servers grant
    /// short-TTL slices of hot keys, the router admits them locally and
    /// reconciles spend asynchronously. Off reproduces the pre-lease
    /// RPC-per-decision behaviour (and byte-identical traces).
    pub lease: bool,
    /// Enable the bounded-memory engine on every partition: server
    /// tables become lock-free incremental-resize tables with idle-key
    /// reclamation into a per-partition simulated cold tier (the rule
    /// database, which survives crashes). Off reproduces the pre-churn
    /// sharded-table behaviour (and byte-identical traces).
    pub churn: bool,
    /// Keys idle longer than this are demoted to the cold tier with
    /// their exact remaining credit (churn mode).
    pub idle_ttl: Duration,
    /// Cadence of the reclaim sweep over all partitions (churn mode).
    pub reclaim_interval: Duration,
    /// Initial lock-free slot count (churn mode); a count smaller than
    /// the keyspace forces incremental resizes mid-run.
    pub table_slots: usize,
    /// Fault lever for the oracle non-vacuousness test: readmit demoted
    /// keys at full capacity instead of their saved credit, minting
    /// credit that oracle 6 must catch.
    pub churn_mint_bug: bool,
    /// Enable the gray-failure client plane ([`GrayConfig::default`]):
    /// per-partition adaptive attempt timeouts, credit-safe same-nonce
    /// hedging, and the node-global retry budget. Off reproduces the
    /// fixed-discipline behaviour (and byte-identical traces).
    pub gray: bool,
    /// Fault lever for the oracle non-vacuousness test: hedge with a
    /// *fresh* nonce instead of reusing the attempt nonce, so the dedup
    /// window cannot pair the copies and the hedged call is charged
    /// twice — which oracle 7 must catch.
    pub hedge_fresh_nonce_bug: bool,
    /// The scripted fault schedule.
    pub directives: Vec<Directive>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            partitions: 3,
            ha: false,
            requests: 120,
            keys: 4,
            capacity: 10,
            request_gap: Duration::from_millis(2),
            rpc_timeout: Duration::from_millis(10),
            attempts: 3,
            service_time: Duration::from_micros(500),
            link_latency: Duration::from_micros(200),
            replication_interval: Duration::from_millis(20),
            failover_delay: Duration::from_millis(5),
            restart_delay: Duration::from_millis(25),
            dedup_window: 1024,
            fifo_capacity: 64,
            lease: false,
            churn: false,
            idle_ttl: Duration::from_millis(10),
            reclaim_interval: Duration::from_millis(5),
            table_slots: 8,
            churn_mint_bug: false,
            gray: false,
            hedge_fresh_nonce_bug: false,
            directives: Vec::new(),
        }
    }
}

/// How one logical request finally completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// A QoS server answered (fresh, cached or shed verdict).
    Backend(Verdict),
    /// A held credit lease admitted the request locally (always Allow,
    /// zero network I/O).
    Leased,
    /// The router answered from a learned hint bucket (brownout).
    Degraded(Verdict),
    /// The router fell back to the static default verdict.
    Default(Verdict),
}

#[derive(Debug)]
struct Call {
    key_idx: usize,
    partition: usize,
    plan: Option<AttemptPlan>,
    issued_at: Nanos,
    completed_at: Option<Nanos>,
    completion: Option<Completion>,
    /// When the most recent wire copy (attempt or hedge) was sent —
    /// the base for the RTT sample recorded at first answer.
    last_sent: Nanos,
    /// A hedge duplicate has been issued for this call.
    hedged: bool,
}

struct Partition {
    core: Option<ServerCore>,
    /// Latest snapshot the standby holds (decoded from the production
    /// `SNAPSHOT` wire format each replication round).
    standby: Vec<QosRule>,
    severed: bool,
    /// Link latency multiplier: 1 when healthy, >1 while gray-failed.
    latency_factor: u32,
    epoch: u32,
    reboots: u64,
    poll_scheduled: bool,
}

#[derive(Debug, Clone)]
enum Event {
    Issue(u32),
    DeliverRequest {
        call: u32,
        partition: usize,
        request: QosRequest,
    },
    DeliverResponse {
        call: u32,
        partition: usize,
        response: QosResponse,
    },
    RetryTimer {
        call: u32,
        attempt: u32,
    },
    HedgeTimer {
        call: u32,
        attempt: u32,
    },
    Poll {
        partition: usize,
        epoch: u32,
    },
    Replicate,
    Reboot {
        partition: usize,
        epoch: u32,
    },
    Apply(usize),
    Heal(usize),
    ReclaimTick,
}

/// The event queue: 24-byte `(at, seq, slot)` keys kept sorted
/// latest-first in one `Vec`, over a slab of events whose freed slots
/// are reused. `pop` takes the last key, the earliest event; `push`
/// appends and walks its key back past every key that runs before it.
/// `seq` is unique, so the order is `(at, seq)` alone: ties in virtual
/// time pop in scheduling order and `slot` never decides.
///
/// A sorted run beats a binary heap here because the backlog is short:
/// at most 45 pending events over the corpus and 66 over seeds 1–1,000
/// of every profile (EXPERIMENTS.md, "A simulated request without a heap
/// sift"). A push walks in from the earliest end and stops at the first
/// event that runs after it, so it moves only the keys it passes, at
/// most the backlog; a pop moves nothing. A heap sifts `log₂` levels on
/// both. The loop stops allocating once the slab has grown to the run's
/// peak backlog.
#[derive(Debug, Default)]
struct EventQueue {
    /// Pending `(at, seq, slot)` keys, descending by `(at, seq)`.
    pending: Vec<(u64, u64, u32)>,
    slab: Vec<Option<Event>>,
    free: Vec<u32>,
}

impl EventQueue {
    fn push(&mut self, at: u64, seq: u64, event: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 events queued at once")
            }
        };
        // Walk in from the earliest end: most new events (deliveries,
        // polls) run before nearly everything pending, so the walk passes
        // 2.9 keys on average and stops short of the far-off directives
        // and timers at the front.
        let mut place = self.pending.len();
        self.pending.push((at, seq, slot));
        while place > 0 {
            let (a, s, _) = self.pending[place - 1];
            if (a, s) > (at, seq) {
                break;
            }
            self.pending[place] = self.pending[place - 1];
            place -= 1;
        }
        self.pending[place] = (at, seq, slot);
    }

    /// The earliest event and its virtual time.
    fn pop(&mut self) -> Option<(u64, Event)> {
        let (at, _, slot) = self.pending.pop()?;
        self.free.push(slot);
        let event = self.slab[slot as usize]
            .take()
            .expect("queued slot holds its event");
        Some((at, event))
    }
}

/// What one run produced: the byte-stable trace, the violations, and
/// summary counters for assertions and the CLI.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The seed the run used.
    pub seed: u64,
    /// One line per simulated event, byte-identical across reruns of
    /// the same config.
    pub trace: String,
    /// Oracle violations, in discovery order (empty = healthy run).
    pub violations: Vec<String>,
    /// Requests issued / completed.
    pub issued: u32,
    /// Requests that reached a completion.
    pub completed: u32,
    /// Completions answered by a QoS server.
    pub backend: u32,
    /// Completions admitted from a held credit lease (zero RTT).
    pub leased: u32,
    /// Completions answered from a learned hint bucket.
    pub degraded: u32,
    /// Completions answered by the static default verdict.
    pub defaulted: u32,
    /// Fresh server-side `Allow` decisions per key: `(name, count)`.
    pub per_key_allows: Vec<(String, u64)>,
    /// Degraded-mode allows per key: `(name, count)`.
    pub per_key_degraded: Vec<(String, u64)>,
    /// Lease admits per key: `(name, count)`.
    pub per_key_leased: Vec<(String, u64)>,
    /// Total partition reboots over the run.
    pub reboots: u64,
    /// Datagrams the fault plan dropped / duplicated / deferred.
    pub dropped: u64,
    /// See [`SimReport::dropped`].
    pub duplicated: u64,
    /// See [`SimReport::dropped`].
    pub reordered: u64,
    /// Hedge duplicates put on the wire (gray mode).
    pub hedges: u64,
    /// Calls answered after their hedge fired (gray mode).
    pub hedge_wins: u64,
    /// Retries or hedges the global budget refused (gray mode).
    pub budget_refused: u64,
}

impl SimReport {
    /// True when every oracle held for the whole run.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A deterministic multi-line summary (the CLI prints it under the
    /// trace; the determinism check diffs it along with the trace).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "seed={} issued={} completed={} backend={} leased={} degraded={} default={}\n",
            self.seed,
            self.issued,
            self.completed,
            self.backend,
            self.leased,
            self.degraded,
            self.defaulted
        ));
        out.push_str(&format!(
            "reboots={} net: dropped={} duplicated={} reordered={}\n",
            self.reboots, self.dropped, self.duplicated, self.reordered
        ));
        // Only gray-mode runs print the gray line, so legacy summaries
        // stay byte-identical.
        if self.hedges > 0 || self.hedge_wins > 0 || self.budget_refused > 0 {
            out.push_str(&format!(
                "gray: hedges={} hedge_wins={} budget_refused={}\n",
                self.hedges, self.hedge_wins, self.budget_refused
            ));
        }
        for (name, count) in &self.per_key_allows {
            out.push_str(&format!("allows {name}={count}\n"));
        }
        for (name, count) in &self.per_key_degraded {
            if *count > 0 {
                out.push_str(&format!("degraded {name}={count}\n"));
            }
        }
        for (name, count) in &self.per_key_leased {
            if *count > 0 {
                out.push_str(&format!("leased {name}={count}\n"));
            }
        }
        match self.violations.len() {
            0 => out.push_str("violations: none\n"),
            n => {
                out.push_str(&format!("violations: {n}\n"));
                for v in &self.violations {
                    out.push_str(&format!("  {v}\n"));
                }
            }
        }
        out
    }
}

/// The deterministic cluster simulator. Build with [`Sim::new`], then
/// [`Sim::run`] to completion.
pub struct Sim {
    config: SimConfig,
    clock: SimClock,
    router: RouterCore,
    partitions: Vec<Partition>,
    /// Per-partition simulated cold tier (churn mode): rules demoted
    /// with their exact remaining credit, awaiting readmission. Models
    /// the rule database, so it survives partition crashes.
    cold: Vec<BTreeMap<QosKey, QosRule>>,
    calls: Vec<Call>,
    events: EventQueue,
    seq: u64,
    fault: Arc<FaultPlan>,
    trace: TraceBuf,
    oracle: OracleState,
    key_names: Vec<String>,
    keys: Vec<QosKey>,
    owners: Vec<usize>,
    nonce_base: u32,
    completed: u32,
    backend: u32,
    leased: u32,
    degraded: u32,
    defaulted: u32,
    hedges: u64,
    hedge_wins: u64,
    budget_refused: u64,
}

impl Sim {
    /// Build a world from `config`: router core with breakers on,
    /// every partition booted with full zero-refill buckets for the
    /// keys it owns, network clean until the first directive.
    pub fn new(config: SimConfig) -> Self {
        let config = SimConfig {
            partitions: config.partitions.max(1),
            keys: config.keys.max(1),
            attempts: config.attempts.max(1),
            ..config
        };
        let mut rng = Rng::seed_from_u64(config.seed);
        let nonce_base = rng.next_u32();
        let gray_config = config.gray.then(GrayConfig::default);
        let router = RouterCore::new(RouterCoreConfig {
            partitions: config.partitions,
            default_verdict: Verdict::Deny,
            fleet_size: 1,
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                open_timeout: config.rpc_timeout * 2,
            }),
            // Holder id 7: arbitrary but fixed, so traces stay stable.
            lease: config.lease.then(|| RouterLeaseConfig::new(7)),
            gray: gray_config.clone(),
        });
        let key_names: Vec<String> = (0..config.keys).map(|i| format!("tenant-{i}")).collect();
        let keys: Vec<QosKey> = key_names
            .iter()
            .map(|n| QosKey::new(n).expect("generated key is valid"))
            .collect();
        let owners: Vec<usize> = keys.iter().map(|k| router.route(k)).collect();
        let fault = FaultPlan::new(0.0, 0.0, Duration::ZERO, rng.next_u64());
        let mut oracle = OracleState::new(keys.len(), config.capacity);
        if let Some(budget) = gray_config.as_ref().and_then(|g| g.budget) {
            oracle.set_retry_budget(budget.deposit_pct, budget.min_reserve);
        }
        let mut sim = Sim {
            clock: SimClock::starting_at(T0),
            router,
            partitions: Vec::new(),
            cold: Vec::new(),
            calls: Vec::new(),
            events: EventQueue::default(),
            seq: 0,
            fault,
            trace: TraceBuf::with_capacity(
                (config.requests as usize)
                    .saturating_mul(TRACE_BYTES_PER_REQUEST)
                    .min(TRACE_RESERVE_CAP),
            ),
            oracle,
            key_names,
            keys,
            owners,
            nonce_base,
            completed: 0,
            backend: 0,
            leased: 0,
            degraded: 0,
            defaulted: 0,
            hedges: 0,
            hedge_wins: 0,
            budget_refused: 0,
            config,
        };
        sim.cold = vec![BTreeMap::new(); sim.config.partitions];
        for p in 0..sim.config.partitions {
            let core = sim.boot_core(p, None);
            sim.partitions.push(Partition {
                core: Some(core),
                standby: Vec::new(),
                severed: false,
                latency_factor: 1,
                epoch: 0,
                reboots: 0,
                poll_scheduled: false,
            });
        }
        // Request `i` is queued as seq `i + 1`, but only when request
        // `i - 1` runs (`on_issue`): the heap holds one pending issue
        // instead of all of them, and every event keeps the key it would
        // have had with all issues queued up front.
        if sim.config.requests > 0 {
            sim.schedule_at(T0, Event::Issue(0));
            sim.seq = u64::from(sim.config.requests);
        }
        for (i, d) in sim.config.directives.clone().iter().enumerate() {
            sim.schedule_at(T0 + d.at, Event::Apply(i));
        }
        if sim.config.ha {
            sim.schedule_at(T0 + sim.config.replication_interval, Event::Replicate);
        }
        if sim.config.churn {
            sim.schedule_at(T0 + sim.config.reclaim_interval, Event::ReclaimTick);
        }
        sim
    }

    /// A freshly booted server core for partition `p`. With `restore`
    /// it adopts the given snapshot (HA failover, via the production
    /// wire encoding); otherwise it re-reads its owned rules at full
    /// credit (cold restart re-reading the rule database).
    fn boot_core(&mut self, p: usize, restore: Option<Vec<QosRule>>) -> ServerCore {
        let table: Arc<dyn QosTable> = if self.config.churn {
            Arc::new(LockFreeTable::with_slots(self.config.table_slots))
        } else {
            Arc::new(ShardedTable::with_shards(8))
        };
        let overload = OverloadConfig {
            dedup_window: self.config.dedup_window,
            sojourn_shedding: false,
            ..OverloadConfig::default()
        };
        let mut core = ServerCore::new(
            table,
            DefaultRulePolicy::Deny,
            self.config.fifo_capacity,
            overload,
        );
        if self.config.lease {
            core = core.with_lease(LeaseConfig {
                enabled: true,
                ttl: self.config.rpc_timeout,
                hot_threshold: 2,
                max_holders: 2,
                slice_fraction: 4,
            });
        }
        let now = self.clock.now();
        match restore {
            Some(rules) => core.restore(rules, now),
            None => {
                for (idx, key) in self.keys.iter().enumerate() {
                    if self.owners[idx] == p {
                        // Cold restart re-reads the rule database. In
                        // churn mode a demoted key's row carries its
                        // checkpointed credit, so warm-up resumes it
                        // exactly instead of minting a full bucket.
                        let cold = self.cold.get_mut(p).and_then(|tier| tier.remove(key));
                        let rule = cold.unwrap_or_else(|| {
                            QosRule::new(
                                key.clone(),
                                Credits::from_whole(self.config.capacity),
                                RefillRate::ZERO,
                            )
                        });
                        core.table().insert(rule, now);
                    }
                }
            }
        }
        core
    }

    fn schedule_at(&mut self, at: Nanos, event: Event) {
        let at = at.max(self.clock.now());
        self.seq += 1;
        self.events.push(at.as_nanos(), self.seq, event);
    }

    fn schedule_in(&mut self, d: Duration, event: Event) {
        self.schedule_at(self.clock.now() + d, event);
    }

    fn all_done(&self) -> bool {
        self.completed >= self.config.requests
    }

    /// Drain the event queue, sweeping the oracles over the keys each
    /// event touched, then assert the availability floor and assemble
    /// the report.
    pub fn run(self) -> SimReport {
        self.run_with(|oracle, names, reboots_of| oracle.sweep(names, reboots_of))
    }

    /// The event loop, with the end-of-event oracle check as a
    /// parameter: `check(oracle, key_names, reboots_of)`. [`Sim::run`]
    /// passes the touched-key sweep; tests pass the every-key model.
    fn run_with(
        mut self,
        mut check: impl FnMut(&mut OracleState, &[String], &dyn Fn(usize) -> u64),
    ) -> SimReport {
        let mut processed: u64 = 0;
        while let Some((at, event)) = self.events.pop() {
            self.clock.set(Nanos::from_nanos(at));
            self.handle(event);
            let (partitions, owners) = (&self.partitions, &self.owners);
            check(&mut self.oracle, &self.key_names, &|idx| {
                partitions[owners[idx]].reboots
            });
            processed += 1;
            if processed > EVENT_CAP {
                self.oracle
                    .record_violation(format!("event cap {EVENT_CAP} exceeded: runaway schedule"));
                break;
            }
        }
        let budget = self.config.rpc_timeout * self.config.attempts;
        let slack = Duration::from_millis(1);
        for i in 0..self.calls.len() {
            let (issued_at, completed_at) = (self.calls[i].issued_at, self.calls[i].completed_at);
            self.oracle
                .check_availability(i as u32, issued_at, completed_at, budget, slack);
        }
        let per_key_allows = self
            .key_names
            .iter()
            .cloned()
            .zip(self.oracle.server_allows.iter().copied())
            .collect();
        let per_key_degraded = self
            .key_names
            .iter()
            .cloned()
            .zip(self.oracle.degraded_allows.iter().copied())
            .collect();
        let per_key_leased = self
            .key_names
            .iter()
            .cloned()
            .zip(self.oracle.lease_admits.iter().copied())
            .collect();
        // Every line ends in '\n'; a run that traced nothing still
        // yields one empty line.
        if self.trace.is_empty() {
            self.trace.end_line();
        }
        SimReport {
            seed: self.config.seed,
            trace: self.trace.into_string(),
            violations: self.oracle.violations().to_vec(),
            issued: self.calls.len() as u32,
            completed: self.completed,
            backend: self.backend,
            leased: self.leased,
            degraded: self.degraded,
            defaulted: self.defaulted,
            per_key_allows,
            per_key_degraded,
            per_key_leased,
            reboots: self.partitions.iter().map(|p| p.reboots).sum(),
            dropped: self.fault.dropped(),
            duplicated: self.fault.duplicated(),
            reordered: self.fault.reordered(),
            hedges: self.hedges,
            hedge_wins: self.hedge_wins,
            budget_refused: self.budget_refused,
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Issue(n) => self.on_issue(n),
            Event::DeliverRequest {
                call,
                partition,
                request,
            } => self.on_deliver_request(call, partition, request),
            Event::DeliverResponse {
                call,
                partition,
                response,
            } => self.on_deliver_response(call, partition, response),
            Event::RetryTimer { call, attempt } => self.on_retry_timer(call, attempt),
            Event::HedgeTimer { call, attempt } => self.on_hedge_timer(call, attempt),
            Event::Poll { partition, epoch } => self.on_poll(partition, epoch),
            Event::Replicate => self.on_replicate(),
            Event::Reboot { partition, epoch } => self.on_reboot(partition, epoch),
            Event::Apply(i) => self.on_apply(i),
            Event::Heal(i) => self.on_heal(i),
            Event::ReclaimTick => self.on_reclaim_tick(),
        }
    }

    /// One bounded reclaim sweep over every live partition (churn
    /// mode): idle keys are demoted into the partition's cold tier with
    /// their exact remaining credit and recorded with oracle 6.
    fn on_reclaim_tick(&mut self) {
        let now = self.clock.now();
        for p in 0..self.partitions.len() {
            let Some(core) = &self.partitions[p].core else {
                continue;
            };
            let reclaimed = core
                .table()
                .reclaim_idle(now, self.config.idle_ttl, RECLAIM_SWEEP);
            for row in reclaimed {
                let idx = self
                    .keys
                    .iter()
                    .position(|k| *k == row.rule.key)
                    .expect("simulated keys only");
                note!(
                    self,
                    "p",
                    p,
                    " reclaim key=",
                    &self.key_names[idx],
                    " credit=",
                    row.rule.credit.whole()
                );
                self.oracle.record_reclaim(idx);
                self.cold[p].insert(row.rule.key.clone(), row.rule);
            }
        }
        if !self.all_done() {
            self.schedule_in(self.config.reclaim_interval, Event::ReclaimTick);
        }
    }

    /// Poll-time readmission (churn mode): if the job at the head of
    /// the queue names a key that was demoted, pull its row back from
    /// the cold tier before the worker decides — the miss path's
    /// point-SELECT. With the `churn_mint_bug` lever the row comes back
    /// at full capacity instead of its saved credit, which oracle 6
    /// must flag.
    fn readmit_for_next_job(&mut self, partition: usize) {
        let now = self.clock.now();
        let Some(core) = &self.partitions[partition].core else {
            return;
        };
        let Some(key) = core.peek_queue().map(|r| r.key.clone()) else {
            return;
        };
        if core.table().shape(&key).is_some() {
            return;
        }
        let Some(mut rule) = self.cold[partition].remove(&key) else {
            return;
        };
        if self.config.churn_mint_bug {
            rule.credit = rule.capacity;
        }
        let idx = self
            .keys
            .iter()
            .position(|k| *k == key)
            .expect("simulated keys only");
        note!(
            self,
            "p",
            partition,
            " readmit key=",
            &self.key_names[idx],
            " credit=",
            rule.credit.whole()
        );
        let core = self.partitions[partition].core.as_ref().expect("checked");
        core.table().insert(rule, now);
    }

    fn on_issue(&mut self, n: u32) {
        let now = self.clock.now();
        if n + 1 < self.config.requests {
            let at = T0 + self.config.request_gap * (n + 1);
            self.events
                .push(at.as_nanos(), u64::from(n) + 2, Event::Issue(n + 1));
        }
        let key_idx = (n as usize) % self.keys.len();
        let key = self.keys[key_idx].clone();
        let name = &self.key_names[key_idx];
        match self.router.begin(&key, now) {
            RouterStep::LeaseAdmit { partition } => {
                self.calls.push(Call {
                    key_idx,
                    partition,
                    plan: None,
                    issued_at: now,
                    completed_at: Some(now),
                    completion: Some(Completion::Leased),
                    last_sent: now,
                    hedged: false,
                });
                note!(self, "issue #", n, " key=", name, " lease-admit");
                let reboots = self.partitions[self.owners[key_idx]].reboots;
                self.oracle.record_lease_admit(key_idx, name, reboots);
                self.completed += 1;
                self.leased += 1;
            }
            RouterStep::FastFail { partition, answer } => {
                self.calls.push(Call {
                    key_idx,
                    partition,
                    plan: None,
                    issued_at: now,
                    completed_at: None,
                    completion: None,
                    last_sent: now,
                    hedged: false,
                });
                note!(
                    self,
                    "issue #",
                    n,
                    " key=",
                    name,
                    " -> p",
                    partition,
                    " fast-fail"
                );
                self.complete_local(n, answer);
            }
            RouterStep::Forward {
                partition,
                solicit_hint,
                lease_ask,
            } => {
                let id = u64::from(n) + 1;
                let ask = match &lease_ask {
                    None => "",
                    Some(r) if r.giving_back => " +lease-return",
                    Some(r) if r.epoch > 0 => " +lease-renew",
                    Some(_) => " +lease-ask",
                };
                let mut base = if solicit_hint {
                    QosRequest::soliciting_hint(id, key)
                } else {
                    QosRequest::new(id, key)
                };
                if let Some(report) = lease_ask {
                    base = base.with_lease(report);
                }
                let total = self.config.rpc_timeout * self.config.attempts;
                let nonce = self.nonce_base.wrapping_add(n.wrapping_mul(2_654_435_761));
                let plan = AttemptPlan::stamped(base, self.config.attempts, now, total, nonce);
                self.calls.push(Call {
                    key_idx,
                    partition,
                    plan: Some(plan),
                    issued_at: now,
                    completed_at: None,
                    completion: None,
                    last_sent: now,
                    hedged: false,
                });
                note!(self, "issue #", n, " key=", name, " -> p", partition, ask);
                self.send_attempt(n, 0);
            }
        }
    }

    fn send_attempt(&mut self, call: u32, attempt: u32) {
        let now = self.clock.now();
        let partition = self.calls[call as usize].partition;
        // Every retry must pay the global budget before it may touch
        // the wire (gray mode); a refused retry gives up immediately —
        // that is the retry-amplification bound doing its job.
        if attempt > 0 {
            if let Some(budget) = self.router.retry_budget() {
                if !budget.try_withdraw() {
                    self.budget_refused += 1;
                    note!(self, "budget-refused #", call, " retry ", attempt);
                    self.give_up(call);
                    return;
                }
            }
        }
        let step = {
            let plan = self.calls[call as usize]
                .plan
                .as_ref()
                .expect("forwarded call has a plan");
            plan.request_for(attempt, now)
        };
        match step {
            AttemptStep::BudgetSpent => {
                note!(
                    self,
                    "give-up #",
                    call,
                    " budget spent at attempt ",
                    attempt
                );
                self.give_up(call);
            }
            AttemptStep::Send(request) => {
                if attempt == 0 {
                    if let Some(budget) = self.router.retry_budget() {
                        budget.deposit();
                    }
                    self.oracle.record_primary();
                } else {
                    self.oracle.record_wire_extra();
                }
                let kind = if request.attempt.is_some() {
                    "stamped"
                } else {
                    "legacy"
                };
                note!(self, "send #", call, ".", attempt, " -> p", partition, " (", kind, ")");
                // Baseline (gray off / warming up) is the configured
                // fixed timeout, so legacy schedules are untouched.
                let timeout = self
                    .router
                    .attempt_timeout(partition, self.config.rpc_timeout);
                self.calls[call as usize].last_sent = now;
                self.transmit_request(call, partition, request);
                self.schedule_in(timeout, Event::RetryTimer { call, attempt });
                if !self.calls[call as usize].hedged {
                    if let Some(delay) = self.router.hedge_delay(partition) {
                        if delay < timeout {
                            self.schedule_in(delay, Event::HedgeTimer { call, attempt });
                        }
                    }
                }
            }
        }
    }

    /// The hedge fired: the attempt has been in flight longer than the
    /// partition's learned tail. Re-present the *same* attempt nonce
    /// (restamped deadline budget) as a second wire copy — the server's
    /// dedup window answers the loser from cache, so the pair costs at
    /// most one credit by construction.
    fn on_hedge_timer(&mut self, call: u32, attempt: u32) {
        let now = self.clock.now();
        if self.calls[call as usize].completion.is_some() || self.calls[call as usize].hedged {
            return;
        }
        let partition = self.calls[call as usize].partition;
        let hedge = {
            let plan = self.calls[call as usize]
                .plan
                .as_ref()
                .expect("hedged call has a plan");
            plan.hedge_for(attempt, now)
        };
        let Some(mut request) = hedge else {
            return; // deadline already spent: no point duplicating
        };
        if let Some(budget) = self.router.retry_budget() {
            if !budget.try_withdraw() {
                self.budget_refused += 1;
                note!(self, "budget-refused #", call, " hedge");
                return;
            }
        }
        let mut tag = "same nonce";
        if self.config.hedge_fresh_nonce_bug {
            // Oracle non-vacuousness lever: a hedge that draws a fresh
            // nonce defeats the dedup pairing and double-charges.
            if let Some(meta) = request.attempt {
                request.attempt = Some(AttemptMeta::new(meta.budget_us, meta.nonce ^ 0x5A5A_5A5A));
                tag = "fresh-nonce bug";
            }
        }
        self.calls[call as usize].hedged = true;
        self.hedges += 1;
        self.oracle.record_wire_extra();
        self.oracle.record_hedged_request(request.id);
        note!(self, "hedge #", call, ".", attempt, " -> p", partition, " (", tag, ")");
        self.calls[call as usize].last_sent = now;
        self.transmit_request(call, partition, request);
    }

    fn transmit_request(&mut self, call: u32, partition: usize, request: QosRequest) {
        let latency = self.config.link_latency * self.partitions[partition].latency_factor;
        match self.fault.judge_fate() {
            Fate::Drop => note!(self, "net drop req #", call, " -> p", partition),
            Fate::Deliver(extra) => self.schedule_in(
                latency + extra,
                Event::DeliverRequest {
                    call,
                    partition,
                    request,
                },
            ),
            Fate::Duplicate(extra) => {
                note!(self, "net dup req #", call, " -> p", partition);
                self.schedule_in(
                    latency,
                    Event::DeliverRequest {
                        call,
                        partition,
                        request: request.clone(),
                    },
                );
                self.schedule_in(
                    latency + extra,
                    Event::DeliverRequest {
                        call,
                        partition,
                        request,
                    },
                );
            }
            Fate::Defer(extra) => {
                note!(self, "net defer req #", call, " -> p", partition);
                self.schedule_in(
                    latency + extra,
                    Event::DeliverRequest {
                        call,
                        partition,
                        request,
                    },
                );
            }
        }
    }

    fn transmit_response(&mut self, call: u32, partition: usize, response: QosResponse) {
        if self.partitions[partition].severed {
            note!(self, "net severed resp #", call, " from p", partition);
            return;
        }
        let latency = self.config.link_latency * self.partitions[partition].latency_factor;
        match self.fault.judge_fate() {
            Fate::Drop => note!(self, "net drop resp #", call, " from p", partition),
            Fate::Deliver(extra) => self.schedule_in(
                latency + extra,
                Event::DeliverResponse {
                    call,
                    partition,
                    response,
                },
            ),
            Fate::Duplicate(extra) => {
                note!(self, "net dup resp #", call, " from p", partition);
                self.schedule_in(
                    latency,
                    Event::DeliverResponse {
                        call,
                        partition,
                        response,
                    },
                );
                self.schedule_in(
                    latency + extra,
                    Event::DeliverResponse {
                        call,
                        partition,
                        response,
                    },
                );
            }
            Fate::Defer(extra) => {
                note!(self, "net defer resp #", call, " from p", partition);
                self.schedule_in(
                    latency + extra,
                    Event::DeliverResponse {
                        call,
                        partition,
                        response,
                    },
                );
            }
        }
    }

    fn on_deliver_request(&mut self, call: u32, partition: usize, request: QosRequest) {
        let now = self.clock.now();
        if self.partitions[partition].severed {
            note!(self, "net severed req #", call, " -> p", partition);
            return;
        }
        if self.partitions[partition].core.is_none() {
            note!(self, "p", partition, " down, req #", call, " lost");
            return;
        }
        let (response, queued, dedup_delta, shed_delta, expired_delta) = {
            let core = self.partitions[partition].core.as_mut().expect("checked");
            let before = core.stats;
            let response = core.on_request(request, now);
            let after = core.stats;
            (
                response,
                core.queue_len() > 0,
                after.dedup_hits - before.dedup_hits,
                after.shed_full - before.shed_full,
                after.shed_expired - before.shed_expired,
            )
        };
        match &response {
            Some(r) => {
                let why = if dedup_delta > 0 {
                    "cached"
                } else if shed_delta > 0 {
                    "shed-full"
                } else {
                    "reply"
                };
                note!(
                    self,
                    "p",
                    partition,
                    " recv #",
                    call,
                    " -> ",
                    why,
                    " ",
                    verdict_str(r.verdict)
                );
            }
            None => {
                let why = if dedup_delta > 0 {
                    "absorbed"
                } else if expired_delta > 0 {
                    "expired"
                } else {
                    "queued"
                };
                note!(self, "p", partition, " recv #", call, " ", why);
            }
        }
        if let Some(r) = response {
            self.transmit_response(call, partition, r);
        }
        if queued && !self.partitions[partition].poll_scheduled {
            self.partitions[partition].poll_scheduled = true;
            let epoch = self.partitions[partition].epoch;
            self.schedule_in(self.config.service_time, Event::Poll { partition, epoch });
        }
    }

    fn on_poll(&mut self, partition: usize, epoch: u32) {
        let now = self.clock.now();
        if self.partitions[partition].epoch != epoch || self.partitions[partition].core.is_none() {
            return;
        }
        self.partitions[partition].poll_scheduled = false;
        if self.config.churn {
            self.readmit_for_next_job(partition);
        }
        let (peeked, response, answered_delta, allowed_delta, drained_delta, backlog) = {
            let core = self.partitions[partition].core.as_mut().expect("checked");
            let peeked = core.peek_queue().cloned();
            if peeked.is_none() {
                return;
            }
            let before = core.stats;
            let drained_before = core.lease_stats().map_or(0, |s| s.drained);
            let response = core.poll_worker(now);
            let after = core.stats;
            let drained_after = core.lease_stats().map_or(0, |s| s.drained);
            (
                peeked,
                response,
                after.answered - before.answered,
                after.allowed - before.allowed,
                drained_after - drained_before,
                core.queue_len(),
            )
        };
        if answered_delta > 0 {
            let request = peeked.expect("non-empty queue was peeked");
            let key_idx = self
                .keys
                .iter()
                .position(|k| *k == request.key)
                .expect("simulated keys only");
            let name = &self.key_names[key_idx];
            let reboots = self.partitions[self.owners[key_idx]].reboots;
            let allow = allowed_delta > 0;
            let suppressed = if response.is_none() {
                " (stale, held)"
            } else {
                ""
            };
            let call = request.id - 1;
            note!(
                self,
                "p",
                partition,
                " decide #",
                call,
                " ",
                verdict_str_bool(allow),
                suppressed
            );
            let part_epoch = self.partitions[partition].epoch;
            self.oracle.record_decision(
                partition, part_epoch, &request, allow, key_idx, name, reboots,
            );
            if drained_delta > 0 {
                note!(
                    self,
                    "p",
                    partition,
                    " lease-drain ",
                    drained_delta,
                    " key=",
                    name
                );
                self.oracle
                    .record_lease_drain(key_idx, name, reboots, drained_delta);
            }
            if let Some(r) = &response {
                if let Some(lease) = &r.lease {
                    note!(
                        self,
                        "p",
                        partition,
                        " grant lease key=",
                        name,
                        " epoch=",
                        lease.epoch,
                        " slice=",
                        lease.slice.whole()
                    );
                }
            }
        } else if response.is_none() {
            note!(self, "p", partition, " shed queued job");
        }
        if let Some(r) = response {
            let call = (r.id - 1) as u32;
            self.transmit_response(call, partition, r);
        }
        if backlog > 0 {
            self.partitions[partition].poll_scheduled = true;
            self.schedule_in(self.config.service_time, Event::Poll { partition, epoch });
        }
    }

    fn on_deliver_response(&mut self, call: u32, partition: usize, response: QosResponse) {
        let now = self.clock.now();
        if self.calls[call as usize].completion.is_some() {
            note!(self, "router late resp #", call, " ignored");
            return;
        }
        let key_idx = self.calls[call as usize].key_idx;
        let key = self.keys[key_idx].clone();
        let outcome = self.router.on_response(partition, &key, &response, now);
        let hint = if outcome.hint_learned {
            " hint=learned"
        } else {
            ""
        };
        let lease = match outcome.lease {
            None => "",
            Some(LeaseEvent::Granted) => " lease=granted",
            Some(LeaseEvent::Renewed) => " lease=renewed",
            Some(LeaseEvent::Revoked) => " lease=revoked",
        };
        note!(
            self,
            "router recv #",
            call,
            " ",
            verdict_str(response.verdict),
            " backend",
            hint,
            lease
        );
        // Feed the gray plane: one RTT sample per first answer (no-op
        // while gray is off), and credit the hedge when the answer
        // landed after the duplicate went out.
        let rtt = now.saturating_since(self.calls[call as usize].last_sent);
        self.router.record_rtt(partition, rtt.as_micros() as u64);
        if self.calls[call as usize].hedged {
            self.hedge_wins += 1;
        }
        self.calls[call as usize].completion = Some(Completion::Backend(response.verdict));
        self.calls[call as usize].completed_at = Some(now);
        self.completed += 1;
        self.backend += 1;
    }

    fn on_retry_timer(&mut self, call: u32, attempt: u32) {
        if self.calls[call as usize].completion.is_some() {
            return;
        }
        if attempt + 1 < self.config.attempts {
            note!(self, "timeout #", call, ".", attempt, ", retrying");
            self.send_attempt(call, attempt + 1);
        } else {
            note!(self, "timeout #", call, ".", attempt, ", out of attempts");
            self.give_up(call);
        }
    }

    fn give_up(&mut self, call: u32) {
        let now = self.clock.now();
        let c = &self.calls[call as usize];
        let (partition, key_idx) = (c.partition, c.key_idx);
        let key = self.keys[key_idx].clone();
        match self.router.on_failure(partition, &key, now) {
            Some(answer) => self.complete_local(call, answer),
            None => {
                let verdict = self.router.default_verdict();
                note!(self, "give-up #", call, " default ", verdict_str(verdict));
                self.calls[call as usize].completion = Some(Completion::Default(verdict));
                self.calls[call as usize].completed_at = Some(now);
                self.completed += 1;
                self.defaulted += 1;
            }
        }
    }

    fn complete_local(&mut self, call: u32, answer: LocalAnswer) {
        let now = self.clock.now();
        let key_idx = self.calls[call as usize].key_idx;
        let completion = match answer {
            LocalAnswer::Degraded(v) => {
                note!(self, "local #", call, " degraded ", verdict_str(v));
                if v == Verdict::Allow {
                    let reboots = self.partitions[self.owners[key_idx]].reboots;
                    self.oracle
                        .record_degraded_allow(key_idx, &self.key_names[key_idx], reboots);
                }
                self.degraded += 1;
                Completion::Degraded(v)
            }
            LocalAnswer::Default(v) => {
                note!(self, "local #", call, " default ", verdict_str(v));
                self.defaulted += 1;
                Completion::Default(v)
            }
        };
        self.calls[call as usize].completion = Some(completion);
        self.calls[call as usize].completed_at = Some(now);
        self.completed += 1;
    }

    fn on_replicate(&mut self) {
        let now = self.clock.now();
        for p in 0..self.partitions.len() {
            if self.partitions[p].severed {
                continue;
            }
            let Some(core) = &self.partitions[p].core else {
                continue;
            };
            let wire = encode_snapshot(&core.snapshot(now));
            match decode_snapshot_wire(&wire) {
                Some(rules) => {
                    let n = rules.len();
                    self.partitions[p].standby = rules;
                    note!(self, "replicate p", p, " rules=", n);
                }
                None => self
                    .oracle
                    .record_violation(format!("snapshot wire roundtrip failed for p{p}")),
            }
        }
        if !self.all_done() {
            self.schedule_in(self.config.replication_interval, Event::Replicate);
        }
    }

    fn on_apply(&mut self, i: usize) {
        let directive = self.config.directives[i].clone();
        match directive.kind {
            DirectiveKind::Crash { partition } => {
                let p = partition % self.partitions.len();
                if self.partitions[p].core.is_none() {
                    note!(self, "crash p", p, " (already down)");
                    return;
                }
                self.partitions[p].core = None;
                self.partitions[p].poll_scheduled = false;
                let epoch = self.partitions[p].epoch;
                let delay = if self.config.ha {
                    self.config.failover_delay
                } else {
                    self.config.restart_delay
                };
                note!(self, "crash p", p);
                self.schedule_in(
                    delay,
                    Event::Reboot {
                        partition: p,
                        epoch,
                    },
                );
            }
            DirectiveKind::Sever {
                partition,
                heal_after,
            } => {
                let p = partition % self.partitions.len();
                self.partitions[p].severed = true;
                note!(self, "sever p", p, " for ", heal_after.as_micros(), "us");
                self.schedule_in(heal_after, Event::Heal(i));
            }
            DirectiveKind::Burst {
                drop_pct,
                dup_pct,
                reorder_pct,
                heal_after,
            } => {
                self.fault.set_drop_probability(f64::from(drop_pct) / 100.0);
                self.fault
                    .set_duplication(f64::from(dup_pct) / 100.0, self.config.link_latency * 4);
                self.fault
                    .set_reordering(f64::from(reorder_pct) / 100.0, self.config.link_latency * 8);
                note!(
                    self,
                    "burst drop=",
                    drop_pct,
                    "% dup=",
                    dup_pct,
                    "% reorder=",
                    reorder_pct,
                    "% for ",
                    heal_after.as_micros(),
                    "us"
                );
                self.schedule_in(heal_after, Event::Heal(i));
            }
            DirectiveKind::Gray {
                partition,
                factor,
                heal_after,
            } => {
                let p = partition % self.partitions.len();
                self.partitions[p].latency_factor = factor.max(1);
                note!(
                    self,
                    "gray p",
                    p,
                    " x",
                    factor.max(1),
                    " for ",
                    heal_after.as_micros(),
                    "us"
                );
                self.schedule_in(heal_after, Event::Heal(i));
            }
            DirectiveKind::RuleChange { key } => {
                let now = self.clock.now();
                let idx = key % self.keys.len();
                let name = &self.key_names[idx];
                let p = self.owners[idx];
                match self.partitions[p].core.as_mut() {
                    Some(core) => {
                        // Same-shape re-apply: accrued credit is preserved
                        // (clamped), so the oracle budget is untouched, but
                        // the ledger's epoch bump revokes outstanding leases.
                        let rule = QosRule::new(
                            self.keys[idx].clone(),
                            Credits::from_whole(self.config.capacity),
                            RefillRate::ZERO,
                        );
                        core.apply_rule(rule, now);
                        note!(self, "rule-change key=", name, " p", p, " (revoke leases)");
                    }
                    None => note!(self, "rule-change key=", name, " p", p, " (down, dropped)"),
                }
            }
        }
    }

    fn on_heal(&mut self, i: usize) {
        match self.config.directives[i].kind {
            DirectiveKind::Sever { partition, .. } => {
                let p = partition % self.partitions.len();
                self.partitions[p].severed = false;
                note!(self, "heal p", p, " link");
            }
            DirectiveKind::Burst { .. } => {
                self.fault.set_drop_probability(0.0);
                self.fault.set_duplication(0.0, Duration::ZERO);
                self.fault.set_reordering(0.0, Duration::ZERO);
                note!(self, "heal burst");
            }
            DirectiveKind::Gray { partition, .. } => {
                let p = partition % self.partitions.len();
                self.partitions[p].latency_factor = 1;
                note!(self, "heal gray p", p);
            }
            DirectiveKind::Crash { .. } | DirectiveKind::RuleChange { .. } => {}
        }
    }

    fn on_reboot(&mut self, partition: usize, epoch: u32) {
        if self.partitions[partition].epoch != epoch || self.partitions[partition].core.is_some() {
            return;
        }
        self.partitions[partition].reboots += 1;
        self.partitions[partition].epoch += 1;
        // Every key this partition owns just gained a capacity of budget.
        for (idx, &owner) in self.owners.iter().enumerate() {
            if owner == partition {
                self.oracle.record_reboot(idx);
            }
        }
        let restore = if self.config.ha && !self.partitions[partition].standby.is_empty() {
            Some(self.partitions[partition].standby.clone())
        } else {
            None
        };
        let restored = restore.as_ref().map(Vec::len);
        let core = self.boot_core(partition, restore);
        self.partitions[partition].core = Some(core);
        let new_epoch = self.partitions[partition].epoch;
        match restored {
            Some(n) => note!(
                self,
                "boot p",
                partition,
                " epoch=",
                new_epoch,
                " (failover restored=",
                n,
                " rules)"
            ),
            None => note!(
                self,
                "boot p",
                partition,
                " epoch=",
                new_epoch,
                " (restart fresh rules)"
            ),
        }
    }
}

/// Decode a full `SNAPSHOT` wire blob (header + rows) back into rules.
fn decode_snapshot_wire(wire: &str) -> Option<Vec<QosRule>> {
    let mut lines = wire.lines();
    let n = decode_snapshot_header(lines.next()?)?;
    let rules: Vec<QosRule> = lines
        .map(QosRule::parse_row)
        .collect::<Result<Vec<_>, _>>()
        .ok()?;
    (rules.len() == n).then_some(rules)
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Allow => "allow",
        Verdict::Deny => "deny",
    }
}

fn verdict_str_bool(allow: bool) -> &'static str {
    if allow {
        "allow"
    } else {
        "deny"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm() -> SimConfig {
        SimConfig {
            seed: 11,
            requests: 60,
            keys: 2,
            capacity: 10,
            ..SimConfig::default()
        }
    }

    #[test]
    fn calm_run_is_exact_and_fully_backend() {
        let report = Sim::new(calm()).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.issued, 60);
        assert_eq!(report.completed, 60);
        assert_eq!(
            report.backend, 60,
            "no faults -> every answer from a server"
        );
        // 30 requests per key against a 10-credit zero-refill bucket:
        // exactly 10 allows each, nothing degraded.
        for (name, allows) in &report.per_key_allows {
            assert_eq!(*allows, 10, "key {name} got {allows} allows");
        }
        assert_eq!(report.degraded, 0);
        assert_eq!(report.defaulted, 0);
    }

    #[test]
    fn same_config_yields_byte_identical_trace_and_summary() {
        let a = Sim::new(calm()).run();
        let b = Sim::new(calm()).run();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn crash_restart_is_bounded_and_counted() {
        let mut config = calm();
        config.directives = vec![Directive {
            at: Duration::from_millis(40),
            kind: DirectiveKind::Crash { partition: 0 },
        }];
        let report = Sim::new(config).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.reboots, 1);
        assert!(report.trace.contains("crash p0"));
        assert!(report.trace.contains("restart fresh rules"));
        assert_eq!(report.completed, report.issued);
    }

    #[test]
    fn ha_failover_adopts_the_standby_snapshot() {
        let mut config = calm();
        config.ha = true;
        config.directives = vec![Directive {
            at: Duration::from_millis(50),
            kind: DirectiveKind::Crash { partition: 0 },
        }];
        let report = Sim::new(config).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(
            report.trace.contains("failover restored="),
            "expected a standby adoption in:\n{}",
            report.trace
        );
    }

    #[test]
    fn severed_link_falls_back_to_local_answers_yet_completes_everything() {
        let mut config = calm();
        config.requests = 80;
        config.directives = vec![Directive {
            at: Duration::from_millis(30),
            kind: DirectiveKind::Sever {
                partition: 0,
                heal_after: Duration::from_millis(60),
            },
        }];
        let report = Sim::new(config).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.completed, report.issued, "availability floor");
    }

    #[test]
    fn disabling_dedup_under_duplication_trips_the_at_most_once_oracle() {
        // The non-vacuousness check: with the dedup window off, a
        // duplicated stamped frame is charged twice and the oracle must
        // say so. This proves the oracle actually bites.
        let mut config = calm();
        config.dedup_window = 0;
        config.directives = vec![Directive {
            at: Duration::ZERO,
            kind: DirectiveKind::Burst {
                drop_pct: 0,
                dup_pct: 80,
                reorder_pct: 0,
                heal_after: Duration::from_secs(5),
            },
        }];
        let report = Sim::new(config).run();
        assert!(
            report.violations.iter().any(|v| v.contains("at-most-once")),
            "expected a double-charge violation, got: {:?}",
            report.violations
        );
    }

    #[test]
    fn dedup_window_absorbs_the_same_duplication_storm() {
        let mut config = calm();
        config.directives = vec![Directive {
            at: Duration::ZERO,
            kind: DirectiveKind::Burst {
                drop_pct: 0,
                dup_pct: 80,
                reorder_pct: 0,
                heal_after: Duration::from_secs(5),
            },
        }];
        let report = Sim::new(config).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    /// A hot-key config: few keys, generous capacity, leases on.
    fn leasing() -> SimConfig {
        SimConfig {
            seed: 23,
            requests: 80,
            keys: 2,
            capacity: 40,
            lease: true,
            ..SimConfig::default()
        }
    }

    #[test]
    fn hot_keys_earn_leases_and_admit_with_zero_network_io() {
        let report = Sim::new(leasing()).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(
            report.leased > 0,
            "expected zero-RTT lease admits in:\n{}",
            report.trace
        );
        assert!(report.trace.contains(" +lease-ask"));
        assert!(report.trace.contains("grant lease"));
        assert!(report.trace.contains("lease-admit"));
        assert_eq!(report.completed, report.issued);
    }

    #[test]
    fn lease_runs_are_byte_identical_across_reruns() {
        let a = Sim::new(leasing()).run();
        let b = Sim::new(leasing()).run();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn lease_mode_off_reproduces_the_pre_lease_trace() {
        // The lease plane is strictly additive: with the switch off,
        // the machinery must not perturb a single event.
        let mut with_field = calm();
        with_field.lease = false;
        let a = Sim::new(calm()).run();
        let b = Sim::new(with_field).run();
        assert_eq!(a.trace, b.trace);
        assert!(!a.trace.contains("lease"));
    }

    #[test]
    fn rule_change_revokes_leases_while_admits_race() {
        let mut config = leasing();
        config.directives = vec![Directive {
            at: Duration::from_millis(40),
            kind: DirectiveKind::RuleChange { key: 0 },
        }];
        let report = Sim::new(config).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.trace.contains("rule-change key=tenant-0"));
    }

    #[test]
    fn crash_with_outstanding_leases_stays_within_the_reboot_budget() {
        let mut config = leasing();
        config.directives = vec![Directive {
            at: Duration::from_millis(40),
            kind: DirectiveKind::Crash { partition: 0 },
        }];
        let report = Sim::new(config).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.reboots, 1);
        assert_eq!(report.completed, report.issued);
    }

    #[test]
    fn lossy_network_cannot_break_the_lease_bound() {
        // Grants lost in flight are written off server-side (drained
        // but never installed); renewals delayed past the TTL force
        // return-and-reconcile. Either way oracle 5 must hold.
        let mut config = leasing();
        config.directives = vec![Directive {
            at: Duration::ZERO,
            kind: DirectiveKind::Burst {
                drop_pct: 40,
                dup_pct: 20,
                reorder_pct: 20,
                heal_after: Duration::from_secs(5),
            },
        }];
        let report = Sim::new(config).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.completed, report.issued, "availability floor");
    }

    /// A churn config: more keys than table slots, an idle TTL a few
    /// request gaps wide, so demote/readmit cycles run constantly.
    fn churning() -> SimConfig {
        SimConfig {
            seed: 31,
            churn: true,
            partitions: 2,
            keys: 12,
            requests: 240,
            capacity: 10,
            request_gap: Duration::from_millis(1),
            table_slots: 8,
            idle_ttl: Duration::from_millis(6),
            reclaim_interval: Duration::from_millis(3),
            ..SimConfig::default()
        }
    }

    #[test]
    fn churn_demotes_and_readmits_with_exact_credit() {
        let report = Sim::new(churning()).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(
            report.trace.contains(" reclaim key="),
            "no demotions in:\n{}",
            report.trace
        );
        assert!(
            report.trace.contains(" readmit key="),
            "no readmissions in:\n{}",
            report.trace
        );
        // 20 requests per key against a 10-credit zero-refill bucket:
        // exactly 10 allows each, across many demote/readmit cycles.
        for (name, allows) in &report.per_key_allows {
            assert_eq!(*allows, 10, "key {name} got {allows} allows");
        }
        assert_eq!(report.completed, report.issued);
    }

    #[test]
    fn churn_runs_are_byte_identical_across_reruns() {
        let a = Sim::new(churning()).run();
        let b = Sim::new(churning()).run();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn churn_off_reproduces_the_pre_churn_trace() {
        // The memory engine is strictly additive: with the switch off,
        // the sharded table serves every decision and not one event in
        // the trace may move.
        let mut with_field = calm();
        with_field.churn = false;
        let a = Sim::new(calm()).run();
        let b = Sim::new(with_field).run();
        assert_eq!(a.trace, b.trace);
        assert!(!a.trace.contains("reclaim"));
    }

    #[test]
    fn churn_survives_a_cold_restart_within_the_reboot_budget() {
        let mut config = churning();
        config.directives = vec![Directive {
            at: Duration::from_millis(60),
            kind: DirectiveKind::Crash { partition: 0 },
        }];
        let report = Sim::new(config).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.reboots, 1);
        assert_eq!(report.completed, report.issued);
    }

    #[test]
    fn readmitting_at_full_capacity_trips_the_reclaim_mint_oracle() {
        // The non-vacuousness check for oracle 6: a readmit path that
        // hands back a full bucket instead of the demoted credit mints
        // allows, and the oracle must pin it on the memory engine.
        let mut config = churning();
        config.churn_mint_bug = true;
        let report = Sim::new(config).run();
        assert!(
            report.violations.iter().any(|v| v.contains("reclaim-mint")),
            "expected a reclaim-mint violation, got: {:?}",
            report.violations
        );
    }

    /// A gray config: adaptive timeouts, hedging, and the retry budget
    /// all on, with one partition slowed 50x mid-run and then healed —
    /// the link stays up, it just answers late.
    fn graying() -> SimConfig {
        SimConfig {
            seed: 47,
            gray: true,
            requests: 120,
            keys: 4,
            capacity: 30,
            directives: vec![Directive {
                at: Duration::from_millis(60),
                kind: DirectiveKind::Gray {
                    partition: 0,
                    factor: 50,
                    heal_after: Duration::from_millis(80),
                },
            }],
            ..SimConfig::default()
        }
    }

    #[test]
    fn gray_partition_hedges_and_heals_within_the_availability_floor() {
        let report = Sim::new(graying()).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.completed, report.issued, "availability floor");
        assert!(
            report.hedges > 0,
            "expected hedged attempts in:\n{}",
            report.trace
        );
        assert!(report.trace.contains("gray p0 x50"));
        assert!(report.trace.contains("heal gray p0"));
    }

    #[test]
    fn gray_runs_are_byte_identical_across_reruns() {
        let a = Sim::new(graying()).run();
        let b = Sim::new(graying()).run();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn gray_machinery_off_reproduces_the_pre_gray_trace() {
        // The gray plane is strictly additive: with the switch off the
        // legacy wire discipline runs and not one event may move.
        let mut with_field = calm();
        with_field.gray = false;
        let a = Sim::new(calm()).run();
        let b = Sim::new(with_field).run();
        assert_eq!(a.trace, b.trace);
        assert!(!a.trace.contains("hedge"));
        assert!(!a.trace.contains("budget-refused"));
    }

    #[test]
    fn retry_budget_refuses_hedges_once_the_deposit_stream_is_spent() {
        // 120 primaries deposit 10% each on top of the 10-call reserve,
        // so at most ~23 extra wire attempts may ever go out; the rest
        // are refused at the router and the run still completes.
        let report = Sim::new(graying()).run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(
            report.budget_refused > 0,
            "expected budget refusals in:\n{}",
            report.trace
        );
        assert!(report.trace.contains("budget-refused"));
    }

    #[test]
    fn hedge_with_a_fresh_nonce_trips_the_hedge_charge_oracle() {
        // The non-vacuousness check for oracle 7's credit half: a hedge
        // that mints a fresh nonce slips past the server's dedup window
        // and charges the bucket twice, and the oracle must pin it on
        // the hedger rather than the network.
        let mut config = graying();
        config.hedge_fresh_nonce_bug = true;
        let report = Sim::new(config).run();
        assert!(
            report.violations.iter().any(|v| v.contains("hedge-charge")),
            "expected a hedge double-charge violation, got: {:?}",
            report.violations
        );
    }

    #[test]
    fn reused_slots_still_pop_in_scheduling_order() {
        // Two early events free slots 2 and 3; the next two pushes take
        // them back in the opposite order (slot 3, then slot 2). Ties at
        // the same virtual time must still pop by `seq`, not by slot.
        let mut queue = EventQueue::default();
        for (seq, at) in [(1, 5), (2, 5), (3, 1), (4, 1)] {
            queue.push(at, seq, Event::Issue(seq as u32));
        }
        let popped = |queue: &mut EventQueue| match queue.pop() {
            Some((at, Event::Issue(n))) => (at, n),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(popped(&mut queue), (1, 3));
        assert_eq!(popped(&mut queue), (1, 4));
        for seq in [5, 6] {
            queue.push(5, seq, Event::Issue(seq as u32));
        }
        assert_eq!(queue.slab.len(), 4, "freed slots are reused");
        let order: Vec<_> = (0..4).map(|_| popped(&mut queue)).collect();
        assert_eq!(order, [(5, 1), (5, 2), (5, 5), (5, 6)]);
        assert!(queue.pop().is_none());
        assert_eq!(queue.free.len(), 4);
    }

    #[test]
    fn event_queue_pops_what_a_binary_heap_pops() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Seeded schedules against the min-heap the queue replaced. Times
        // come from a handful of offsets, so same-`at` ties are common;
        // pops interleave with pushes, so freed slots are reused; every
        // fourth schedule opens with a burst of 1,500 pending events.
        for seed in 1..=24u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut queue = EventQueue::default();
            let mut reference = BinaryHeap::new();
            let (mut now, mut seq, mut peak) = (0u64, 0u64, 0usize);
            let burst = if seed % 4 == 0 { 1_500 } else { 0 };
            let pop_both = |queue: &mut EventQueue, reference: &mut BinaryHeap<_>| {
                let want = reference.pop().map(|Reverse(key)| key);
                let got = match queue.pop() {
                    Some((at, Event::Issue(n))) => Some((at, u64::from(n))),
                    None => None,
                    other => panic!("unexpected {other:?}"),
                };
                assert_eq!(got, want, "seed {seed}");
                got
            };
            for step in 0..6_000 {
                if step < burst || reference.is_empty() || rng.gen_bool(0.5) {
                    seq += 1;
                    let at = now + [0, 0, 100, 200, 200, 5_000][rng.gen_range(6) as usize];
                    queue.push(at, seq, Event::Issue(seq as u32));
                    reference.push(Reverse((at, seq)));
                    peak = peak.max(reference.len());
                } else if let Some((at, _)) = pop_both(&mut queue, &mut reference) {
                    now = at;
                }
            }
            while pop_both(&mut queue, &mut reference).is_some() {}
            assert_eq!(
                queue.slab.len(),
                peak,
                "seed {seed}: freed slots are reused"
            );
            assert!(peak >= burst);
        }
    }

    /// Drive `sim`'s event loop without the oracles and return the
    /// longest its queue got: the backlog a `push` may have to walk.
    fn peak_backlog(mut sim: Sim) -> usize {
        let mut peak = sim.events.pending.len();
        while let Some((at, event)) = sim.events.pop() {
            sim.clock.set(Nanos::from_nanos(at));
            sim.handle(event);
            peak = peak.max(sim.events.pending.len());
        }
        peak
    }

    #[test]
    fn the_backlog_stays_short_over_the_corpus_and_search_seeds() {
        use crate::search::{config_for, parse_corpus, PROFILES};

        // The queue is a sorted run: a push walks past each pending event
        // that runs before the new one, so its cost is bounded by the
        // backlog. The corpus and seeds 1–1,000 of every profile peak at
        // 66 pending events (EXPERIMENTS.md); this bound leaves room and
        // fails long before a schedule makes pushes quadratic.
        const BACKLOG_BOUND: usize = 128;
        let corpus = parse_corpus(include_str!("../../../tests/dst_corpus.txt")).unwrap();
        let configs = corpus
            .iter()
            .map(|entry| config_for(entry.seed, entry.profile))
            .chain((1..=10).flat_map(|seed| PROFILES.iter().map(move |&p| config_for(seed, p))));
        let peak = configs.map(|c| peak_backlog(Sim::new(c))).max().unwrap();
        assert!(peak > 1 && peak <= BACKLOG_BOUND, "peak backlog {peak}");
    }

    #[test]
    fn a_run_that_hits_the_event_cap_reports_a_runaway_schedule() {
        // Take the run's only request off the queue before it is issued:
        // the run can never complete it, so the reclaim tick reschedules
        // forever, and the loop must stop at the cap and say so.
        let mut sim = Sim::new(SimConfig {
            requests: 1,
            partitions: 1,
            keys: 1,
            churn: true,
            ..SimConfig::default()
        });
        assert!(matches!(sim.events.pop(), Some((_, Event::Issue(0)))));
        let report = sim.run();
        assert_eq!((report.issued, report.completed), (0, 0));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v == &format!("event cap {EVENT_CAP} exceeded: runaway schedule")),
            "{:?}",
            report.violations
        );
    }

    /// `sim` run with the every-key sweep the touched-key sweep replaced.
    fn run_every_key_model(sim: Sim) -> SimReport {
        sim.run_with(|oracle, names, reboots_of| {
            crate::oracle::tests::every_key_check_all(oracle, names, reboots_of)
        })
    }

    #[test]
    fn a_reboot_rechecks_the_keys_its_partition_owns() {
        // Key 0 starts far over its one-boot bound, then its partition
        // crashes and reboots. The reboot event admits nothing, yet the
        // bound just grew, so the sweep after it must re-check key 0
        // there and then — as re-checking every key does.
        let config = SimConfig {
            directives: vec![Directive {
                at: Duration::from_millis(40),
                kind: DirectiveKind::Crash {
                    partition: Sim::new(calm()).owners[0],
                },
            }],
            ..calm()
        };
        let over_bound = || {
            let mut sim = Sim::new(config.clone());
            sim.oracle
                .record_lease_drain(0, "tenant-0", 0, 3 * config.capacity);
            sim
        };
        let swept = over_bound().run();
        assert_eq!(swept.reboots, 1);
        assert!(
            swept.violations.iter().any(|v| v.contains("x 2 boots")),
            "{:?}",
            swept.violations
        );
        assert_eq!(
            swept.violations,
            run_every_key_model(over_bound()).violations
        );
    }

    #[test]
    fn touched_key_sweep_matches_the_every_key_model_under_the_bug_levers() {
        use crate::search::{config_for, PROFILES};

        // The oracle non-vacuousness levers plus a one-credit capacity,
        // across every fault profile: the touched-key sweep must report
        // exactly what re-checking every key after every event reports —
        // the same violations in the same order — and the same trace.
        type Lever = fn(&mut SimConfig);
        let levers: [(&str, Lever); 4] = [
            ("dedup_window = 0", |c| c.dedup_window = 0),
            ("churn_mint_bug", |c| c.churn_mint_bug = true),
            ("hedge_fresh_nonce_bug", |c| c.hedge_fresh_nonce_bug = true),
            ("capacity = 1", |c| c.capacity = 1),
        ];
        let mut violating_runs = [0; 4];
        for (lever, (name, apply)) in levers.iter().enumerate() {
            for profile in PROFILES {
                for seed in 1..=3 {
                    let mut config = config_for(seed, profile);
                    apply(&mut config);
                    let swept = Sim::new(config.clone()).run();
                    let model = run_every_key_model(Sim::new(config));
                    let run = format!("{name}, seed {seed} {}", profile.as_str());
                    assert_eq!(swept.violations, model.violations, "{run}");
                    assert_eq!(swept.trace, model.trace, "{run}");
                    violating_runs[lever] += usize::from(!swept.ok());
                }
            }
        }
        assert!(
            violating_runs[..3].iter().all(|&n| n > 0),
            "each bug lever must trip an oracle somewhere: {violating_runs:?}"
        );
    }
}
