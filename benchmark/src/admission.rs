//! The five in-process admission workloads.
//!
//! One op is the composition `janus_dst::Sim` uses, on the system clock:
//! `KeyPicker::pick` → `RouterCore::begin` → `AttemptPlan::request_for(0)`
//! → `ServerCore::on_request` + `poll_worker` → `RouterCore::on_response`
//! (+ `discipline`/`record_rtt` when the gray plane is on). Two
//! closed-loop client threads share one `RouterCore` and one table per
//! partition; each thread owns its `ServerCore` per partition (private
//! queue, dedup window and lease ledger over the shared table — the
//! key-affinity / per-core shape).

use crate::stats::{thread_cpu_ns, Histogram};
use crate::trace::{self, AllMarks, EndToEnd, Marks, NoMarks, SpanStats};
use janus_bucket::{DefaultRulePolicy, LockFreeTable, QosTable, ShardedTable, TableEngineCells};
use janus_clock::{Clock, SharedClock};
use janus_hash::rng::{mix64, Rng};
use janus_net::attempt::{AttemptPlan, AttemptStep};
use janus_net::breaker::BreakerConfig;
use janus_router::{GrayConfig, RouterCore, RouterCoreConfig, RouterLeaseConfig, RouterStep};
use janus_server::core::ServerCore;
use janus_server::{LeaseConfig, OverloadConfig};
use janus_types::{QosKey, QosRequest, QosRule, Verdict};
use janus_workload::KeyPicker;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const THREADS: usize = 2;
pub const PARTITIONS: usize = 2;
/// The paper's wire discipline: 1 + 4 retries of 100 µs each.
const ATTEMPTS: u32 = 5;
const ATTEMPT_TIMEOUT: Duration = Duration::from_micros(100);
/// One op in this many is timed (untraced) or span-traced (traced).
pub const SAMPLE_EVERY: u64 = 16;
/// Ops between looks at the phase deadline.
const DEADLINE_EVERY: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    Sharded,
    LockFree,
}

/// What distinguishes one admission workload from another.
pub struct Spec {
    pub name: &'static str,
    pub table: TableKind,
    /// `AttemptPlan::stamped` with a fresh nonce instead of `plain`.
    pub stamped: bool,
    pub dedup_window: usize,
    /// Breakers + hint solicitation, and the gray plane with an RTT per op.
    pub fast_plane: bool,
    pub lease: bool,
    pub keys: usize,
    /// Zipf exponent over `keys`; `None` picks uniformly.
    pub zipf: Option<f64>,
    pub capacity: u64,
    pub refill_per_s: u64,
    /// One pick in this many is a never-installed key (0 = none). Each
    /// thread cycles through its own `miss_pool` such keys and removes
    /// the key again after the op, so the miss → default-policy insert
    /// path runs at a steady share without the table growing.
    pub miss_one_in: u64,
    pub miss_pool: usize,
    /// Every verdict must be `Allow`.
    pub all_allow: bool,
    /// Total `Allow` over the repetition must equal exactly this.
    pub exact_allows: Option<u64>,
}

const HOT: Spec = Spec {
    name: "paper_hot",
    table: TableKind::Sharded,
    stamped: false,
    dedup_window: 0,
    fast_plane: false,
    lease: false,
    keys: 64,
    zipf: Some(1.0),
    // Every verdict Allows. On the lock-free planes that rests on the
    // capacity, not the refill: an `AtomicBucket` charged in every
    // millisecond tick does not refill until it is dry (README), and
    // its credit field tops out at 1,099,511 credits.
    capacity: 1_000_000,
    refill_per_s: 1_000_000_000,
    miss_one_in: 0,
    miss_pool: 0,
    all_allow: true,
    exact_allows: None,
};

pub const SPECS: &[Spec] = &[
    HOT,
    Spec {
        name: "fast_hot",
        table: TableKind::LockFree,
        stamped: true,
        dedup_window: 4096,
        fast_plane: true,
        ..HOT
    },
    Spec {
        name: "fast_deny",
        table: TableKind::LockFree,
        stamped: true,
        dedup_window: 4096,
        fast_plane: true,
        capacity: 100,
        refill_per_s: 0,
        all_allow: false,
        exact_allows: Some(64 * 100),
        ..HOT
    },
    Spec {
        name: "wide_keyspace",
        table: TableKind::LockFree,
        keys: 1_000_000,
        zipf: None,
        // Uniform picks touch a key a handful of times per run.
        capacity: 1_000,
        refill_per_s: 1_000,
        miss_one_in: 10,
        miss_pool: 100_000,
        ..HOT
    },
    Spec {
        name: "lease_hot",
        table: TableKind::LockFree,
        stamped: true,
        dedup_window: 4096,
        fast_plane: true,
        lease: true,
        // 16 keys, picked uniformly: each hot enough to hold a lease and
        // cool enough that the lease covers it (see README: under Zipf
        // the hottest key outruns its lease, and over 64 keys the
        // ledgers' drains are most of the run).
        keys: 16,
        zipf: None,
        refill_per_s: 4_000_000,
        ..HOT
    },
];

/// Key names do not depend on `--seed`: which hot keys share a shard, a
/// cache line or a partition moves throughput by a fifth, so a seeded
/// key set would make every metric a lottery over layouts. The seed
/// drives the pick order, the miss mix and the nonces instead.
fn key_name(tag: char, i: usize) -> String {
    // ≤ 23 bytes, so the key stays inline like a short tenant id.
    format!("{tag}-tenant-{i}")
}

fn make_key(name: &str) -> QosKey {
    QosKey::new(name).expect("generated key is valid")
}

/// The shared half of one repetition: router, tables, installed keys.
pub struct Plane {
    pub router: Arc<RouterCore>,
    pub tables: Vec<Arc<dyn QosTable>>,
    /// Engine counters of the lock-free tables (empty for sharded).
    pub cells: Vec<TableEngineCells>,
    pub keys: Vec<QosKey>,
}

impl Plane {
    pub fn build(spec: &Spec, clock: &SharedClock) -> Plane {
        let router = Arc::new(RouterCore::new(RouterCoreConfig {
            partitions: PARTITIONS,
            default_verdict: Verdict::Deny,
            fleet_size: 1,
            breaker: spec.fast_plane.then(BreakerConfig::default),
            lease: spec.lease.then(|| RouterLeaseConfig::new(7)),
            gray: spec.fast_plane.then(GrayConfig::default),
        }));
        let keys: Vec<QosKey> = (0..spec.keys)
            .map(|i| make_key(&key_name('k', i)))
            .collect();
        let mut tables: Vec<Arc<dyn QosTable>> = Vec::new();
        let mut cells = Vec::new();
        for _ in 0..PARTITIONS {
            match spec.table {
                TableKind::Sharded => tables.push(Arc::new(ShardedTable::new())),
                TableKind::LockFree => {
                    let shared = TableEngineCells::default();
                    tables.push(Arc::new(LockFreeTable::with_cells(
                        LockFreeTable::DEFAULT_SLOTS,
                        shared.clone(),
                    )));
                    cells.push(shared);
                }
            }
        }
        let now = clock.now();
        for key in &keys {
            let rule = QosRule::per_second(key.clone(), spec.capacity, spec.refill_per_s);
            tables[router.route(key)].insert(rule, now);
        }
        Plane {
            router,
            tables,
            cells,
            keys,
        }
    }
}

/// The PRNG stream of client `thread` under `seed`.
fn stream_seed(seed: u64, thread: usize) -> u64 {
    mix64(seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Client `thread`'s picker over the installed keys.
pub fn key_picker(spec: &Spec, plane: &Plane, thread: usize, seed: u64) -> KeyPicker {
    let stream = stream_seed(seed, thread);
    match spec.zipf {
        Some(exponent) => KeyPicker::zipf(plane.keys.clone(), exponent, stream),
        None => KeyPicker::uniform(plane.keys.clone(), stream),
    }
}

/// What happened to one op.
#[derive(Clone, Copy)]
enum Outcome {
    Backend(Verdict),
    LeaseAdmit,
    /// No verdict from a `ServerCore` or a lease: fast-fail, spent
    /// budget, or a shed request.
    Failed,
}

/// Per-thread op counters for one phase.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub ops: u64,
    pub allow: u64,
    pub deny: u64,
    pub lease_admit: u64,
    pub failed: u64,
    pub miss_picks: u64,
    pub miss_not_allowed: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.allow += other.allow;
        self.deny += other.deny;
        self.lease_admit += other.lease_admit;
        self.failed += other.failed;
        self.miss_picks += other.miss_picks;
        self.miss_not_allowed += other.miss_not_allowed;
    }

    fn count(&mut self, outcome: Outcome, was_miss: bool) {
        self.ops += 1;
        let allowed = match outcome {
            Outcome::Backend(Verdict::Allow) => {
                self.allow += 1;
                true
            }
            Outcome::Backend(Verdict::Deny) => {
                self.deny += 1;
                false
            }
            Outcome::LeaseAdmit => {
                self.allow += 1;
                self.lease_admit += 1;
                true
            }
            Outcome::Failed => {
                self.failed += 1;
                false
            }
        };
        if was_miss {
            self.miss_picks += 1;
            if !allowed {
                self.miss_not_allowed += 1;
            }
        }
    }
}

/// One closed-loop client thread's private half.
pub struct Client {
    thread: u64,
    picker: KeyPicker,
    /// This thread's never-installed keys, cycled in order.
    miss_keys: Vec<QosKey>,
    miss_next: usize,
    miss_one_in: u64,
    /// The miss key the previous op inserted, removed before the next.
    to_remove: Option<QosKey>,
    mix: Rng,
    pub servers: Vec<ServerCore>,
    stamped: bool,
    gray: bool,
    nonce_base: u32,
    issued: u64,
}

impl Client {
    pub fn build(spec: &Spec, plane: &Plane, thread: usize, seed: u64) -> Client {
        let picker = key_picker(spec, plane, thread, seed);
        let tag = if thread == 0 { 'm' } else { 'n' };
        let miss_keys = (0..spec.miss_pool)
            .map(|i| make_key(&key_name(tag, i)))
            .collect();
        let overload = OverloadConfig {
            dedup_window: spec.dedup_window,
            ..OverloadConfig::default()
        };
        let servers = plane
            .tables
            .iter()
            .map(|table| {
                let core = ServerCore::new(
                    Arc::clone(table),
                    DefaultRulePolicy::paper_default(),
                    1024,
                    overload.clone(),
                );
                if spec.lease {
                    core.with_lease(LeaseConfig::enabled())
                } else {
                    core
                }
            })
            .collect();
        let mut mix = Rng::seed_from_u64(stream_seed(seed, thread) ^ 0xA5A5);
        Client {
            thread: thread as u64,
            picker,
            miss_keys,
            miss_next: 0,
            miss_one_in: spec.miss_one_in,
            to_remove: None,
            nonce_base: mix.next_u32(),
            mix,
            servers,
            stamped: spec.stamped,
            gray: spec.fast_plane,
            issued: 0,
        }
    }

    /// Remove the miss key the last op inserted (generator work: keeps
    /// the table at its installed size so every miss pick really misses).
    fn retire_miss(&mut self, plane: &Plane) {
        if let Some(key) = self.to_remove.take() {
            plane.tables[plane.router.route(&key)].remove(&key);
        }
    }

    fn pick(&mut self) -> (QosKey, bool) {
        if self.miss_one_in > 0 && self.mix.gen_range(self.miss_one_in) == 0 {
            let key = self.miss_keys[self.miss_next].clone();
            self.miss_next = (self.miss_next + 1) % self.miss_keys.len();
            self.to_remove = Some(key.clone());
            (key, true)
        } else {
            (self.picker.pick(), false)
        }
    }

    /// One admission check, marking every layer boundary on `m`.
    #[inline(always)]
    fn op<M: Marks>(&mut self, plane: &Plane, clock: &dyn Clock, m: &mut M) -> (Outcome, bool) {
        self.retire_miss(plane);
        m.at(trace::START);
        let (key, was_miss) = self.pick();
        m.at(trace::PICKED);
        let now = clock.now();
        m.at(trace::NOW_BEGIN);
        let step = plane.router.begin(&key, now);
        m.at(trace::BEGUN);
        let (partition, solicit_hint, lease_ask) = match step {
            RouterStep::Forward {
                partition,
                solicit_hint,
                lease_ask,
            } => (partition, solicit_hint, lease_ask),
            RouterStep::LeaseAdmit { .. } => {
                m.at(trace::DONE_LOCAL);
                return (Outcome::LeaseAdmit, was_miss);
            }
            RouterStep::FastFail { .. } => {
                m.at(trace::DONE_LOCAL);
                return (Outcome::Failed, was_miss);
            }
        };
        if self.gray {
            // What a transport does per RPC: fetch the wire discipline
            // and credit the retry budget for the primary attempt.
            let discipline = plane.router.discipline(partition, ATTEMPT_TIMEOUT);
            if let Some(budget) = &discipline.budget {
                budget.deposit();
            }
        }
        m.at(trace::DISCIPLINED);
        let n = self.issued;
        self.issued += 1;
        let id = (self.thread << 56) | (n + 1);
        let mut base = if solicit_hint {
            QosRequest::soliciting_hint(id, key.clone())
        } else {
            QosRequest::new(id, key.clone())
        };
        if let Some(report) = lease_ask {
            base = base.with_lease(report);
        }
        let plan = if self.stamped {
            // The simulator's nonce scheme: an odd multiplier walks all
            // of u32 before repeating, so no two live nonces collide.
            let nonce = self
                .nonce_base
                .wrapping_add((n as u32).wrapping_mul(2_654_435_761));
            AttemptPlan::stamped(base, ATTEMPTS, now, ATTEMPT_TIMEOUT * ATTEMPTS, nonce)
        } else {
            AttemptPlan::plain(base, ATTEMPTS)
        };
        let request = match plan.request_for(0, now) {
            AttemptStep::Send(request) => request,
            AttemptStep::BudgetSpent => return (Outcome::Failed, was_miss),
        };
        m.at(trace::PLANNED);
        // One reading serves arrival and dequeue: the queue between them
        // is in-process, and a thread preempted between two readings
        // would look like a 500 µs sojourn and shed the request.
        let arrived = clock.now();
        m.at(trace::NOW_SERVER);
        let server = &mut self.servers[partition];
        let early = server.on_request(request, arrived);
        m.at(trace::REQUESTED);
        let response = match early {
            Some(response) => Some(response),
            None => server.poll_worker(arrived),
        };
        m.at(trace::POLLED);
        let Some(response) = response else {
            return (Outcome::Failed, was_miss);
        };
        let answered = clock.now();
        m.at(trace::NOW_RESPONSE);
        plane
            .router
            .on_response(partition, &key, &response, answered);
        m.at(trace::RESPONDED);
        if self.gray {
            let rtt = answered.saturating_since(arrived);
            plane.router.record_rtt(partition, rtt.as_micros() as u64);
        }
        m.at(trace::DONE_REMOTE);
        (Outcome::Backend(response.verdict), was_miss)
    }
}

/// What one thread measured in one phase.
pub struct PhaseResult {
    pub tally: Tally,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Untraced phases: decision latency, 1 op in [`SAMPLE_EVERY`].
    pub latency: Histogram,
    /// Traced phases: the span accumulators.
    pub spans: Option<SpanStats>,
}

/// How a phase samples its ops.
#[derive(Clone, Copy)]
pub enum Sampling {
    /// Warm-up: nothing is timed.
    Off,
    Latency,
    /// Every boundary, corrected by this timer overhead (ns).
    Spans(f64),
}

/// Run ops until `deadline`, closed loop.
pub fn run_phase(
    client: &mut Client,
    plane: &Plane,
    clock: &dyn Clock,
    deadline: Instant,
    sampling: Sampling,
) -> PhaseResult {
    let mut tally = Tally::default();
    let mut latency = Histogram::new();
    let mut spans = matches!(sampling, Sampling::Spans(_)).then(SpanStats::new);
    let cpu_start = thread_cpu_ns();
    let started = Instant::now();
    loop {
        for i in 0..DEADLINE_EVERY {
            let sampled = i % SAMPLE_EVERY == 0;
            let (outcome, was_miss) = match sampling {
                Sampling::Latency if sampled => {
                    let mut timer = EndToEnd::new();
                    let result = client.op(plane, clock, &mut timer);
                    latency.record(timer.ns);
                    result
                }
                Sampling::Spans(overhead) if sampled => {
                    let mut marks = AllMarks::new(started);
                    let result = client.op(plane, clock, &mut marks);
                    // Unique per traced phase: this thread's op count, interleaved.
                    let op_id = tally.ops * THREADS as u64 + client.thread;
                    if let Some(stats) = spans.as_mut() {
                        stats.absorb(op_id, marks, overhead);
                    }
                    result
                }
                _ => client.op(plane, clock, &mut NoMarks),
            };
            tally.count(outcome, was_miss);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    client.retire_miss(plane);
    PhaseResult {
        tally,
        wall_ns,
        cpu_ns: thread_cpu_ns().saturating_sub(cpu_start),
        latency,
        spans,
    }
}
