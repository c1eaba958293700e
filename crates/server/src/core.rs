//! Sans-IO admission cores for the QoS server.
//!
//! Every admission *decision* a QoS server makes — shed a dead-on-arrival
//! request, absorb a duplicate, answer from the dedup cache, shed a
//! standing queue, charge the bucket, suppress a stale send — is pure
//! state-machine logic over an injected clock. This module extracts that
//! logic from the three I/O planes (the listener/worker plane in
//! [`crate::server`], the per-core `SO_REUSEPORT` plane in
//! [`crate::percore`], and the HA snapshot exchange in [`crate::ha`]) so
//! all of them — and the deterministic simulator in `janus-dst` — drive
//! the *same* code. No sockets, no threads, no wall clock: this
//! file compiles with nothing but `std`, `janus-types`, `janus-clock`
//! and `janus-bucket`.
//!
//! Three layers:
//!
//! * [`IngressCore`] — per-datagram triage before queueing: zero-budget
//!   shed, nonce dedup for stamped frames, request-id dedup for the
//!   legacy-downgraded final attempt (DESIGN.md §4c).
//! * [`WorkerCore`] — dequeue-time triage: staleness shedding and the
//!   CoDel-style sojourn governor, plus the post-decision staleness
//!   check and verdict recording helpers.
//! * [`ServerCore`] — the two cores composed around a [`QosTable`] and
//!   an in-memory FIFO: a whole QoS-server data plane as one
//!   synchronous object, stepped at virtual time by the simulator. The
//!   production planes compose the same cores around real queues and
//!   sockets instead.
//!
//! The HA snapshot wire format ([`encode_snapshot`] /
//! [`decode_snapshot_header`]) lives here too, so the simulator's
//! failover replication exchanges byte-identical snapshots with the
//! production TCP listener.

use crate::lease::{LeaseConfig, LeaseLedger, LeaseLedgerStats, TableCharge};
use crate::overload::{DedupOutcome, DedupWindow, OverloadConfig, SojournGovernor};
use janus_bucket::{DefaultRulePolicy, QosTable};
use janus_clock::Nanos;
use janus_types::{Credits, QosRequest, QosResponse, QosRule, RefillRate, RuleHint, Verdict};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// The remaining deadline a stamped request arrived with.
pub fn budget_of(request: &QosRequest) -> Option<Duration> {
    request
        .attempt
        .map(|meta| Duration::from_micros(u64::from(meta.budget_us)))
}

/// Build the response for a decided `request` from the shape (capacity,
/// refill rate) of the bucket its decision charged, as
/// [`QosTable::decide_shaped`] reports it, attaching it as a rule hint
/// when the request solicited one. `None` (the key vanished, so the
/// decision fell back to a plain deny) yields a plain response, which
/// soliciting clients must tolerate anyway.
pub fn respond_shaped(
    request: &QosRequest,
    verdict: Verdict,
    shape: Option<(Credits, RefillRate)>,
) -> QosResponse {
    let response = QosResponse::new(request.id, verdict);
    match shape.filter(|_| request.solicit_hint) {
        Some((capacity, refill_rate)) => response.with_hint(RuleHint::new(capacity, refill_rate)),
        None => response,
    }
}

/// Build the response for an answer that charged nothing (a cached
/// duplicate, a shed reply), looking the shape up in `table` only when
/// the request solicited a hint.
pub fn respond(table: &Arc<dyn QosTable>, request: &QosRequest, verdict: Verdict) -> QosResponse {
    let shape = request
        .solicit_hint
        .then(|| table.shape(&request.key))
        .flatten();
    respond_shaped(request, verdict, shape)
}

/// Cache the decided verdict under the request's attempt nonce so a late
/// duplicate (stamped or legacy-downgraded) is answered without a second
/// charge. A no-op for legacy frames — they were never inserted.
pub fn record_verdict(request: &QosRequest, dedup: &mut DedupWindow, verdict: Verdict) {
    if let Some(meta) = request.attempt {
        dedup.record(meta.nonce, &request.key, verdict);
    }
}

/// Post-decision staleness: `true` when `waited` (arrival → now) has
/// consumed a stamped request's whole budget, making the send wasted
/// work. The charge already happened and the verdict is cached, so a
/// retry gets the cached verdict rather than a second charge. Legacy
/// frames never expire.
pub fn expired_before_send(request: &QosRequest, waited: Duration) -> bool {
    budget_of(request).is_some_and(|budget| waited >= budget)
}

/// The verdict a shed reply should carry, or `None` when the shed must
/// stay silent: legacy frames always shed silently (old routers expect
/// today's semantics), and `shed_replies: false` turns replies off for
/// everyone.
pub fn shed_reply(overload: &OverloadConfig, request: &QosRequest) -> Option<Verdict> {
    (request.attempt.is_some() && overload.shed_replies).then_some(overload.shed_verdict)
}

/// What ingress triage decided for one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressDecision {
    /// A stamped request whose budget arrived as zero is already dead —
    /// shed silently, nobody is waiting.
    ShedExpired,
    /// A duplicate of an already-decided attempt: answer from the cached
    /// verdict without touching the bucket.
    AnswerCached(Verdict),
    /// A duplicate of an attempt still in flight: drop silently — the
    /// first copy's response answers every attempt, because retries
    /// reuse the request id.
    AbsorbDuplicate,
    /// Process normally: queue it (and, once the enqueue succeeds, mark
    /// it pending via [`IngressCore::admitted`]).
    Admit,
}

/// Per-datagram triage before queueing — the pure half of the ingress
/// listener. The caller owns the [`DedupWindow`] (production shares one
/// behind a mutex across planes; the simulator owns it outright) and
/// lends it per call.
#[derive(Debug, Clone)]
pub struct IngressCore {
    overload: OverloadConfig,
}

impl IngressCore {
    /// An ingress core applying `overload`'s policy.
    pub fn new(overload: OverloadConfig) -> Self {
        IngressCore { overload }
    }

    /// The overload policy this core applies.
    pub fn overload(&self) -> &OverloadConfig {
        &self.overload
    }

    /// Triage one datagram (see [`IngressDecision`]). Stamped frames are
    /// deduplicated by attempt nonce; legacy frames by request id, which
    /// is what catches the deadline-blind final attempt of a stamped
    /// schedule (DESIGN.md §4c) — a genuinely legacy request id was
    /// never inserted and misses.
    pub fn triage(&self, request: &QosRequest, dedup: Option<&mut DedupWindow>) -> IngressDecision {
        let outcome = match (request.attempt, dedup) {
            (Some(meta), _) if meta.budget_us == 0 => return IngressDecision::ShedExpired,
            (Some(meta), Some(dedup)) => dedup.lookup(meta.nonce, &request.key),
            (None, Some(dedup)) => dedup.lookup_legacy(request.id, &request.key),
            (_, None) => DedupOutcome::Miss,
        };
        match outcome {
            DedupOutcome::Done(verdict) => IngressDecision::AnswerCached(verdict),
            DedupOutcome::Pending => IngressDecision::AbsorbDuplicate,
            DedupOutcome::Miss => IngressDecision::Admit,
        }
    }

    /// Mark an admitted request pending in the dedup window. Call only
    /// after the enqueue actually succeeded: a shed-on-full request must
    /// not leave a Pending entry absorbing its own retries.
    pub fn admitted(&self, request: &QosRequest, dedup: Option<&mut DedupWindow>) {
        if let (Some(meta), Some(dedup)) = (request.attempt, dedup) {
            dedup.insert_pending(meta.nonce, request.id, request.key.clone());
        }
    }

    /// The verdict a shed reply should carry, or `None` for a silent
    /// shed (see [`shed_reply`]).
    pub fn shed_reply(&self, request: &QosRequest) -> Option<Verdict> {
        shed_reply(&self.overload, request)
    }
}

/// What dequeue-time triage decided for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerTriage {
    /// Decide it: charge the bucket and answer.
    Decide,
    /// The deadline passed while the job sat queued: shed silently — the
    /// dedup entry stays Pending, so a late duplicate of the same
    /// attempt is absorbed without a charge too.
    ShedExpired,
    /// The queue has been standing above the sojourn target for a full
    /// window: shed (with a reply when [`WorkerCore::shed_reply`] says
    /// so).
    ShedStanding,
}

/// Dequeue-time triage — the pure half of a worker. One instance per
/// worker/queue: the governor's sojourn signal is local to the queue the
/// worker drains, so cores are never shared.
#[derive(Debug)]
pub struct WorkerCore {
    overload: OverloadConfig,
    governor: Option<SojournGovernor>,
}

impl WorkerCore {
    /// A worker core applying `overload`'s policy (the governor runs
    /// only when `sojourn_shedding` is on).
    pub fn new(overload: OverloadConfig) -> Self {
        let governor = overload
            .sojourn_shedding
            .then(|| SojournGovernor::new(overload.sojourn_target, overload.sojourn_window));
        WorkerCore { overload, governor }
    }

    /// Triage one dequeued job given its queue `sojourn`, the current
    /// time and the queue `backlog` (jobs still waiting behind it).
    /// Legacy frames pass straight through — paper semantics — and are
    /// not fed to the governor. The backlog gate keeps an idle queue's
    /// scheduler noise from reading as a standing queue.
    pub fn triage(
        &mut self,
        request: &QosRequest,
        sojourn: Duration,
        now: Nanos,
        backlog: u64,
    ) -> WorkerTriage {
        let Some(budget) = budget_of(request) else {
            return WorkerTriage::Decide;
        };
        if sojourn >= budget {
            return WorkerTriage::ShedExpired;
        }
        if let Some(governor) = &mut self.governor {
            if governor.observe(sojourn, now) && backlog > 0 {
                return WorkerTriage::ShedStanding;
            }
        }
        WorkerTriage::Decide
    }

    /// The verdict a shed reply should carry, or `None` for a silent
    /// shed (see [`shed_reply`]).
    pub fn shed_reply(&self, request: &QosRequest) -> Option<Verdict> {
        shed_reply(&self.overload, request)
    }
}

/// Encode a table snapshot in the HA wire format: `SNAPSHOT <n>\n`
/// followed by `n` tab-separated rule rows
/// ([`QosRule::write_row`]). One buffer per snapshot, digits through
/// [`janus_types::decimal`], and one UTF-8 check at the end.
pub fn encode_snapshot(rules: &[QosRule]) -> String {
    let rows: usize = rules.iter().map(|r| r.key.len() + ROW_ROOM).sum();
    let mut out = Vec::with_capacity(ROW_ROOM + rows);
    out.extend_from_slice(b"SNAPSHOT ");
    janus_types::decimal::push_u64(&mut out, rules.len() as u64);
    out.push(b'\n');
    for rule in rules {
        rule.write_row(&mut out);
        out.push(b'\n');
    }
    String::from_utf8(out).expect("snapshot rows are UTF-8 keys plus ASCII")
}

/// Bytes reserved for the header, and per row beside its key (three
/// tabs, three short numbers, the newline). A longer snapshot grows.
const ROW_ROOM: usize = 32;

/// Parse the `SNAPSHOT <n>` header line (already trimmed of its
/// newline); `None` if the line is not a well-formed header.
pub fn decode_snapshot_header(line: &str) -> Option<usize> {
    line.strip_prefix("SNAPSHOT ")?.parse().ok()
}

/// Counters a [`ServerCore`] keeps — the sans-IO mirror of the
/// production [`crate::ServerStats`], plain fields instead of atomics
/// because the core is single-threaded by construction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerCoreStats {
    /// Requests shed because the FIFO was full.
    pub shed_full: u64,
    /// Requests shed because their deadline budget was already spent.
    pub shed_expired: u64,
    /// Requests shed by the sojourn governor (standing queue).
    pub shed_sojourn: u64,
    /// Duplicate attempts absorbed by the dedup window.
    pub dedup_hits: u64,
    /// Decisions answered (each one charged a bucket exactly once).
    pub answered: u64,
    /// The subset of `answered` whose verdict was `Allow` — i.e. fresh
    /// decisions that actually consumed a credit. The simulator's credit
    /// oracles difference this across steps.
    pub allowed: u64,
    /// Unknown keys admitted under the default policy.
    pub default_rule_hits: u64,
}

/// A whole QoS-server data plane as one synchronous sans-IO object:
/// [`IngressCore`] and [`WorkerCore`] composed around a [`QosTable`] and
/// an in-memory FIFO. The deterministic simulator steps it at virtual
/// time; its behaviour per request is the production planes' behaviour,
/// because the triage logic *is* the production triage logic.
///
/// No database: unknown keys go straight to the default policy, the way
/// a standalone production server (`db: None`) handles them.
pub struct ServerCore {
    table: Arc<dyn QosTable>,
    ingress: IngressCore,
    worker: WorkerCore,
    dedup: Option<DedupWindow>,
    queue: VecDeque<(QosRequest, Nanos)>,
    fifo_capacity: usize,
    default_policy: DefaultRulePolicy,
    ledger: Option<LeaseLedger>,
    /// Counters, updated as requests flow through.
    pub stats: ServerCoreStats,
}

impl ServerCore {
    /// A server core deciding on `table`, shedding at `fifo_capacity`
    /// queued jobs, applying `overload`'s policy.
    pub fn new(
        table: Arc<dyn QosTable>,
        default_policy: DefaultRulePolicy,
        fifo_capacity: usize,
        overload: OverloadConfig,
    ) -> Self {
        let dedup = (overload.dedup_window > 0).then(|| DedupWindow::new(overload.dedup_window));
        ServerCore {
            table,
            ingress: IngressCore::new(overload.clone()),
            worker: WorkerCore::new(overload),
            dedup,
            queue: VecDeque::new(),
            fifo_capacity: fifo_capacity.max(1),
            default_policy,
            ledger: None,
            stats: ServerCoreStats::default(),
        }
    }

    /// This core with the credit-lease plane enabled under `config`
    /// (a no-op when `config.enabled` is false).
    pub fn with_lease(mut self, config: LeaseConfig) -> Self {
        self.ledger = config.enabled.then(|| LeaseLedger::new(config));
        self
    }

    /// Ledger counters, when the lease plane is enabled. The simulator
    /// differences `drained` across steps to feed the lease oracle.
    pub fn lease_stats(&self) -> Option<LeaseLedgerStats> {
        self.ledger.as_ref().map(|ledger| ledger.stats)
    }

    /// The lease ledger, when enabled (the simulator reaches in for
    /// epochs and holder counts, like tests do).
    pub fn ledger(&self) -> Option<&LeaseLedger> {
        self.ledger.as_ref()
    }

    /// Apply a changed rule: update the table (insert when new) and
    /// revoke outstanding leases for the key by epoch bump — delegated
    /// credit from the old shape means nothing under the new one. The
    /// production DB-sync task follows the same discipline.
    pub fn apply_rule(&mut self, rule: QosRule, now: Nanos) {
        if !self.table.apply_update(&rule, now) {
            self.table.insert(rule.clone(), now);
        }
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.revoke(&rule.key);
        }
    }

    /// The table this core charges (the simulator reaches in for HA
    /// snapshots and invariant checks, like tests do on a production
    /// server).
    pub fn table(&self) -> &Arc<dyn QosTable> {
        &self.table
    }

    /// Jobs currently queued between ingress and the worker.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The request the next [`poll_worker`](Self::poll_worker) will pop,
    /// if any — the simulator peeks it to attribute charge deltas to a
    /// request id even when the response is suppressed as stale.
    pub fn peek_queue(&self) -> Option<&QosRequest> {
        self.queue.front().map(|(request, _)| request)
    }

    /// One datagram arrives at `now`. Returns the response to send, or
    /// `None` when the request was queued or shed silently.
    pub fn on_request(&mut self, request: QosRequest, now: Nanos) -> Option<QosResponse> {
        match self.ingress.triage(&request, self.dedup.as_mut()) {
            IngressDecision::ShedExpired => {
                self.stats.shed_expired += 1;
                None
            }
            IngressDecision::AnswerCached(verdict) => {
                self.stats.dedup_hits += 1;
                Some(respond(&self.table, &request, verdict))
            }
            IngressDecision::AbsorbDuplicate => {
                self.stats.dedup_hits += 1;
                None
            }
            IngressDecision::Admit => {
                if self.queue.len() >= self.fifo_capacity {
                    self.stats.shed_full += 1;
                    return self
                        .ingress
                        .shed_reply(&request)
                        .map(|verdict| respond(&self.table, &request, verdict));
                }
                self.ingress.admitted(&request, self.dedup.as_mut());
                self.queue.push_back((request, now));
                None
            }
        }
    }

    /// The worker pops one job at `now`. Returns the response to send;
    /// `None` when the queue was empty or the job was shed silently.
    pub fn poll_worker(&mut self, now: Nanos) -> Option<QosResponse> {
        let (request, enqueued_at) = self.queue.pop_front()?;
        let sojourn = now.saturating_since(enqueued_at);
        match self
            .worker
            .triage(&request, sojourn, now, self.queue.len() as u64)
        {
            WorkerTriage::ShedExpired => {
                self.stats.shed_expired += 1;
                None
            }
            WorkerTriage::ShedStanding => {
                self.stats.shed_sojourn += 1;
                self.worker
                    .shed_reply(&request)
                    .map(|verdict| respond(&self.table, &request, verdict))
            }
            WorkerTriage::Decide => {
                let (verdict, shape) = self.decide_local(&request, now);
                self.stats.answered += 1;
                if verdict == Verdict::Allow {
                    self.stats.allowed += 1;
                }
                if let Some(dedup) = &mut self.dedup {
                    record_verdict(&request, dedup, verdict);
                }
                if expired_before_send(&request, now.saturating_since(enqueued_at)) {
                    self.stats.shed_expired += 1;
                    return None;
                }
                // The hint and the ledger read the shape the decision
                // charged: no second walk of the table.
                let mut response = respond_shaped(&request, verdict, shape);
                if let (Some(ledger), Some(report)) = (self.ledger.as_mut(), request.lease) {
                    let key = &request.key;
                    let table = &*self.table;
                    let mut charge = TableCharge { table, key, now };
                    if let Some(lease) = ledger.on_report(key, report, shape, now, &mut charge) {
                        response = response.with_lease(lease);
                    }
                }
                Some(response)
            }
        }
    }

    /// Take an HA snapshot of the table (the master side of the
    /// replication exchange).
    pub fn snapshot(&self, now: Nanos) -> Vec<QosRule> {
        self.table.snapshot(now)
    }

    /// Adopt a snapshot wholesale (the slave side).
    pub fn restore(&self, rules: Vec<QosRule>, now: Nanos) {
        self.table.restore(rules, now);
    }

    /// House-keeping refill sweep.
    pub fn sweep_refill(&self, now: Nanos) {
        self.table.sweep_refill(now);
    }

    /// Local table hit, else install the default policy's rule — the
    /// standalone (no database) decision path. Returns the verdict and
    /// the shape of the bucket it charged.
    fn decide_local(
        &mut self,
        request: &QosRequest,
        now: Nanos,
    ) -> (Verdict, Option<(Credits, RefillRate)>) {
        if let Some((verdict, shape)) = self.table.decide_shaped(&request.key, now) {
            return (verdict, Some(shape));
        }
        self.stats.default_rule_hits += 1;
        self.table
            .insert(self.default_policy.rule_for(request.key.clone()), now);
        match self.table.decide_shaped(&request.key, now) {
            Some((verdict, shape)) => (verdict, Some(shape)),
            None => (Verdict::Deny, None),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use janus_bucket::table::TableStatsSnapshot;
    use janus_bucket::ShardedTable;
    use janus_types::{AttemptMeta, QosKey};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const T0: Nanos = Nanos::from_secs(10);

    /// A [`ShardedTable`] that counts [`QosTable::shape`] calls: a
    /// decision that takes its hint and lease shape from its own charge
    /// makes none.
    #[derive(Default)]
    pub(crate) struct ShapeCounting {
        inner: ShardedTable,
        shapes: AtomicUsize,
    }

    impl ShapeCounting {
        pub(crate) fn shape_calls(&self) -> usize {
            self.shapes.load(Ordering::Relaxed)
        }
    }

    impl QosTable for ShapeCounting {
        fn decide_shaped(
            &self,
            key: &QosKey,
            now: Nanos,
        ) -> Option<(Verdict, (Credits, RefillRate))> {
            self.inner.decide_shaped(key, now)
        }
        fn consume_up_to(&self, key: &QosKey, n: u64, now: Nanos) -> u64 {
            self.inner.consume_up_to(key, n, now)
        }
        fn shape(&self, key: &QosKey) -> Option<(Credits, RefillRate)> {
            self.shapes.fetch_add(1, Ordering::Relaxed);
            self.inner.shape(key)
        }
        fn insert(&self, rule: QosRule, now: Nanos) {
            self.inner.insert(rule, now)
        }
        fn apply_update(&self, rule: &QosRule, now: Nanos) -> bool {
            self.inner.apply_update(rule, now)
        }
        fn remove(&self, key: &QosKey) -> bool {
            self.inner.remove(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn keys(&self) -> Vec<QosKey> {
            self.inner.keys()
        }
        fn snapshot(&self, now: Nanos) -> Vec<QosRule> {
            self.inner.snapshot(now)
        }
        fn restore(&self, rules: Vec<QosRule>, now: Nanos) {
            self.inner.restore(rules, now)
        }
        fn sweep_refill(&self, now: Nanos) {
            self.inner.sweep_refill(now)
        }
        fn stats(&self) -> TableStatsSnapshot {
            self.inner.stats()
        }
    }

    /// A stamped request soliciting both a rule hint and a lease.
    pub(crate) fn soliciting_everything(id: u64, k: &str) -> QosRequest {
        QosRequest::soliciting_hint(id, key(k))
            .with_attempt(AttemptMeta::new(10_000, id as u32))
            .with_lease(janus_types::LeaseReport::soliciting(9))
    }

    /// A lease plane that grants from a key's second ask on.
    pub(crate) fn eager_leases() -> LeaseConfig {
        LeaseConfig {
            enabled: true,
            ttl: Duration::from_millis(20),
            hot_threshold: 2,
            max_holders: 2,
            slice_fraction: 4,
        }
    }

    #[test]
    fn a_soliciting_leased_decision_makes_no_shape_call() {
        let table = Arc::new(ShapeCounting::default());
        table.insert(QosRule::per_second(key("hot"), 1_000, 7), T0);
        let mut core = ServerCore::new(
            Arc::clone(&table) as Arc<dyn QosTable>,
            DefaultRulePolicy::AllowAll,
            64,
            OverloadConfig::default(),
        )
        .with_lease(eager_leases());
        // Three asks of an installed key (the second earns a lease) and
        // one of an unknown key, installed by the default policy.
        let mut answers = Vec::new();
        for (id, k) in [(1, "hot"), (2, "hot"), (3, "hot"), (4, "guest")] {
            assert!(core.on_request(soliciting_everything(id, k), T0).is_none());
            answers.push((k, core.poll_worker(T0).expect("decided and answered")));
        }
        assert_eq!(table.shape_calls(), 0, "a decision walked the table twice");
        assert!(answers.iter().any(|(_, response)| response.lease.is_some()));
        for (k, response) in &answers {
            let (capacity, refill_rate) = table.shape(&key(k)).unwrap();
            assert_eq!(
                response.hint,
                Some(RuleHint::new(capacity, refill_rate)),
                "{k}"
            );
        }
        // A cached duplicate charged nothing, so it looks its shape up.
        let before = table.shape_calls();
        let replay = core
            .on_request(soliciting_everything(1, "hot"), T0)
            .unwrap();
        assert_eq!(table.shape_calls(), before + 1);
        assert_eq!(replay.hint, answers[0].1.hint);
    }

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn stamped(id: u64, k: &str, budget_us: u32, nonce: u32) -> QosRequest {
        QosRequest::new(id, key(k)).with_attempt(AttemptMeta::new(budget_us, nonce))
    }

    fn core_with(capacity: u64, k: &str) -> ServerCore {
        let table: Arc<dyn QosTable> = Arc::new(ShardedTable::new());
        table.insert(QosRule::per_second(key(k), capacity, 0), T0);
        ServerCore::new(
            table,
            DefaultRulePolicy::Deny,
            64,
            OverloadConfig::default(),
        )
    }

    #[test]
    fn each_admission_charges_exactly_once() {
        let mut core = core_with(2, "tenant");
        for (id, expected) in [(1, Verdict::Allow), (2, Verdict::Allow), (3, Verdict::Deny)] {
            assert!(core
                .on_request(QosRequest::new(id, key("tenant")), T0)
                .is_none());
            let response = core.poll_worker(T0).expect("legacy frames always answer");
            assert_eq!(response.verdict, expected, "request {id}");
            assert_eq!(response.id, id);
        }
        assert_eq!(core.stats.answered, 3);
    }

    #[test]
    fn duplicate_nonce_is_absorbed_then_answered_from_cache() {
        let mut core = core_with(1, "tenant");
        let request = stamped(9, "tenant", 10_000, 42);
        assert!(core.on_request(request.clone(), T0).is_none(), "queued");
        // A duplicate while the first copy is still queued is absorbed
        // silently: the first copy's response answers every attempt.
        assert!(core.on_request(request.clone(), T0).is_none());
        assert_eq!(core.stats.dedup_hits, 1);
        assert_eq!(core.queue_len(), 1, "duplicate was not re-queued");

        let first = core.poll_worker(T0).unwrap();
        assert_eq!(first.verdict, Verdict::Allow);
        // The bucket is now empty; only the dedup cache can say Allow.
        let replay = core.on_request(request, T0).expect("cached answer");
        assert_eq!(replay.verdict, Verdict::Allow);
        assert_eq!(core.stats.answered, 1, "bucket charged exactly once");
    }

    #[test]
    fn legacy_downgraded_final_attempt_reuses_cached_verdict() {
        // DESIGN.md §4c regression: the final attempt of a stamped retry
        // schedule downgrades to a legacy frame (no nonce, no budget)
        // but reuses the logical request id. While the original verdict
        // sits in the dedup window it must be answered from cache, not
        // charged a second time.
        let mut core = core_with(1, "tenant");
        let original = stamped(77, "tenant", 10_000, 1234);
        assert!(core.on_request(original.clone(), T0).is_none());
        let decided = core.poll_worker(T0).unwrap();
        assert_eq!(decided.verdict, Verdict::Allow);

        let legacy_copy = original.without_attempt();
        assert!(legacy_copy.attempt.is_none(), "downgrade drops the stamp");
        let answer = core
            .on_request(legacy_copy, T0)
            .expect("cached answer, not a silent queue");
        // The bucket is empty: a real decision would say Deny. Allow
        // proves the verdict came from the dedup cache — no double
        // charge.
        assert_eq!(answer.verdict, Verdict::Allow);
        assert_eq!(core.stats.answered, 1);
        assert_eq!(core.stats.dedup_hits, 1);
    }

    #[test]
    fn legacy_downgrade_absorbed_while_original_is_pending() {
        // The §4c race's other half: the legacy copy lands while the
        // stamped copy is still queued. It must be absorbed (the queued
        // copy's response answers both) — not decided a second time.
        let mut core = core_with(1, "tenant");
        let original = stamped(78, "tenant", 10_000, 99);
        assert!(core.on_request(original.clone(), T0).is_none());
        assert!(core.on_request(original.without_attempt(), T0).is_none());
        assert_eq!(core.queue_len(), 1, "legacy copy was not re-queued");
        assert_eq!(core.stats.dedup_hits, 1);
        assert_eq!(core.poll_worker(T0).unwrap().verdict, Verdict::Allow);
        assert_eq!(core.stats.answered, 1, "one charge for the pair");
    }

    #[test]
    fn pure_legacy_traffic_keeps_paper_semantics() {
        // A genuinely legacy router (never stamped anything) is charged
        // on every attempt, exactly as the paper specifies.
        let mut core = core_with(2, "tenant");
        for _ in 0..2 {
            assert!(core
                .on_request(QosRequest::new(5, key("tenant")), T0)
                .is_none());
            core.poll_worker(T0).unwrap();
        }
        assert_eq!(core.stats.answered, 2, "no dedup for unstamped traffic");
        assert_eq!(core.stats.dedup_hits, 0);
    }

    #[test]
    fn zero_budget_request_is_shed_at_ingress() {
        let mut core = core_with(1, "tenant");
        assert!(core.on_request(stamped(1, "tenant", 0, 7), T0).is_none());
        assert_eq!(core.stats.shed_expired, 1);
        assert_eq!(core.queue_len(), 0);
    }

    #[test]
    fn full_queue_sheds_with_reply_for_stamped_requests() {
        let table: Arc<dyn QosTable> = Arc::new(ShardedTable::new());
        table.insert(QosRule::per_second(key("t"), 100, 0), T0);
        let mut core =
            ServerCore::new(table, DefaultRulePolicy::Deny, 1, OverloadConfig::default());
        assert!(core.on_request(stamped(1, "t", 10_000, 1), T0).is_none());
        // Queue full: the stamped request gets the shed verdict back...
        let shed = core.on_request(stamped(2, "t", 10_000, 2), T0).unwrap();
        assert_eq!(shed.verdict, Verdict::Deny);
        // ...and must NOT leave a Pending entry: its retry is a fresh
        // try, not a duplicate to absorb.
        assert_eq!(core.stats.shed_full, 1);
        assert!(core.on_request(stamped(2, "t", 10_000, 2), T0).is_some());
        assert_eq!(core.stats.shed_full, 2, "retry shed again, not absorbed");
        // A legacy frame sheds silently.
        assert!(core.on_request(QosRequest::new(3, key("t")), T0).is_none());
        assert_eq!(core.stats.shed_full, 3);
    }

    #[test]
    fn lease_soliciting_traffic_earns_a_grant_debited_from_the_bucket() {
        use crate::lease::LeaseConfig;
        use janus_types::LeaseReport;
        let table: Arc<dyn QosTable> = Arc::new(ShardedTable::new());
        table.insert(QosRule::per_second(key("hot"), 20, 0), T0);
        let mut core = ServerCore::new(
            table,
            DefaultRulePolicy::Deny,
            64,
            OverloadConfig::default(),
        )
        .with_lease(LeaseConfig {
            enabled: true,
            ttl: Duration::from_millis(20),
            hot_threshold: 2,
            max_holders: 2,
            slice_fraction: 4,
        });
        let ask = |id| QosRequest::new(id, key("hot")).with_lease(LeaseReport::soliciting(9));
        assert!(core.on_request(ask(1), T0).is_none());
        let first = core.poll_worker(T0).unwrap();
        assert_eq!(first.lease, None, "below the hot threshold");
        assert!(core.on_request(ask(2), T0).is_none());
        let second = core.poll_worker(T0).unwrap();
        let lease = second.lease.expect("second ask crosses the threshold");
        assert_eq!(lease.slice, janus_types::Credits::from_whole(5));
        assert_eq!(lease.epoch, 1);
        // The two admissions plus the 5-credit slice left 13 of 20: the
        // grant really debited the authoritative bucket.
        let stats = core.lease_stats().unwrap();
        assert_eq!(stats.drained, 5);
        assert_eq!(stats.grants, 1);
        let mut allows = 0;
        for id in 3..30 {
            assert!(core
                .on_request(QosRequest::new(id, key("hot")), T0)
                .is_none());
            if core.poll_worker(T0).unwrap().verdict == Verdict::Allow {
                allows += 1;
            }
        }
        assert_eq!(allows, 13, "slice credits are gone from the bucket");
    }

    #[test]
    fn apply_rule_revokes_by_epoch_bump() {
        use crate::lease::LeaseConfig;
        use janus_types::LeaseReport;
        let table: Arc<dyn QosTable> = Arc::new(ShardedTable::new());
        table.insert(QosRule::per_second(key("hot"), 20, 0), T0);
        let mut core = ServerCore::new(
            table,
            DefaultRulePolicy::Deny,
            64,
            OverloadConfig::default(),
        )
        .with_lease(LeaseConfig {
            enabled: true,
            ttl: Duration::from_millis(20),
            hot_threshold: 1,
            max_holders: 2,
            slice_fraction: 4,
        });
        let ask = QosRequest::new(1, key("hot")).with_lease(LeaseReport::soliciting(9));
        assert!(core.on_request(ask, T0).is_none());
        assert_eq!(core.poll_worker(T0).unwrap().lease.unwrap().epoch, 1);
        core.apply_rule(QosRule::per_second(key("hot"), 10, 0), T0);
        assert_eq!(core.lease_stats().unwrap().revocations, 1);
        let ask = QosRequest::new(2, key("hot")).with_lease(LeaseReport::soliciting(9));
        assert!(core.on_request(ask, T0).is_none());
        let lease = core.poll_worker(T0).unwrap().lease.unwrap();
        assert_eq!(lease.epoch, 2, "re-grant carries the bumped epoch");
    }

    #[test]
    fn queue_sojourn_past_budget_sheds_at_dequeue() {
        let mut core = core_with(5, "tenant");
        assert!(core.on_request(stamped(1, "tenant", 100, 11), T0).is_none());
        // 100 µs budget, popped 150 µs later: nobody is waiting.
        let later = T0.saturating_add(Duration::from_micros(150));
        assert!(core.poll_worker(later).is_none());
        assert_eq!(core.stats.shed_expired, 1);
        assert_eq!(core.stats.answered, 0, "no charge for a shed job");
    }

    #[test]
    fn unknown_key_falls_back_to_default_policy() {
        let table: Arc<dyn QosTable> = Arc::new(ShardedTable::new());
        let mut core = ServerCore::new(
            table,
            DefaultRulePolicy::AllowAll,
            8,
            OverloadConfig::default(),
        );
        assert!(core
            .on_request(QosRequest::new(1, key("ghost")), T0)
            .is_none());
        let response = core.poll_worker(T0).unwrap();
        assert_eq!(response.verdict, Verdict::Allow);
        assert_eq!(core.stats.default_rule_hits, 1);
    }

    #[test]
    fn worker_core_sheds_standing_queue_only_with_backlog() {
        let overload = OverloadConfig {
            sojourn_target: Duration::from_micros(500),
            sojourn_window: Duration::from_millis(10),
            ..OverloadConfig::default()
        };
        let mut worker = WorkerCore::new(overload);
        let request = stamped(1, "t", 1_000_000, 5);
        let slow = Duration::from_micros(900);
        // A full standing window first (mirrors the governor's own test).
        for tick in 0..10u64 {
            let now = Nanos::from_micros(tick * 1_000);
            assert_eq!(worker.triage(&request, slow, now, 1), WorkerTriage::Decide);
        }
        let now = Nanos::from_micros(10_000);
        assert_eq!(
            worker.triage(&request, slow, now, 1),
            WorkerTriage::ShedStanding
        );
        // Same signal, empty queue: scheduler noise, serve it.
        let mut idle = WorkerCore::new(OverloadConfig::default());
        for tick in 0..10u64 {
            idle.triage(&request, slow, Nanos::from_micros(tick * 1_000), 0);
        }
        assert_eq!(
            idle.triage(&request, slow, Nanos::from_micros(10_000), 0),
            WorkerTriage::Decide
        );
    }

    #[test]
    fn snapshot_wire_roundtrip() {
        let rules = vec![
            QosRule::per_second(key("alice:photos"), 100, 1000),
            QosRule::per_second(key("bob"), 50, 5),
        ];
        let wire = encode_snapshot(&rules);
        let mut lines = wire.lines();
        let n = decode_snapshot_header(lines.next().unwrap()).unwrap();
        assert_eq!(n, 2);
        let parsed: Vec<QosRule> = lines.map(|l| QosRule::parse_row(l).unwrap()).collect();
        assert_eq!(parsed, rules);
        assert_eq!(decode_snapshot_header("SNAPSHOT x"), None);
        assert_eq!(decode_snapshot_header("GIMME 2"), None);
    }

    /// The snapshot bytes `encode_snapshot` wrote through `format!`
    /// before it moved onto the digit writer.
    fn snapshot_via_format(rules: &[QosRule]) -> String {
        fn micro(micro: u64) -> String {
            let (int, frac) = (micro / 1_000_000, micro % 1_000_000);
            if frac == 0 {
                return int.to_string();
            }
            let mut s = format!("{int}.{frac:06}");
            while s.ends_with('0') {
                s.pop();
            }
            s
        }
        let mut out = format!("SNAPSHOT {}\n", rules.len());
        for r in rules {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                r.key,
                micro(r.refill_rate.micro_per_sec()),
                micro(r.capacity.as_micro()),
                micro(r.credit.as_micro())
            ));
        }
        out
    }

    #[test]
    fn snapshot_bytes_match_the_format_path() {
        let rule = |name: &str, rate: u64, capacity: u64, credit: u64| QosRule {
            key: key(name),
            refill_rate: RefillRate::from_micro_per_sec(rate),
            capacity: Credits::from_micro(capacity),
            credit: Credits::from_micro(credit),
        };
        let key23 = "k".repeat(janus_types::INLINE_KEY_BYTES);
        let key24 = "k".repeat(janus_types::INLINE_KEY_BYTES + 1);
        let rules = vec![
            rule("zero", 0, 0, 0),
            rule("whole", 5_000_000, 100_000_000, 42_000_000),
            rule("fractions", 1_500_000, 1, 1_000_001),
            rule("max", u64::MAX, u64::MAX, u64::MAX - 1),
            rule(&key23, 1, 999_999, 10_000_000),
            rule(&key24, 123_456_789, 120_000, 3),
        ];
        assert_eq!(encode_snapshot(&[]), "SNAPSHOT 0\n");
        let wire = encode_snapshot(&rules);
        assert_eq!(wire, snapshot_via_format(&rules));
        assert!(wire.contains("\nfractions\t1.5\t0.000001\t1.000001\n"));
        assert!(wire.contains("max\t18446744073709.551615\t"));
        for (row, rule) in wire.lines().skip(1).zip(&rules) {
            assert_eq!(row, rule.to_row());
        }
    }
}
