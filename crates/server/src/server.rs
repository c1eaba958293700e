//! The QoS server node: the listener plane, its workers and the
//! maintenance threads.
//!
//! The paper's QoS server is a thread machine — one listener thread, a
//! FIFO, N worker threads — and so is this one
//! ([`SocketMode::SingleListener`]): the listener `qos-listener` takes
//! one request per wake-up and puts it on one bounded FIFO, and every
//! worker `qos-worker-N` pops that FIFO under a mutex and answers each
//! request with its own datagram. The other plane,
//! [`SocketMode::PerCore`], lives in `crate::percore`.
//!
//! Every thread is named, owned by the [`QosServer`] handle and stopped
//! through one [`Shutdown`]: the maintenance threads sleep on it, the
//! listener is unblocked by closing its socket, and the workers exit
//! when the listener drops the FIFO's sender.

use crate::config::{DbTarget, QosServerConfig, SocketMode, TableKind};
// The pure halves of both data planes — budget extraction, response
// shaping, dedup bookkeeping, triage — live in the sans-IO core module so
// the simulator drives the same code.
use crate::core::{self, respond, IngressCore, IngressDecision, WorkerCore, WorkerTriage};
use crate::ha;
use crate::lease::{LeaseLedger, TableCharge};
use crate::overload::DedupWindow;
use crate::percore;
use janus_bucket::{LockFreeTable, QosTable, ShardedTable, TableEngineCells};
use janus_clock::{Nanos, SharedClock};
use janus_db::DbClient;
use janus_net::fault::FaultPlan;
use janus_net::udp::{UdpServerSocket, RECV_BUF_BYTES};
use janus_types::sync::{Mutex, Shutdown};
use janus_types::{Credits, QosKey, QosRequest, QosResponse, RefillRate, Result, Verdict};
use janus_workload::Histogram;
use std::collections::HashSet;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Keys whose local bucket came from the default policy rather than a
/// database row. The rule-sync task must not treat their absence from
/// the database as a deletion — removing them would re-grant a fresh
/// guest bucket every sync round.
pub(crate) type GuestKeys = Arc<Mutex<HashSet<QosKey>>>;

/// The recent-nonce window shared by the listener (lookups at ingress)
/// and the workers (verdict recording after a decision). One shared
/// window — not one per worker — because on both planes any worker may
/// decide any key, and credit exactness requires duplicate detection to
/// be serialized at a single point.
pub(crate) type SharedDedup = Arc<Mutex<DedupWindow>>;

/// The credit-lease ledger shared by every decision site (FIFO workers,
/// or per-core socket owners) and the rule-sync task (revocation on rule
/// change). One ledger per server — like the dedup window, lease
/// accounting must serialize at a single point because any worker may
/// decide any key on either plane. `None` when the lease plane is
/// disabled.
pub(crate) type SharedLedger = Arc<Mutex<LeaseLedger>>;

/// One queued admission request, stamped with its enqueue time so the
/// dequeuing worker can compute the queue sojourn — the signal behind
/// both staleness shedding and the sojourn governor.
struct Job {
    request: QosRequest,
    peer: SocketAddr,
    enqueued_at: Nanos,
}

/// Counters exported by a running QoS server.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests shed because the FIFO was full.
    pub shed_full: AtomicU64,
    /// Requests shed because their deadline budget was already spent —
    /// at ingress (budget arrived as zero), at dequeue (the queue
    /// sojourn consumed it), or after deciding but before the send.
    pub shed_expired: AtomicU64,
    /// Requests shed by the sojourn governor: the queue was standing
    /// above target for a full window (see
    /// [`crate::overload::SojournGovernor`]).
    pub shed_sojourn: AtomicU64,
    /// Duplicate attempts absorbed by the dedup window — answered from
    /// the cached verdict (or silently dropped while the first copy was
    /// still in flight) instead of charging the bucket again.
    pub dedup_hits: AtomicU64,
    /// Decisions answered.
    pub answered: AtomicU64,
    /// Rules fetched from the database on first sighting.
    pub db_fetches: AtomicU64,
    /// Unknown keys admitted under the default policy.
    pub default_rule_hits: AtomicU64,
    /// House-keeping refill sweeps executed.
    pub refill_sweeps: AtomicU64,
    /// Idle-key reclaim sweeps completed (table walks, whether or not
    /// they found an idle key); zero when reclamation is off.
    pub reclaim_sweeps: AtomicU64,
    /// Check-point rounds completed.
    pub checkpoints: AtomicU64,
    /// Rule-sync rounds that found changes.
    pub sync_rounds: AtomicU64,
    /// Lease grants (first-time and renewals) attached to responses —
    /// each one pre-paid by a debit against the authoritative bucket.
    pub lease_grants: AtomicU64,
    /// First-sighting DB fetches abandoned at the fetch budget.
    pub db_timeouts: AtomicU64,
    /// Requests currently queued between listener and workers (gauge).
    pub fifo_depth: AtomicU64,
    /// Engine counters shared into the lock-free table at spawn: bucket
    /// CAS retries and probe steps on the decision path, resident open
    /// slots, active-generation slot count, completed resizes, migrated
    /// slots and reclaimed keys. All zero under the locked table kinds.
    pub engine: TableEngineCells,
    /// Streaming warm-up batches applied at preload (non-empty pages of
    /// the hottest-first cold-tier scan).
    pub warmup_batches: AtomicU64,
    /// Queue sojourn (enqueue → dequeue) of every request a worker
    /// popped, shed or served — the signal the sojourn governor runs on,
    /// exported as percentiles in the snapshot.
    pub sojourn: Mutex<Histogram>,
}

/// A point-in-time copy of [`ServerStats`], for benches and experiment
/// harnesses that want one coherent read instead of a field-by-field
/// probe of the atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Requests shed because the FIFO was full.
    pub shed_full: u64,
    /// Requests shed because their deadline budget was already spent.
    pub shed_expired: u64,
    /// Requests shed by the sojourn governor (standing queue).
    pub shed_sojourn: u64,
    /// Duplicate attempts absorbed by the dedup window.
    pub dedup_hits: u64,
    /// Decisions answered.
    pub answered: u64,
    /// Rules fetched from the database on first sighting.
    pub db_fetches: u64,
    /// Unknown keys admitted under the default policy.
    pub default_rule_hits: u64,
    /// House-keeping refill sweeps executed.
    pub refill_sweeps: u64,
    /// Idle-key reclaim sweeps completed.
    pub reclaim_sweeps: u64,
    /// Check-point rounds completed.
    pub checkpoints: u64,
    /// Rule-sync rounds that found changes.
    pub sync_rounds: u64,
    /// Lease grants (first-time and renewals) attached to responses.
    pub lease_grants: u64,
    /// First-sighting DB fetches abandoned at the fetch budget.
    pub db_timeouts: u64,
    /// Requests queued between listener and workers right now (gauge —
    /// queue pressure, not a running total).
    pub fifo_depth: u64,
    /// Bucket CAS retries on the decision path (lock-free table only).
    pub cas_retries: u64,
    /// Open-addressing probe steps beyond the home slot (lock-free table
    /// only).
    pub probe_steps: u64,
    /// Published entries resident in the lock-free table's open-addressed
    /// array (gauge; overflow excluded, zero under locked table kinds).
    pub open_slots: u64,
    /// Integer occupancy percentage of the active generation
    /// (`open_slots * 100 / slot_count`; 0 under locked table kinds).
    pub occupancy_pct: u64,
    /// Completed watermark-triggered generation doublings.
    pub resizes: u64,
    /// Live rules carried across generations by incremental migration.
    pub migrated_slots: u64,
    /// Idle keys demoted to the database cold tier by reclaim sweeps.
    pub reclaimed_keys: u64,
    /// Streaming warm-up batches applied at preload.
    pub warmup_batches: u64,
    /// Median queue sojourn, whole microseconds (0 when nothing popped).
    pub sojourn_p50_us: u64,
    /// 99th-percentile queue sojourn, whole microseconds.
    pub sojourn_p99_us: u64,
}

impl ServerStats {
    /// Total sheds across every cause.
    pub fn shed_total(&self) -> u64 {
        self.shed_full.load(Ordering::Relaxed)
            + self.shed_expired.load(Ordering::Relaxed)
            + self.shed_sojourn.load(Ordering::Relaxed)
    }

    /// Read every counter at once.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        let (sojourn_p50_us, sojourn_p99_us) = {
            let sojourn = self.sojourn.lock();
            (
                sojourn.quantile(0.5) / 1_000,
                sojourn.quantile(0.99) / 1_000,
            )
        };
        let open_slots = self.engine.open_slots.load(Ordering::Relaxed);
        let slot_count = self.engine.slot_count.load(Ordering::Relaxed);
        ServerStatsSnapshot {
            shed_full: self.shed_full.load(Ordering::Relaxed),
            shed_expired: self.shed_expired.load(Ordering::Relaxed),
            shed_sojourn: self.shed_sojourn.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            db_fetches: self.db_fetches.load(Ordering::Relaxed),
            default_rule_hits: self.default_rule_hits.load(Ordering::Relaxed),
            refill_sweeps: self.refill_sweeps.load(Ordering::Relaxed),
            reclaim_sweeps: self.reclaim_sweeps.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            sync_rounds: self.sync_rounds.load(Ordering::Relaxed),
            lease_grants: self.lease_grants.load(Ordering::Relaxed),
            db_timeouts: self.db_timeouts.load(Ordering::Relaxed),
            fifo_depth: self.fifo_depth.load(Ordering::Relaxed),
            cas_retries: self.engine.cas_retries.load(Ordering::Relaxed),
            probe_steps: self.engine.probe_steps.load(Ordering::Relaxed),
            open_slots,
            occupancy_pct: (open_slots * 100).checked_div(slot_count).unwrap_or(0),
            resizes: self.engine.resizes.load(Ordering::Relaxed),
            migrated_slots: self.engine.migrated_slots.load(Ordering::Relaxed),
            reclaimed_keys: self.engine.reclaimed_keys.load(Ordering::Relaxed),
            warmup_batches: self.warmup_batches.load(Ordering::Relaxed),
            sojourn_p50_us,
            sojourn_p99_us,
        }
    }
}

impl ServerStatsSnapshot {
    /// Total sheds across every cause.
    pub fn shed_total(&self) -> u64 {
        self.shed_full + self.shed_expired + self.shed_sojourn
    }
}

/// A running QoS server node.
///
/// Dropping the handle stops every thread.
pub struct QosServer {
    udp_addr: SocketAddr,
    /// The HA/health TCP port.
    ha: janus_net::TcpService,
    table: Arc<dyn QosTable>,
    stats: Arc<ServerStats>,
    clock: SharedClock,
    shutdown: Shutdown,
    /// The listener's socket (`None` on the per-core plane, whose
    /// workers poll the shutdown signal between bounded receives).
    socket: Option<Arc<UdpServerSocket>>,
}

impl QosServer {
    /// Spawn a QoS server.
    ///
    /// `db` is the database target used for first-sighting lookups, rule
    /// sync and check-pointing (a fixed address, or a DNS failover name
    /// for Multi-AZ setups); `None` runs the server standalone (rules
    /// inserted via [`QosServer::table`], unknown keys handled by the
    /// default policy).
    pub fn spawn(
        config: QosServerConfig,
        db: Option<DbTarget>,
        clock: SharedClock,
    ) -> Result<QosServer> {
        Self::spawn_with_faults(config, db, clock, FaultPlan::none())
    }

    /// Spawn with fault injection on the response path.
    pub fn spawn_with_faults(
        config: QosServerConfig,
        db: Option<DbTarget>,
        clock: SharedClock,
        faults: Arc<FaultPlan>,
    ) -> Result<QosServer> {
        config.validate()?;
        // Stats first: the lock-free table writes its hot-path counters
        // straight into cells shared with the stats block.
        let stats = Arc::new(ServerStats::default());
        let table: Arc<dyn QosTable> = match config.table {
            TableKind::Sharded => Arc::new(ShardedTable::new()),
            TableKind::Synchronized => Arc::new(ShardedTable::with_shards(1)),
            TableKind::LockFree => Arc::new(LockFreeTable::with_cells(
                config.table_slots,
                stats.engine.clone(),
            )),
        };
        let shutdown = Shutdown::new();

        // Preload the rule table if asked — streamed in bounded,
        // hottest-first batches (the cold-tier scan) instead of one
        // monolithic `SELECT *`, so a million-row table neither stalls
        // startup on a single giant response nor warms cold keys before
        // hot ones.
        if config.preload {
            if let Some(target) = &db {
                let mut client = target.connect().ok_or_else(|| {
                    janus_types::JanusError::db("cannot reach database for preload")
                })?;
                let now = clock.now();
                let mut offset = 0;
                loop {
                    let batch = client.scan_rules(offset, config.warmup_batch)?;
                    let fetched = batch.len();
                    if fetched > 0 {
                        for rule in batch {
                            table.insert(rule, now);
                        }
                        stats.warmup_batches.fetch_add(1, Ordering::Relaxed);
                    }
                    offset += fetched;
                    if fetched < config.warmup_batch {
                        break;
                    }
                }
            }
        }

        let guest_keys: GuestKeys = Arc::new(Mutex::new(HashSet::new()));

        // Listener -> FIFO -> workers. The dedup window is shared by the
        // listener (lookups at ingress) and every worker (verdict
        // recording): any worker may decide any key, so duplicate
        // detection must serialize at one point.
        let overload = config.overload.clone();
        let dedup: Option<SharedDedup> = (overload.dedup_window > 0)
            .then(|| Arc::new(Mutex::new(DedupWindow::new(overload.dedup_window))));
        // The lease ledger is shared the same way: one authoritative
        // bookkeeper per server, consulted at every decision site and by
        // the rule-sync task (epoch-bump revocation on rule change).
        let ledger: Option<SharedLedger> = config
            .lease
            .enabled
            .then(|| Arc::new(Mutex::new(LeaseLedger::new(config.lease.clone()))));
        // Everything a decision site needs, shared by every worker of
        // either plane.
        let decisions = DecisionCtx {
            table: Arc::clone(&table),
            stats: Arc::clone(&stats),
            clock: Arc::clone(&clock),
            db_target: db.clone(),
            default_policy: config.default_policy.clone(),
            guest_keys: Arc::clone(&guest_keys),
            db_fetch_timeout: config.db_fetch_timeout,
            dedup,
            ledger: ledger.clone(),
        };
        let ingress = IngressCore::new(overload.clone());
        let mut listener_socket = None;
        let udp_addr = if config.socket_mode == SocketMode::PerCore {
            // Kernel flow steering replaces the listener→queue hop: each
            // worker thread owns an SO_REUSEPORT socket and receives,
            // decides and answers one datagram at a time (DESIGN.md
            // ablation 12).
            percore::spawn_percore_plane(&config, decisions, ingress, faults, shutdown.clone())?
        } else {
            let socket = Arc::new(UdpServerSocket::bind(config.bind_addr, faults)?);
            let udp_addr = socket.local_addr()?;
            listener_socket = Some(Arc::clone(&socket));
            let (fifo_tx, fifo_rx) = mpsc::sync_channel::<Job>(config.fifo_capacity);
            spawn_ingress_listener(IngressCtx {
                decisions: decisions.clone(),
                socket: Arc::clone(&socket),
                core: ingress,
                fifo: fifo_tx,
            })?;
            let fifo_rx = Arc::new(Mutex::new(fifo_rx));
            for i in 0..config.workers {
                spawn_worker(
                    i,
                    decisions.clone(),
                    Arc::clone(&socket),
                    WorkerCore::new(overload.clone()),
                    Arc::clone(&fifo_rx),
                )?;
            }
            udp_addr
        };

        // House-keeping refill.
        spawn_refill(
            Arc::clone(&table),
            Arc::clone(&stats),
            Arc::clone(&clock) as SharedClock,
            config.refill_interval,
            shutdown.clone(),
        )?;

        // DB sync + check-pointing.
        if let Some(target) = db {
            spawn_sync(
                Arc::clone(&table),
                Arc::clone(&stats),
                Arc::clone(&clock) as SharedClock,
                target.clone(),
                config.sync_interval,
                shutdown.clone(),
                Arc::clone(&guest_keys),
                ledger.clone(),
            )?;
            spawn_checkpoint(
                Arc::clone(&table),
                Arc::clone(&stats),
                Arc::clone(&clock) as SharedClock,
                target.clone(),
                config.checkpoint_interval,
                shutdown.clone(),
                Arc::clone(&guest_keys),
            )?;
            if let Some(idle_ttl) = config.idle_ttl {
                spawn_reclaim(
                    Arc::clone(&table),
                    Arc::clone(&stats),
                    Arc::clone(&clock) as SharedClock,
                    target,
                    idle_ttl,
                    config.reclaim_interval,
                    shutdown.clone(),
                    Arc::clone(&guest_keys),
                )?;
            }
        }

        // HA / health listener.
        let ha = ha::spawn_ha_listener(Arc::clone(&table), Arc::clone(&clock) as SharedClock)?;

        Ok(QosServer {
            udp_addr,
            ha,
            table,
            stats,
            clock,
            shutdown,
            socket: listener_socket,
        })
    }

    /// The UDP address admission requests go to.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The TCP address used for HA replication and health checks.
    pub fn ha_addr(&self) -> SocketAddr {
        self.ha.addr()
    }

    /// The local QoS table (tests and slaves reach in directly).
    pub fn table(&self) -> &Arc<dyn QosTable> {
        &self.table
    }

    /// Counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// The clock this server charges buckets with.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Stop all threads.
    pub fn shutdown(&self) {
        if self.shutdown.is_triggered() {
            return;
        }
        self.shutdown.trigger();
        // The listener is blocked in a receive.
        if let Some(socket) = &self.socket {
            socket.close();
        }
        self.ha.shutdown();
    }
}

impl Drop for QosServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What every decision site shares, on either plane: the table and its
/// fallbacks (database, default policy), the counters, and the one dedup
/// window and lease ledger. One clone per worker thread.
#[derive(Clone)]
pub(crate) struct DecisionCtx {
    pub table: Arc<dyn QosTable>,
    pub stats: Arc<ServerStats>,
    pub clock: SharedClock,
    pub db_target: Option<DbTarget>,
    pub default_policy: janus_bucket::DefaultRulePolicy,
    pub guest_keys: GuestKeys,
    pub db_fetch_timeout: Duration,
    pub dedup: Option<SharedDedup>,
    pub ledger: Option<SharedLedger>,
}

impl DecisionCtx {
    /// The decision tail both planes share, for a request that arrived at
    /// `arrived` and passed its plane's triage: decide it, count the
    /// answer, cache the verdict for duplicates, and build the response
    /// with any lease grant — `None` when the deadline passed before the
    /// send.
    pub(crate) fn serve(
        &self,
        request: &QosRequest,
        arrived: Nanos,
        db: &mut Option<DbClient>,
    ) -> Option<QosResponse> {
        let (verdict, shape) = self.decide(&request.key, db);
        self.stats.answered.fetch_add(1, Ordering::Relaxed);
        if let Some(dedup) = &self.dedup {
            core::record_verdict(request, &mut dedup.lock(), verdict);
        }
        // Post-decision staleness: deciding (a first-sighting DB fetch,
        // say) may have eaten the rest of the budget, and then sending is
        // wasted work. The charge stands and the verdict is cached, so a
        // retry gets the cached verdict, never a second charge.
        let waited = self.clock.now().saturating_since(arrived);
        if core::expired_before_send(request, waited) {
            self.stats.shed_expired.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // The hint and the ledger read the shape the decision charged: no
        // second walk of the table.
        let response = core::respond_shaped(request, verdict, shape);
        Some(self.attach_lease(request, response, shape))
    }

    /// The lease half of a decided request, through the shared ledger:
    /// fold in the piggybacked report, and attach a grant when the key is
    /// hot and the authoritative bucket (of `shape`, as its decision
    /// charged it) covers the debit.
    fn attach_lease(
        &self,
        request: &QosRequest,
        response: QosResponse,
        shape: Option<(Credits, RefillRate)>,
    ) -> QosResponse {
        let (Some(ledger), Some(report)) = (&self.ledger, request.lease) else {
            return response;
        };
        let now = self.clock.now();
        let (table, key) = (&*self.table, &request.key);
        let mut charge = TableCharge { table, key, now };
        let lease = ledger
            .lock()
            .on_report(key, report, shape, now, &mut charge);
        match lease {
            Some(lease) => {
                self.stats.lease_grants.fetch_add(1, Ordering::Relaxed);
                response.with_lease(lease)
            }
            None => response,
        }
    }

    /// Local table hit, else database fetch (bounded by
    /// `db_fetch_timeout`), else default policy. Returns the verdict and
    /// the shape of the bucket it charged.
    fn decide(
        &self,
        key: &QosKey,
        db: &mut Option<DbClient>,
    ) -> (Verdict, Option<(Credits, RefillRate)>) {
        let now = self.clock.now();
        if let Some((verdict, shape)) = self.table.decide_shaped(key, now) {
            return (verdict, Some(shape));
        }
        // First sighting: consult the database. The whole fetch —
        // including (re)connecting — runs under one deadline: a hung
        // connection must not stall this worker.
        let rule = match &self.db_target {
            Some(target) => {
                let deadline = Instant::now() + self.db_fetch_timeout;
                if db.is_none() {
                    *db = target.connect_by(deadline);
                }
                let fetched = match db.as_mut() {
                    Some(client) => {
                        client.set_deadline(deadline);
                        client.get_rule(key)
                    }
                    None => Ok(None),
                };
                self.stats.db_fetches.fetch_add(1, Ordering::Relaxed);
                let timed_out = match &fetched {
                    Err(janus_types::JanusError::Io(e)) => {
                        matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                    }
                    // A connect that ate the whole budget.
                    _ => db.is_none() && Instant::now() >= deadline,
                };
                if timed_out {
                    // Budget blown: drop the (possibly hung) connection
                    // and fall back to the default policy this once.
                    self.stats.db_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                match fetched {
                    Ok(rule) => rule,
                    // Connection went bad (or hung): drop it so the next
                    // miss reconnects.
                    Err(_) => {
                        *db = None;
                        None
                    }
                }
            }
            None => None,
        };
        let rule = match rule {
            Some(rule) => {
                self.guest_keys.lock().remove(key);
                rule
            }
            None => {
                self.stats.default_rule_hits.fetch_add(1, Ordering::Relaxed);
                self.guest_keys.lock().insert(key.clone());
                self.default_policy.rule_for(key.clone())
            }
        };
        self.table.insert(rule, now);
        match self.table.decide_shaped(key, now) {
            Some((verdict, shape)) => (verdict, Some(shape)),
            None => (Verdict::Deny, None),
        }
    }
}

/// Dequeue-time triage on the listener plane: record the sojourn, ask the
/// worker's sans-IO core what to do, then perform the I/O half (counters
/// and shed replies). Returns the job when it should be decided.
fn dequeue_triage(
    ctx: &DecisionCtx,
    socket: &UdpServerSocket,
    job: Job,
    core: &mut WorkerCore,
) -> Option<Job> {
    let now = ctx.clock.now();
    let sojourn = now.saturating_since(job.enqueued_at);
    ctx.stats.sojourn.lock().record_duration(sojourn);
    // Gate the governor's verdict on real backlog: an idle queue's
    // sojourn is scheduler noise, not a standing queue.
    let backlog = ctx.stats.fifo_depth.load(Ordering::Relaxed);
    match core.triage(&job.request, sojourn, now, backlog) {
        WorkerTriage::Decide => Some(job),
        WorkerTriage::ShedExpired => {
            // The router's deadline passed while the job sat queued:
            // nobody is waiting for this answer. Silent by design — the
            // dedup entry stays Pending, so a late duplicate of the same
            // attempt is absorbed without a charge too.
            ctx.stats.shed_expired.fetch_add(1, Ordering::Relaxed);
            None
        }
        WorkerTriage::ShedStanding => {
            ctx.stats.shed_sojourn.fetch_add(1, Ordering::Relaxed);
            if let Some(verdict) = core.shed_reply(&job.request) {
                let response = respond(&ctx.table, &job.request, verdict);
                let _ = socket.send_response(&response, job.peer);
            }
            None
        }
    }
}

/// Worker thread `qos-worker-{index}`: pop one job from the shared FIFO
/// under its mutex (the paper's design), triage it, decide it, answer it
/// with its own datagram. Its `WorkerCore`'s governor runs on the
/// sojourns of the jobs this worker pops, so cores are never shared.
/// Exits when the listener is gone.
fn spawn_worker(
    index: usize,
    ctx: DecisionCtx,
    socket: Arc<UdpServerSocket>,
    mut core: WorkerCore,
    fifo: Arc<Mutex<mpsc::Receiver<Job>>>,
) -> Result<()> {
    let work = move || {
        let mut db: Option<DbClient> = None;
        // The mutex is held for the pop alone, never while serving.
        let next = || fifo.lock().recv().ok();
        while let Some(job) = next() {
            ctx.stats.fifo_depth.fetch_sub(1, Ordering::Relaxed);
            let Some(job) = dequeue_triage(&ctx, &socket, job, &mut core) else {
                continue;
            };
            if let Some(response) = ctx.serve(&job.request, job.enqueued_at, &mut db) {
                let _ = socket.send_response(&response, job.peer);
            }
        }
    };
    thread::Builder::new()
        .name(format!("qos-worker-{index}"))
        .spawn(work)?;
    Ok(())
}

/// Everything the ingress listener needs: the FIFO's sender plus the
/// sans-IO triage core consulted *before* a request is queued.
struct IngressCtx {
    decisions: DecisionCtx,
    socket: Arc<UdpServerSocket>,
    core: IngressCore,
    fifo: mpsc::SyncSender<Job>,
}

impl IngressCtx {
    /// Triage one datagram through the sans-IO [`IngressCore`] and
    /// perform the I/O half of its decision:
    ///
    /// 1. a stamped request whose budget arrived as zero is already dead
    ///    — shed silently, nobody is waiting;
    /// 2. a duplicate (by attempt nonce, or by request id for the
    ///    legacy-downgraded final attempt) is answered from the dedup
    ///    window — cached verdict, or silent drop while the first copy
    ///    is in flight;
    /// 3. otherwise put it on the FIFO, shedding when the FIFO is full.
    ///    A stamped shed gets the configured shed verdict back instead of
    ///    the silent drop legacy frames keep — the router stops burning
    ///    retries against a queue that would shed every copy.
    fn ingress(&self, request: QosRequest, peer: SocketAddr) {
        let ctx = &self.decisions;
        let decision = {
            let mut guard = ctx.dedup.as_ref().map(|dedup| dedup.lock());
            self.core.triage(&request, guard.as_deref_mut())
        };
        match decision {
            IngressDecision::ShedExpired => {
                ctx.stats.shed_expired.fetch_add(1, Ordering::Relaxed);
                return;
            }
            IngressDecision::AnswerCached(verdict) => {
                ctx.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                let response = respond(&ctx.table, &request, verdict);
                let _ = self.socket.send_response(&response, peer);
                return;
            }
            IngressDecision::AbsorbDuplicate => {
                // The first copy is queued; retries reuse the request
                // id, so its response answers every attempt.
                ctx.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return;
            }
            IngressDecision::Admit => {}
        }
        // Clone the key only when the queued job must leave a Pending
        // dedup entry behind (the insert itself happens after — and only
        // if — the enqueue succeeds).
        let pending = match (&ctx.dedup, request.attempt) {
            (Some(dedup), Some(meta)) => Some((dedup, meta.nonce, request.id, request.key.clone())),
            _ => None,
        };
        let job = Job {
            request,
            peer,
            enqueued_at: ctx.clock.now(),
        };
        // The worker may pop, decide and answer the job before this thread
        // runs another instruction. So the gauge is raised *before* the
        // enqueue (raised after, the worker's decrement wraps it below
        // zero), and the dedup window stays locked *across* it (inserted
        // after an unlocked enqueue, the Pending entry could land after
        // the worker recorded the verdict and stay Pending forever,
        // silently absorbing every retry of the attempt). `try_send`
        // never blocks, so the lock is held for nanoseconds.
        ctx.stats.fifo_depth.fetch_add(1, Ordering::Relaxed);
        let mut window = pending.as_ref().map(|(dedup, ..)| dedup.lock());
        match self.fifo.try_send(job) {
            Ok(()) => {
                if let (Some((_, nonce, id, key)), Some(window)) = (pending, window.as_mut()) {
                    window.insert_pending(nonce, id, key);
                }
            }
            Err(mpsc::TrySendError::Full(job) | mpsc::TrySendError::Disconnected(job)) => {
                drop(window);
                ctx.stats.fifo_depth.fetch_sub(1, Ordering::Relaxed);
                ctx.stats.shed_full.fetch_add(1, Ordering::Relaxed);
                if let Some(verdict) = self.core.shed_reply(&job.request) {
                    let response = respond(&ctx.table, &job.request, verdict);
                    let _ = self.socket.send_response(&response, job.peer);
                }
            }
        }
    }
}

/// The ingress listener thread: receive one request per wake-up and
/// triage it through [`IngressCtx::ingress`]. Returns — dropping the
/// FIFO's sender, which stops the workers — once the socket is closed.
fn spawn_ingress_listener(ctx: IngressCtx) -> Result<()> {
    let listen = move || {
        let mut buf = [0u8; RECV_BUF_BYTES];
        while let Ok((request, peer)) = ctx.socket.recv_request(&mut buf) {
            ctx.ingress(request, peer);
        }
    };
    thread::Builder::new()
        .name("qos-listener".into())
        .spawn(listen)?;
    Ok(())
}

/// Run `tick` on its own named thread, at once and then every `interval`
/// (measured from the end of the previous tick), until `shutdown`.
fn spawn_periodic(
    name: &str,
    shutdown: Shutdown,
    interval: Duration,
    mut tick: impl FnMut() + Send + 'static,
) -> Result<()> {
    thread::Builder::new().name(name.into()).spawn(move || {
        let mut wait = Duration::ZERO;
        while !shutdown.wait_timeout(wait) {
            tick();
            wait = interval;
        }
    })?;
    Ok(())
}

fn spawn_refill(
    table: Arc<dyn QosTable>,
    stats: Arc<ServerStats>,
    clock: SharedClock,
    interval: Duration,
    shutdown: Shutdown,
) -> Result<()> {
    spawn_periodic("qos-refill", shutdown, interval, move || {
        table.sweep_refill(clock.now());
        stats.refill_sweeps.fetch_add(1, Ordering::Relaxed);
    })
}

#[allow(clippy::too_many_arguments)]
fn spawn_sync(
    table: Arc<dyn QosTable>,
    stats: Arc<ServerStats>,
    clock: SharedClock,
    db_target: DbTarget,
    interval: Duration,
    shutdown: Shutdown,
    guest_keys: GuestKeys,
    ledger: Option<SharedLedger>,
) -> Result<()> {
    let mut db: Option<DbClient> = None;
    let mut last_version: Option<u64> = None;
    spawn_periodic("qos-sync", shutdown, interval, move || {
        if db.is_none() {
            db = db_target.connect();
        }
        let Some(client) = db.as_mut() else { return };
        let version = match client.version() {
            Ok(v) => v,
            Err(_) => {
                db = None;
                return;
            }
        };
        if last_version == Some(version) {
            return;
        }
        // Re-query every locally-held key (the paper's sync: "makes
        // queries to the database with the QoS keys in the local QoS
        // rule table").
        for key in table.keys() {
            match client.get_rule(&key) {
                Ok(Some(rule)) => {
                    // Delegated credit from the old shape means nothing
                    // under the new one: revoke outstanding leases by
                    // epoch bump — but only on a real change, or every
                    // sync round would kill healthy leases.
                    let changed = table.shape(&key) != Some((rule.capacity, rule.refill_rate));
                    let was_guest = guest_keys.lock().remove(&key);
                    if was_guest {
                        // A guest key got a purchased rule: adopt it
                        // wholesale, including its (fresh) credit.
                        table.remove(&key);
                        table.insert(rule, clock.now());
                    } else {
                        // Routine rule update: new shape, accrued credit
                        // preserved (clamped).
                        table.apply_update(&rule, clock.now());
                    }
                    if changed {
                        if let Some(ledger) = &ledger {
                            ledger.lock().revoke(&key);
                        }
                    }
                }
                Ok(None) => {
                    // Absent from the database: a deleted rule — unless
                    // the bucket only ever existed under the default
                    // policy, in which case it stays (removing it would
                    // re-grant guest credit every round).
                    if !guest_keys.lock().contains(&key) {
                        table.remove(&key);
                        if let Some(ledger) = &ledger {
                            ledger.lock().revoke(&key);
                        }
                    }
                }
                Err(_) => {
                    db = None;
                    return;
                }
            }
        }
        last_version = Some(version);
        stats.sync_rounds.fetch_add(1, Ordering::Relaxed);
    })
}

#[allow(clippy::too_many_arguments)]
fn spawn_checkpoint(
    table: Arc<dyn QosTable>,
    stats: Arc<ServerStats>,
    clock: SharedClock,
    db_target: DbTarget,
    interval: Duration,
    shutdown: Shutdown,
    guest_keys: GuestKeys,
) -> Result<()> {
    let mut db: Option<DbClient> = None;
    spawn_periodic("qos-checkpoint", shutdown, interval, move || {
        if db.is_none() {
            db = db_target.connect();
        }
        let Some(client) = db.as_mut() else { return };
        for rule in table.snapshot(clock.now()) {
            // Guest buckets have no database row of their own; writing
            // their credit would clobber a rule the operator may have
            // *just* created for that key (the sync thread adopts it at
            // its next round).
            if guest_keys.lock().contains(&rule.key) {
                continue;
            }
            if client.checkpoint_credit(&rule.key, rule.credit).is_err() {
                db = None;
                return;
            }
        }
        stats.checkpoints.fetch_add(1, Ordering::Relaxed);
    })
}

/// Most idle keys demoted per reclaim sweep — bounds both the sweep's
/// table walk and the persistence burst that follows it.
const RECLAIM_BATCH: usize = 256;

/// Demote keys idle beyond `idle_ttl` from the in-memory table to the
/// database cold tier, folding their exact remaining credit and their
/// accumulated hotness back so a later readmission (first-sighting fetch
/// or warm-up scan) resumes where the key left off.
///
/// Credit exactness is the invariant: a key is only allowed to leave the
/// table once its credit is durably in the database. Any persistence
/// failure un-reclaims the failed row *and* every row not yet attempted —
/// dropping a half-persisted batch would mint fresh credit the next time
/// those keys are sighted.
#[allow(clippy::too_many_arguments)]
fn spawn_reclaim(
    table: Arc<dyn QosTable>,
    stats: Arc<ServerStats>,
    clock: SharedClock,
    db_target: DbTarget,
    idle_ttl: Duration,
    interval: Duration,
    shutdown: Shutdown,
    guest_keys: GuestKeys,
) -> Result<()> {
    let mut db: Option<DbClient> = None;
    spawn_periodic("qos-reclaim", shutdown, interval, move || {
        let now = clock.now();
        let reclaimed = table.reclaim_idle(now, idle_ttl, RECLAIM_BATCH);
        stats.reclaim_sweeps.fetch_add(1, Ordering::Relaxed);
        if reclaimed.is_empty() {
            return;
        }
        if db.is_none() {
            db = db_target.connect();
        }
        let Some(client) = db.as_mut() else {
            table.restore(reclaimed.into_iter().map(|r| r.rule).collect(), now);
            return;
        };
        let mut rows = reclaimed.into_iter();
        let mut failed = Vec::new();
        for row in rows.by_ref() {
            // Guest buckets have no database row of their own: persist
            // the whole rule so the default-policy key readmits as a
            // first-class row with its exact remaining credit.
            // Database-backed keys only need their credit column
            // checkpointed.
            let persisted = if guest_keys.lock().contains(&row.rule.key) {
                client.upsert_rule(&row.rule)
            } else {
                client
                    .checkpoint_credit(&row.rule.key, row.rule.credit)
                    .map(|_| ())
            };
            let persisted =
                persisted.and_then(|()| client.record_touches(&row.rule.key, row.touches));
            if persisted.is_err() {
                failed.push(row);
                break;
            }
        }
        if failed.is_empty() {
            return;
        }
        failed.extend(rows);
        table.restore(failed.into_iter().map(|r| r.rule).collect(), now);
        db = None;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_db::{DbServer, RulesEngine};
    use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
    use janus_types::{Credits, QosRule};
    use std::time::Duration;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn rule(s: &str, cap: u64, rate: u64) -> QosRule {
        QosRule::per_second(key(s), cap, rate)
    }

    fn spawn_db(rules: Vec<QosRule>) -> DbServer {
        let engine = Arc::new(RulesEngine::new());
        engine.load(rules);
        DbServer::spawn(engine).unwrap()
    }

    fn rpc() -> UdpRpcClient {
        UdpRpcClient::new(UdpRpcConfig::lan_defaults())
    }

    /// A client whose retries re-present their attempt's nonce, so the
    /// server answers a retry of a decided request from its dedup window.
    fn stamped_rpc() -> UdpRpcClient {
        UdpRpcClient::new(UdpRpcConfig {
            stamp_deadlines: true,
            ..UdpRpcConfig::lan_defaults()
        })
    }

    fn check(client: &UdpRpcClient, server: &QosServer, id: u64, k: &str) -> Verdict {
        client
            .call(server.udp_addr(), &QosRequest::new(id, key(k)))
            .unwrap()
            .verdict
    }

    #[test]
    fn admits_until_bucket_drains() {
        let db = spawn_db(vec![rule("alice", 5, 0)]);
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            Some(db.addr().into()),
            janus_clock::system(),
        )
        .unwrap();
        let client = rpc();
        let mut allowed = 0;
        for id in 0..10 {
            if check(&client, &server, id, "alice") == Verdict::Allow {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 5);
        assert_eq!(server.stats().db_fetches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unknown_key_uses_default_policy() {
        let db = spawn_db(vec![]);
        let mut config = QosServerConfig::test_defaults();
        config.default_policy = janus_bucket::DefaultRulePolicy::Limited {
            capacity: 2,
            rate_per_sec: 0,
        };
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        let client = rpc();
        assert_eq!(check(&client, &server, 1, "stranger"), Verdict::Allow);
        assert_eq!(check(&client, &server, 2, "stranger"), Verdict::Allow);
        assert_eq!(check(&client, &server, 3, "stranger"), Verdict::Deny);
        assert!(server.stats().default_rule_hits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn deny_policy_denies_unknown_keys() {
        let db = spawn_db(vec![]);
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            Some(db.addr().into()),
            janus_clock::system(),
        )
        .unwrap();
        let client = rpc();
        assert_eq!(check(&client, &server, 1, "nobody"), Verdict::Deny);
    }

    #[test]
    fn standalone_mode_without_database() {
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            None,
            janus_clock::system(),
        )
        .unwrap();
        server
            .table()
            .insert(rule("local", 1, 0), server.clock().now());
        let client = rpc();
        assert_eq!(check(&client, &server, 1, "local"), Verdict::Allow);
        assert_eq!(check(&client, &server, 2, "local"), Verdict::Deny);
    }

    #[test]
    fn preload_warms_local_table() {
        let rules: Vec<_> = (0..50).map(|i| rule(&format!("k{i}"), 10, 1)).collect();
        let db = spawn_db(rules);
        let mut config = QosServerConfig::test_defaults();
        config.preload = true;
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        assert_eq!(server.table().len(), 50);
        // 50 rules fit in one default-size warm-up batch.
        assert_eq!(server.stats().warmup_batches.load(Ordering::Relaxed), 1);
        // A request for a preloaded key must not hit the database.
        let client = rpc();
        assert_eq!(check(&client, &server, 1, "k7"), Verdict::Allow);
        assert_eq!(server.stats().db_fetches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn preload_streams_in_bounded_hottest_first_batches() {
        let rules: Vec<_> = (0..50).map(|i| rule(&format!("k{i:02}"), 10, 1)).collect();
        let db = spawn_db(rules);
        db.engine().record_touches(&key("k33"), 100);
        let mut config = QosServerConfig::test_defaults();
        config.preload = true;
        config.warmup_batch = 16;
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        // 50 rules / 16 per batch = 16 + 16 + 16 + 2.
        assert_eq!(server.table().len(), 50);
        let snap = server.stats().snapshot();
        assert_eq!(snap.warmup_batches, 4);
        let client = rpc();
        assert_eq!(check(&client, &server, 1, "k33"), Verdict::Allow);
        assert_eq!(server.stats().db_fetches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn reclaim_demotes_idle_keys_and_readmits_with_exact_credit() {
        let db = spawn_db(vec![rule("idler", 10, 0), rule("busy", 1000, 0)]);
        let mut config = QosServerConfig::test_defaults();
        config.table = TableKind::LockFree;
        config.idle_ttl = Some(Duration::from_millis(50));
        config.reclaim_interval = Duration::from_millis(20);
        // Keep the maintenance planes that also write credit out of the
        // picture so the database credit we observe came from reclaim.
        config.checkpoint_interval = Duration::from_secs(3600);
        config.sync_interval = Duration::from_secs(3600);
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        let client = rpc();
        // Spend 3 of idler's 10 credits, then go idle.
        for id in 0..3 {
            assert_eq!(check(&client, &server, id, "idler"), Verdict::Allow);
        }
        // Wait out the TTL, keeping a second key warm so sweeps keep
        // running against a non-empty table.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut warm_id = 100;
        while server.table().shape(&key("idler")).is_some() {
            assert!(
                std::time::Instant::now() < deadline,
                "idle key was never reclaimed"
            );
            check(&client, &server, warm_id, "busy");
            warm_id += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
        // The demotion folded the exact remaining credit and the touch
        // count into the cold tier. The sweep takes the key out of the
        // table first and persists it second (touches last), so wait for
        // the persistence to land before reading the database.
        while db.engine().touches(&key("idler")) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "reclaimed key was never persisted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            db.engine().get(&key("idler")).unwrap().credit,
            Credits::from_whole(7)
        );
        assert_eq!(db.engine().touches(&key("idler")), 3);
        let snap = server.stats().snapshot();
        assert!(snap.reclaimed_keys >= 1);
        // Every walk counts, the empty ones too: the key was reclaimed
        // after at least one sweep had found it still fresh.
        assert!(snap.reclaim_sweeps >= 2, "{snap:?}");
        // Readmission resumes where the key left off: 7 allows, then deny.
        let mut allows = 0;
        for id in 1000..1010 {
            if check(&client, &server, id, "idler") == Verdict::Allow {
                allows += 1;
            }
        }
        assert_eq!(allows, 7, "readmitted key must resume with exact credit");
        // The memory-engine gauges ride the same snapshot.
        let snap = server.stats().snapshot();
        assert!(snap.open_slots >= 2, "idler and busy are both resident");
        assert!(snap.occupancy_pct <= 100);
    }

    #[test]
    fn new_rules_effective_immediately() {
        // "new QoS keys/rules are immediately effective as soon as they
        // are added to the database" — no restart, no sync wait.
        let db = spawn_db(vec![]);
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            Some(db.addr().into()),
            janus_clock::system(),
        )
        .unwrap();
        let client = rpc();
        assert_eq!(check(&client, &server, 1, "newbie"), Verdict::Deny);

        db.engine().put(rule("late-tenant", 3, 0));
        assert_eq!(check(&client, &server, 2, "late-tenant"), Verdict::Allow);
    }

    #[test]
    fn rule_sync_applies_updates_and_deletes() {
        let db = spawn_db(vec![rule("tenant", 1000, 100), rule("doomed", 10, 1)]);
        let mut config = QosServerConfig::test_defaults();
        config.sync_interval = Duration::from_millis(30);
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        let client = rpc();
        // Materialize both buckets locally.
        check(&client, &server, 1, "tenant");
        check(&client, &server, 2, "doomed");
        assert_eq!(server.table().len(), 2);

        // Shrink one rule, delete the other.
        db.engine().put(rule("tenant", 1, 0));
        db.engine().delete(&key("doomed"));

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = server.table().snapshot(server.clock().now());
            let tenant = snap.iter().find(|r| r.key.as_str() == "tenant");
            let doomed_gone = !snap.iter().any(|r| r.key.as_str() == "doomed");
            if doomed_gone && tenant.is_some_and(|r| r.capacity == Credits::from_whole(1)) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sync never applied: {snap:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn checkpoints_reach_database() {
        let db = spawn_db(vec![rule("cp", 100, 0)]);
        let mut config = QosServerConfig::test_defaults();
        config.checkpoint_interval = Duration::from_millis(30);
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        let client = rpc();
        for id in 0..40 {
            check(&client, &server, id, "cp");
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let stored = db.engine().get(&key("cp")).unwrap().credit;
            if stored == Credits::from_whole(60) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "checkpoint never landed: {stored:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn replacement_server_resumes_from_checkpoint() {
        // Kill a server after consuming most of a bucket; its replacement
        // must start from the check-pointed credit, not a full bucket.
        let db = spawn_db(vec![rule("phoenix", 100, 0)]);
        let mut config = QosServerConfig::test_defaults();
        config.checkpoint_interval = Duration::from_millis(20);
        let server = QosServer::spawn(
            config.clone(),
            Some(db.addr().into()),
            janus_clock::system(),
        )
        .unwrap();
        // Stamped: a retry under CPU load is answered from the dedup
        // window, never charged twice, so the credit counts stay exact.
        let client = stamped_rpc();
        for id in 0..90 {
            check(&client, &server, id, "phoenix");
        }
        // Wait for a checkpoint to land, then kill the server.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while db.engine().get(&key("phoenix")).unwrap().credit != Credits::from_whole(10) {
            assert!(std::time::Instant::now() < deadline, "checkpoint missing");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
        drop(server);

        let replacement =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        let mut allowed = 0;
        for id in 0..50 {
            if check(&client, &replacement, id, "phoenix") == Verdict::Allow {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 10, "replacement did not resume from checkpoint");
    }

    #[test]
    fn sync_does_not_evict_default_policy_buckets() {
        // Regression: the rule-sync task used to remove buckets whose key
        // has no database row — which re-granted guest credit every sync
        // round. A guest bucket must survive sync and keep denying.
        let db = spawn_db(vec![]);
        let mut config = QosServerConfig::test_defaults();
        config.sync_interval = Duration::from_millis(20);
        config.default_policy = janus_bucket::DefaultRulePolicy::Limited {
            capacity: 3,
            rate_per_sec: 0,
        };
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        let client = rpc();
        let mut admitted = 0;
        for id in 0..6 {
            if check(&client, &server, id, "guest") == Verdict::Allow {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 3);
        // Let several sync rounds pass, then verify no fresh credit.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(check(&client, &server, 100, "guest"), Verdict::Deny);

        // Upgrading the guest to a real rule via the database still works.
        db.engine().put(rule("guest", 10, 0));
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(check(&client, &server, 101, "guest"), Verdict::Allow);
    }

    #[test]
    fn guest_upgrade_survives_checkpoint_race() {
        // Regression: the checkpoint task used to write the guest
        // bucket's (zero) credit onto a rule row the operator had just
        // created, so the sync thread adopted an empty bucket instead of
        // the purchased burst. The full burst must be available after the
        // upgrade, deterministically.
        let db = spawn_db(vec![]);
        let mut config = QosServerConfig::test_defaults();
        config.sync_interval = Duration::from_millis(30);
        config.checkpoint_interval = Duration::from_millis(10); // aggressive
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        let client = rpc();
        // Establish the guest bucket (Deny policy => empty bucket).
        assert_eq!(check(&client, &server, 1, "upgrader"), Verdict::Deny);
        // Operator sells the tenant a 3-request burst.
        db.engine().put(rule("upgrader", 3, 0));
        // Give sync and several checkpoint rounds time to interleave.
        std::thread::sleep(Duration::from_millis(300));
        let mut admitted = 0;
        for id in 10..20 {
            if check(&client, &server, id, "upgrader") == Verdict::Allow {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 3, "upgrade lost the purchased burst");
    }

    #[test]
    fn stats_snapshot_reads_all_counters() {
        let db = spawn_db(vec![rule("snap", 3, 0)]);
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            Some(db.addr().into()),
            janus_clock::system(),
        )
        .unwrap();
        let client = rpc();
        for id in 0..5 {
            check(&client, &server, id, "snap");
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.answered, 5);
        assert_eq!(snap.db_fetches, 1);
        assert_eq!(snap.shed_total(), 0, "healthy run must not shed");
        assert_eq!(snap.dedup_hits, 0, "unique nonces must not hit dedup");
        assert_eq!(snap.db_timeouts, 0);
        assert_eq!(snap.fifo_depth, 0, "queue must drain back to empty");
        assert_eq!(snap, server.stats().snapshot(), "idle snapshots agree");
    }

    #[test]
    fn duplicate_nonce_is_answered_from_cache_without_second_charge() {
        let db = spawn_db(vec![rule("dup", 1, 0)]);
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            Some(db.addr().into()),
            janus_clock::system(),
        )
        .unwrap();
        let mut config = UdpRpcConfig::lan_defaults();
        config.stamp_deadlines = true;
        let client = UdpRpcClient::new(config);
        // Two attempts of the same logical request: same nonce, generous
        // budget. The bucket holds exactly one credit.
        let meta = janus_types::AttemptMeta::new(2_000_000, 42);
        let first = client
            .call(
                server.udp_addr(),
                &QosRequest::new(1, key("dup")).with_attempt(meta),
            )
            .unwrap();
        assert_eq!(first.verdict, Verdict::Allow);
        let second = client
            .call(
                server.udp_addr(),
                &QosRequest::new(2, key("dup")).with_attempt(meta),
            )
            .unwrap();
        assert_eq!(
            second.verdict,
            Verdict::Allow,
            "a duplicate attempt must be served from the cached verdict, \
             not re-decided against the drained bucket"
        );
        assert!(server.stats().dedup_hits.load(Ordering::Relaxed) >= 1);
        // A genuinely new logical request sees the drained bucket: the
        // duplicate above did not double-charge.
        let fresh = janus_types::AttemptMeta::new(2_000_000, 43);
        let third = client
            .call(
                server.udp_addr(),
                &QosRequest::new(3, key("dup")).with_attempt(fresh),
            )
            .unwrap();
        assert_eq!(third.verdict, Verdict::Deny);
    }

    #[test]
    fn duplicates_of_fast_decisions_are_answered_from_the_cache() {
        // A table hit is decided within microseconds of the enqueue — the
        // window in which the listener used to insert the Pending dedup
        // entry *after* the worker had already recorded the verdict,
        // leaving it Pending forever: every later attempt with that nonce
        // was then absorbed in silence and the caller timed out.
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            None,
            janus_clock::system(),
        )
        .unwrap();
        server
            .table()
            .insert(rule("fast", 1_000_000, 0), server.clock().now());
        let client = UdpRpcClient::new(UdpRpcConfig {
            stamp_deadlines: true,
            ..UdpRpcConfig::lan_defaults()
        });
        for nonce in 0..300u32 {
            let meta = janus_types::AttemptMeta::new(2_000_000, nonce);
            for id in [2 * u64::from(nonce), 2 * u64::from(nonce) + 1] {
                let request = QosRequest::new(id, key("fast")).with_attempt(meta);
                let response = client.call(server.udp_addr(), &request);
                assert!(
                    response.is_ok(),
                    "attempt {id} of nonce {nonce} went unanswered: {response:?}"
                );
            }
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.dedup_hits, 300, "every second attempt is a duplicate");
        assert_eq!(snap.answered, 300, "every nonce is charged exactly once");
    }

    #[test]
    fn queue_depth_gauge_never_dips_below_zero() {
        // The gauge is read by the sojourn governor's backlog gate and
        // exported to operators. Raised only after the enqueue, it wrapped
        // to u64::MAX whenever a worker popped the job first.
        let config = QosServerConfig::test_defaults();
        let capacity = config.fifo_capacity as u64;
        let server = QosServer::spawn(config, None, janus_clock::system()).unwrap();
        server
            .table()
            .insert(rule("gauge", 1_000_000, 0), server.clock().now());
        let done = std::sync::atomic::AtomicBool::new(false);
        let worst = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut worst = 0;
                while !done.load(Ordering::Relaxed) {
                    worst = worst.max(server.stats().fifo_depth.load(Ordering::Relaxed));
                }
                worst
            });
            let client = rpc();
            for id in 0..500 {
                assert_eq!(check(&client, &server, id, "gauge"), Verdict::Allow);
            }
            done.store(true, Ordering::Relaxed);
            sampler.join().unwrap()
        });
        assert!(
            worst <= capacity,
            "fifo_depth read {worst} with a {capacity}-slot queue"
        );
        assert_eq!(server.stats().snapshot().fifo_depth, 0);
    }

    #[test]
    fn expired_budget_request_is_shed_and_never_charged() {
        let db = spawn_db(vec![rule("stale", 3, 0)]);
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            Some(db.addr().into()),
            janus_clock::system(),
        )
        .unwrap();
        // A raw deadline frame whose budget arrived as zero: the router's
        // deadline passed in flight. The server must shed it silently at
        // ingress — no reply, no bucket charge.
        let dead =
            QosRequest::new(1, key("stale")).with_attempt(janus_types::AttemptMeta::new(0, 7));
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .send_to(
                &janus_types::codec::encode_request(&dead),
                server.udp_addr(),
            )
            .unwrap();
        let mut buf = [0u8; 64];
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let reply = socket.recv(&mut buf);
        assert!(reply.is_err(), "an expired request must not be answered");
        assert_eq!(server.stats().shed_expired.load(Ordering::Relaxed), 1);
        // The bucket still holds its full burst: the shed never charged.
        let client = rpc();
        let mut allowed = 0;
        for id in 10..20 {
            if check(&client, &server, id, "stale") == Verdict::Allow {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 3, "the expired request must not consume credit");
    }

    /// Drive one server with 8 concurrent clients × 40 requests over 8
    /// keys capped at 25 and return the per-client admit counts plus a
    /// final stats snapshot.
    fn drive_exactness(config: QosServerConfig) -> (Vec<u64>, ServerStatsSnapshot) {
        let rules: Vec<_> = (0..8).map(|i| rule(&format!("p{i}"), 25, 0)).collect();
        let db = spawn_db(rules);
        let server = Arc::new(
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap(),
        );
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                let client = rpc();
                let mut allowed = 0u64;
                for j in 0..40u64 {
                    if check(&client, &server, i * 1000 + j, &format!("p{i}")) == Verdict::Allow {
                        allowed += 1;
                    }
                }
                allowed
            }));
        }
        let mut admits = Vec::new();
        for h in handles {
            admits.push(h.join().unwrap());
        }
        (admits, server.stats().snapshot())
    }

    /// Run [`drive_exactness`] on 4 workers and assert that every client
    /// got exactly its key's 25 credits. Any worker may decide any key, so
    /// locks serialize and CAS loops may retry, but no table may
    /// double-spend or lose a credit.
    fn assert_exact(socket_mode: SocketMode, table: TableKind) {
        let mut config = QosServerConfig::test_defaults();
        config.workers = 4;
        config.socket_mode = socket_mode;
        config.table = table;
        let (admits, snap) = drive_exactness(config);
        for allowed in admits {
            assert_eq!(allowed, 25, "{socket_mode:?} / {table:?} oversold a bucket");
        }
        assert_eq!(snap.answered, 320, "{socket_mode:?} / {table:?}");
    }

    #[test]
    fn locked_tables_admit_exactly() {
        assert_exact(SocketMode::SingleListener, TableKind::Sharded);
        assert_exact(SocketMode::SingleListener, TableKind::Synchronized);
    }

    #[test]
    fn lock_free_table_admits_exactly() {
        // On per-core sockets each worker decides whatever the kernel
        // steers to its socket, inline, with no FIFO in between.
        if cfg!(target_os = "linux") {
            assert_exact(SocketMode::PerCore, TableKind::LockFree);
        } else {
            assert_exact(SocketMode::SingleListener, TableKind::LockFree);
        }
    }

    #[test]
    fn lock_free_table_admits_exactly_under_shared_fifo() {
        // The single listener feeds one shared FIFO, where any worker may
        // decide any key — the harshest interleaving for the CAS loop.
        assert_exact(SocketMode::SingleListener, TableKind::LockFree);
    }

    /// Drain a 20-credit zero-refill key with 40 sequential requests and
    /// return the verdict stream.
    fn verdict_sequence(socket_mode: SocketMode) -> Vec<Verdict> {
        let mut config = QosServerConfig::test_defaults();
        config.socket_mode = socket_mode;
        config.table = TableKind::LockFree;
        let server = QosServer::spawn(config, None, janus_clock::system()).unwrap();
        server
            .table()
            .insert(rule("parity", 20, 0), server.clock().now());
        let client = rpc();
        (0..40)
            .map(|id| check(&client, &server, id, "parity"))
            .collect()
    }

    #[test]
    fn both_planes_decide_identically() {
        // Per-core SO_REUSEPORT sockets change how datagrams cross the
        // kernel and which thread decides — never what is decided.
        let reference = verdict_sequence(SocketMode::SingleListener);
        assert_eq!(
            reference.iter().filter(|v| **v == Verdict::Allow).count(),
            20
        );
        if cfg!(target_os = "linux") {
            assert_eq!(
                verdict_sequence(SocketMode::PerCore),
                reference,
                "verdict stream diverged on the per-core plane"
            );
        }
    }

    #[test]
    fn shutdown_silences_every_plane() {
        let mut modes = vec![SocketMode::SingleListener];
        if cfg!(target_os = "linux") {
            modes.push(SocketMode::PerCore);
        }
        for socket_mode in modes {
            let mut config = QosServerConfig::test_defaults();
            config.socket_mode = socket_mode;
            config.table = TableKind::LockFree;
            let server = QosServer::spawn(config, None, janus_clock::system()).unwrap();
            server
                .table()
                .insert(rule("k", 100, 0), server.clock().now());
            let client = rpc();
            assert_eq!(check(&client, &server, 1, "k"), Verdict::Allow);
            server.shutdown();
            // The listener returns at once; a per-core worker within one
            // bounded receive. Poll rather than guess how long that takes
            // on a loaded box.
            let quick = UdpRpcClient::new(UdpRpcConfig {
                timeout: Duration::from_millis(5),
                max_retries: 0,
                ..Default::default()
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut id = 2;
            while quick
                .call(server.udp_addr(), &QosRequest::new(id, key("k")))
                .is_ok()
            {
                assert!(
                    Instant::now() < deadline,
                    "{socket_mode:?} still answering after shutdown"
                );
                id += 1;
            }
            while std::net::TcpStream::connect(server.ha_addr()).is_ok() {
                assert!(
                    Instant::now() < deadline,
                    "{socket_mode:?}: HA port still accepting after shutdown"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    #[test]
    fn hung_database_fetch_times_out_to_default_policy() {
        // A database that accepts the TCP connection and then never
        // speaks: the per-miss fetch budget must expire, the request
        // must fall back to the default policy, and the worker must stay
        // responsive for subsequent requests.
        let hung = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let hung_addr = hung.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            loop {
                let Ok((stream, _)) = hung.accept() else {
                    return;
                };
                held.push(stream); // accept and go silent, forever
            }
        });
        let mut config = QosServerConfig::test_defaults();
        config.db_fetch_timeout = Duration::from_millis(50);
        let server =
            QosServer::spawn(config, Some(hung_addr.into()), janus_clock::system()).unwrap();
        // A generous client timeout: the server needs the full fetch
        // budget before it can answer at all.
        let client = UdpRpcClient::new(UdpRpcConfig {
            timeout: Duration::from_millis(500),
            max_retries: 3,
            ..Default::default()
        });
        assert_eq!(check(&client, &server, 1, "victim"), Verdict::Deny);
        assert!(
            server.stats().snapshot().db_timeouts >= 1,
            "timeout was not counted"
        );
        // The worker survived: an already-inserted guest bucket answers
        // locally, no DB involved.
        assert_eq!(check(&client, &server, 2, "victim"), Verdict::Deny);
    }

    #[test]
    fn soliciting_request_receives_rule_hint() {
        let db = spawn_db(vec![rule("hinted", 8, 2)]);
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            Some(db.addr().into()),
            janus_clock::system(),
        )
        .unwrap();
        let client = rpc();
        // Plain requests stay hint-free.
        let plain = client
            .call(server.udp_addr(), &QosRequest::new(1, key("hinted")))
            .unwrap();
        assert_eq!(plain.hint, None);
        // A soliciting request learns the rule shape alongside the verdict.
        let hinted = client
            .call(
                server.udp_addr(),
                &QosRequest::soliciting_hint(2, key("hinted")),
            )
            .unwrap();
        let hint = hinted.hint.expect("hint solicited but absent");
        assert_eq!(hint.capacity, Credits::from_whole(8));
        assert_eq!(hint.refill_rate.micro_per_sec(), 2_000_000);
        // Guest keys advertise the default policy's shape the same way.
        let guest = client
            .call(
                server.udp_addr(),
                &QosRequest::soliciting_hint(3, key("stranger")),
            )
            .unwrap();
        assert!(guest.hint.is_some(), "default-policy rule has a shape too");
    }

    #[test]
    fn lease_soliciting_hot_key_earns_a_grant_debited_from_the_bucket() {
        use crate::config::LeaseConfig;
        use janus_types::LeaseReport;
        let db = spawn_db(vec![rule("hot", 20, 0)]);
        let mut config = QosServerConfig::test_defaults();
        config.lease = LeaseConfig {
            enabled: true,
            ttl: Duration::from_millis(50),
            hot_threshold: 2,
            max_holders: 2,
            slice_fraction: 4,
        };
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        let client = rpc();
        let ask = |id| QosRequest::new(id, key("hot")).with_lease(LeaseReport::soliciting(9));
        let first = client.call(server.udp_addr(), &ask(1)).unwrap();
        assert_eq!(first.lease, None, "below the hot threshold");
        let second = client.call(server.udp_addr(), &ask(2)).unwrap();
        let lease = second.lease.expect("second ask crosses the threshold");
        assert_eq!(lease.slice, Credits::from_whole(5));
        assert_eq!(lease.epoch, 1);
        assert_eq!(server.stats().snapshot().lease_grants, 1);
        // The grant debited the authoritative bucket: two admissions plus
        // the 5-credit slice leave 13 of 20 for plain traffic.
        let mut allowed = 0;
        for id in 3..30 {
            if check(&client, &server, id, "hot") == Verdict::Allow {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 13, "slice credits are gone from the bucket");
    }

    #[test]
    fn plain_traffic_never_sees_a_lease_when_disabled() {
        use janus_types::LeaseReport;
        let db = spawn_db(vec![rule("cold", 20, 0)]);
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            Some(db.addr().into()),
            janus_clock::system(),
        )
        .unwrap();
        let client = rpc();
        for id in 0..5 {
            let ask = QosRequest::new(id, key("cold")).with_lease(LeaseReport::soliciting(9));
            let resp = client.call(server.udp_addr(), &ask).unwrap();
            assert_eq!(resp.lease, None, "disabled plane must never grant");
        }
        assert_eq!(server.stats().snapshot().lease_grants, 0);
    }

    #[test]
    fn affinity_batch_path_carries_hints() {
        // Ten soliciting calls in flight at once on one reusing client,
        // each on its own socket: whichever per-core worker a call's flow
        // lands on answers it with its own datagram, built through the
        // same response helper, so every one must carry its hint and
        // reach its own caller.
        let db = spawn_db(vec![rule("bh", 100, 10)]);
        let mut config = QosServerConfig::test_defaults();
        config.workers = 2;
        config.table = TableKind::LockFree;
        if cfg!(target_os = "linux") {
            config.socket_mode = SocketMode::PerCore;
        }
        let server =
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap();
        let client = UdpRpcClient::reusing(UdpRpcConfig::lan_defaults(), FaultPlan::none());
        let addr = server.udp_addr();
        let callers: Vec<_> = (0..10u64)
            .map(|id| {
                let client = client.clone();
                thread::spawn(move || {
                    let request = QosRequest::soliciting_hint(id, key("bh"));
                    (id, client.call(addr, &request).unwrap())
                })
            })
            .collect();
        for caller in callers {
            let (id, resp) = caller.join().unwrap();
            assert!(resp.hint.is_some(), "request {id} lost its hint");
        }
    }

    #[test]
    fn many_concurrent_clients() {
        let rules: Vec<_> = (0..32)
            .map(|i| rule(&format!("u{i}"), 1000, 1000))
            .collect();
        let db = spawn_db(rules);
        let mut config = QosServerConfig::test_defaults();
        config.workers = 4;
        // Stamped frames are also subject to the sojourn governor, whose
        // shed replies are denies; legacy frames never were. This test is
        // about exact counts under concurrency, not overload control.
        config.overload.sojourn_shedding = false;
        let server = Arc::new(
            QosServer::spawn(config, Some(db.addr().into()), janus_clock::system()).unwrap(),
        );
        let mut handles = Vec::new();
        for i in 0..32u64 {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                // Stamped, so a retry is never a second decision and the
                // answered count stays exact under CPU load.
                let client = stamped_rpc();
                for j in 0..20u64 {
                    let v = check(&client, &server, i * 100 + j, &format!("u{i}"));
                    assert_eq!(v, Verdict::Allow);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().answered.load(Ordering::Relaxed), 640);
    }

    #[test]
    fn a_soliciting_leased_decision_makes_no_shape_call_on_either_plane() {
        // `DecisionCtx::serve` is the decision tail of both the listener
        // and the per-core plane: its hint and lease shape come from the
        // decision's own charge, never from a second `shape()` walk.
        use crate::core::tests::{eager_leases, soliciting_everything, ShapeCounting};
        use janus_types::RuleHint;
        let table = Arc::new(ShapeCounting::default());
        table.insert(rule("hot", 1_000, 7), Nanos::ZERO);
        let ctx = DecisionCtx {
            table: Arc::clone(&table) as Arc<dyn QosTable>,
            stats: Arc::default(),
            clock: Arc::new(janus_clock::SimClock::new()),
            db_target: None,
            default_policy: janus_bucket::DefaultRulePolicy::AllowAll,
            guest_keys: Arc::default(),
            db_fetch_timeout: Duration::from_millis(10),
            dedup: Some(Arc::new(Mutex::new(DedupWindow::new(64)))),
            ledger: Some(Arc::new(Mutex::new(LeaseLedger::new(eager_leases())))),
        };
        let mut db = None;
        let answers: Vec<_> = [(1, "hot"), (2, "hot"), (3, "hot"), (4, "guest")]
            .into_iter()
            .map(|(id, k)| {
                let request = soliciting_everything(id, k);
                (
                    k,
                    ctx.serve(&request, Nanos::ZERO, &mut db).expect("answered"),
                )
            })
            .collect();
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
    }
}
