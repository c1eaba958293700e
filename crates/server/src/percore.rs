//! The fast plane ([`crate::SocketMode::PerCore`]): per-core sockets,
//! run-to-completion.
//!
//! Instead of one listener thread feeding workers through one FIFO,
//! every worker owns its own `SO_REUSEPORT` socket bound to the same
//! address. The kernel steers each client flow (by 4-tuple hash) to
//! exactly one socket, so a worker drains its own batches with
//! `recvmmsg`, decides them inline, and answers straight back with
//! `sendmmsg` — no listener→queue hop, no cross-thread hand-off, no
//! queue sojourn at all.
//!
//! Consequences, documented rather than hidden:
//!
//! * `fifo_depth` stays 0 and the sojourn histogram stays empty — there
//!   is no user-space queue to measure. The sojourn governor therefore
//!   never runs; staleness shedding still applies (arrival-stamped).
//! * Flow steering hashes the *client* 4-tuple, not the QoS key, so any
//!   worker may decide any key — as on the listener plane. Every table
//!   kind is safe under concurrent deciders by construction.
//! * Duplicate suppression still serializes through the one shared
//!   dedup window. Duplicates of one attempt come from one client
//!   socket, hence land on one worker, so the Pending→record sequence
//!   is race-free per nonce.
//!
//! Workers are named OS threads like every other thread of the server.
//! Linux only: spawning fails cleanly elsewhere because
//! [`janus_net::mmsg::reuseport_socket`] is a stub off-Linux.

use crate::config::{DbTarget, QosServerConfig};
use crate::core::{self, IngressCore, IngressDecision};
use crate::lease::TableCharge;
use crate::server::{decide, respond, GuestKeys, ServerStats, SharedDedup, SharedLedger};
use janus_bucket::QosTable;
use janus_clock::SharedClock;
use janus_db::DbClient;
use janus_net::buffer_pool::PooledBuf;
use janus_net::fault::FaultPlan;
use janus_net::mmsg::{self, RecvSlot, MAX_BATCH};
use janus_net::udp::{OobDelivery, RECV_BUF_BYTES};
use janus_types::codec::{self, Frame};
use janus_types::sync::Shutdown;
use janus_types::{QosRequest, QosResponse, Result};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking `recvmmsg` waits before surfacing a timeout so
/// the worker can notice shutdown. Bounds shutdown latency; unrelated to
/// request deadlines.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Everything a per-core worker needs besides its socket. One clone per
/// worker thread.
#[derive(Clone)]
pub(crate) struct PerCoreCtx {
    pub table: Arc<dyn QosTable>,
    pub stats: Arc<ServerStats>,
    pub clock: SharedClock,
    pub db_target: Option<DbTarget>,
    pub default_policy: janus_bucket::DefaultRulePolicy,
    pub guest_keys: GuestKeys,
    pub db_fetch_timeout: Duration,
    pub core: IngressCore,
    pub dedup: Option<SharedDedup>,
    pub ledger: Option<SharedLedger>,
    pub faults: Arc<FaultPlan>,
    /// The plane's one queue (and one timer thread) for duplicated and
    /// deferred response copies.
    pub oob: Arc<OobDelivery>,
}

/// Bind `config.workers` `SO_REUSEPORT` sockets on `config.bind_addr`
/// (the first learns the port when it was 0, the rest join it) and spawn
/// one draining worker thread per socket. Returns the shared address.
pub(crate) fn spawn_percore_plane(
    config: &QosServerConfig,
    ctx: PerCoreCtx,
    shutdown: Shutdown,
) -> Result<SocketAddr> {
    let first = mmsg::reuseport_socket(config.bind_addr)?;
    let addr = first.local_addr()?;
    let mut sockets = vec![first];
    for _ in 1..config.workers {
        sockets.push(mmsg::reuseport_socket(addr)?);
    }
    for (i, socket) in sockets.into_iter().enumerate() {
        socket.set_read_timeout(Some(READ_TIMEOUT))?;
        let ctx = ctx.clone();
        let shutdown = shutdown.clone();
        std::thread::Builder::new()
            .name(format!("qos-percore-{i}"))
            .spawn(move || worker_loop(Arc::new(socket), ctx, shutdown))?;
    }
    Ok(addr)
}

/// One worker's life: drain a batch, decide every request in it,
/// coalesce responses per peer, flush them in one `sendmmsg`.
fn worker_loop(socket: Arc<UdpSocket>, ctx: PerCoreCtx, shutdown: Shutdown) {
    let mut db: Option<DbClient> = None;
    // Scratch buffers come from the shared pool once and are reused for
    // every batch this thread ever receives.
    let mut bufs: Vec<PooledBuf> = (0..MAX_BATCH)
        .map(|_| ctx.stats.pool.acquire(RECV_BUF_BYTES))
        .collect();
    let mut slots: Vec<RecvSlot> = Vec::with_capacity(MAX_BATCH);
    let mut by_peer: Vec<(SocketAddr, Vec<QosResponse>)> = Vec::new();
    while !shutdown.is_triggered() {
        let n = match mmsg::recv_batch(&socket, &mut bufs, &mut slots, Some(&ctx.stats.mmsg)) {
            Ok(n) => n,
            // Read-timeout expiry surfaces as WouldBlock or TimedOut
            // depending on platform; both just mean "check shutdown again".
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return,
        };
        by_peer.clear();
        for (buf, slot) in bufs.iter().zip(slots.iter()).take(n) {
            let Ok(frames) = codec::decode_all(&buf[..slot.len]) else {
                continue;
            };
            for frame in frames {
                let Frame::Request(request) = frame else {
                    continue;
                };
                if let Some(response) = handle_request(&ctx, &mut db, request) {
                    match by_peer.iter_mut().find(|(addr, _)| *addr == slot.peer) {
                        Some((_, responses)) => responses.push(response),
                        None => by_peer.push((slot.peer, vec![response])),
                    }
                }
            }
        }
        flush(&ctx, &socket, &mut by_peer);
    }
}

/// The inline equivalent of ingress triage + worker decision, driven by
/// the same sans-IO [`IngressCore`] as the queued plane: zero-budget shed,
/// dedup lookup (nonce for stamped frames, request id for the
/// legacy-downgraded final attempt), decide, verdict recording,
/// post-decision staleness. Returns the response to send, or `None` for
/// the silent-shed paths.
fn handle_request(
    ctx: &PerCoreCtx,
    db: &mut Option<DbClient>,
    request: QosRequest,
) -> Option<QosResponse> {
    let arrived = ctx.clock.now();
    {
        let mut guard = ctx.dedup.as_ref().map(|dedup| dedup.lock());
        match ctx.core.triage(&request, guard.as_deref_mut()) {
            IngressDecision::ShedExpired => {
                ctx.stats.shed_expired.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            IngressDecision::AnswerCached(verdict) => {
                ctx.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Some(respond(&ctx.table, &request, verdict));
            }
            IngressDecision::AbsorbDuplicate => {
                // A duplicate of an attempt this plane is already
                // deciding (it must have raced here via another client
                // socket); the first copy's response answers every
                // attempt.
                ctx.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            // There is no queue on this plane, so "admitted" means
            // "decided inline right now" — mark it pending immediately.
            IngressDecision::Admit => ctx.core.admitted(&request, guard.as_deref_mut()),
        }
    }
    let verdict = decide(
        &ctx.table,
        &ctx.clock,
        &request.key,
        ctx.db_target.as_ref(),
        db,
        &ctx.default_policy,
        &ctx.stats,
        &ctx.guest_keys,
        ctx.db_fetch_timeout,
    );
    ctx.stats.answered.fetch_add(1, Ordering::Relaxed);
    if let Some(dedup) = &ctx.dedup {
        core::record_verdict(&request, &mut dedup.lock(), verdict);
    }
    // Post-decision staleness: a first-sighting DB fetch may have eaten
    // the budget. The charge stands and the verdict is cached, so a
    // retry gets the cached verdict, never a second charge.
    if core::expired_before_send(&request, ctx.clock.now().saturating_since(arrived)) {
        ctx.stats.shed_expired.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    let mut response = respond(&ctx.table, &request, verdict);
    // Lease half: fold in the piggybacked report through the shared
    // ledger and attach a grant when the key is hot and the bucket
    // covers the debit — same discipline as the queued workers.
    if let (Some(ledger), Some(report)) = (&ctx.ledger, request.lease) {
        let now = ctx.clock.now();
        let (table, key) = (&*ctx.table, &request.key);
        let mut charge = TableCharge { table, key, now };
        let lease = ledger
            .lock()
            .on_report(key, report, table.shape(key), now, &mut charge);
        if let Some(lease) = lease {
            ctx.stats.lease_grants.fetch_add(1, Ordering::Relaxed);
            response = response.with_lease(lease);
        }
    }
    Some(response)
}

/// Drain `by_peer`, applying each response datagram's fate exactly like
/// the listener plane ([`OobDelivery::apply`]): what leaves now joins one
/// `sendmmsg` batch, late copies go to the plane's out-of-band queue.
fn flush(
    ctx: &PerCoreCtx,
    socket: &Arc<UdpSocket>,
    by_peer: &mut Vec<(SocketAddr, Vec<QosResponse>)>,
) {
    let mut ready = Vec::new();
    for (peer, responses) in by_peer.drain(..) {
        let wires = if responses.len() == 1 {
            vec![codec::encode_response(&responses[0])]
        } else {
            let frames: Vec<Frame> = responses.iter().map(|r| Frame::Response(*r)).collect();
            codec::encode_batch(&frames)
        };
        for wire in wires {
            let fate = ctx.faults.judge_fate();
            if let Some(wire) = ctx.oob.apply(fate, socket, wire, Some(peer)) {
                ready.push((wire, peer));
            }
        }
    }
    if ready.is_empty() {
        return;
    }
    let msgs: Vec<(&[u8], SocketAddr)> = ready.iter().map(|(w, p)| (w.as_ref(), *p)).collect();
    // A refused datagram is indistinguishable from a network drop; the
    // router's retry covers it, exactly as on the listener plane.
    let _ = mmsg::send_batch(socket, &msgs, Some(&ctx.stats.mmsg));
}
