//! The fast plane ([`crate::SocketMode::PerCore`]): per-core sockets,
//! run-to-completion.
//!
//! Instead of one listener thread feeding workers through one FIFO,
//! every worker owns its own `SO_REUSEPORT` socket bound to the same
//! address. The kernel steers each client flow (by 4-tuple hash) to
//! exactly one socket, so a worker receives one datagram with
//! `recv_from`, decides it inline, and answers it with one datagram of
//! its own — no listener→queue hop, no cross-thread hand-off, no queue
//! sojourn at all. A router's `UdpRpcClient` gives every call in flight
//! a socket of its own, so one router's concurrent calls are as many
//! flows and spread over the workers.
//!
//! Consequences, documented rather than hidden:
//!
//! * `fifo_depth` stays 0 and the sojourn histogram stays empty — there
//!   is no user-space queue to measure. The sojourn governor therefore
//!   never runs; staleness shedding still applies (arrival-stamped).
//! * Flow steering hashes the *client* 4-tuple, not the QoS key, so any
//!   worker may decide any key — as on the listener plane. The plane
//!   runs only on the lock-free table (`QosServerConfig::validate`
//!   rejects the locked ones), so no decision on it takes a lock.
//! * Duplicate suppression still serializes through the one shared
//!   dedup window. Duplicates of one attempt come from one client
//!   socket, hence land on one worker, so the Pending→record sequence
//!   is race-free per nonce.
//!
//! Workers are named OS threads like every other thread of the server.
//! Linux only: spawning fails cleanly elsewhere because
//! [`janus_net::sys::reuseport_socket`] is a stub off-Linux.

use crate::config::QosServerConfig;
use crate::core::{respond, IngressCore, IngressDecision};
use crate::server::DecisionCtx;
use janus_db::DbClient;
use janus_net::fault::FaultPlan;
use janus_net::sys;
use janus_net::udp::{OobDelivery, RECV_BUF_BYTES};
use janus_types::codec::{self, Frame};
use janus_types::sync::Shutdown;
use janus_types::{QosRequest, QosResponse, Result};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking `recv_from` waits before surfacing a timeout so
/// the worker can notice shutdown. Bounds shutdown latency; unrelated to
/// request deadlines.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// One per-core worker's share of the plane: the decision context, the
/// ingress triage core, and the response path's fault plan and its one
/// out-of-band queue (one timer thread) for duplicated and deferred
/// copies.
#[derive(Clone)]
struct Worker {
    ctx: DecisionCtx,
    core: IngressCore,
    faults: Arc<FaultPlan>,
    oob: Arc<OobDelivery>,
}

/// Bind `config.workers` `SO_REUSEPORT` sockets on `config.bind_addr`
/// (the first learns the port when it was 0, the rest join it) and spawn
/// one worker thread per socket. Returns the shared address.
pub(crate) fn spawn_percore_plane(
    config: &QosServerConfig,
    ctx: DecisionCtx,
    core: IngressCore,
    faults: Arc<FaultPlan>,
    shutdown: Shutdown,
) -> Result<SocketAddr> {
    let first = sys::reuseport_socket(config.bind_addr)?;
    let addr = first.local_addr()?;
    let mut sockets = vec![first];
    for _ in 1..config.workers {
        sockets.push(sys::reuseport_socket(addr)?);
    }
    let worker = Worker {
        ctx,
        core,
        faults,
        oob: Arc::new(OobDelivery::new()),
    };
    for (i, socket) in sockets.into_iter().enumerate() {
        socket.set_read_timeout(Some(READ_TIMEOUT))?;
        let worker = worker.clone();
        let shutdown = shutdown.clone();
        std::thread::Builder::new()
            .name(format!("qos-percore-{i}"))
            .spawn(move || worker.run(Arc::new(socket), shutdown))?;
    }
    Ok(addr)
}

impl Worker {
    /// One worker's life: receive a datagram, decide the request in it,
    /// send the response — one frame, one datagram, one syscall each way.
    fn run(&self, socket: Arc<UdpSocket>, shutdown: Shutdown) {
        let mut db: Option<DbClient> = None;
        let mut buf = [0u8; RECV_BUF_BYTES];
        while !shutdown.is_triggered() {
            let (len, peer) = match socket.recv_from(&mut buf) {
                Ok(received) => received,
                // Read-timeout expiry surfaces as WouldBlock or TimedOut
                // depending on platform; both just mean "check shutdown
                // again".
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
            // Garbage and response frames are skipped — a public UDP port
            // must tolerate them.
            let Ok(Frame::Request(request)) = codec::decode(&buf[..len]) else {
                continue;
            };
            if let Some(response) = self.handle(request, &mut db) {
                let wire = codec::encode_response(&response);
                // The fate is applied exactly as on the listener plane. A
                // refused datagram is indistinguishable from a network
                // drop; the router's retry covers it.
                let _ = self
                    .oob
                    .send(self.faults.judge_fate(), &socket, wire, Some(peer));
            }
        }
    }

    /// Ingress triage inline — zero-budget shed, dedup lookup (nonce for
    /// stamped frames, request id for the legacy-downgraded final
    /// attempt) — then the decision tail the listener plane's workers run
    /// too. Returns the response to send, or `None` for the silent-shed
    /// paths.
    fn handle(&self, request: QosRequest, db: &mut Option<DbClient>) -> Option<QosResponse> {
        let ctx = &self.ctx;
        let arrived = ctx.clock.now();
        let mut guard = ctx.dedup.as_ref().map(|dedup| dedup.lock());
        match self.core.triage(&request, guard.as_deref_mut()) {
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
            IngressDecision::Admit => self.core.admitted(&request, guard.as_deref_mut()),
        }
        drop(guard);
        ctx.serve(&request, arrived, db)
    }
}
