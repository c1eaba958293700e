//! Pooled UDP RPC: one shared socket, many in-flight exchanges.
//!
//! The paper's PHP router opens a socket per admission request —
//! [`crate::udp::UdpRpcClient`] reproduces that faithfully. A long-lived
//! router can do better: bind one socket, tag every request with its id,
//! and let one receiver thread demultiplex responses to the calling
//! threads. This module is that optimization (an ablation over the
//! paper's design, not a replacement: the router accepts either client).
//!
//! Threads: every call blocks its caller; one receiver thread per client
//! fills the per-call slots; one timer thread flushes coalescing windows
//! that did not fill. Both stop when the last clone is dropped.
//!
//! Correctness notes:
//! * ids are allocated from an atomic counter, so concurrent callers
//!   never collide;
//! * late responses for timed-out or completed requests are dropped at
//!   the demux map;
//! * retries re-send the *same* id, so whichever attempt's response
//!   arrives first completes the call;
//! * with batching on, concurrent sends headed for the same QoS server
//!   coalesce into one datagram on a size-or-deadline trigger. Each
//!   retry re-enqueues the request individually, so the paper's
//!   per-request timeout × retry discipline is unchanged — only the
//!   datagram packing differs.

use crate::attempt::{AttemptPlan, AttemptStep};
use crate::fault::{Fate, FaultPlan};
use crate::latency::WireDiscipline;
use crate::udp::{OobDelivery, UdpRpcConfig, WallTimer};
use janus_clock::Nanos;
use janus_types::codec::{self, Frame, MAX_DATAGRAM_BYTES};
use janus_types::sync::Mutex;
use janus_types::{JanusError, LeaseReport, QosKey, QosRequest, QosResponse, RequestId, Result};
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread;
use std::time::{Duration, Instant};

/// Where the receiver thread leaves one call's response.
#[derive(Default)]
struct Slot {
    response: Mutex<Option<QosResponse>>,
    arrived: Condvar,
}

impl Slot {
    fn fill(&self, response: QosResponse) {
        *self.response.lock() = Some(response);
        self.arrived.notify_one();
    }

    /// Block until the slot is filled or `timeout` elapses.
    fn wait(&self, timeout: Duration) -> Option<QosResponse> {
        let deadline = Instant::now() + timeout;
        let mut response = self.response.lock();
        loop {
            if let Some(response) = response.take() {
                return Some(response);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            response = self
                .arrived
                .wait_timeout(response, left)
                .unwrap_or_else(|poison| poison.into_inner())
                .0;
        }
    }
}

/// Response demultiplexer: request id → waiting caller.
type Waiters = Arc<Mutex<HashMap<RequestId, Arc<Slot>>>>;

/// Datagram-coalescing policy for the pooled client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Coalesce at all? Off reproduces the single-frame wire format.
    pub enabled: bool,
    /// Flush once this many frames are queued for one destination.
    pub max_frames: usize,
    /// Flush this long after the first frame queues, even if not full.
    pub max_delay: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            enabled: true,
            max_frames: 16,
            max_delay: Duration::from_micros(50),
        }
    }
}

impl BatchConfig {
    /// The paper-faithful single-frame-per-datagram wire format.
    pub fn disabled() -> Self {
        BatchConfig {
            enabled: false,
            ..BatchConfig::default()
        }
    }
}

/// The send half: the socket, the fault plan on it, and the per-server
/// queues awaiting a coalesced flush. Shared with the flush timer.
struct SendPath {
    socket: Arc<UdpSocket>,
    faults: Arc<FaultPlan>,
    oob: OobDelivery,
    /// Per-destination send queues awaiting a coalesced flush.
    pending: Mutex<HashMap<SocketAddr, Vec<QosRequest>>>,
}

struct Shared {
    send: Arc<SendPath>,
    waiters: Waiters,
    config: UdpRpcConfig,
    batch: BatchConfig,
    next_id: AtomicU64,
    /// Fires `max_delay` after a coalescing window opens.
    flush_timer: WallTimer<SocketAddr>,
    /// Tells the receiver thread to exit once woken. A bare flag (Release
    /// store, Acquire load) — it publishes no data.
    stop: Arc<AtomicBool>,
}

impl Drop for Shared {
    fn drop(&mut self) {
        // The receiver thread is blocked in `recv_from`: flag it down
        // and wake it with an empty datagram from its own socket.
        self.stop.store(true, Ordering::Release);
        crate::wake_receiver(&self.send.socket);
    }
}

/// A shared-socket UDP RPC client.
///
/// Cheap to clone; all clones share the socket and the receiver thread.
#[derive(Clone)]
pub struct PooledUdpRpcClient {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for PooledUdpRpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledUdpRpcClient")
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl PooledUdpRpcClient {
    /// Bind the shared socket and start the receiver thread. Coalescing
    /// is on by default — this is the optimized client.
    pub fn bind(config: UdpRpcConfig) -> Result<Self> {
        Self::bind_with_faults(config, FaultPlan::none())
    }

    /// Bind with fault injection on the send path.
    pub fn bind_with_faults(config: UdpRpcConfig, faults: Arc<FaultPlan>) -> Result<Self> {
        Self::bind_with_batch(config, BatchConfig::default(), faults)
    }

    /// Bind with an explicit coalescing policy.
    pub fn bind_with_batch(
        config: UdpRpcConfig,
        batch: BatchConfig,
        faults: Arc<FaultPlan>,
    ) -> Result<Self> {
        let socket = Arc::new(UdpSocket::bind(config.bind_addr)?);
        let waiters: Waiters = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));

        // Receiver thread: route every arriving response frame — single
        // or batched — to its waiter.
        let (rx_socket, rx_waiters, rx_stop) =
            (Arc::clone(&socket), Arc::clone(&waiters), Arc::clone(&stop));
        thread::Builder::new()
            .name("janus-udp-pool-rx".into())
            .spawn(move || {
                let mut buf = vec![0u8; MAX_DATAGRAM_BYTES + 1];
                while let Ok((len, _peer)) = rx_socket.recv_from(&mut buf) {
                    if rx_stop.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(frames) = codec::decode_all(&buf[..len]) else {
                        continue;
                    };
                    for frame in frames {
                        if let Frame::Response(resp) = frame {
                            // A missing waiter is a late duplicate: drop it.
                            if let Some(slot) = rx_waiters.lock().remove(&resp.id) {
                                slot.fill(resp);
                            }
                        }
                    }
                }
            })?;

        let send = Arc::new(SendPath {
            socket,
            faults,
            oob: OobDelivery::new(),
            pending: Mutex::new(HashMap::new()),
        });
        let timer_send = Arc::clone(&send);
        Ok(PooledUdpRpcClient {
            shared: Arc::new(Shared {
                send,
                waiters,
                config,
                batch,
                next_id: AtomicU64::new(1),
                // The window's deadline passed: flush whatever it still
                // holds (nothing, if it filled and flushed on size).
                flush_timer: WallTimer::new("janus-udp-pool-flush", move |server| {
                    let queued = timer_send.pending.lock().remove(&server);
                    if let Some(queue) = queued {
                        let _ = timer_send.flush_queue(server, queue);
                    }
                }),
                stop,
            }),
        })
    }

    /// The retry discipline in force.
    pub fn config(&self) -> &UdpRpcConfig {
        &self.shared.config
    }

    /// In-flight exchanges right now (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.shared.waiters.lock().len()
    }

    /// Perform one admission exchange with the QoS server at `server`.
    /// The request id is allocated internally (callers supply only the
    /// key), guaranteeing pool-wide uniqueness.
    pub fn check(&self, server: SocketAddr, key: QosKey) -> Result<QosResponse> {
        self.check_disciplined(server, key, false, None, &WireDiscipline::default())
    }

    /// Like [`check`](Self::check), but the first attempt solicits a rule
    /// hint in the response. Retries fall back to the plain frame, so a
    /// hint-unaware server (which drops the unknown frame kind) costs at
    /// most one lost attempt.
    pub fn check_soliciting_hint(&self, server: SocketAddr, key: QosKey) -> Result<QosResponse> {
        self.check_disciplined(server, key, true, None, &WireDiscipline::default())
    }

    /// Like the two above, but the first attempt also piggybacks a lease
    /// report (solicitation, renewal, or return-and-reconcile). Retries
    /// downgrade to the lease-free frame, so a lease-unaware server costs
    /// at most one lost attempt.
    pub fn check_with_lease(
        &self,
        server: SocketAddr,
        key: QosKey,
        solicit: bool,
        lease: Option<LeaseReport>,
    ) -> Result<QosResponse> {
        self.check_disciplined(server, key, solicit, lease, &WireDiscipline::default())
    }

    /// [`check_with_lease`](Self::check_with_lease) with the
    /// gray-failure discipline applied (DESIGN.md ablation 15): an
    /// adaptively-derived per-attempt timeout, an optional same-nonce
    /// hedge after [`WireDiscipline::hedge_delay`], retries and hedges
    /// gated by the shared [`crate::latency::RetryBudget`], and
    /// per-attempt RTTs recorded into the caller's latency window. The
    /// default (all-`None`) discipline reproduces the plain methods
    /// exactly.
    pub fn check_disciplined(
        &self,
        server: SocketAddr,
        key: QosKey,
        solicit: bool,
        lease: Option<LeaseReport>,
        discipline: &WireDiscipline,
    ) -> Result<QosResponse> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let mut request = if solicit {
            QosRequest::soliciting_hint(id, key)
        } else {
            QosRequest::new(id, key)
        };
        if let Some(report) = lease {
            request = request.with_lease(report);
        }
        let slot = Arc::new(Slot::default());
        self.shared.waiters.lock().insert(id, Arc::clone(&slot));
        let result = self.exchange(server, request, &slot, discipline);
        // Cleanup on every exit path.
        self.shared.waiters.lock().remove(&id);
        result
    }

    /// The attempt loop of one exchange whose response lands in `slot`.
    fn exchange(
        &self,
        server: SocketAddr,
        request: QosRequest,
        slot: &Slot,
        discipline: &WireDiscipline,
    ) -> Result<QosResponse> {
        let config = &self.shared.config;
        // Same end-to-end deadline discipline as `UdpRpcClient::call`,
        // decided by the shared sans-IO [`AttemptPlan`]: every attempt but
        // the last carries the remaining budget and the logical request's
        // nonce, the final attempt downgrades to a legacy frame, and
        // retrying stops once the budget is spent.
        let attempts = config.attempts();
        let plan = if config.stamp_deadlines {
            AttemptPlan::stamped(
                request,
                attempts,
                Nanos::ZERO,
                config.worst_case(),
                crate::udp::fresh_nonce(),
            )
        } else {
            AttemptPlan::plain(request, attempts)
        };
        let started = Instant::now();
        let timeout = discipline.timeout.unwrap_or(config.timeout);
        if let (Some(stats), Some(t)) = (discipline.stats, discipline.timeout) {
            stats.note_adaptive_timeout(t);
        }

        let mut attempted = 0u32;
        'attempts: for attempt in 0..attempts {
            if attempt > 0 {
                // Retries draw from the shared budget first: a refusal
                // means the fleet is already amplifying, and this call
                // settles for the router default instead of adding load.
                if let Some(budget) = &discipline.budget {
                    if !budget.try_withdraw() {
                        break;
                    }
                }
                let now = Nanos::from_nanos(started.elapsed().as_nanos() as u64);
                // Clamped: a jittered backoff must never sleep past the
                // point where `BudgetSpent` stops the call.
                let pause = plan.clamped_pause(config.backoff.delay_before(attempt), now);
                if !pause.is_zero() {
                    thread::sleep(pause);
                }
            } else if let Some(budget) = &discipline.budget {
                budget.deposit();
            }
            let now = Nanos::from_nanos(started.elapsed().as_nanos() as u64);
            let this_attempt: QosRequest = match plan.request_for(attempt, now) {
                AttemptStep::Send(frame) => frame,
                AttemptStep::BudgetSpent => break,
            };
            attempted += 1;
            let sent = Instant::now();
            self.send_attempt(server, this_attempt)?;
            let mut remaining = timeout;
            let mut hedged = false;
            let mut hedge_sent = false;
            loop {
                // An armed hedge splits the attempt's wait in two: fire
                // the duplicate at the learned-tail delay, then wait out
                // the rest of the timeout for whichever copy answers
                // first.
                let phase = match discipline.hedge_delay {
                    Some(delay) if !hedged && delay < remaining => delay,
                    _ => remaining,
                };
                match slot.wait(phase) {
                    Some(resp) => {
                        if let Some(rtt) = &discipline.rtt {
                            rtt.record(sent.elapsed().as_micros() as u64);
                        }
                        if hedge_sent {
                            if let Some(stats) = &discipline.stats {
                                stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        return Ok(resp);
                    }
                    None if !hedged && phase < remaining => {
                        hedged = true;
                        remaining -= phase;
                        // Slower than the partition's learned tail:
                        // re-present the *same* nonce (the dedup window
                        // makes the losing copy a cached duplicate, so the
                        // pair consumes one credit), budget permitting.
                        let now = Nanos::from_nanos(started.elapsed().as_nanos() as u64);
                        let funded = discipline
                            .budget
                            .as_ref()
                            .is_none_or(|budget| budget.try_withdraw());
                        if funded {
                            if let Some(frame) = plan.hedge_for(attempt, now) {
                                self.send_attempt(server, frame)?;
                                hedge_sent = true;
                                if let Some(stats) = &discipline.stats {
                                    stats.hedges_sent.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    None => continue 'attempts,
                }
            }
        }
        Err(JanusError::Timeout {
            attempts: attempted,
        })
    }

    /// Put one attempt of `request` on the wire. Unbatched: encode and
    /// send immediately. Batched: enqueue for `server` and flush when the
    /// queue fills or the deadline passes, whichever comes first.
    fn send_attempt(&self, server: SocketAddr, request: QosRequest) -> Result<()> {
        let (send, batch) = (&self.shared.send, &self.shared.batch);
        if !batch.enabled {
            let fate = send.faults.judge_fate();
            return send.send_datagram(fate, codec::encode_request(&request), server);
        }
        let mut to_flush = None;
        let mut arm_timer = false;
        {
            let mut pending = send.pending.lock();
            let queue = pending.entry(server).or_default();
            queue.push(request);
            if queue.len() >= batch.max_frames.max(1) {
                to_flush = pending.remove(&server);
            } else {
                // First frame in a fresh window: schedule the deadline
                // flush. Later frames ride on this window's timer.
                arm_timer = queue.len() == 1;
            }
        }
        if arm_timer {
            self.shared.flush_timer.after(batch.max_delay, server);
        }
        match to_flush {
            Some(queue) => send.flush_queue(server, queue),
            None => Ok(()),
        }
    }
}

impl SendPath {
    /// Encode a drained queue (legacy format for a lone frame, batch
    /// otherwise) and send it, one fault-injection judgement per
    /// datagram — a dropped datagram loses the whole batch, exactly as a
    /// lossy link would, and each affected request retries on its own.
    fn flush_queue(&self, server: SocketAddr, queue: Vec<QosRequest>) -> Result<()> {
        let wires = if let [single] = &queue[..] {
            vec![codec::encode_request(single)]
        } else {
            let frames: Vec<Frame> = queue.into_iter().map(Frame::Request).collect();
            codec::encode_batch(&frames)
        };
        // Fates roll per datagram; the cleanly-delivered remainder of a
        // multi-datagram flush shares one `sendmmsg` on Linux (off Linux,
        // one `send_to` each — byte-identical).
        let mut ready: Vec<Vec<u8>> = Vec::new();
        for wire in wires {
            match self.faults.judge_fate() {
                Fate::Deliver(delay) if delay.is_zero() => ready.push(wire),
                fate => self.send_datagram(fate, wire, server)?,
            }
        }
        if let [single] = &ready[..] {
            self.socket.send_to(single, server)?;
        } else {
            let msgs: Vec<(&[u8], SocketAddr)> = ready.iter().map(|w| (&w[..], server)).collect();
            crate::mmsg::send_batch(&self.socket, &msgs, None)?;
        }
        Ok(())
    }

    /// Send one datagram under an already-rolled fate. Duplicate and
    /// deferred copies drain from the out-of-band delivery queue so the
    /// caller never blocks beyond an inline delay fate.
    fn send_datagram(&self, fate: Fate, wire: Vec<u8>, server: SocketAddr) -> Result<()> {
        match fate {
            Fate::Drop => {} // dropped on the floor, like a lossy link
            Fate::Deliver(delay) => {
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
                self.socket.send_to(&wire, server)?;
            }
            Fate::Duplicate(delay) => {
                self.socket.send_to(&wire, server)?;
                self.oob
                    .transmit_after(delay, Arc::clone(&self.socket), wire, Some(server));
            }
            Fate::Defer(delay) => {
                self.oob
                    .transmit_after(delay, Arc::clone(&self.socket), wire, Some(server));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::UdpServerSocket;
    use janus_types::Verdict;
    use std::time::Duration;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    /// Echo server: allow iff the key length is even.
    fn spawn_echo() -> SocketAddr {
        let server = UdpServerSocket::bind_ephemeral().unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || loop {
            let Ok((req, peer)) = server.recv_request() else {
                return;
            };
            let verdict = Verdict::from_bool(req.key.len() % 2 == 0);
            let _ = server.send_response(&QosResponse::new(req.id, verdict), peer);
        });
        addr
    }

    #[test]
    fn roundtrip() {
        let server = spawn_echo();
        let pool = PooledUdpRpcClient::bind(UdpRpcConfig::lan_defaults()).unwrap();
        assert_eq!(
            pool.check(server, key("ab")).unwrap().verdict,
            Verdict::Allow
        );
        assert_eq!(
            pool.check(server, key("abc")).unwrap().verdict,
            Verdict::Deny
        );
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn concurrent_exchanges_demux_correctly() {
        let server = spawn_echo();
        let pool = PooledUdpRpcClient::bind(UdpRpcConfig::lan_defaults()).unwrap();
        let mut handles = Vec::new();
        for i in 0..128usize {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let k = key(&"x".repeat(1 + i % 7));
                let resp = pool.check(server, k.clone()).unwrap();
                assert_eq!(resp.verdict, Verdict::from_bool(k.len() % 2 == 0), "{k}");
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn total_loss_times_out_and_cleans_up() {
        let server = spawn_echo();
        let pool = PooledUdpRpcClient::bind_with_faults(
            UdpRpcConfig {
                timeout: Duration::from_millis(1),
                max_retries: 2,
                ..Default::default()
            },
            FaultPlan::new(1.0, 0.0, Duration::ZERO, 5),
        )
        .unwrap();
        let err = pool.check(server, key("ab")).unwrap_err();
        assert!(matches!(err, JanusError::Timeout { attempts: 3 }));
        assert_eq!(pool.in_flight(), 0, "leaked waiter after timeout");
    }

    #[test]
    fn retries_recover_from_partial_loss() {
        let server = spawn_echo();
        let pool = PooledUdpRpcClient::bind_with_faults(
            UdpRpcConfig::lan_defaults(),
            FaultPlan::new(0.4, 0.0, Duration::ZERO, 777),
        )
        .unwrap();
        let mut ok = 0;
        for _ in 0..20 {
            if pool.check(server, key("ab")).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 18, "only {ok}/20 under 40% loss");
    }

    /// 32 concurrent checks against one server must land in far fewer
    /// than 32 request datagrams once coalescing kicks in, and every
    /// caller must still get its own answer back.
    #[test]
    fn batched_requests_coalesce_on_the_wire() {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = socket.local_addr().unwrap();
        let datagrams = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&datagrams);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; MAX_DATAGRAM_BYTES + 1];
            loop {
                let Ok((len, peer)) = socket.recv_from(&mut buf) else {
                    return;
                };
                counter.fetch_add(1, Ordering::Relaxed);
                let Ok(frames) = codec::decode_all(&buf[..len]) else {
                    continue;
                };
                let responses: Vec<Frame> = frames
                    .iter()
                    .filter_map(|frame| match frame {
                        Frame::Request(req) => Some(Frame::Response(QosResponse::allow(req.id))),
                        Frame::Response(_) => None,
                    })
                    .collect();
                for wire in codec::encode_batch(&responses) {
                    let _ = socket.send_to(&wire, peer);
                }
            }
        });

        // A generous deadline so all 32 sends share coalescing windows
        // regardless of scheduling jitter.
        let pool = PooledUdpRpcClient::bind_with_batch(
            UdpRpcConfig::lan_defaults(),
            BatchConfig {
                enabled: true,
                max_frames: 16,
                max_delay: Duration::from_millis(5),
            },
            FaultPlan::none(),
        )
        .unwrap();
        let mut handles = Vec::new();
        for i in 0..32usize {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                pool.check(addr, key(&format!("tenant-{i}"))).unwrap()
            }));
        }
        for handle in handles {
            assert_eq!(handle.join().unwrap().verdict, Verdict::Allow);
        }
        let sent = datagrams.load(Ordering::Relaxed);
        assert!(
            sent < 32,
            "expected coalescing, saw {sent} request datagrams for 32 checks"
        );
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn soliciting_check_receives_hint_from_aware_server() {
        use janus_types::{Credits, RefillRate, RuleHint};
        let server = UdpServerSocket::bind_ephemeral().unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || loop {
            let Ok((req, peer)) = server.recv_request() else {
                return;
            };
            let mut resp = QosResponse::allow(req.id);
            if req.solicit_hint {
                resp = resp.with_hint(RuleHint::new(
                    Credits::from_whole(10),
                    RefillRate::per_second(5),
                ));
            }
            let _ = server.send_response(&resp, peer);
        });
        let pool = PooledUdpRpcClient::bind(UdpRpcConfig::lan_defaults()).unwrap();
        let plain = pool.check(addr, key("ab")).unwrap();
        assert_eq!(plain.hint, None);
        let hinted = pool.check_soliciting_hint(addr, key("ab")).unwrap();
        let hint = hinted.hint.expect("hint solicited but absent");
        assert_eq!(hint.capacity, Credits::from_whole(10));
        assert_eq!(hint.refill_rate, RefillRate::per_second(5));
    }

    #[test]
    fn pooled_deadline_attempts_downgrade_to_legacy_on_final_try() {
        // Unanswered sink: inspect every attempt's frame kind. Batching
        // is off so each attempt is one legacy-format datagram.
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = sink.local_addr().unwrap();
        let pool = PooledUdpRpcClient::bind_with_batch(
            UdpRpcConfig {
                timeout: Duration::from_millis(20),
                max_retries: 2,
                stamp_deadlines: true,
                ..Default::default()
            },
            BatchConfig::disabled(),
            FaultPlan::none(),
        )
        .unwrap();
        let call = std::thread::spawn(move || pool.check(addr, key("ab")));
        let mut kinds = Vec::new();
        let mut buf = [0u8; MAX_DATAGRAM_BYTES + 1];
        for _ in 0..3 {
            let (len, _) = sink.recv_from(&mut buf).unwrap();
            kinds.push(buf[..len][3]);
        }
        assert!(call.join().unwrap().is_err(), "nothing answered");
        assert_eq!(
            kinds,
            vec![
                codec::KIND_REQUEST_DEADLINE,
                codec::KIND_REQUEST_DEADLINE,
                codec::KIND_REQUEST
            ]
        );
    }

    #[test]
    fn late_responses_are_dropped_not_misdelivered() {
        // A slow server answers after the caller timed out; the next call
        // must not receive the stale response.
        let server = UdpServerSocket::bind_ephemeral().unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || {
            loop {
                let Ok((req, peer)) = server.recv_request() else {
                    return;
                };
                std::thread::sleep(Duration::from_millis(20));
                // Always answer Deny (the stale answer).
                let _ = server.send_response(&QosResponse::deny(req.id), peer);
            }
        });
        let pool = PooledUdpRpcClient::bind(UdpRpcConfig {
            timeout: Duration::from_millis(2),
            max_retries: 0,
            ..Default::default()
        })
        .unwrap();
        assert!(pool.check(addr, key("ab")).is_err());
        // Wait for the stale response to arrive and be discarded.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(pool.in_flight(), 0);
    }
}
