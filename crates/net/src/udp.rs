//! The router ⇄ QoS-server UDP exchange.
//!
//! "For performance considerations, the request router uses UDP instead of
//! TCP to communicate with the QoS server ... we use a 100-microsecond
//! communication timeout and a maximum number of 5 retries." (paper
//! §III-B). [`UdpRpcClient`] implements exactly that client discipline,
//! one frame per datagram; [`UdpServerSocket`] is the server side, a thin
//! wrapper that applies fault injection and decodes frames.
//!
//! The client has two socket strategies, chosen at construction, and one
//! attempt loop for both:
//!
//! * **socket per request** ([`UdpRpcClient::new`]) — the paper's PHP
//!   router: every call binds and connects a fresh ephemeral socket;
//! * **reusing** ([`UdpRpcClient::reusing`]) — a call borrows an idle
//!   socket already connected to its server from the client's free list
//!   (or binds one when none is idle) and puts it back afterwards.
//!
//! Either way a call owns its connected socket for the whole exchange and
//! blocks the calling thread on it, so every call in flight is its own
//! flow: `SO_REUSEPORT` can spread one client's calls over the server's
//! per-core workers. The strategies differ only in where the socket comes
//! from; the retry schedule, hedging, the retry budget and RTT recording
//! live once, in the attempt loop.
//!
//! Retries create a correctness wrinkle the request id solves: a response
//! to attempt 1 may arrive while the client is already waiting on attempt
//! 2, and a reused socket may still receive a late answer to an earlier
//! call. The client accepts any response whose id matches the request and
//! skips everything else without cutting the attempt short, so duplicated
//! server work never corrupts a result (the bucket is charged twice, which
//! errs on the conservative side — admission control may only undercount
//! credit, never oversell).
//!
//! Every datagram that passes a [`FaultPlan`] — client requests and
//! server responses on either plane of `janus-server` — has its [`Fate`]
//! applied in one place, [`OobDelivery::send`]; late copies leave from one
//! timer thread per queue.

use crate::attempt::{AttemptPlan, AttemptStep};
use crate::fault::{DeliverySchedule, Fate, FaultPlan};
use crate::latency::WireDiscipline;
use janus_clock::Nanos;
use janus_types::codec::{self, Frame, MAX_FRAME_BYTES};
use janus_types::sync::Mutex;
use janus_types::{JanusError, QosRequest, QosResponse, RequestId, Result};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Process-global sequence hashed through [`janus_hash::mix64`] wherever
/// the transport needs an arbitrary draw (retry jitter, attempt nonces).
/// Unpredictable enough to decorrelate retries and to make nonce
/// collisions across routers vanishingly rare, with no dependency beyond
/// the workspace.
static DRAW_SEQ: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

fn draw_u64() -> u64 {
    janus_hash::mix64(DRAW_SEQ.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed))
}

/// How long to pause before each retry attempt.
///
/// The paper's discipline retries immediately after the 100 µs per-attempt
/// timeout elapses ([`RetryBackoff::Fixed`], the default). Under a
/// correlated brownout — a rebooting partition, a saturated NIC queue —
/// immediate retries from every router arrive in lockstep and prolong the
/// brownout they are reacting to. [`RetryBackoff::ExponentialJitter`]
/// decorrelates them: retry `k` sleeps a uniformly random duration in
/// `[0, min(base · 2^(k−1), cap)]` first (AWS-style "full jitter").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryBackoff {
    /// Paper-faithful: no pause between retries beyond the per-attempt
    /// timeout itself.
    #[default]
    Fixed,
    /// Jittered exponential backoff between retries.
    ExponentialJitter {
        /// Ceiling of the first retry's jitter window.
        base: Duration,
        /// Upper bound the window never exceeds, however many retries.
        cap: Duration,
    },
}

impl RetryBackoff {
    /// The pause before retry attempt `attempt` (1 = first retry).
    /// Attempt 0 — the initial send — never waits.
    pub fn delay_before(&self, attempt: u32) -> Duration {
        match *self {
            RetryBackoff::Fixed => Duration::ZERO,
            RetryBackoff::ExponentialJitter { base, cap } => {
                if attempt == 0 {
                    return Duration::ZERO;
                }
                let doublings = (attempt - 1).min(20);
                let window = base.saturating_mul(1u32 << doublings).min(cap).as_nanos() as u64;
                if window == 0 {
                    return Duration::ZERO;
                }
                Duration::from_nanos(draw_u64() % (window + 1))
            }
        }
    }

    /// The worst pause this policy can impose before retry `attempt`.
    pub fn max_delay_before(&self, attempt: u32) -> Duration {
        match *self {
            RetryBackoff::Fixed => Duration::ZERO,
            RetryBackoff::ExponentialJitter { base, cap } => {
                if attempt == 0 {
                    return Duration::ZERO;
                }
                let doublings = (attempt - 1).min(20);
                base.saturating_mul(1u32 << doublings).min(cap)
            }
        }
    }
}

/// Client-side retry discipline.
#[derive(Debug, Clone)]
pub struct UdpRpcConfig {
    /// Per-attempt wait for a response. Paper value: 100 µs.
    pub timeout: Duration,
    /// Retries after the first attempt. Paper value: 5.
    pub max_retries: u32,
    /// Pause policy between retries. Paper value: none ([`RetryBackoff::Fixed`]).
    pub backoff: RetryBackoff,
    /// Propagate the retry budget end to end: stamp every attempt with
    /// the remaining deadline (total budget = [`UdpRpcConfig::worst_case`],
    /// or the caller's pre-stamped budget) and a per-logical-request
    /// nonce, and stop retrying once the budget is spent. Servers use the
    /// budget to shed work nobody is waiting for and the nonce to answer
    /// duplicate attempts from a cached verdict instead of charging the
    /// bucket twice. Off by default — the paper's discipline sends plain
    /// frames, and old servers drop the deadline frame kind as garbage
    /// (the final attempt always falls back to a legacy frame so at least
    /// one attempt reaches an old peer).
    pub stamp_deadlines: bool,
    /// Local address every socket the client binds is bound to, under
    /// either strategy. Historically hard-coded to loopback,
    /// which made every deployment loopback-only; multi-host routers set
    /// an unspecified or interface-specific address here. Port 0
    /// (ephemeral) is almost always right.
    pub bind_addr: SocketAddr,
}

impl Default for UdpRpcConfig {
    fn default() -> Self {
        UdpRpcConfig {
            timeout: Duration::from_micros(100),
            max_retries: 5,
            backoff: RetryBackoff::Fixed,
            stamp_deadlines: false,
            bind_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        }
    }
}

impl UdpRpcConfig {
    /// Total attempts (first try + retries).
    pub fn attempts(&self) -> u32 {
        1 + self.max_retries
    }

    /// Worst-case time spent before giving up, including the worst draw
    /// of every backoff pause.
    pub fn worst_case(&self) -> Duration {
        let mut total = self.timeout * self.attempts();
        for attempt in 1..self.attempts() {
            total += self.backoff.max_delay_before(attempt);
        }
        total
    }

    /// A looser discipline for loopback test environments where the
    /// scheduler may not wake a thread within 100 µs (real kernels and
    /// the paper's LAN both do better than a busy CI box).
    pub fn lan_defaults() -> Self {
        UdpRpcConfig {
            timeout: Duration::from_millis(20),
            ..Default::default()
        }
    }
}

/// Send `wire` on a connected socket (`peer: None`) or to `peer`.
fn send_on(socket: &UdpSocket, wire: &[u8], peer: Option<SocketAddr>) -> io::Result<usize> {
    match peer {
        Some(peer) => socket.send_to(wire, peer),
        None => socket.send(wire),
    }
}

/// One queued out-of-band transmission: a duplicate's second copy or a
/// deferred (reordered) datagram.
#[derive(Debug)]
struct OobSend {
    socket: Arc<UdpSocket>,
    wire: Vec<u8>,
    /// `None` sends on the connected socket, `Some` via `send_to`.
    peer: Option<SocketAddr>,
}

/// The out-of-band delivery queue behind every fault-injecting transport.
///
/// Every duplicate and deferred copy is *data* keyed by absolute due
/// time; one thread transmits whatever is due, in `(due, seq)` order. The
/// thread starts on first use, parks until the earliest entry is due, and
/// stops when the queue is dropped. The deterministic simulator drains the
/// same schedule type against its virtual clock, at exactly the due tick.
#[derive(Debug)]
pub struct OobDelivery {
    shared: Arc<OobShared>,
    thread: OnceLock<Thread>,
}

#[derive(Debug)]
struct OobShared {
    schedule: DeliverySchedule<OobSend>,
    /// A bare flag (Release store in `Drop`, Acquire load in `run`); the
    /// schedule has its own lock.
    stop: AtomicBool,
}

fn wall_nanos() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

impl Default for OobDelivery {
    fn default() -> Self {
        Self::new()
    }
}

impl OobDelivery {
    /// An empty queue.
    pub fn new() -> Self {
        OobDelivery {
            shared: Arc::new(OobShared {
                schedule: DeliverySchedule::new(),
                stop: AtomicBool::new(false),
            }),
            thread: OnceLock::new(),
        }
    }

    /// Copies still queued (diagnostics).
    pub fn queued(&self) -> usize {
        self.shared.schedule.len()
    }

    /// Apply one datagram's already-rolled fate: the one place a [`Fate`]
    /// meets a socket. Late copies (a duplicate's second copy, a deferred
    /// datagram) are queued here; an inline delay is slept out on the
    /// calling thread. Returns the copy that leaves now, if any. `peer:
    /// None` addresses a connected socket.
    fn apply(
        &self,
        fate: Fate,
        socket: &Arc<UdpSocket>,
        wire: Vec<u8>,
        peer: Option<SocketAddr>,
    ) -> Option<Vec<u8>> {
        match fate {
            // Dropped: the caller pretends it left, like a real network.
            Fate::Drop => None,
            Fate::Deliver(delay) => {
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
                Some(wire)
            }
            Fate::Duplicate(delay) => {
                self.transmit_after(delay, socket, wire.clone(), peer);
                Some(wire)
            }
            // Only the delivery is delayed: datagrams sent after this one
            // overtake it, i.e. reordering.
            Fate::Defer(delay) => {
                self.transmit_after(delay, socket, wire, peer);
                None
            }
        }
    }

    /// Apply one datagram's already-rolled fate — drop, delay inline,
    /// duplicate or defer, late copies waiting in this queue — then send
    /// whatever leaves now. `peer: None` addresses a connected socket.
    pub fn send(
        &self,
        fate: Fate,
        socket: &Arc<UdpSocket>,
        wire: Vec<u8>,
        peer: Option<SocketAddr>,
    ) -> io::Result<()> {
        if let Some(wire) = self.apply(fate, socket, wire, peer) {
            send_on(socket, &wire, peer)?;
        }
        Ok(())
    }

    /// Queue one copy to leave after `delay`.
    fn transmit_after(
        &self,
        delay: Duration,
        socket: &Arc<UdpSocket>,
        wire: Vec<u8>,
        peer: Option<SocketAddr>,
    ) {
        let due = wall_nanos().saturating_add(delay.as_nanos() as u64);
        let socket = Arc::clone(socket);
        self.shared
            .schedule
            .schedule(due, OobSend { socket, wire, peer });
        self.thread
            .get_or_init(|| {
                let shared = Arc::clone(&self.shared);
                thread::Builder::new()
                    .name("janus-oob-timer".into())
                    .spawn(move || shared.run())
                    .expect("spawn timer thread")
                    .thread()
                    .clone()
            })
            .unpark();
    }
}

impl Drop for OobDelivery {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }
}

impl OobShared {
    /// Send what is due, then park until the next due time — or until a
    /// new entry or `Drop` unparks the thread.
    fn run(&self) {
        while !self.stop.load(Ordering::Acquire) {
            while let Some((_, send)) = self.schedule.pop_due(wall_nanos()) {
                let _ = send_on(&send.socket, &send.wire, send.peer);
            }
            match self.schedule.next_due() {
                Some(due) => {
                    thread::park_timeout(Duration::from_nanos(due.saturating_sub(wall_nanos())))
                }
                None => thread::park(),
            }
        }
    }
}

/// Receive one datagram on a non-blocking connected socket, waiting at
/// most `timeout` for it: `Ok(None)` when the timeout elapses first.
fn recv_within(socket: &UdpSocket, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
    let deadline = Instant::now() + timeout;
    loop {
        match socket.recv(buf) {
            Ok(len) => return Ok(Some(len)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || !crate::sys::wait_readable(socket, left)? {
            return Ok(None);
        }
    }
}

/// Bind a fresh socket at `bind_addr` and connect it to `server`.
/// Non-blocking: every wait goes through [`recv_within`], whose timeout is
/// sub-millisecond exact.
fn connect(bind_addr: SocketAddr, server: SocketAddr) -> io::Result<Arc<UdpSocket>> {
    let socket = UdpSocket::bind(bind_addr)?;
    socket.connect(server)?;
    socket.set_nonblocking(true)?;
    Ok(Arc::new(socket))
}

/// Wait up to `within` on a connected `socket` for the response to request
/// `id`; `Ok(None)` once the wait elapses. Anything else — garbage, or a
/// stale answer for an earlier request on a reused socket or port — is
/// skipped and the wait goes on: the attempt is not cut short.
fn wait_response(
    socket: &UdpSocket,
    buf: &mut [u8],
    id: RequestId,
    within: Duration,
) -> io::Result<Option<QosResponse>> {
    let deadline = Instant::now() + within;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let Some(len) = recv_within(socket, buf, left)? else {
            return Ok(None);
        };
        if let Ok(Frame::Response(resp)) = codec::decode(&buf[..len]) {
            if resp.id == id {
                return Ok(Some(resp));
            }
        }
    }
}

/// The reusing strategy's free list: idle sockets, each beside the server
/// it is connected to.
type IdleSockets = Mutex<Vec<(SocketAddr, Arc<UdpSocket>)>>;

/// The request-router side of the admission RPC.
///
/// Cheap to clone; clones share the fault plan, the out-of-band queue and
/// (with the reusing strategy) the idle sockets. Every call blocks the
/// calling thread.
#[derive(Debug, Clone)]
pub struct UdpRpcClient {
    config: UdpRpcConfig,
    faults: Arc<FaultPlan>,
    oob: Arc<OobDelivery>,
    /// `None`: a fresh socket per request. `Some`: the idle sockets.
    idle: Option<Arc<IdleSockets>>,
}

impl UdpRpcClient {
    /// A socket-per-request client with the given retry discipline and no
    /// fault injection — exactly the paper's PHP router, which opens a
    /// socket per request, so concurrent calls never share state.
    pub fn new(config: UdpRpcConfig) -> Self {
        Self::with_faults(config, FaultPlan::none())
    }

    /// A socket-per-request client whose *outgoing* datagrams pass
    /// through `faults`.
    pub fn with_faults(config: UdpRpcConfig, faults: Arc<FaultPlan>) -> Self {
        UdpRpcClient {
            config,
            faults,
            oob: Arc::new(OobDelivery::new()),
            idle: None,
        }
    }

    /// A reusing client whose outgoing datagrams pass through `faults`.
    /// Each call still owns a connected socket for its whole exchange, but
    /// takes an idle one already connected to its server when there is
    /// one, and puts it back when the exchange ends — unless it ended in
    /// an I/O error. Binds nothing until the first call; the idle list,
    /// shared by clones, grows to the peak number of calls in flight per
    /// server and is dropped with the last clone.
    ///
    /// A reused socket may receive a late answer to an earlier call, which
    /// the attempt loop skips by request id: ids must not repeat while a
    /// late answer can still arrive.
    pub fn reusing(config: UdpRpcConfig, faults: Arc<FaultPlan>) -> Self {
        UdpRpcClient {
            idle: Some(Arc::default()),
            ..Self::with_faults(config, faults)
        }
    }

    /// The configured discipline.
    pub fn config(&self) -> &UdpRpcConfig {
        &self.config
    }

    /// Perform one admission exchange with the QoS server at `server`.
    ///
    /// Returns the verdict, or [`JanusError::Timeout`] once the retry
    /// budget is exhausted (the router then substitutes its default
    /// reply).
    ///
    /// A hint-soliciting or lease-reporting request is downgraded to the
    /// plain frame on retries: an unaware server drops the unknown frame
    /// kind as garbage, so the fallback costs at most one lost attempt
    /// against an old peer and nothing against a new one.
    ///
    /// With [`UdpRpcConfig::stamp_deadlines`] on, every attempt but the
    /// last carries the remaining budget and the logical request's nonce
    /// (deadline frame kind); the final attempt downgrades to a legacy
    /// frame so a deadline-unaware server still sees one attempt it
    /// understands. Retrying stops early once the budget is spent —
    /// nobody is waiting for a later answer.
    pub fn call(&self, server: SocketAddr, request: &QosRequest) -> Result<QosResponse> {
        self.call_disciplined(server, request, &WireDiscipline::default())
    }

    /// [`call`](Self::call) with the gray-failure discipline applied
    /// (DESIGN.md ablation 15): an adaptively-derived per-attempt
    /// timeout, an optional same-nonce hedge after
    /// [`WireDiscipline::hedge_delay`], retries and hedges gated by the
    /// shared [`crate::latency::RetryBudget`], and per-attempt RTTs
    /// recorded into the caller's latency window. The default
    /// (all-`None`) discipline reproduces [`call`](Self::call) exactly.
    pub fn call_disciplined(
        &self,
        server: SocketAddr,
        request: &QosRequest,
        discipline: &WireDiscipline,
    ) -> Result<QosResponse> {
        let reused = self.idle.as_ref().and_then(|idle| {
            let mut idle = idle.lock();
            let at = idle.iter().rposition(|&(peer, _)| peer == server)?;
            Some(idle.swap_remove(at).1)
        });
        let socket = match reused {
            Some(socket) => socket,
            None => connect(self.config.bind_addr, server)?,
        };
        let result = self.exchange(&socket, request, discipline);
        // An I/O error (say, a dead server's port unreachable) retires
        // the socket instead of lending it to the next call.
        if let (Some(idle), Ok(_) | Err(JanusError::Timeout { .. })) = (&self.idle, &result) {
            idle.lock().push((server, socket));
        }
        result
    }

    /// The one attempt loop, on the call's own connected socket: the
    /// paper's timeout × retries schedule, the sans-IO [`AttemptPlan`]'s
    /// frame choice, the hedge that splits an attempt's wait, the retry
    /// budget and RTT recording.
    fn exchange(
        &self,
        socket: &Arc<UdpSocket>,
        request: &QosRequest,
        discipline: &WireDiscipline,
    ) -> Result<QosResponse> {
        let attempts = self.config.attempts();
        // The sans-IO attempt schedule: which frame each attempt sends,
        // and when the budget cuts retries short, is decided by
        // [`AttemptPlan`] — the same core the deterministic simulator
        // drives. This shell only supplies the clock (monotonic elapsed
        // time since the call began) and moves bytes. A caller-stamped
        // request pins both the budget and the nonce; otherwise the budget
        // is this discipline's worst case and the nonce is drawn fresh.
        let plan = if self.config.stamp_deadlines {
            let (total, nonce) = match request.attempt {
                Some(meta) => (Duration::from_micros(u64::from(meta.budget_us)), meta.nonce),
                None => (self.config.worst_case(), draw_u64() as u32),
            };
            AttemptPlan::stamped(request.clone(), attempts, Nanos::ZERO, total, nonce)
        } else {
            AttemptPlan::plain(request.clone(), attempts)
        };
        let timeout = discipline.timeout.unwrap_or(self.config.timeout);
        if let (Some(stats), Some(t)) = (discipline.stats, discipline.timeout) {
            stats.note_adaptive_timeout(t);
        }
        let started = Instant::now();
        let elapsed = || Nanos::from_nanos(started.elapsed().as_nanos() as u64);
        let mut attempted = 0u32;
        let mut buf = [0u8; RECV_BUF_BYTES];

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
                // Clamped: a jittered backoff must never sleep past the
                // point where `BudgetSpent` stops the call.
                let pause =
                    plan.clamped_pause(self.config.backoff.delay_before(attempt), elapsed());
                if !pause.is_zero() {
                    thread::sleep(pause);
                }
            } else if let Some(budget) = &discipline.budget {
                budget.deposit();
            }
            let frame = match plan.request_for(attempt, elapsed()) {
                AttemptStep::Send(frame) => frame,
                // Budget spent: the caller's deadline passed, so further
                // retries would only add load.
                AttemptStep::BudgetSpent => break,
            };
            attempted += 1;
            let sent = Instant::now();
            self.transmit(socket, codec::encode_request(&frame))?;
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
                match wait_response(socket, &mut buf, request.id, phase)? {
                    Some(resp) => {
                        if let Some(rtt) = &discipline.rtt {
                            rtt.record(sent.elapsed().as_micros() as u64);
                        }
                        // Only a hedge that actually left can have won.
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
                        // makes the losing copy a cached duplicate, so
                        // the pair consumes one credit), budget
                        // permitting.
                        let funded = discipline
                            .budget
                            .as_ref()
                            .is_none_or(|budget| budget.try_withdraw());
                        if funded {
                            if let Some(frame) = plan.hedge_for(attempt, elapsed()) {
                                self.transmit(socket, codec::encode_request(&frame))?;
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

    /// Put one datagram on a connected socket through this client's fault
    /// plan.
    fn transmit(&self, socket: &Arc<UdpSocket>, wire: Vec<u8>) -> Result<()> {
        Ok(self
            .oob
            .send(self.faults.judge_fate(), socket, wire, None)?)
    }
}

/// Receive-buffer size: the largest frame plus one byte, so an oversize
/// datagram is detectably truncated and rejected. Public so every
/// receiver (the per-core workers in `janus-server` too) sizes its
/// buffer identically.
pub const RECV_BUF_BYTES: usize = MAX_FRAME_BYTES + 1;

/// The QoS-server side: a bound socket that receives admission requests
/// and sends responses, one frame per datagram, with fault injection on
/// the response path.
///
/// One thread (the listener) receives, into a buffer it owns; any thread
/// may send.
#[derive(Debug)]
pub struct UdpServerSocket {
    socket: Arc<UdpSocket>,
    faults: Arc<FaultPlan>,
    /// Out-of-band queue for duplicate/deferred response copies.
    oob: OobDelivery,
    /// Set by [`close`](Self::close): the blocked receiver returns. A
    /// bare flag (Release store, Acquire load) — it publishes no data.
    closed: AtomicBool,
}

impl UdpServerSocket {
    /// Bind to an ephemeral loopback port.
    pub fn bind_ephemeral() -> Result<Self> {
        Self::bind_with_faults(FaultPlan::none())
    }

    /// Bind an ephemeral loopback port with response-path fault injection.
    pub fn bind_with_faults(faults: Arc<FaultPlan>) -> Result<Self> {
        Self::bind(SocketAddr::from(([127, 0, 0, 1], 0)), faults)
    }

    /// Fully-specified bind: address (port 0 = ephemeral) and fault plan.
    pub fn bind(addr: SocketAddr, faults: Arc<FaultPlan>) -> Result<Self> {
        Ok(UdpServerSocket {
            socket: Arc::new(UdpSocket::bind(addr)?),
            faults,
            oob: OobDelivery::new(),
            closed: AtomicBool::new(false),
        })
    }

    /// The bound address (hand this to routers / the DNS zone).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.socket.local_addr()?)
    }

    /// Stop receiving: the thread blocked in
    /// [`recv_request`](Self::recv_request) — woken by an empty datagram
    /// this socket sends itself — returns an error, as does every later
    /// call. Sending still works.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        crate::wake_receiver(&self.socket);
    }

    /// Receive the next well-formed admission request into `buf` (the
    /// caller's, at least [`RECV_BUF_BYTES`] long), blocking until one
    /// arrives or the socket is [`close`](Self::close)d. Malformed
    /// datagrams and response frames are skipped, never fatal — a public
    /// UDP port must tolerate garbage. Decoding a request with an inline
    /// key allocates nothing.
    pub fn recv_request(&self, buf: &mut [u8]) -> Result<(QosRequest, SocketAddr)> {
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Err(JanusError::state("udp server socket is closed"));
            }
            let (len, peer) = self.socket.recv_from(buf)?;
            if let Ok(Frame::Request(req)) = codec::decode(&buf[..len]) {
                return Ok((req, peer));
            }
        }
    }

    /// Send a response back to `peer`. "The worker thread does not care
    /// about whether the request router receives the response or not"
    /// (paper §III-C) — so loss injection silently eats it, as the real
    /// network would.
    pub fn send_response(&self, response: &QosResponse, peer: SocketAddr) -> Result<()> {
        let wire = codec::encode_response(response);
        Ok(self
            .oob
            .send(self.faults.judge_fate(), &self.socket, wire, Some(peer))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_types::{QosKey, Verdict};
    use std::collections::{HashMap, HashSet};
    use std::sync::mpsc;

    fn request(id: u64) -> QosRequest {
        QosRequest::new(id, QosKey::new("tenant").unwrap())
    }

    /// One client per socket strategy — the paper's socket per request
    /// first, then the reusing client — with the same discipline and fault
    /// plan.
    fn strategies(config: UdpRpcConfig, faults: Arc<FaultPlan>) -> [UdpRpcClient; 2] {
        [
            UdpRpcClient::with_faults(config.clone(), Arc::clone(&faults)),
            UdpRpcClient::reusing(config, faults),
        ]
    }

    /// A trivial echo QoS server: allow even ids, deny odd.
    fn spawn_echo_server(faults: Arc<FaultPlan>) -> SocketAddr {
        let server = UdpServerSocket::bind_with_faults(faults).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut buf = [0u8; RECV_BUF_BYTES];
            while let Ok((req, peer)) = server.recv_request(&mut buf) {
                let verdict = Verdict::from_bool(req.id % 2 == 0);
                let _ = server.send_response(&QosResponse::new(req.id, verdict), peer);
            }
        });
        addr
    }

    /// Run one call against a sink that never answers and capture the
    /// first `n` datagrams it put on the wire.
    fn frames_on_the_wire(client: UdpRpcClient, request: QosRequest, n: usize) -> Vec<Vec<u8>> {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = sink.local_addr().unwrap();
        let call = std::thread::spawn(move || client.call(addr, &request));
        let mut buf = [0u8; RECV_BUF_BYTES];
        let frames = (0..n)
            .map(|_| {
                let (len, _) = sink.recv_from(&mut buf).unwrap();
                buf[..len].to_vec()
            })
            .collect();
        assert!(call.join().unwrap().is_err(), "nothing answered");
        frames
    }

    #[test]
    fn roundtrip_on_clean_network() {
        let addr = spawn_echo_server(FaultPlan::none());
        for client in strategies(UdpRpcConfig::lan_defaults(), FaultPlan::none()) {
            let resp = client.call(addr, &request(4)).unwrap();
            assert_eq!(resp, QosResponse::allow(4));
            let resp = client.call(addr, &request(5)).unwrap();
            assert_eq!(resp, QosResponse::deny(5));
        }
    }

    #[test]
    fn concurrent_calls_demux_correctly() {
        let addr = spawn_echo_server(FaultPlan::none());
        for client in strategies(UdpRpcConfig::lan_defaults(), FaultPlan::none()) {
            let mut handles = Vec::new();
            for id in 0..64u64 {
                let client = client.clone();
                handles.push(std::thread::spawn(move || {
                    let resp = client.call(addr, &request(id)).unwrap();
                    assert_eq!(resp.id, id);
                    assert_eq!(resp.verdict, Verdict::from_bool(id % 2 == 0));
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn reusing_calls_in_flight_are_flows_of_their_own() {
        // A sink that answers only once all 8 calls are waiting on it sees
        // 8 source ports: every call in flight holds a socket of its own,
        // so SO_REUSEPORT can steer them to different per-core workers.
        const CALLS: usize = 8;
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sink.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let addr = sink.local_addr().unwrap();
        let ports = thread::spawn(move || {
            let mut buf = [0u8; RECV_BUF_BYTES];
            let mut waiting = HashMap::new();
            while waiting.len() < CALLS {
                let (len, peer) = sink.recv_from(&mut buf).unwrap();
                if let Ok(Frame::Request(req)) = codec::decode(&buf[..len]) {
                    waiting.insert(req.id, peer);
                }
            }
            for (&id, &peer) in &waiting {
                let wire = codec::encode_response(&QosResponse::allow(id));
                sink.send_to(&wire, peer).unwrap();
            }
            waiting
                .values()
                .map(SocketAddr::port)
                .collect::<HashSet<_>>()
        });
        let config = UdpRpcConfig {
            timeout: Duration::from_secs(10),
            max_retries: 0,
            ..Default::default()
        };
        let client = UdpRpcClient::reusing(config, FaultPlan::none());
        let calls: Vec<_> = (0..CALLS as u64)
            .map(|id| {
                let client = client.clone();
                thread::spawn(move || client.call(addr, &request(id)))
            })
            .collect();
        for (id, call) in calls.into_iter().enumerate() {
            assert_eq!(call.join().unwrap().unwrap(), QosResponse::allow(id as u64));
        }
        assert_eq!(ports.join().unwrap().len(), CALLS, "one flow per call");
        let idle = client.idle.as_ref().unwrap().lock().len();
        assert_eq!(idle, CALLS, "the free list grows to the peak in flight");
    }

    #[test]
    fn a_late_answer_never_answers_the_next_call() {
        // Call A (id 1) times out before the server sends its answer, which
        // then reaches A's socket with no call waiting. Call B (id 2) runs
        // next on the same client and thread, so the reusing client lends
        // it that very socket: B must skip A's stale answer for its own.
        let server = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr().unwrap();
        let (release, released) = mpsc::channel::<()>();
        let (peer_tx, peers) = mpsc::channel();
        thread::spawn(move || {
            let mut buf = [0u8; RECV_BUF_BYTES];
            while let Ok((len, peer)) = server.recv_from(&mut buf) {
                let Ok(Frame::Request(req)) = codec::decode(&buf[..len]) else {
                    continue;
                };
                let answer = if req.id == 1 {
                    // Held until call A has returned its timeout.
                    released.recv().unwrap();
                    QosResponse::deny(1)
                } else {
                    QosResponse::allow(req.id)
                };
                server
                    .send_to(&codec::encode_response(&answer), peer)
                    .unwrap();
                peer_tx.send(peer).unwrap();
            }
        });
        let config = UdpRpcConfig {
            timeout: Duration::from_millis(200),
            max_retries: 0,
            ..Default::default()
        };
        for (client, reuses) in strategies(config, FaultPlan::none())
            .into_iter()
            .zip([false, true])
        {
            let late = client.call(addr, &request(1));
            assert!(
                matches!(late, Err(JanusError::Timeout { attempts: 1 })),
                "{late:?}"
            );
            release.send(()).unwrap();
            assert_eq!(
                client.call(addr, &request(2)).unwrap(),
                QosResponse::allow(2)
            );
            let (a, b) = (peers.recv().unwrap(), peers.recv().unwrap());
            if reuses {
                assert_eq!(a, b, "B ran on A's socket");
            }
        }
    }

    #[test]
    fn each_fate_is_applied_in_one_place() {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let peer = Some(sink.local_addr().unwrap());
        let socket = Arc::new(UdpSocket::bind(("127.0.0.1", 0)).unwrap());
        let oob = OobDelivery::new();
        let wire = || b"frame".to_vec();
        let later = Duration::from_secs(60);
        assert_eq!(oob.apply(Fate::Drop, &socket, wire(), peer), None);
        let started = Instant::now();
        let delayed = oob.apply(
            Fate::Deliver(Duration::from_millis(5)),
            &socket,
            wire(),
            peer,
        );
        assert_eq!(delayed, Some(wire()), "a delayed datagram still leaves now");
        assert!(
            started.elapsed() >= Duration::from_millis(5),
            "slept inline"
        );
        assert_eq!(oob.queued(), 0);
        let duplicated = oob.apply(Fate::Duplicate(later), &socket, wire(), peer);
        assert_eq!(duplicated, Some(wire()), "the first copy leaves now");
        assert_eq!(oob.queued(), 1, "the second copy waits in the queue");
        assert_eq!(oob.apply(Fate::Defer(later), &socket, wire(), peer), None);
        assert_eq!(oob.queued(), 2, "the deferred copy waits too");
    }

    #[test]
    fn dropping_the_oob_queue_stops_its_timer_thread() {
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let peer = Some(sink.local_addr().unwrap());
        let socket = Arc::new(UdpSocket::bind(("127.0.0.1", 0)).unwrap());
        let oob = OobDelivery::new();
        // One copy due in a minute, one in a millisecond. Once the second
        // arrives, the timer thread has sent it and next checks the stop
        // flag only after parking for the first.
        let later = Fate::Defer(Duration::from_secs(60));
        assert_eq!(oob.apply(later, &socket, b"late".to_vec(), peer), None);
        let soon = Fate::Defer(Duration::from_millis(1));
        assert_eq!(oob.apply(soon, &socket, b"soon".to_vec(), peer), None);
        let mut buf = [0u8; 8];
        assert_eq!(sink.recv(&mut buf).unwrap(), 4);
        let shared = Arc::downgrade(&oob.shared);
        drop(oob);
        // The timer thread holds the last reference until it exits.
        let deadline = Instant::now() + Duration::from_secs(5);
        while shared.upgrade().is_some() {
            assert!(Instant::now() < deadline, "timer thread never exited");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn server_response_duplicates_leave_twice() {
        let faults = FaultPlan::none();
        faults.set_duplication(1.0, Duration::from_millis(1));
        let server = UdpServerSocket::bind_with_faults(Arc::clone(&faults)).unwrap();
        let peer = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        server
            .send_response(&QosResponse::allow(3), peer.local_addr().unwrap())
            .unwrap();
        let mut buf = [0u8; RECV_BUF_BYTES];
        for _ in 0..2 {
            let (len, _) = peer.recv_from(&mut buf).unwrap();
            assert_eq!(
                codec::decode(&buf[..len]).unwrap(),
                Frame::Response(QosResponse::allow(3))
            );
        }
        assert_eq!(faults.duplicated(), 1);
    }

    #[test]
    fn retries_recover_from_loss() {
        // Drop 40% of *outgoing* requests with a deterministic seed and
        // verify (almost) every call still succeeds: the expected failure
        // probability is 0.4^6 ≈ 0.4% per call.
        let addr = spawn_echo_server(FaultPlan::none());
        let faults = FaultPlan::new(0.4, 0.0, Duration::ZERO, 12345);
        for client in strategies(UdpRpcConfig::lan_defaults(), Arc::clone(&faults)) {
            let ok = (0..20u64)
                .filter(|id| client.call(addr, &request(id * 2)).is_ok())
                .count();
            assert!(ok >= 18, "only {ok}/20 calls survived 40% loss");
        }
        assert!(faults.dropped() > 0, "fault plan never fired");
    }

    #[test]
    fn total_loss_times_out_with_budget() {
        let addr = spawn_echo_server(FaultPlan::none());
        let config = UdpRpcConfig {
            timeout: Duration::from_millis(1),
            max_retries: 5,
            ..Default::default()
        };
        let faults = FaultPlan::new(1.0, 0.0, Duration::ZERO, 1);
        for client in strategies(config, faults) {
            match client.call(addr, &request(2)).unwrap_err() {
                JanusError::Timeout { attempts } => assert_eq!(attempts, 6),
                other => panic!("expected timeout, got {other}"),
            }
        }
    }

    #[test]
    fn no_server_times_out() {
        // A bound-then-dropped socket: nothing will ever answer.
        let dead = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let config = UdpRpcConfig {
            timeout: Duration::from_millis(1),
            max_retries: 2,
            ..Default::default()
        };
        for client in strategies(config, FaultPlan::none()) {
            let err = client.call(addr, &request(1)).unwrap_err();
            assert!(matches!(
                err,
                JanusError::Timeout { attempts: 3 } | JanusError::Io(_)
            ));
        }
    }

    #[test]
    fn stale_datagrams_do_not_cut_an_attempt_short() {
        // A server that answers every request with garbage first and the
        // real response 2 ms later, well inside the 20 ms attempt
        // timeout: the garbage must be skipped while the attempt waits,
        // not taken as a cue to re-send.
        let server = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = server.local_addr().unwrap();
        let received = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&received);
        std::thread::spawn(move || {
            let mut buf = [0u8; RECV_BUF_BYTES];
            while let Ok((len, peer)) = server.recv_from(&mut buf) {
                counter.fetch_add(1, Ordering::SeqCst);
                let _ = server.send_to(b"not a frame", peer);
                std::thread::sleep(Duration::from_millis(2));
                if let Ok(Frame::Request(req)) = codec::decode(&buf[..len]) {
                    let _ =
                        server.send_to(&codec::encode_response(&QosResponse::allow(req.id)), peer);
                }
            }
        });
        for client in strategies(UdpRpcConfig::lan_defaults(), FaultPlan::none()) {
            received.store(0, Ordering::SeqCst);
            assert_eq!(
                client.call(addr, &request(6)).unwrap(),
                QosResponse::allow(6)
            );
            // Give a wrongly re-sent attempt time to land.
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(received.load(Ordering::SeqCst), 1, "an attempt was re-sent");
        }
    }

    #[test]
    fn server_skips_garbage_datagrams() {
        let server = UdpServerSocket::bind_ephemeral().unwrap();
        let addr = server.local_addr().unwrap();
        let prober = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        prober.send_to(b"not a frame", addr).unwrap();
        prober
            .send_to(&codec::encode_response(&QosResponse::allow(9)), addr)
            .unwrap();
        prober
            .send_to(&codec::encode_request(&request(7)), addr)
            .unwrap();
        let (req, _) = server.recv_request(&mut [0u8; RECV_BUF_BYTES]).unwrap();
        assert_eq!(req.id, 7);
    }

    #[test]
    fn paper_discipline_against_a_silent_server_gives_up_within_five_milliseconds() {
        // The paper's 100 us x (1 + 5 retries) against a server that
        // never answers: 600 us of waiting on paper. A timeout rounded to
        // a scheduler tick would make this 6-24 ms.
        let silent = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = silent.local_addr().unwrap();
        for client in strategies(UdpRpcConfig::default(), FaultPlan::none()) {
            let mut took: Vec<Duration> = (0..20)
                .map(|id| {
                    let started = Instant::now();
                    let err = client.call(addr, &request(id)).unwrap_err();
                    assert!(matches!(err, JanusError::Timeout { attempts: 6 }), "{err}");
                    started.elapsed()
                })
                .collect();
            took.sort();
            let median = took[took.len() / 2];
            assert!(
                median >= Duration::from_micros(600),
                "gave up early: {median:?}"
            );
            assert!(
                median < Duration::from_millis(5),
                "six attempts took {median:?}"
            );
        }
    }

    #[test]
    fn closing_the_server_socket_unblocks_its_receiver() {
        let server = Arc::new(UdpServerSocket::bind_ephemeral().unwrap());
        let receiver = {
            let server = Arc::clone(&server);
            thread::spawn(move || server.recv_request(&mut [0u8; RECV_BUF_BYTES]))
        };
        thread::sleep(Duration::from_millis(20));
        server.close();
        assert!(receiver.join().unwrap().is_err());
        assert!(
            server.recv_request(&mut [0u8; RECV_BUF_BYTES]).is_err(),
            "closed stays closed"
        );
    }

    #[test]
    fn a_hedge_that_never_left_cannot_win() {
        // A slow server answers after the hedge point of a plan that may
        // not hedge (unstamped: there is no nonce to re-present). The
        // answer used to be booked as a hedge win although no duplicate
        // was ever sent — wins could exceed hedges. Schedule-based: the
        // server holds a stamped answer until the hedge copy (same nonce)
        // has arrived, so the stamped plan's hedge always precedes its
        // answer, and it reports every copy it receives, so the plain leg
        // can check that no second copy ever left.
        let server = UdpServerSocket::bind_ephemeral().unwrap();
        let addr = server.local_addr().unwrap();
        let (copies_tx, copies) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let mut buf = [0u8; RECV_BUF_BYTES];
            let mut held = std::collections::HashSet::new();
            while let Ok((req, peer)) = server.recv_request(&mut buf) {
                let _ = copies_tx.send(req.id);
                match req.attempt {
                    // First copy of a stamped attempt: wait for its hedge.
                    Some(meta) if held.insert(meta.nonce) => continue,
                    Some(_) => {}
                    // Unstamped: answer well past the 1 ms hedge point.
                    None => thread::sleep(Duration::from_millis(5)),
                }
                let _ = server.send_response(&QosResponse::allow(req.id), peer);
            }
        });
        let stamping = UdpRpcConfig {
            stamp_deadlines: true,
            ..UdpRpcConfig::lan_defaults()
        };
        let plain = strategies(UdpRpcConfig::lan_defaults(), FaultPlan::none());
        let stamped = strategies(stamping, FaultPlan::none());
        for (client, stamping) in plain.into_iter().zip(stamped) {
            let stats = crate::latency::HedgeStats::new();
            let discipline = WireDiscipline {
                timeout: Some(Duration::from_millis(500)),
                hedge_delay: Some(Duration::from_millis(1)),
                stats: Some(&stats),
                ..Default::default()
            };
            let resp = client.call_disciplined(addr, &request(2), &discipline);
            assert_eq!(resp.unwrap(), QosResponse::allow(2));
            assert_eq!(stats.hedges_sent.load(Ordering::Relaxed), 0);
            assert_eq!(stats.hedge_wins.load(Ordering::Relaxed), 0);

            // A stamped plan does hedge, and the held answer, sent only
            // once the hedge arrived, is then a win.
            let resp = stamping.call_disciplined(addr, &request(4), &discipline);
            assert_eq!(resp.unwrap(), QosResponse::allow(4));
            assert_eq!(stats.hedges_sent.load(Ordering::Relaxed), 1);
            assert_eq!(stats.hedge_wins.load(Ordering::Relaxed), 1);

            // Both calls are over, the stamped one well past the plain
            // call's hedge point: a plain hedge would have arrived by now.
            let received: Vec<u64> = copies.try_iter().collect();
            let plain_copies = received.iter().filter(|&&id| id == 2).count();
            assert_eq!(plain_copies, 1, "the plain plan sent a second copy");
        }
    }

    #[test]
    fn paper_discipline_constants() {
        let d = UdpRpcConfig::default();
        assert_eq!(d.timeout, Duration::from_micros(100));
        assert_eq!(d.max_retries, 5);
        assert_eq!(d.attempts(), 6);
        assert_eq!(d.backoff, RetryBackoff::Fixed);
        // Paper: "In the worst case ... fails after 5 retries, which is
        // 500 microseconds" (counting the retry waits).
        assert_eq!(d.worst_case(), Duration::from_micros(600));
    }

    #[test]
    fn jittered_backoff_stays_within_doubling_windows() {
        let policy = RetryBackoff::ExponentialJitter {
            base: Duration::from_micros(100),
            cap: Duration::from_micros(350),
        };
        assert_eq!(policy.delay_before(0), Duration::ZERO);
        assert_eq!(policy.max_delay_before(1), Duration::from_micros(100));
        assert_eq!(policy.max_delay_before(2), Duration::from_micros(200));
        // Capped from here on: 400 µs would exceed the 350 µs ceiling.
        assert_eq!(policy.max_delay_before(3), Duration::from_micros(350));
        assert_eq!(policy.max_delay_before(9), Duration::from_micros(350));
        for attempt in 1..6 {
            for _ in 0..32 {
                assert!(policy.delay_before(attempt) <= policy.max_delay_before(attempt));
            }
        }
    }

    #[test]
    fn backoff_extends_worst_case() {
        let config = UdpRpcConfig {
            timeout: Duration::from_micros(100),
            max_retries: 2,
            backoff: RetryBackoff::ExponentialJitter {
                base: Duration::from_micros(100),
                cap: Duration::from_micros(1_000),
            },
            ..Default::default()
        };
        // 3 × 100 µs attempts + 100 µs before retry 1 + 200 µs before
        // retry 2.
        assert_eq!(config.worst_case(), Duration::from_micros(600));
    }

    #[test]
    fn jittered_retries_still_recover() {
        let addr = spawn_echo_server(FaultPlan::none());
        let faults = FaultPlan::new(0.4, 0.0, Duration::ZERO, 12345);
        let config = UdpRpcConfig {
            backoff: RetryBackoff::ExponentialJitter {
                base: Duration::from_micros(200),
                cap: Duration::from_millis(2),
            },
            ..UdpRpcConfig::lan_defaults()
        };
        let client = UdpRpcClient::with_faults(config, faults);
        let mut ok = 0;
        for id in 0..20u64 {
            if client.call(addr, &request(id * 2)).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 18, "only {ok}/20 calls survived 40% loss with jitter");
    }

    #[test]
    fn soliciting_request_downgrades_to_plain_frame_on_retry() {
        let config = UdpRpcConfig {
            timeout: Duration::from_millis(1),
            max_retries: 2,
            ..Default::default()
        };
        let soliciting = QosRequest::soliciting_hint(7, QosKey::new("tenant").unwrap());
        for client in strategies(config, FaultPlan::none()) {
            let kinds: Vec<u8> = frames_on_the_wire(client, soliciting.clone(), 3)
                .iter()
                .map(|frame| frame[3])
                .collect();
            // Attempt 0 solicits; every retry is the plain v1 frame an old
            // server understands.
            assert_eq!(
                kinds,
                vec![
                    codec::KIND_REQUEST_HINT,
                    codec::KIND_REQUEST,
                    codec::KIND_REQUEST
                ]
            );
        }
    }

    #[test]
    fn deadline_attempts_downgrade_to_legacy_on_final_try() {
        let config = UdpRpcConfig {
            timeout: Duration::from_millis(20),
            max_retries: 2,
            stamp_deadlines: true,
            ..Default::default()
        };
        // Unstamped, each call draws its own nonce; caller-stamped, both
        // strategies must put the caller's nonce on the wire.
        let pinned = request(9).with_attempt(janus_types::AttemptMeta::new(60_000, 0xC0FFEE));
        for req in [request(9), pinned] {
            for client in strategies(config.clone(), FaultPlan::none()) {
                let frames = frames_on_the_wire(client, req.clone(), 3);
                let kinds: Vec<u8> = frames.iter().map(|f| f[3]).collect();
                // Every attempt but the last carries the deadline; the
                // final attempt is the legacy frame an old server still
                // understands.
                assert_eq!(
                    kinds,
                    vec![
                        codec::KIND_REQUEST_DEADLINE,
                        codec::KIND_REQUEST_DEADLINE,
                        codec::KIND_REQUEST
                    ]
                );
                let decoded: Vec<QosRequest> = frames
                    .iter()
                    .map(|f| match codec::decode(f).unwrap() {
                        Frame::Request(r) => r,
                        other => panic!("expected request, got {other:?}"),
                    })
                    .collect();
                let first = decoded[0].attempt.expect("attempt 0 stamped");
                let second = decoded[1].attempt.expect("attempt 1 stamped");
                assert_eq!(first.nonce, second.nonce, "nonce is per logical request");
                if let Some(meta) = req.attempt {
                    assert_eq!(first.nonce, meta.nonce, "the caller's nonce is kept");
                    assert!(first.budget_us <= meta.budget_us);
                }
                assert!(
                    second.budget_us <= first.budget_us,
                    "budget must shrink as the deadline approaches: {} -> {}",
                    first.budget_us,
                    second.budget_us
                );
                assert_eq!(decoded[2].attempt, None, "legacy fallback strips the stamp");
                for r in &decoded {
                    assert_eq!(r.id, 9, "the request id is stable across attempts");
                }
            }
        }
    }

    #[test]
    fn duplication_injection_delivers_two_copies() {
        let config = UdpRpcConfig {
            timeout: Duration::from_millis(5),
            max_retries: 0,
            ..Default::default()
        };
        let faults = FaultPlan::none();
        faults.set_duplication(1.0, Duration::ZERO);
        for client in strategies(config, Arc::clone(&faults)) {
            let seen = frames_on_the_wire(client, request(3), 2);
            assert_eq!(seen[0], seen[1], "the duplicate is byte-identical");
        }
        assert_eq!(faults.duplicated(), 2);
    }

    #[test]
    fn reordering_injection_inverts_arrival_order() {
        // Two datagrams through a plan that defers the *first* roll only:
        // seed chosen so roll 1 lands in the reorder slice and roll 2
        // does not, making the second datagram overtake the first.
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = sink.local_addr().unwrap();
        let faults = FaultPlan::none();
        faults.set_reordering(0.5, Duration::from_millis(30));
        let socket = Arc::new(UdpSocket::bind(("127.0.0.1", 0)).unwrap());
        socket.connect(addr).unwrap();
        let client = UdpRpcClient::with_faults(UdpRpcConfig::lan_defaults(), faults.clone());
        // Send until a datagram delivers inline *after* an earlier one
        // deferred: the inline one overtakes it (drop/delay/dup are all
        // zero, so "reordered count unchanged" means inline delivery).
        let mut sent = 0u64;
        loop {
            let before = faults.reordered();
            client
                .transmit(&socket, codec::encode_request(&request(sent)))
                .unwrap();
            sent += 1;
            let was_deferred = faults.reordered() > before;
            if !was_deferred && faults.reordered() > 0 {
                break;
            }
        }
        let mut ids = Vec::new();
        let mut buf = [0u8; RECV_BUF_BYTES];
        for _ in 0..sent {
            let (len, _) = sink.recv_from(&mut buf).unwrap();
            match codec::decode(&buf[..len]).unwrap() {
                Frame::Request(r) => ids.push(r.id),
                other => panic!("expected request, got {other:?}"),
            }
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..sent).collect::<Vec<_>>(), "nothing was lost");
        assert_ne!(ids, sorted, "deferred datagrams must arrive out of order");
    }

    #[test]
    fn soliciting_check_receives_hint_from_aware_server() {
        use janus_types::{Credits, RefillRate, RuleHint};
        let server = UdpServerSocket::bind_ephemeral().unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut buf = [0u8; RECV_BUF_BYTES];
            while let Ok((req, peer)) = server.recv_request(&mut buf) {
                let mut resp = QosResponse::allow(req.id);
                if req.solicit_hint {
                    resp = resp.with_hint(RuleHint::new(
                        Credits::from_whole(10),
                        RefillRate::per_second(5),
                    ));
                }
                let _ = server.send_response(&resp, peer);
            }
        });
        let key = QosKey::new("ab").unwrap();
        for client in strategies(UdpRpcConfig::lan_defaults(), FaultPlan::none()) {
            let plain = client.call(addr, &QosRequest::new(1, key.clone())).unwrap();
            assert_eq!(plain.hint, None);
            let soliciting = QosRequest::soliciting_hint(2, key.clone());
            let hint = client.call(addr, &soliciting).unwrap().hint;
            let hint = hint.expect("hint solicited but absent");
            assert_eq!(hint.capacity, Credits::from_whole(10));
            assert_eq!(hint.refill_rate, RefillRate::per_second(5));
        }
    }

    #[test]
    fn late_responses_are_dropped_not_misdelivered() {
        // A slow server answers after the caller timed out: the call
        // still ends in a timeout (`a_late_answer_never_answers_the_next_call`
        // runs the next call).
        let server = UdpServerSocket::bind_ephemeral().unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut buf = [0u8; RECV_BUF_BYTES];
            while let Ok((req, peer)) = server.recv_request(&mut buf) {
                std::thread::sleep(Duration::from_millis(20));
                // Always answer Deny (the stale answer).
                let _ = server.send_response(&QosResponse::deny(req.id), peer);
            }
        });
        let config = UdpRpcConfig {
            timeout: Duration::from_millis(2),
            max_retries: 0,
            ..Default::default()
        };
        for client in strategies(config, FaultPlan::none()) {
            assert!(client.call(addr, &request(1)).is_err());
        }
    }
}
