//! Plane parity: the per-core socket plane must be observationally
//! identical to the paper-faithful single-listener plane.
//!
//! The per-core plane's `SO_REUSEPORT` flow steering and inline
//! decisions change *which thread* receives, decides and answers a
//! datagram, never *what* the server decides: the same request stream
//! must produce the same verdict stream, the same credit accounting, the
//! same duplicate absorption and the same indifference to malformed
//! datagrams under every [`SocketMode`]. Both planes move one frame per
//! datagram; these tests pin the equivalence end to end.

use janus_net::fault::FaultPlan;
use janus_net::udp::{UdpRpcClient, UdpRpcConfig, RECV_BUF_BYTES};
use janus_server::{QosServer, QosServerConfig, SocketMode, TableKind};
use janus_types::codec::{self, Frame};
use janus_types::{QosKey, QosRequest, QosResponse, QosRule, Verdict};
use std::io::ErrorKind;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

/// Burst capacity of the zero-refill key every case drains.
const CAPACITY: u64 = 20;
/// Logical requests per case — twice the capacity, so exactness is
/// observable from both sides (all credits spent, none minted).
const LOGICAL_REQUESTS: u64 = 40;

/// The socket modes this platform can actually run.
fn socket_modes() -> Vec<SocketMode> {
    let mut modes = vec![SocketMode::SingleListener];
    if cfg!(target_os = "linux") {
        modes.push(SocketMode::PerCore);
    }
    modes
}

fn spawn_server(socket_mode: SocketMode) -> QosServer {
    let mut config = QosServerConfig::test_defaults();
    config.socket_mode = socket_mode;
    config.table = TableKind::LockFree;
    let server = QosServer::spawn(config, None, janus_clock::system()).unwrap();
    let key = QosKey::new("parity").unwrap();
    server
        .table()
        .insert(QosRule::per_second(key, CAPACITY, 0), server.clock().now());
    server
}

/// Drain the key with a clean sequential client and return the exact
/// verdict sequence.
fn verdict_sequence(socket_mode: SocketMode) -> Vec<Verdict> {
    let server = spawn_server(socket_mode);
    let client = UdpRpcClient::new(UdpRpcConfig::lan_defaults());
    let key = QosKey::new("parity").unwrap();
    let mut verdicts = Vec::with_capacity(LOGICAL_REQUESTS as usize);
    for id in 0..LOGICAL_REQUESTS {
        let response = client
            .call(server.udp_addr(), &QosRequest::new(id, key.clone()))
            .unwrap();
        verdicts.push(response.verdict);
    }
    verdicts
}

/// The same sequential request stream must produce byte-for-byte the
/// same verdict stream no matter how datagrams cross the kernel.
#[test]
fn verdict_sequence_is_identical_across_socket_modes() {
    let reference = verdict_sequence(SocketMode::SingleListener);
    assert_eq!(
        reference.iter().filter(|v| **v == Verdict::Allow).count() as u64,
        CAPACITY,
        "the single-listener baseline itself must admit exactly the capacity"
    );
    for mode in socket_modes() {
        if mode == SocketMode::SingleListener {
            continue;
        }
        let verdicts = verdict_sequence(mode);
        assert_eq!(
            verdicts, reference,
            "verdict stream diverged under {mode:?}"
        );
    }
}

/// Drain the key through a duplicating + reordering client fault plan
/// (no drops — every logical request must complete) and report
/// `(allowed, errors, duplicated, dedup_hits)`.
fn drain_under_faults(socket_mode: SocketMode, seed: u64) -> (u64, u64, u64, u64) {
    let server = spawn_server(socket_mode);
    let faults = FaultPlan::new(0.0, 0.0, Duration::ZERO, seed);
    faults.set_duplication(0.5, Duration::from_micros(200));
    faults.set_reordering(0.3, Duration::from_micros(300));
    let rpc = UdpRpcConfig {
        stamp_deadlines: true,
        ..UdpRpcConfig::lan_defaults()
    };
    let client = UdpRpcClient::with_faults(rpc, Arc::clone(&faults));
    let key = QosKey::new("parity").unwrap();
    let mut allowed = 0u64;
    let mut errors = 0u64;
    for id in 0..LOGICAL_REQUESTS {
        match client.call(server.udp_addr(), &QosRequest::new(id, key.clone())) {
            Ok(response) => {
                if response.verdict == Verdict::Allow {
                    allowed += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    // Let straggling delayed duplicates land before reading the stats.
    std::thread::sleep(Duration::from_millis(25));
    let snapshot = server.stats().snapshot();
    (allowed, errors, faults.duplicated(), snapshot.dedup_hits)
}

/// The credit-exactness invariant must hold under every socket mode
/// with request-path duplication and reordering active: exactly `CAPACITY` admissions, duplicates absorbed by the
/// dedup window, never double-charged.
#[test]
fn credit_accounting_is_exact_under_every_socket_mode() {
    for mode in socket_modes() {
        let (allowed, errors, duplicated, dedup_hits) = drain_under_faults(mode, 0x6a6e_7573);
        assert_eq!(errors, 0, "calls timed out without drops ({mode:?})");
        assert_eq!(
            allowed, CAPACITY,
            "credit exactness violated: {allowed} admissions from a \
             {CAPACITY}-credit bucket ({mode:?})"
        );
        assert!(duplicated > 0, "duplication never fired ({mode:?})");
        assert!(
            dedup_hits > 0,
            "no duplicate ever reached the dedup window ({mode:?})"
        );
    }
}

/// The per-core plane re-runs the idempotency harness across
/// several seeds: one logical request never consumes two credits, no
/// matter how its datagrams are duplicated or reordered. Linux-only by
/// construction (SO_REUSEPORT flow steering).
#[cfg(target_os = "linux")]
#[test]
fn per_core_plane_preserves_retry_idempotency() {
    for seed in [1u64, 0xdead_beef, 0x2018_0615] {
        let (allowed, errors, duplicated, dedup_hits) =
            drain_under_faults(SocketMode::PerCore, seed);
        assert_eq!(errors, 0, "seed {seed}: calls timed out without drops");
        assert_eq!(allowed, CAPACITY, "seed {seed}: credit exactness violated");
        assert!(duplicated > 0, "seed {seed}: duplication never fired");
        assert!(dedup_hits > 0, "seed {seed}: dedup window never consulted");
    }
}

/// A datagram in the retired batch format (kind 0x03) holding two
/// well-formed requests for the drained key: header, item count, then
/// each item's kind byte and payload. Built by hand, as no encoder
/// emits it any more.
fn former_batch_datagram(key: &QosKey) -> Vec<u8> {
    let mut wire = vec![0x4A, 0x51, 0x01, 0x03, 0x00, 0x02];
    for id in [900, 901] {
        wire.extend_from_slice(&codec::encode_request(&QosRequest::new(id, key.clone()))[3..]);
    }
    wire
}

/// Malformed datagrams reach each plane from one client socket: a former
/// batch datagram, a truncated request, a response frame and an empty
/// datagram. The plane must answer none of them and charge nothing, and
/// the worker that received them must answer the next well-formed
/// request from that socket.
#[test]
fn hostile_datagrams_are_answered_by_neither_plane() {
    for mode in socket_modes() {
        let server = spawn_server(mode);
        let key = QosKey::new("parity").unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut truncated = codec::encode_request(&QosRequest::new(902, key.clone()));
        truncated.pop();
        let hostile = [
            former_batch_datagram(&key),
            truncated,
            codec::encode_response(&QosResponse::allow(903)),
            Vec::new(),
        ];
        for datagram in &hostile {
            socket.send_to(datagram, server.udp_addr()).unwrap();
        }
        let well_formed = codec::encode_request(&QosRequest::new(1, key.clone()));
        socket.send_to(&well_formed, server.udp_addr()).unwrap();

        // One receiving thread per flow: anything answered for the
        // hostile datagrams would arrive before this response.
        let mut buf = [0u8; RECV_BUF_BYTES];
        let (len, _) = socket
            .recv_from(&mut buf)
            .expect("well-formed request answered");
        assert_eq!(
            codec::decode(&buf[..len]).unwrap(),
            Frame::Response(QosResponse::allow(1)),
            "{mode:?}: the first answer must be the well-formed request's"
        );
        socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let err = socket.recv_from(&mut buf).unwrap_err();
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{mode:?}: a hostile datagram was answered"
        );
        let snapshot = server.stats().snapshot();
        assert_eq!(snapshot.answered, 1, "{mode:?}: {snapshot:?}");
        assert_eq!(snapshot.dedup_hits, 0, "{mode:?}");
        assert_eq!(snapshot.shed_total(), 0, "{mode:?}");

        // Credit exactness: the one admitted request above plus the rest
        // of the capacity, and nothing more.
        let client = UdpRpcClient::new(UdpRpcConfig::lan_defaults());
        let allowed = (2..=LOGICAL_REQUESTS)
            .filter(|&id| {
                let response = client
                    .call(server.udp_addr(), &QosRequest::new(id, key.clone()))
                    .unwrap();
                response.verdict == Verdict::Allow
            })
            .count() as u64;
        assert_eq!(
            allowed,
            CAPACITY - 1,
            "{mode:?}: a hostile datagram charged the bucket"
        );
    }
}

/// Many calls in flight at once on one reusing client — each call on a
/// socket of its own, so on the per-core plane they spread over the
/// workers and race on one key. Every call must get its own response
/// datagram, and the key must admit exactly its capacity.
#[test]
fn shared_socket_calls_in_flight_get_one_response_each() {
    const THREADS: u64 = 16;
    const CALLS: u64 = 25;
    for mode in socket_modes() {
        let server = spawn_server(mode);
        let addr = server.udp_addr();
        let rpc = UdpRpcConfig {
            // Retries carry the attempt nonce, so a retried call that was
            // already decided is answered from the dedup window, never
            // charged twice.
            stamp_deadlines: true,
            timeout: Duration::from_millis(100),
            ..UdpRpcConfig::lan_defaults()
        };
        let client = UdpRpcClient::reusing(rpc, FaultPlan::none());
        let callers: Vec<_> = (0..THREADS)
            .map(|thread| {
                let client = client.clone();
                std::thread::spawn(move || {
                    let key = QosKey::new("parity").unwrap();
                    let mut allowed = 0u64;
                    for call in 0..CALLS {
                        let id = thread * 1_000 + call;
                        let response = client.call(addr, &QosRequest::new(id, key.clone()));
                        let response = response.unwrap_or_else(|e| panic!("call {id}: {e}"));
                        assert_eq!(response.id, id, "a call got another call's response");
                        allowed += u64::from(response.verdict == Verdict::Allow);
                    }
                    allowed
                })
            })
            .collect();
        let allowed: u64 = callers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(allowed, CAPACITY, "{mode:?}: credit exactness violated");
    }
}
