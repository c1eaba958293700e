//! Kernel-path parity: the per-core socket plane must be observationally
//! identical to the paper-faithful single-listener plane.
//!
//! The per-core plane's `SO_REUSEPORT` flow steering and
//! `recvmmsg`/`sendmmsg` change *how* datagrams cross the kernel
//! boundary, never *what* the server decides:
//! the same request stream must produce the same verdict stream, the
//! same credit accounting, and the same duplicate absorption under
//! every [`SocketMode`]. These tests pin that equivalence end to end —
//! the byte-level recv/send parity of the mmsg module itself is pinned
//! by its unit tests in `janus_net::mmsg`.

use janus_net::fault::FaultPlan;
use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
use janus_server::{QosServer, QosServerConfig, SocketMode, TableKind};
use janus_types::{QosKey, QosRequest, QosRule, Verdict};
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
