//! The per-core plane under response-path fault injection.
//!
//! Deferred and duplicated response datagrams leave through one
//! out-of-band delivery queue with one timer thread, like every other
//! transport — not one OS thread per late datagram. This is its own test
//! binary because it reads the process-wide thread count, which other
//! tests running in the same process would disturb.

#![cfg(target_os = "linux")]

use janus_bucket::DefaultRulePolicy;
use janus_net::fault::FaultPlan;
use janus_net::udp::RECV_BUF_BYTES;
use janus_server::{QosServer, QosServerConfig, SocketMode, TableKind};
use janus_types::codec::{self, Frame};
use janus_types::{QosKey, QosRequest};
use std::collections::HashSet;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Threads in this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn deferred_responses_share_one_delivery_thread() {
    const REQUESTS: u64 = 100;
    let faults = FaultPlan::none();
    faults.set_reordering(1.0, Duration::from_millis(200));
    let mut config = QosServerConfig::test_defaults();
    config.socket_mode = SocketMode::PerCore;
    config.table = TableKind::LockFree;
    config.default_policy = DefaultRulePolicy::AllowAll;
    let server =
        QosServer::spawn_with_faults(config, None, janus_clock::system(), faults.clone()).unwrap();

    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let key = QosKey::new("deferred").unwrap();
    let before = threads();
    for id in 0..REQUESTS {
        let request = codec::encode_request(&QosRequest::new(id, key.clone()));
        socket.send_to(&request, server.udp_addr()).unwrap();
    }

    // Every response is due 200 ms after its decision: watch the thread
    // count while they are all still pending.
    let mut peak = before;
    let watch_until = Instant::now() + Duration::from_millis(150);
    while Instant::now() < watch_until {
        peak = peak.max(threads());
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut answered = HashSet::new();
    let mut buf = vec![0u8; RECV_BUF_BYTES];
    while (answered.len() as u64) < REQUESTS {
        let (len, _) = socket.recv_from(&mut buf).expect("a deferred response");
        if let Frame::Response(response) = codec::decode(&buf[..len]).unwrap() {
            answered.insert(response.id);
        }
    }
    assert!(faults.reordered() > 0, "no response was deferred");
    assert!(
        peak <= before + 2,
        "{peak} threads while responses were pending, {before} before"
    );
}
