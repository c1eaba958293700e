//! Tests of the pooled admission RPC: a [`UdpRpcClient::reusing`] client
//! lending its idle connected sockets to many in-flight exchanges. The
//! strategy itself lives in [`crate::udp`]; the tests in that module run
//! over both socket strategies, these pin the pooled one under heavier
//! concurrency and the old ablation's fault settings.

mod tests {
    use crate::fault::FaultPlan;
    use crate::udp::{UdpRpcClient, UdpRpcConfig, UdpServerSocket, RECV_BUF_BYTES};
    use janus_types::codec;
    use janus_types::{JanusError, QosKey, QosRequest, QosResponse, Verdict};
    use std::net::{SocketAddr, UdpSocket};
    use std::time::Duration;

    fn check(id: u64, key: &str) -> QosRequest {
        QosRequest::new(id, QosKey::new(key).unwrap())
    }

    fn pool(config: UdpRpcConfig) -> UdpRpcClient {
        UdpRpcClient::reusing(config, FaultPlan::none())
    }

    /// Echo server: allow iff the key length is even.
    fn spawn_echo() -> SocketAddr {
        let server = UdpServerSocket::bind_ephemeral().unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut buf = [0u8; RECV_BUF_BYTES];
            while let Ok((req, peer)) = server.recv_request(&mut buf) {
                let verdict = Verdict::from_bool(req.key.len() % 2 == 0);
                let _ = server.send_response(&QosResponse::new(req.id, verdict), peer);
            }
        });
        addr
    }

    #[test]
    fn roundtrip() {
        let server = spawn_echo();
        let pool = pool(UdpRpcConfig::lan_defaults());
        assert_eq!(
            pool.call(server, &check(1, "ab")).unwrap().verdict,
            Verdict::Allow
        );
        assert_eq!(
            pool.call(server, &check(2, "abc")).unwrap().verdict,
            Verdict::Deny
        );
    }

    #[test]
    fn concurrent_exchanges_demux_correctly() {
        let server = spawn_echo();
        let pool = pool(UdpRpcConfig::lan_defaults());
        let mut handles = Vec::new();
        for i in 0..128usize {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let req = check(i as u64, &"x".repeat(1 + i % 7));
                let resp = pool.call(server, &req).unwrap();
                assert_eq!(resp.id, req.id);
                assert_eq!(
                    resp.verdict,
                    Verdict::from_bool(req.key.len() % 2 == 0),
                    "{}",
                    req.key
                );
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn total_loss_times_out_and_cleans_up() {
        let server = spawn_echo();
        let pool = UdpRpcClient::reusing(
            UdpRpcConfig {
                timeout: Duration::from_millis(1),
                max_retries: 2,
                ..Default::default()
            },
            FaultPlan::new(1.0, 0.0, Duration::ZERO, 5),
        );
        let err = pool.call(server, &check(1, "ab")).unwrap_err();
        assert!(matches!(err, JanusError::Timeout { attempts: 3 }), "{err}");
    }

    #[test]
    fn retries_recover_from_partial_loss() {
        let server = spawn_echo();
        let pool = UdpRpcClient::reusing(
            UdpRpcConfig::lan_defaults(),
            FaultPlan::new(0.4, 0.0, Duration::ZERO, 777),
        );
        let ok = (0..20u64)
            .filter(|&id| pool.call(server, &check(id, "ab")).is_ok())
            .count();
        assert!(ok >= 18, "only {ok}/20 under 40% loss");
    }

    #[test]
    fn pooled_deadline_attempts_downgrade_to_legacy_on_final_try() {
        // Unanswered sink: inspect every attempt's frame kind. Each
        // attempt is one datagram carrying one frame.
        let sink = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = sink.local_addr().unwrap();
        let pool = pool(UdpRpcConfig {
            timeout: Duration::from_millis(20),
            max_retries: 2,
            stamp_deadlines: true,
            ..Default::default()
        });
        let call = std::thread::spawn(move || pool.call(addr, &check(1, "ab")));
        let mut kinds = Vec::new();
        let mut buf = [0u8; RECV_BUF_BYTES];
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
}
