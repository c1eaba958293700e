//! Retry idempotency: one logical request consumes at most one credit,
//! no matter how the network duplicates or reorders its datagrams.
//!
//! The property under test is the ISSUE-5 credit-exactness invariant:
//! with deadline stamping on (so every attempt carries the logical
//! request's nonce) and the server's dedup window enabled, draining a
//! zero-refill bucket with more logical requests than it has credits
//! admits *exactly* `capacity` of them — duplication and reordering on
//! the request path must be absorbed, never double-charged.

use janus_hash::rng::Rng;
use janus_net::fault::FaultPlan;
use janus_net::udp::{UdpRpcClient, UdpRpcConfig};
use janus_server::{QosServer, QosServerConfig, TableKind};
use janus_types::{QosKey, QosRequest, QosRule, Verdict};
use std::sync::Arc;
use std::time::Duration;

/// Burst capacity of the zero-refill key every case drains.
const CAPACITY: u64 = 20;
/// Logical requests issued per case — twice the capacity, so exactness
/// is observable from both sides (all credits spent, none minted).
const LOGICAL_REQUESTS: u64 = 40;

/// Spawn a listener-plane server (lock-free table, dedup window on by
/// default), drain one capacity-`CAPACITY` key with
/// `LOGICAL_REQUESTS` sequential calls through a duplicating +
/// reordering fault plan, and report what happened.
fn drain_key_under_faults(
    seed: u64,
    duplicate_prob: f64,
    reorder_prob: f64,
) -> (u64, u64, u64, u64) {
    let mut config = QosServerConfig::test_defaults();
    config.table = TableKind::LockFree;
    let server = QosServer::spawn(config, None, janus_clock::system()).unwrap();
    let key = QosKey::new("idem").unwrap();
    server.table().insert(
        QosRule::per_second(key.clone(), CAPACITY, 0),
        server.clock().now(),
    );

    // No drops: every logical request must complete, so a missing
    // admission can only mean a lost credit and an extra admission can
    // only mean a double charge.
    let faults = FaultPlan::new(0.0, 0.0, Duration::ZERO, seed);
    faults.set_duplication(duplicate_prob, Duration::from_micros(200));
    faults.set_reordering(reorder_prob, Duration::from_micros(300));
    let rpc = UdpRpcConfig {
        stamp_deadlines: true,
        ..UdpRpcConfig::lan_defaults()
    };
    let client = UdpRpcClient::with_faults(rpc, Arc::clone(&faults));

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

/// Four seeded cases (seed, duplication and reordering probabilities
/// drawn from 0.3..0.8 and 0.0..0.5).
#[test]
fn one_logical_request_never_consumes_two_credits() {
    let mut rng = Rng::seed_from_u64(0x1DE7_907E);
    for _ in 0..4 {
        let seed = rng.next_u64();
        let duplicate_prob = 0.3 + 0.5 * rng.gen_f64();
        let reorder_prob = 0.5 * rng.gen_f64();
        let (allowed, errors, duplicated, dedup_hits) =
            drain_key_under_faults(seed, duplicate_prob, reorder_prob);
        assert_eq!(errors, 0, "calls timed out without drops (seed {seed})");
        assert_eq!(
            allowed, CAPACITY,
            "credit exactness violated under dup/reorder: {allowed} admissions from \
             a {CAPACITY}-credit bucket (seed {seed})"
        );
        assert!(
            duplicated > 0,
            "duplication never fired (seed {seed}, p {duplicate_prob})"
        );
        assert!(
            dedup_hits > 0,
            "no duplicate ever reached the dedup window (seed {seed})"
        );
    }
}
