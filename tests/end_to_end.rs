//! End-to-end integration tests: full four-layer deployments on loopback.

use janus_core::{
    DefaultRulePolicy, Deployment, DeploymentConfig, LbMode, LbPolicy, QosKey, QosRule,
    QosServerConfig, Verdict,
};
use janus_hash::routing::{ModuloRouter, Router};
use std::time::Duration;

fn key(s: &str) -> QosKey {
    QosKey::new(s).unwrap()
}

fn rules(specs: &[(&str, u64, u64)]) -> Vec<QosRule> {
    specs
        .iter()
        .map(|(k, cap, rate)| QosRule::per_second(key(k), *cap, *rate))
        .collect()
}

#[test]
fn admission_is_exact_across_the_full_stack() {
    // 3 QoS servers, 2 routers, gateway LB: a tenant with 25 credits and
    // no refill gets exactly 25 admissions no matter how requests spread
    // over routers.
    let config = DeploymentConfig {
        qos_servers: 3,
        routers: 2,
        rules: rules(&[("alice", 25, 0)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    let mut admitted = 0;
    for _ in 0..60 {
        if client.qos_check(&key("alice")).unwrap() {
            admitted += 1;
        }
    }
    assert_eq!(admitted, 25);
}

#[test]
fn pooled_stack_is_still_exact() {
    // The pooled data plane end to end: reusing router clients in front
    // of the QoS servers' listener + FIFO. Credit accounting must stay
    // exact — many calls in flight on one client, their sockets reused
    // call after call, must never duplicate, drop, or cross-credit
    // admission decisions.
    let config = DeploymentConfig {
        qos_servers: 2,
        routers: 2,
        pooled_rpc: true,
        rules: rules(&[("alice", 25, 0)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = std::sync::Arc::new(Deployment::launch(config).unwrap());
    // Concurrent clients so many calls share each router's client.
    let mut handles = Vec::new();
    for _ in 0..6 {
        let deployment = std::sync::Arc::clone(&deployment);
        handles.push(std::thread::spawn(move || {
            let mut client = deployment.client().unwrap();
            let mut admitted = 0u32;
            for _ in 0..10 {
                if client.qos_check(&key("alice")).unwrap() {
                    admitted += 1;
                }
            }
            admitted
        }));
    }
    let mut admitted = 0;
    for handle in handles {
        admitted += handle.join().unwrap();
    }
    assert_eq!(admitted, 25, "pooled plane must conserve credit exactly");
}

#[test]
fn lock_free_stack_is_still_exact() {
    // Same optimized plane with the lock-free table swapped in: the CAS
    // loop must conserve credit exactly through routers, reused sockets
    // and concurrent clients, matching the sharded table bit for bit.
    let mut server = QosServerConfig::test_defaults();
    server.table = janus_core::TableKind::LockFree;
    let config = DeploymentConfig {
        qos_servers: 2,
        routers: 2,
        pooled_rpc: true,
        server,
        rules: rules(&[("alice", 25, 0)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = std::sync::Arc::new(Deployment::launch(config).unwrap());
    let mut handles = Vec::new();
    for _ in 0..6 {
        let deployment = std::sync::Arc::clone(&deployment);
        handles.push(std::thread::spawn(move || {
            let mut client = deployment.client().unwrap();
            let mut admitted = 0u32;
            for _ in 0..10 {
                if client.qos_check(&key("alice")).unwrap() {
                    admitted += 1;
                }
            }
            admitted
        }));
    }
    let mut admitted = 0;
    for handle in handles {
        admitted += handle.join().unwrap();
    }
    assert_eq!(admitted, 25, "lock-free plane must conserve credit exactly");
}

#[test]
fn tenants_are_isolated() {
    // Draining one tenant's bucket must not affect another, even when
    // both land on the same QoS partition.
    let config = DeploymentConfig {
        rules: rules(&[("hog", 5, 0), ("polite", 5, 0)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    for _ in 0..20 {
        client.qos_check(&key("hog")).unwrap();
    }
    let mut polite_admitted = 0;
    for _ in 0..5 {
        if client.qos_check(&key("polite")).unwrap() {
            polite_admitted += 1;
        }
    }
    assert_eq!(polite_admitted, 5);
}

#[test]
fn burst_credit_accumulates_while_idle() {
    // Rate 50/s, capacity 20: after ~400 ms idle the bucket is full and a
    // burst of 20 back-to-back requests is admitted (paper §II-C).
    let config = DeploymentConfig {
        rules: rules(&[("bursty", 20, 50)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    std::thread::sleep(Duration::from_millis(500));
    let mut admitted = 0;
    for _ in 0..20 {
        if client.qos_check(&key("bursty")).unwrap() {
            admitted += 1;
        }
    }
    assert!(
        admitted >= 19,
        "burst admitted only {admitted}/20 after idle refill"
    );
}

#[test]
fn default_policy_governs_unknown_keys() {
    let mut server = QosServerConfig::test_defaults();
    server.default_policy = DefaultRulePolicy::Limited {
        capacity: 4,
        rate_per_sec: 0,
    };
    let config = DeploymentConfig {
        server,
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    let mut admitted = 0;
    for _ in 0..10 {
        if client.qos_check(&key("guest-visitor")).unwrap() {
            admitted += 1;
        }
    }
    assert_eq!(admitted, 4, "guest policy should cap at 4");
}

#[test]
fn partitioning_matches_crc32_mod_n() {
    // The deployment must route each key to the partition the reference
    // hash predicts: drain a key's bucket, then verify the predicted
    // partition's master holds the (empty) bucket.
    let config = DeploymentConfig {
        qos_servers: 3,
        routers: 1,
        rules: rules(&[("pinpoint", 2, 0)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    client.qos_check(&key("pinpoint")).unwrap();

    let predicted = ModuloRouter::new(3).route(&key("pinpoint"));
    let master = deployment.qos_master(predicted).unwrap();
    let snapshot = master.table().snapshot(master.clock().now());
    assert!(
        snapshot.iter().any(|r| r.key.as_str() == "pinpoint"),
        "bucket not on predicted partition {predicted}"
    );
    // And on no other partition.
    for other in (0..3).filter(|&i| i != predicted) {
        let table = deployment.qos_master(other).unwrap().table();
        assert!(
            !table.keys().iter().any(|k| k.as_str() == "pinpoint"),
            "bucket leaked to partition {other}"
        );
    }
}

#[test]
fn dns_lb_mode_sticks_then_respreads() {
    let config = DeploymentConfig {
        routers: 2,
        lb: LbMode::Dns {
            ttl: Duration::from_secs(3600),
        },
        server: {
            let mut s = QosServerConfig::test_defaults();
            s.default_policy = DefaultRulePolicy::AllowAll;
            s
        },
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    // One client host: all its requests pin to one router within the TTL.
    let mut client = deployment.client().unwrap();
    for _ in 0..10 {
        assert!(client.qos_check(&key("anyone")).unwrap());
    }
    let counts = deployment.router_served_counts();
    assert!(
        counts.contains(&10) && counts.contains(&0),
        "expected full stickiness within TTL, got {counts:?}"
    );
    // A second client host gets the rotated answer: the other router.
    let mut second = deployment.client().unwrap();
    assert!(second.qos_check(&key("anyone")).unwrap());
    let counts_after = deployment.router_served_counts();
    assert!(
        counts_after.iter().all(|&c| c > 0),
        "second host should land on the idle router: {counts_after:?}"
    );
}

#[test]
fn gateway_least_connections_mode_works() {
    let config = DeploymentConfig {
        lb: LbMode::Gateway(LbPolicy::LeastConnections),
        rules: rules(&[("lc", 100, 0)]),
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    let mut admitted = 0;
    for _ in 0..100 {
        if client.qos_check(&key("lc")).unwrap() {
            admitted += 1;
        }
    }
    assert_eq!(admitted, 100);
}

#[test]
fn rule_update_takes_effect_via_sync() {
    // Shrink a tenant's rate at runtime; the QoS server's sync thread
    // must pick it up within a few intervals.
    let mut server = QosServerConfig::test_defaults();
    server.sync_interval = Duration::from_millis(50);
    let config = DeploymentConfig {
        qos_servers: 1,
        routers: 1,
        server,
        rules: rules(&[("mutable", 1_000_000, 1_000_000)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    assert!(client.qos_check(&key("mutable")).unwrap());

    // Replace with a deny-everything rule.
    deployment
        .upsert_rule(&QosRule::deny(key("mutable")))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if !client.qos_check(&key("mutable")).unwrap() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "rule update never took effect"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn concurrent_clients_share_quota_exactly() {
    let config = DeploymentConfig {
        rules: rules(&[("pool", 60, 0)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = std::sync::Arc::new(Deployment::launch(config).unwrap());
    let mut handles = Vec::new();
    for _ in 0..6 {
        let deployment = std::sync::Arc::clone(&deployment);
        handles.push(std::thread::spawn(move || {
            let mut client = deployment.client().unwrap();
            let mut admitted = 0u32;
            for _ in 0..20 {
                if client.qos_check(&key("pool")).unwrap() {
                    admitted += 1;
                }
            }
            admitted
        }));
    }
    let mut total = 0;
    for handle in handles {
        total += handle.join().unwrap();
    }
    assert_eq!(total, 60, "shared quota must be conserved exactly");
}

#[test]
fn router_fleet_scales_at_runtime() {
    // Routers are stateless: the fleet can grow and shrink mid-traffic
    // with no admission-state loss and no dropped requests.
    let config = DeploymentConfig {
        routers: 1,
        rules: rules(&[("elastic", 1_000, 1_000)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    for _ in 0..10 {
        assert!(client.qos_check(&key("elastic")).unwrap());
    }

    // Scale out to 3; the gateway LB spreads new traffic over all nodes.
    assert_eq!(deployment.scale_routers(3).unwrap(), 3);
    for _ in 0..30 {
        assert!(client.qos_check(&key("elastic")).unwrap());
    }
    let counts = deployment.router_served_counts();
    assert_eq!(counts.len(), 3);
    assert!(
        counts.iter().all(|&c| c > 0),
        "a scaled-out router never served: {counts:?}"
    );

    // Scale back to 1 mid-session: service continues uninterrupted.
    assert_eq!(deployment.scale_routers(1).unwrap(), 1);
    for _ in 0..10 {
        assert!(client.qos_check(&key("elastic")).unwrap());
    }
    assert!(deployment.scale_routers(0).is_err());
}

#[test]
fn dns_over_gateways_combines_both_lb_levels() {
    // Paper §II-A: multiple gateway LBs behind one DNS name. Client
    // hosts spread over gateways via DNS; each gateway spreads requests
    // over every router.
    let config = DeploymentConfig {
        routers: 2,
        lb: LbMode::DnsOverGateways {
            gateways: 2,
            ttl: Duration::from_secs(3600),
            policy: LbPolicy::RoundRobin,
        },
        rules: rules(&[("combo", 1_000, 1_000)]),
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();

    // Two client hosts: DNS pins each to a different gateway.
    let mut client_a = deployment.client().unwrap();
    let mut client_b = deployment.client().unwrap();
    for _ in 0..10 {
        assert!(client_a.qos_check(&key("combo")).unwrap());
        assert!(client_b.qos_check(&key("combo")).unwrap());
    }
    let gateway_loads: Vec<u64> = deployment
        .gateways()
        .iter()
        .map(|g| g.stats().proxied.load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    assert_eq!(gateway_loads.len(), 2);
    assert!(
        gateway_loads.iter().all(|&c| c == 10),
        "DNS should pin one host per gateway: {gateway_loads:?}"
    );
    // Both routers saw traffic (each gateway round-robins over both).
    let router_loads = deployment.router_served_counts();
    assert!(
        router_loads.iter().all(|&c| c > 0),
        "router starved: {router_loads:?}"
    );
}
