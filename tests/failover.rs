//! Failure-handling integration tests: QoS-server HA failover,
//! checkpoint-based replacement, and router behaviour when a partition
//! dies.

use janus_core::{Deployment, DeploymentConfig, QosKey, QosRule, QosServerConfig, Verdict};
use std::time::Duration;

fn key(s: &str) -> QosKey {
    QosKey::new(s).unwrap()
}

#[test]
fn slave_promotion_is_transparent_to_clients() {
    let config = DeploymentConfig {
        qos_servers: 2,
        routers: 2,
        ha: true,
        rules: vec![QosRule::per_second(key("steady"), 1_000_000, 1_000_000)],
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let mut deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    for _ in 0..10 {
        assert!(client.qos_check(&key("steady")).unwrap());
    }

    // Find the partition that owns "steady" and kill its master.
    let partition = janus_hash::routing::Router::route(
        &janus_hash::routing::ModuloRouter::new(2),
        &key("steady"),
    );
    deployment.kill_qos_master(partition);
    deployment
        .await_failover(partition, Duration::from_secs(5))
        .unwrap();

    // Service continues against the promoted slave.
    let mut ok = 0;
    for _ in 0..10 {
        if client.qos_check(&key("steady")).unwrap() {
            ok += 1;
        }
    }
    assert_eq!(ok, 10, "promoted slave did not serve");
}

#[test]
fn failover_does_not_reset_quota() {
    // The promoted slave must carry the replicated credit, not a fresh
    // bucket — otherwise a crash would hand every tenant a free burst.
    let config = DeploymentConfig {
        qos_servers: 1,
        routers: 1,
        ha: true,
        replication_interval: Duration::from_millis(25),
        rules: vec![QosRule::per_second(key("metered"), 50, 0)],
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let mut deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    for _ in 0..30 {
        assert!(client.qos_check(&key("metered")).unwrap());
    }
    std::thread::sleep(Duration::from_millis(150)); // replication catch-up
    deployment.kill_qos_master(0);
    deployment
        .await_failover(0, Duration::from_secs(5))
        .unwrap();

    let mut admitted = 0;
    for _ in 0..50 {
        if client.qos_check(&key("metered")).unwrap() {
            admitted += 1;
        }
    }
    assert!(
        (18..=23).contains(&admitted),
        "slave admitted {admitted}, expected ~20 remaining credits"
    );
}

#[test]
fn dead_partition_degrades_to_default_reply() {
    // Without HA, killing a partition's master leaves its keys to the
    // router's default verdict — a localized failure: the other
    // partition keeps answering authoritatively (paper §II-D).
    let mut server = QosServerConfig::test_defaults();
    server.default_policy = janus_core::DefaultRulePolicy::AllowAll;
    let config = DeploymentConfig {
        qos_servers: 2,
        routers: 1,
        ha: false,
        server,
        // The loopback attempt timeout (20 ms): a healthy partition must
        // answer inside it even on a loaded box, or its key would read as
        // dead. A 2 ms timeout was missed now and then in a full test run.
        udp: janus_core::UdpRpcConfig {
            max_retries: 2,
            ..janus_core::UdpRpcConfig::lan_defaults()
        },
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let mut deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();

    // Pick keys on both partitions.
    let hash = janus_hash::routing::ModuloRouter::new(2);
    let key_on = |partition: usize| {
        for i in 0..1000 {
            let candidate = key(&format!("probe-{i}"));
            if janus_hash::routing::Router::route(&hash, &candidate) == partition {
                return candidate;
            }
        }
        unreachable!()
    };
    let key0 = key_on(0);
    let key1 = key_on(1);

    assert!(client.qos_check(&key0).unwrap());
    assert!(client.qos_check(&key1).unwrap());

    deployment.kill_qos_master(0);
    std::thread::sleep(Duration::from_millis(100));

    // Partition 0's keys now hit the retry budget and fall to the
    // router's default (Deny); partition 1 is unaffected.
    assert!(!client.qos_check(&key0).unwrap(), "expected default deny");
    assert!(client.qos_check(&key1).unwrap(), "healthy partition broke");
    assert!(
        deployment.router_defaulted_total() >= 1,
        "router never used its default reply"
    );
}

#[test]
fn replacement_server_resumes_from_checkpoints() {
    // Full-deployment version of the checkpoint-resume property: kill a
    // non-HA master, launch a replacement deployment against the same
    // database, and verify the tenant does not get a fresh bucket.
    let mut server = QosServerConfig::test_defaults();
    server.checkpoint_interval = Duration::from_millis(25);
    let config = DeploymentConfig {
        qos_servers: 1,
        routers: 1,
        server: server.clone(),
        rules: vec![QosRule::per_second(key("persistent"), 40, 0)],
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();
    for _ in 0..25 {
        assert!(client.qos_check(&key("persistent")).unwrap());
    }
    // Wait for the checkpoint to land in the DB.
    let mut db = deployment.db_client().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let rule = db.get_rule(&key("persistent")).unwrap().unwrap();
        if rule.credit.whole() == 15 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "checkpoint missing");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Simulate replacement: a brand-new QoS server attached to the same
    // database must resume from credit 15.
    let fresh = janus_server::QosServer::spawn(
        server,
        Some(deployment.db().addr().into()),
        janus_clock::system(),
    )
    .unwrap();
    let rpc = janus_net::udp::UdpRpcClient::new(janus_net::udp::UdpRpcConfig::lan_defaults());
    let mut admitted = 0;
    for id in 0..40u64 {
        let resp = rpc
            .call(
                fresh.udp_addr(),
                &janus_types::QosRequest::new(id, key("persistent")),
            )
            .unwrap();
        if resp.verdict == Verdict::Allow {
            admitted += 1;
        }
    }
    assert_eq!(admitted, 15, "replacement ignored the checkpoint");
}

#[test]
fn db_failover_is_transparent_to_qos_servers() {
    // Multi-AZ database: kill the master; the standby (which received
    // replicated writes) is promoted via DNS, and QoS servers re-resolve
    // on reconnect — first sightings of new keys keep working.
    let config = DeploymentConfig {
        qos_servers: 1,
        routers: 1,
        db_ha: true,
        rules: vec![QosRule::per_second(key("pre-crash"), 10, 0)],
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let mut deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();

    // Seed an extra rule at runtime so replication is exercised too.
    deployment
        .upsert_rule(&QosRule::per_second(key("replicated"), 5, 0))
        .unwrap();
    assert!(client.qos_check(&key("pre-crash")).unwrap());

    // Give the (async, best-effort) replication a beat, then crash.
    std::thread::sleep(Duration::from_millis(200));
    deployment.kill_db_master();
    deployment
        .await_db_failover(Duration::from_secs(5))
        .unwrap();

    // A key the QoS server has never seen must be fetchable from the
    // promoted standby (the QoS server reconnects through DNS).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if client.qos_check(&key("replicated")).unwrap() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "QoS server never reached the promoted standby"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Admin traffic follows the failover as well.
    let mut db = deployment.db_client().unwrap();
    assert!(db.count().unwrap() >= 2);
    assert_eq!(
        deployment.active_db_addr().unwrap(),
        deployment.db_standby().unwrap().addr()
    );
}

#[test]
fn db_failover_racing_the_miss_path_defaults_then_recovers() {
    // A database that *hangs* mid-failover is nastier than one that
    // dies: an in-flight first-sighting lookup must burn
    // `db_fetch_timeout`, fall back to the default policy, and the next
    // miss after the standby's promotion must be authoritative again.
    let mut server = QosServerConfig::test_defaults();
    server.db_fetch_timeout = Duration::from_millis(150);
    let config = DeploymentConfig {
        qos_servers: 1,
        routers: 1,
        db_ha: true,
        server,
        // Give the router patience to see the server's own fallback
        // verdict (the server sits in the DB timeout before answering).
        udp: janus_core::UdpRpcConfig {
            timeout: Duration::from_millis(400),
            max_retries: 2,
            ..Default::default()
        },
        rules: vec![
            QosRule::per_second(key("racer"), 3, 0),
            QosRule::per_second(key("after"), 5, 0),
        ],
        default_verdict: Verdict::Deny,
        ..Default::default()
    };
    let mut deployment = Deployment::launch(config).unwrap();
    let mut client = deployment.client().unwrap();

    // A tarpit that accepts DB connections and never answers a byte.
    // Every accepted connection is held open, silent, until the tarpit
    // is shut down.
    let tarpit = janus_net::TcpService::spawn("tarpit", |_held, _peer, stop| {
        while !stop.wait_timeout(Duration::from_secs(60)) {}
    })
    .unwrap();
    let tarpit_addr = tarpit.addr();

    // Point the failover record's primary at the tarpit, then kill the
    // real master. The database is now "hung": the health monitor still
    // sees an accepting socket, so no promotion happens yet.
    let standby_addr = deployment.db_standby().unwrap().addr();
    deployment.zone().insert_failover(
        deployment.db_dns_name(),
        tarpit_addr,
        Some(standby_addr),
        Duration::ZERO,
    );
    deployment.kill_db_master();

    // First sighting of "racer" races the hung DB: the lookup blows the
    // fetch budget and falls back to the default policy (Deny) even
    // though its rule would have allowed it.
    assert!(
        !client.qos_check(&key("racer")).unwrap(),
        "hung DB lookup did not fall back to the default policy"
    );
    let stats = deployment.qos_master(0).unwrap().stats().snapshot();
    assert!(stats.db_timeouts >= 1, "lookup never hit db_fetch_timeout");
    assert!(stats.default_rule_hits >= 1);

    // The tarpit finally dies; the monitor's probes start failing and
    // the standby is promoted.
    tarpit.shutdown();
    deployment
        .await_db_failover(Duration::from_secs(5))
        .unwrap();

    // The next miss is served from the promoted standby. (The raced key
    // keeps its cached guest bucket — the fallback was already
    // recorded, deliberately.)
    assert!(client.qos_check(&key("after")).unwrap());
    assert!(!client.qos_check(&key("racer")).unwrap());
}

#[test]
fn db_standby_receives_runtime_rules() {
    let config = DeploymentConfig {
        qos_servers: 1,
        routers: 1,
        db_ha: true,
        rules: vec![QosRule::per_second(key("seeded"), 1, 1)],
        ..Default::default()
    };
    let deployment = Deployment::launch(config).unwrap();
    deployment
        .upsert_rule(&QosRule::per_second(key("runtime"), 2, 2))
        .unwrap();
    // Seeded rules land in both engines at launch; runtime rules arrive
    // at the standby via statement forwarding.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let standby = deployment.db_standby().unwrap();
    loop {
        let engine = standby.engine();
        if engine.get(&key("runtime")).is_some() && engine.get(&key("seeded")).is_some() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "standby never converged: {:?}",
            engine.all()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
