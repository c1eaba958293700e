//! Quickstart: launch a Janus deployment and make admission checks.
//!
//! ```text
//! cargo run -p janus-app --example quickstart --release
//! ```
//!
//! Spins up the full four-layer stack on loopback (database, two QoS
//! servers, two request routers, a gateway load balancer), installs a
//! rule for one tenant, and shows admission + throttling + refill.

use janus_core::{Deployment, DeploymentConfig, QosKey, QosRule, Verdict};
use std::time::Duration;

fn main() -> janus_types::Result<()> {
    // A tenant that purchased 5 requests/second with a burst allowance
    // of 10.
    let alice = QosKey::new("alice")?;
    let config = DeploymentConfig {
        rules: vec![QosRule::per_second(alice.clone(), 10, 5)],
        default_verdict: Verdict::Deny,
        ..Default::default()
    };

    println!("launching Janus (db + 2 QoS servers + 2 routers + gateway LB)...");
    let deployment = Deployment::launch(config)?;
    let mut client = deployment.client()?;

    println!("\nburst: draining alice's 10 accumulated credits");
    let mut admitted = 0;
    for i in 1..=14 {
        let allowed = client.qos_check(&alice)?;
        println!(
            "  request {i:>2}: {}",
            if allowed { "ALLOW" } else { "DENY" }
        );
        if allowed {
            admitted += 1;
        }
    }
    println!("admitted {admitted}/14 (capacity 10, instantaneous burst)");

    println!("\nidling 1 second: the bucket refills at 5 credits/second...");
    std::thread::sleep(Duration::from_secs(1));
    let mut refilled = 0;
    for _ in 0..10 {
        if client.qos_check(&alice)? {
            refilled += 1;
        }
    }
    println!("admitted {refilled}/10 after the idle second (~5 expected)");

    println!("\nunknown tenants fall to the default policy (deny):");
    let mallory = QosKey::new("mallory")?;
    println!(
        "  mallory: {}",
        if client.qos_check(&mallory)? {
            "ALLOW"
        } else {
            "DENY"
        }
    );

    println!("\nrules added at runtime take effect without restarts:");
    println!("  (mallory already has a local guest bucket, so the QoS server's");
    println!("   sync thread picks the new rule up at its next interval)");
    deployment.upsert_rule(&QosRule::per_second(mallory.clone(), 3, 1))?;
    std::thread::sleep(Duration::from_millis(400));
    println!(
        "  mallory (after upsert + one sync interval): {}",
        if client.qos_check(&mallory)? {
            "ALLOW"
        } else {
            "DENY"
        }
    );
    // A never-seen key with a pre-installed rule is effective immediately —
    // the first sighting loads it straight from the database.
    let newcomer = QosKey::new("newcomer")?;
    deployment.upsert_rule(&QosRule::per_second(newcomer.clone(), 2, 1))?;
    println!(
        "  newcomer (first sighting, no wait):         {}",
        if client.qos_check(&newcomer)? {
            "ALLOW"
        } else {
            "DENY"
        }
    );

    deployment.shutdown();
    Ok(())
}
