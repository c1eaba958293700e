//! Multi-tenant NoSQL-style service (paper §II, §IV): "a particular user
//! might purchase different access rates for different databases, then
//! the QoS key can be the combination of the user identification and the
//! database name."
//!
//! ```text
//! cargo run -p janus-app --example multi_tenant_api --release
//! ```

use janus_core::{Deployment, DeploymentConfig, QosKey, QosRule, Verdict};

/// The composite QoS key for a (user, database) pair.
fn db_key(user: &str, database: &str) -> janus_types::Result<QosKey> {
    Ok(QosKey::new(format!("{user}:{database}"))?)
}

fn main() -> janus_types::Result<()> {
    // Acme purchased a generous rate for its analytics DB and a trickle
    // for its staging DB; Globex only pays for one database.
    let rules = vec![
        QosRule::per_second(db_key("acme", "analytics")?, 100, 50),
        QosRule::per_second(db_key("acme", "staging")?, 3, 1),
        QosRule::per_second(db_key("globex", "orders")?, 20, 10),
    ];
    let deployment = Deployment::launch(DeploymentConfig {
        qos_servers: 3,
        routers: 2,
        rules,
        default_verdict: Verdict::Deny,
        ..Default::default()
    })?;
    let mut client = deployment.client()?;

    println!("simulating a burst of 10 API calls against each (user, database):\n");
    for (user, database) in [
        ("acme", "analytics"),
        ("acme", "staging"),
        ("globex", "orders"),
        ("globex", "analytics"), // never purchased -> default deny
    ] {
        let key = db_key(user, database)?;
        let mut admitted = 0;
        for _ in 0..10 {
            if client.qos_check(&key)? {
                admitted += 1;
            }
        }
        println!("  {user:>7}/{database:<10} admitted {admitted:>2}/10");
    }

    println!("\nupgrading acme/staging to capacity 50 @ 25 req/s at runtime (no restarts):");
    deployment.upsert_rule(&QosRule::per_second(db_key("acme", "staging")?, 50, 25))?;
    // The QoS server's sync thread applies the new shape at its next
    // interval; accrued credit is preserved (an upgrade never grants a
    // free burst), so the bucket refills at the new 25 req/s from here.
    std::thread::sleep(std::time::Duration::from_millis(1200));
    let key = db_key("acme", "staging")?;
    let mut admitted = 0;
    for _ in 0..20 {
        if client.qos_check(&key)? {
            admitted += 1;
        }
    }
    println!("  acme/staging admits {admitted}/20 one second later (~25 accrued at the new rate)");

    deployment.shutdown();
    Ok(())
}
