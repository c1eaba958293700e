//! Crawler throttling (paper §IV): "QoS rules can be set up with the
//! User-Agent string in the HTTP request header as the QoS key, allowing
//! access from search engines with a reasonable access rate."
//!
//! ```text
//! cargo run -p janus-app --example crawler_throttling --release
//! ```

use janus_core::{
    DefaultRulePolicy, Deployment, DeploymentConfig, QosKey, QosRule, QosServerConfig, Verdict,
};

fn main() -> janus_types::Result<()> {
    let googlebot = QosKey::new("Mozilla/5.0 (compatible; Googlebot/2.1)")?;
    let bingbot = QosKey::new("Mozilla/5.0 (compatible; bingbot/2.0)")?;
    let scraper = QosKey::new("python-requests/2.31")?;

    // Known crawlers get a reasonable sustained rate; anything unknown
    // falls to a tight guest policy instead of a hard deny, so humans
    // with odd browsers still get through.
    let mut server = QosServerConfig::test_defaults();
    server.default_policy = DefaultRulePolicy::Limited {
        capacity: 5,
        rate_per_sec: 1,
    };
    let deployment = Deployment::launch(DeploymentConfig {
        server,
        rules: vec![
            QosRule::per_second(googlebot.clone(), 50, 25),
            QosRule::per_second(bingbot.clone(), 30, 15),
        ],
        default_verdict: Verdict::Deny,
        ..Default::default()
    })?;
    let mut client = deployment.client()?;

    println!("each agent sends a 40-request burst (as crawlers do):\n");
    for (label, key) in [
        ("Googlebot   (50 burst / 25 rps)", &googlebot),
        ("Bingbot     (30 burst / 15 rps)", &bingbot),
        ("scraper     (guest: 5 burst / 1 rps)", &scraper),
    ] {
        let mut admitted = 0;
        for _ in 0..40 {
            if client.qos_check(key)? {
                admitted += 1;
            }
        }
        println!("  {label:<38} admitted {admitted:>2}/40");
    }

    println!("\nafter 2 seconds of quiet, the guest scraper has earned 2 more credits:");
    std::thread::sleep(std::time::Duration::from_secs(2));
    let mut admitted = 0;
    for _ in 0..5 {
        if client.qos_check(&scraper)? {
            admitted += 1;
        }
    }
    println!("  scraper admitted {admitted}/5");

    deployment.shutdown();
    Ok(())
}
