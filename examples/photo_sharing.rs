//! The paper's §IV integration demo: a photo-sharing web application
//! (session cache + photo store + HTTP front end) wrapped with Janus.
//!
//! ```text
//! cargo run -p janus-app --example photo_sharing --release
//! ```
//!
//! Mirrors the paper's PHP snippet: each page view checks
//! `qos_check(client_ip)` first; FALSE becomes `403 Forbidden` without
//! touching the application at all.

use janus_app::{AppConfig, CacheServer, PhotoApp, PhotoClient, PhotoServer};
use janus_core::{Deployment, DeploymentConfig, QosKey, QosRule, Verdict};
use janus_net::http::{HttpClient, HttpRequest, StatusCode};
use std::time::Duration;

fn main() -> janus_types::Result<()> {
    // Application substrate: memcached-style session cache + photo store
    // (10 ms of simulated SQL work per query).
    let cache = CacheServer::spawn()?;
    let photos = PhotoServer::spawn(Duration::from_millis(10))?;
    let mut seeder = PhotoClient::connect(photos.addr())?;
    for (user, title) in [
        ("alice", "sunrise over the bay"),
        ("bob", "my cat, again"),
        ("carol", "conference badge collection"),
    ] {
        seeder.add(user, title)?;
    }

    // Janus: this client's IP gets 5 requests of burst, no refill, so the
    // throttle is easy to see.
    let deployment = Deployment::launch(DeploymentConfig {
        rules: vec![QosRule::per_second(QosKey::new("127.0.0.1")?, 5, 0)],
        default_verdict: Verdict::Deny,
        ..Default::default()
    })?;

    // The application, with the paper's wrapper installed.
    let app = PhotoApp::spawn(AppConfig {
        cache_addr: cache.addr(),
        photo_addr: photos.addr(),
        qos: Some(deployment.endpoint()),
        latest_count: 10,
    })?;

    println!("photo app with QoS wrapper at http://{}", app.addr());
    println!("client rule: 5 requests burst, zero refill\n");

    for i in 1..=8 {
        let start = std::time::Instant::now();
        let response = HttpClient::oneshot(app.addr(), &HttpRequest::get("/"))?;
        let elapsed = start.elapsed();
        match response.status {
            StatusCode::OK => {
                let photos_shown = response.body_text().matches("<li>").count();
                println!(
                    "  view {i}: 200 OK     ({photos_shown} photos, {:>6.2} ms)",
                    elapsed.as_secs_f64() * 1e3
                );
            }
            StatusCode::FORBIDDEN => println!(
                "  view {i}: 403 THROTTLED              ({:>6.2} ms)",
                elapsed.as_secs_f64() * 1e3
            ),
            other => println!("  view {i}: unexpected {other}"),
        }
    }

    println!(
        "\napp stats: served={} throttled={}",
        app.stats()
            .served
            .load(std::sync::atomic::Ordering::Relaxed),
        app.stats()
            .throttled
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    println!("note how throttled views return in a fraction of the app's own latency —");
    println!("the rejected request never reaches the cache or the photo store.");

    app.shutdown();
    deployment.shutdown();
    Ok(())
}
