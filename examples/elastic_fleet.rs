//! Router-layer autoscaling (paper §V-A): "the request router layer can
//! be managed by an Auto Scaling group, where the capacity of the request
//! router layer can be automatically adjusted."
//!
//! ```text
//! cargo run -p janus-app --example elastic_fleet --release
//! ```
//!
//! Starts with one router, hammers the deployment until the autoscaler
//! grows the fleet, then goes quiet and watches it shrink back.

use janus_core::{Autoscaler, AutoscalerConfig, Deployment, DeploymentConfig, QosKey, QosRule};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> janus_types::Result<()> {
    let key = QosKey::new("tenant")?;
    let deployment = Arc::new(Deployment::launch(DeploymentConfig {
        routers: 1,
        rules: vec![QosRule::per_second(key.clone(), 1_000_000, 1_000_000)],
        ..Default::default()
    })?);
    let autoscaler = Autoscaler::spawn(
        Arc::clone(&deployment),
        AutoscalerConfig {
            min_routers: 1,
            max_routers: 4,
            target_rps_per_router: 300.0,
            evaluate_every: Duration::from_millis(500),
            cooldown_evaluations: 1,
            ..Default::default()
        },
    )?;
    println!("deployment up with 1 router; autoscaler targets 300 req/s per router\n");

    // Phase 1: load. Eight busy clients push well past one router's target.
    let stop = Arc::new(AtomicBool::new(false));
    let mut drivers = Vec::new();
    for _ in 0..8 {
        let deployment = Arc::clone(&deployment);
        let stop = Arc::clone(&stop);
        let key = key.clone();
        drivers.push(std::thread::spawn(move || {
            let mut client = deployment.client().unwrap();
            while !stop.load(Ordering::Relaxed) {
                let _ = client.qos_check(&key);
            }
        }));
    }
    println!("load on:");
    for second in 1..=6 {
        std::thread::sleep(Duration::from_secs(1));
        println!(
            "  t={second}s  routers={}  served per node={:?}",
            deployment.router_count(),
            deployment.router_served_counts()
        );
    }

    // Phase 2: quiet.
    stop.store(true, Ordering::Relaxed);
    for driver in drivers {
        let _ = driver;
    }
    println!("\nload off:");
    for second in 1..=6 {
        std::thread::sleep(Duration::from_secs(1));
        println!("  t={second}s  routers={}", deployment.router_count());
    }

    println!("\nscaling events:");
    for event in autoscaler.events() {
        println!(
            "  {} -> {} routers (observed {:.0} req/s per router)",
            event.from, event.to, event.observed_rps_per_router
        );
    }
    autoscaler.stop();
    deployment.shutdown();
    Ok(())
}
