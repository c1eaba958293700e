//! Router-layer autoscaling.
//!
//! "The request router layer can be managed by an Auto Scaling group,
//! where the capacity of the request router layer can be automatically
//! adjusted based on a variety of metrics" (paper §V-A). Routers are
//! stateless, so this is the easy kind of elasticity: the autoscaler
//! watches the fleet's served-requests rate and resizes through
//! [`Deployment::scale_routers`], which atomically updates the load
//! balancer.

use crate::deployment::Deployment;
use janus_types::sync::{Mutex, Shutdown};
use janus_types::Result;
use std::sync::Arc;
use std::time::Duration;

/// Autoscaler tuning.
#[derive(Debug, Clone)]
pub struct AutoscalerConfig {
    /// Never scale below this many routers.
    pub min_routers: usize,
    /// Never scale above this many routers.
    pub max_routers: usize,
    /// The per-router request rate the fleet should sit at.
    pub target_rps_per_router: f64,
    /// Scale out when observed per-router rate exceeds
    /// `target × out_factor`.
    pub out_factor: f64,
    /// Scale in when observed per-router rate falls below
    /// `target × in_factor`.
    pub in_factor: f64,
    /// Metric evaluation period.
    pub evaluate_every: Duration,
    /// Evaluations to skip after any scaling action (settling time).
    pub cooldown_evaluations: u32,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            min_routers: 1,
            max_routers: 10,
            target_rps_per_router: 10_000.0,
            out_factor: 0.8,
            in_factor: 0.3,
            evaluate_every: Duration::from_secs(5),
            cooldown_evaluations: 2,
        }
    }
}

impl AutoscalerConfig {
    fn validate(&self) -> Result<()> {
        if self.min_routers == 0 || self.min_routers > self.max_routers {
            return Err(janus_types::JanusError::config(
                "need 0 < min_routers <= max_routers",
            ));
        }
        if self.target_rps_per_router <= 0.0 || self.target_rps_per_router.is_nan() {
            return Err(janus_types::JanusError::config(
                "target rate must be positive",
            ));
        }
        if self.in_factor >= self.out_factor {
            return Err(janus_types::JanusError::config(
                "in_factor must be below out_factor (hysteresis)",
            ));
        }
        Ok(())
    }
}

/// One scaling action, for observability and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEvent {
    /// Fleet size before.
    pub from: usize,
    /// Fleet size after.
    pub to: usize,
    /// Observed per-router request rate that triggered the action.
    pub observed_rps_per_router: f64,
}

/// A running autoscaler: one evaluation thread. Dropping the handle
/// stops it.
pub struct Autoscaler {
    stop: Shutdown,
    events: Arc<Mutex<Vec<ScaleEvent>>>,
}

impl Autoscaler {
    /// Start autoscaling `deployment`'s router layer.
    pub fn spawn(deployment: Arc<Deployment>, config: AutoscalerConfig) -> Result<Autoscaler> {
        config.validate()?;
        let stop = Shutdown::new();
        let stopped = stop.clone();
        let events = Arc::new(Mutex::new(Vec::new()));
        let events_seen = Arc::clone(&events);
        let evaluate = move || {
            // Establish the baseline, then evaluate once per period.
            let mut last_total: u64 = deployment.router_served_counts().iter().sum();
            let mut cooldown = 0u32;
            while !stopped.wait_timeout(config.evaluate_every) {
                let total: u64 = deployment.router_served_counts().iter().sum();
                let rate =
                    (total.saturating_sub(last_total)) as f64 / config.evaluate_every.as_secs_f64();
                last_total = total;
                if cooldown > 0 {
                    cooldown -= 1;
                    continue;
                }
                let count = deployment.router_count();
                let per_router = rate / count as f64;
                let target = if per_router > config.target_rps_per_router * config.out_factor
                    && count < config.max_routers
                {
                    count + 1
                } else if per_router < config.target_rps_per_router * config.in_factor
                    && count > config.min_routers
                {
                    count - 1
                } else {
                    continue;
                };
                if deployment.scale_routers(target).is_ok() {
                    events_seen.lock().push(ScaleEvent {
                        from: count,
                        to: target,
                        observed_rps_per_router: per_router,
                    });
                    cooldown = config.cooldown_evaluations;
                }
            }
        };
        std::thread::Builder::new()
            .name("janus-autoscaler".into())
            .spawn(evaluate)?;
        Ok(Autoscaler { stop, events })
    }

    /// Scaling actions taken so far.
    pub fn events(&self) -> Vec<ScaleEvent> {
        self.events.lock().clone()
    }

    /// Stop evaluating.
    pub fn stop(&self) {
        self.stop.trigger();
    }
}

impl Drop for Autoscaler {
    fn drop(&mut self) {
        self.stop.trigger();
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::{DeploymentConfig, QosKey, QosRule};

    #[test]
    fn config_validation() {
        assert!(AutoscalerConfig::default().validate().is_ok());
        let mut c = AutoscalerConfig::default();
        c.min_routers = 0;
        assert!(c.validate().is_err());
        let mut c = AutoscalerConfig::default();
        c.min_routers = 5;
        c.max_routers = 2;
        assert!(c.validate().is_err());
        let mut c = AutoscalerConfig::default();
        c.in_factor = 0.9;
        c.out_factor = 0.8;
        assert!(c.validate().is_err());
        let mut c = AutoscalerConfig::default();
        c.target_rps_per_router = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn scales_out_under_load_and_in_when_quiet() {
        let config = DeploymentConfig {
            routers: 1,
            rules: vec![QosRule::per_second(
                QosKey::new("busy").unwrap(),
                1_000_000,
                1_000_000,
            )],
            ..Default::default()
        };
        let deployment = Arc::new(crate::Deployment::launch(config).unwrap());
        let autoscaler = Autoscaler::spawn(
            Arc::clone(&deployment),
            AutoscalerConfig {
                min_routers: 1,
                max_routers: 3,
                target_rps_per_router: 50.0, // tiny, so test load trips it
                out_factor: 0.8,
                in_factor: 0.2,
                evaluate_every: Duration::from_millis(100),
                cooldown_evaluations: 0,
            },
        )
        .unwrap();

        // Drive ~8 concurrent checkers for a second: well above
        // 50 rps/router.
        let stop_load = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut drivers = Vec::new();
        for _ in 0..8 {
            let deployment = Arc::clone(&deployment);
            let stop_load = Arc::clone(&stop_load);
            drivers.push(std::thread::spawn(move || {
                let mut client = deployment.client().unwrap();
                let key = QosKey::new("busy").unwrap();
                while !stop_load.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = client.qos_check(&key);
                }
            }));
        }
        // Wait for scale-out to max.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while deployment.router_count() < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "never scaled out: count={} events={:?}",
                deployment.router_count(),
                autoscaler.events()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        // New routers actually serve traffic.
        std::thread::sleep(Duration::from_millis(300));
        let counts = deployment.router_served_counts();
        assert!(counts.iter().all(|&c| c > 0), "idle new router: {counts:?}");

        // Quiet down: the fleet shrinks back to the minimum.
        stop_load.store(true, std::sync::atomic::Ordering::Relaxed);
        for d in drivers {
            d.join().unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while deployment.router_count() > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "never scaled in: count={} events={:?}",
                deployment.router_count(),
                autoscaler.events()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        // Events recorded out and in.
        let events = autoscaler.events();
        assert!(events.iter().any(|e| e.to > e.from));
        assert!(events.iter().any(|e| e.to < e.from));
        autoscaler.stop();
    }
}
