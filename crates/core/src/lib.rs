#![warn(missing_docs)]
//! Janus: a generic, horizontally scalable QoS framework for SaaS
//! applications.
//!
//! This crate assembles the four layers — load balancer, request router,
//! QoS server, database — into a running deployment and gives
//! applications the one call they need:
//!
//! ```no_run
//! # fn demo() -> janus_types::Result<()> {
//! use janus_core::{Deployment, DeploymentConfig};
//! use janus_types::{QosKey, QosRule};
//!
//! let mut config = DeploymentConfig::default();
//! config.rules = vec![QosRule::per_second(QosKey::new("alice")?, 1000, 100)];
//! let deployment = Deployment::launch(config)?;
//!
//! let mut client = deployment.client()?;
//! if client.qos_check(&QosKey::new("alice")?)? {
//!     // serve the request
//! } else {
//!     // throttle: HTTP 403
//! }
//! # Ok(()) }
//! ```
//!
//! The architecture (paper Fig. 1): the client talks HTTP to a load
//! balancer (gateway or DNS), which spreads requests over stateless
//! request routers; each router forwards over UDP to the QoS server that
//! owns the key (`CRC32(key) mod N`); QoS servers hold leaky buckets and
//! lazily hydrate rules from the database. Nodes within a layer never
//! talk to each other — that is what makes every layer scale out
//! linearly.

mod admin;
mod autoscale;
pub mod chaos;
mod client;
mod deployment;
pub mod gray;
pub mod keyspace;
pub mod overload;

pub use admin::{AdminApi, FleetStats};
pub use autoscale::{Autoscaler, AutoscalerConfig, ScaleEvent};
pub use chaos::{run_chaos_soak, ChaosConfig, ChaosReport, PhaseReport};
pub use client::{Endpoint, QosClient};
pub use deployment::{Deployment, DeploymentConfig, LbMode};
pub use gray::{run_gray_soak, GrayPhase, GraySoakConfig, GraySoakReport};
pub use keyspace::{run_keyspace_soak, KeyspaceReport, KeyspaceSoakConfig};
pub use overload::{run_overload_soak, OverloadPhase, OverloadReport, OverloadSoakConfig};

// Re-export the pieces applications and experiments touch directly, so a
// single dependency on `janus-core` suffices.
pub use janus_bucket::{DefaultRulePolicy, LeakyBucket, QosTable};
pub use janus_lb::{HealthCheckConfig, LbPolicy};
pub use janus_net::udp::UdpRpcConfig;
pub use janus_net::{BreakerConfig, BreakerState, RetryBackoff};
pub use janus_router::{parse_qos_response, qos_http_request};
pub use janus_server::{DbTarget, QosServerConfig, TableKind};
pub use janus_types::{Credits, QosKey, QosRule, RefillRate, Verdict};
