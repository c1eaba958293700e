#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Networking substrate for Janus.
//!
//! The paper deploys Janus on AWS primitives — HTTP between client, load
//! balancer and request router; UDP between router and QoS server; Route53
//! for DNS load balancing and failover. This crate rebuilds those
//! primitives from scratch on `std::net` and plain threads:
//!
//! * [`udp`] — the admission RPC: a fire-and-retry UDP exchange with the
//!   paper's 100 µs timeout × 5 retries discipline over a socket per
//!   request or reused idle sockets, plus configurable loss/delay
//!   injection for failure testing.
//! * [`http`] — a minimal HTTP/1.1 implementation (parser, server with
//!   keep-alive, client) sufficient for the router front end, the gateway
//!   load balancer, and the photo-sharing demo app.
//! * [`dns`] — an authoritative zone with per-query answer permutation
//!   (round-robin DNS), a caching resolver honouring TTL (which reproduces
//!   the paper's DNS-LB skew), and health-checked master/standby failover
//!   records (the Route53 failover mechanism the QoS-server HA design
//!   relies on).
//! * [`fault`] — deterministic packet-loss and delay injection shared by
//!   the UDP layer.
//! * [`latency`] — the gray-failure client discipline: windowed latency
//!   quantiles, adaptive per-attempt timeouts, credit-safe hedging and a
//!   global retry budget.
//! * [`tcp`] — the accept-thread + thread-per-connection loop every TCP
//!   server here (HTTP, database, HA port) is built on.
//! * [`sys`] — the two socket calls `std::net` lacks: `SO_REUSEPORT`
//!   per-core socket groups and a nanosecond `ppoll` wait, declared by
//!   hand against the system libc.
//!
//! One deliberate substrate simplification: our DNS "A records" carry full
//! socket addresses rather than bare IPs, because test deployments
//! colocate every node on 127.0.0.1 and distinguish them by port. The
//! permutation, TTL and failover semantics are unchanged.

pub mod attempt;
pub mod breaker;
pub mod dns;
pub mod fault;
pub mod http;
pub mod latency;
pub mod sys;
pub mod tcp;
pub mod udp;
#[cfg(test)]
mod udp_pool;

pub use attempt::{AttemptPlan, AttemptStep};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use dns::{DnsRecord, Resolver, Zone};

/// Wake the thread blocked in a receive on `socket` with an empty
/// datagram from the socket to itself, so it observes a flag its owner
/// just set. (A full receive buffer may drop it; the thread then sees the
/// flag after the next datagram it does receive.)
pub(crate) fn wake_receiver(socket: &std::net::UdpSocket) {
    if let Ok(addr) = socket.local_addr() {
        let _ = socket.send_to(&[], loopback_of(addr));
    }
}

/// The address a socket bound to `addr` can be reached at from this
/// host: `addr` itself, or loopback on the same port when `addr` is the
/// unspecified wildcard.
pub(crate) fn loopback_of(addr: std::net::SocketAddr) -> std::net::SocketAddr {
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    std::net::SocketAddr::new(ip, addr.port())
}

pub use fault::{DeliverySchedule, Fate, FaultPlan};
pub use http::{HttpClient, HttpRequest, HttpResponse, HttpServer, Method, StatusCode};
pub use latency::{
    HedgePolicy, HedgeStats, LatencyWindow, RetryBudget, RetryBudgetConfig, SharedLatency,
    TimeoutPolicy, WireDiscipline,
};
pub use tcp::TcpService;
pub use udp::{OobDelivery, RetryBackoff, UdpRpcClient, UdpRpcConfig, UdpServerSocket};
