//! The QoS client: what an application embeds.
//!
//! Mirrors the paper's `qos_client.php` wrapper — a single `qos_check`
//! call returning a boolean. The client keeps one keep-alive HTTP
//! connection to its endpoint and transparently reconnects once on
//! failure (a gateway LB node recycling, a router scaling in).

use janus_net::dns::Resolver;
use janus_net::http::HttpClient;
use janus_router::{parse_qos_response, qos_http_request};
use janus_types::{QosKey, Result, Verdict};
use std::net::SocketAddr;
use std::sync::Arc;

/// Where a QoS client sends its checks.
#[derive(Clone)]
pub enum Endpoint {
    /// A fixed address (a gateway LB, or a single router).
    Direct(SocketAddr),
    /// A DNS name resolved through a per-host caching resolver (DNS load
    /// balancing).
    Dns {
        /// The Janus service name.
        name: String,
        /// This client host's stub resolver.
        resolver: Arc<Resolver>,
    },
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Direct(addr) => write!(f, "Direct({addr})"),
            Endpoint::Dns { name, .. } => write!(f, "Dns({name:?})"),
        }
    }
}

/// An application-side QoS client.
#[derive(Debug)]
pub struct QosClient {
    endpoint: Endpoint,
    connection: Option<HttpClient>,
}

impl QosClient {
    /// A client for `endpoint`. The connection is opened lazily.
    pub fn new(endpoint: Endpoint) -> QosClient {
        QosClient {
            endpoint,
            connection: None,
        }
    }

    /// Resolve the endpoint to the address to connect to right now.
    fn resolve(&self) -> Result<SocketAddr> {
        match &self.endpoint {
            Endpoint::Direct(addr) => Ok(*addr),
            Endpoint::Dns { name, resolver } => resolver.resolve_one(name),
        }
    }

    fn connection(&mut self) -> Result<&mut HttpClient> {
        if self.connection.is_none() {
            let addr = self.resolve()?;
            self.connection = Some(HttpClient::connect(addr)?);
        }
        Ok(self.connection.as_mut().expect("just connected"))
    }

    /// The admission check: TRUE = proceed, FALSE = throttle.
    ///
    /// One transparent reconnect is attempted if the cached connection has
    /// gone stale.
    pub fn qos_check(&mut self, key: &QosKey) -> Result<bool> {
        let request = qos_http_request(key);
        // First attempt over the cached connection.
        let first = match self.connection() {
            Ok(conn) => conn.request(&request),
            Err(e) => Err(e),
        };
        let response = match first {
            Ok(resp) => resp,
            Err(_) => {
                // Stale or refused: reconnect once and retry.
                self.connection = None;
                let conn = self.connection()?;
                conn.request(&request).inspect_err(|_| {})?
            }
        };
        Ok(parse_qos_response(&response)? == Verdict::Allow)
    }

    /// Like [`qos_check`](Self::qos_check) but returns the verdict enum.
    pub fn check(&mut self, key: &QosKey) -> Result<Verdict> {
        Ok(Verdict::from_bool(self.qos_check(key)?))
    }

    /// Drop the cached connection (tests use this to force re-resolution,
    /// which is how a real host behaves after its TTL expires).
    pub fn disconnect(&mut self) {
        self.connection = None;
    }

    /// The configured endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_net::http::{HttpRequest, HttpResponse, HttpServer};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fake_router(allow: bool) -> (HttpServer, Arc<AtomicU64>) {
        let hits = Arc::new(AtomicU64::new(0));
        let hits_handler = Arc::clone(&hits);
        let server = HttpServer::spawn(Arc::new(move |req: HttpRequest, _peer: SocketAddr| {
            hits_handler.fetch_add(1, Ordering::Relaxed);
            assert_eq!(req.path(), "/qos");
            HttpResponse::ok(if allow { "TRUE" } else { "FALSE" })
        }))
        .unwrap();
        (server, hits)
    }

    #[test]
    fn check_returns_boolean() {
        let (router, _) = fake_router(true);
        let mut client = QosClient::new(Endpoint::Direct(router.addr()));
        assert!(client.qos_check(&QosKey::new("k").unwrap()).unwrap());

        let (router, _) = fake_router(false);
        let mut client = QosClient::new(Endpoint::Direct(router.addr()));
        assert!(!client.qos_check(&QosKey::new("k").unwrap()).unwrap());
    }

    #[test]
    fn reuses_keepalive_connection() {
        let (router, _) = fake_router(true);
        let mut client = QosClient::new(Endpoint::Direct(router.addr()));
        for _ in 0..5 {
            client.qos_check(&QosKey::new("k").unwrap()).unwrap();
        }
        // All five checks over one TCP connection.
        assert_eq!(router.connections(), 1);
    }

    #[test]
    fn reconnects_after_endpoint_restart() {
        let (router, _) = fake_router(true);
        let addr = router.addr();
        let mut client = QosClient::new(Endpoint::Direct(addr));
        client.qos_check(&QosKey::new("k").unwrap()).unwrap();
        // Kill the server; the cached connection goes stale.
        router.shutdown();
        drop(router);
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Shutdown lets a kept-alive connection finish its current
        // request, so the first check may still succeed; within a few
        // attempts the stale endpoint must surface an error rather than
        // hang.
        let mut saw_error = false;
        for _ in 0..5 {
            if client.qos_check(&QosKey::new("k").unwrap()).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "dead endpoint never surfaced an error");
    }

    #[test]
    fn dns_endpoint_resolves_through_cache() {
        use janus_net::dns::{Resolver, Zone};
        let (router, hits) = fake_router(true);
        let zone = Zone::new();
        zone.insert(
            "janus.endpoint",
            vec![router.addr()],
            std::time::Duration::from_secs(30),
        );
        let resolver = Arc::new(Resolver::new(zone, janus_clock::system()));
        let mut client = QosClient::new(Endpoint::Dns {
            name: "janus.endpoint".into(),
            resolver,
        });
        assert!(client.qos_check(&QosKey::new("k").unwrap()).unwrap());
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
