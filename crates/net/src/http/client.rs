//! HTTP/1.1 client with keep-alive.

use super::message::{HttpRequest, HttpResponse};
use super::parser::{read_response, ParseLimits};
use janus_types::Result;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A client-side HTTP/1.1 connection.
///
/// Requests on one client are sequential (issue, read the response, repeat),
/// exactly like a single `ab` worker; open several clients for
/// concurrency.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    limits: ParseLimits,
    peer: SocketAddr,
}

impl HttpClient {
    /// Open a keep-alive connection to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<HttpClient> {
        Self::over(TcpStream::connect(addr)?, addr)
    }

    fn over(stream: TcpStream, peer: SocketAddr) -> Result<HttpClient> {
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            limits: ParseLimits::default(),
            peer,
        })
    }

    /// The server this client is connected to.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Issue one request and block for its response.
    pub fn request(&mut self, request: &HttpRequest) -> Result<HttpResponse> {
        self.reader.get_mut().write_all(&request.to_bytes())?;
        read_response(&mut self.reader, &self.limits)
    }

    /// One-shot convenience: connect, issue, close. This is the traffic
    /// pattern the gateway load balancer inflicts on routers ("establishes
    /// another connection to the request router ... then closes the
    /// connection", paper §V-A) — and the reason the paper sees TIME_WAIT
    /// pile-ups.
    pub fn oneshot(addr: SocketAddr, request: &HttpRequest) -> Result<HttpResponse> {
        Self::close_after(HttpClient::connect(addr)?, request)
    }

    /// [`oneshot`](Self::oneshot) for probes: the connect, and every read
    /// and write after it, each give up after `timeout` — a hung peer
    /// costs the prober a budget, not a thread.
    pub fn oneshot_timeout(
        addr: SocketAddr,
        request: &HttpRequest,
        timeout: Duration,
    ) -> Result<HttpResponse> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::close_after(Self::over(stream, addr)?, request)
    }

    fn close_after(mut client: HttpClient, request: &HttpRequest) -> Result<HttpResponse> {
        let mut req = request.clone();
        req.headers
            .push(("connection".to_string(), "close".to_string()));
        client.request(&req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpServer, StatusCode};
    use std::sync::Arc;

    #[test]
    fn oneshot_closes_after_response() {
        let server = HttpServer::spawn(Arc::new(|_req: HttpRequest, _peer: SocketAddr| {
            HttpResponse::ok("once")
        }))
        .unwrap();
        let resp = HttpClient::oneshot(server.addr(), &HttpRequest::get("/")).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body_text(), "once");
    }

    #[test]
    fn oneshot_timeout_gives_up_on_a_silent_server() {
        // Accepts (the kernel completes the handshake) and never answers.
        let silent = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let started = std::time::Instant::now();
        let outcome = HttpClient::oneshot_timeout(
            silent.local_addr().unwrap(),
            &HttpRequest::get("/healthz"),
            Duration::from_millis(50),
        );
        assert!(outcome.is_err());
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn connect_to_dead_port_errors() {
        // Bind and immediately drop to obtain a (very likely) dead port.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        assert!(HttpClient::connect(addr).is_err());
    }
}
