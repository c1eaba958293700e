//! The HTTP server loop shared by routers, the gateway LB and apps, over
//! [`TcpService`]: one accept thread, one thread per connection.

use super::message::{HttpRequest, HttpResponse, StatusCode};
use super::parser::{read_request, ParseLimits};
use crate::tcp::TcpService;
use janus_types::sync::Shutdown;
use janus_types::Result;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A request handler. Implemented by the request router, the gateway LB
/// and the demo application front ends. Runs on the connection's thread
/// and may block.
pub trait HttpHandler: Send + Sync + 'static {
    /// Handle one request from `peer`.
    fn handle(&self, request: HttpRequest, peer: SocketAddr) -> HttpResponse;
}

/// Blanket impl so plain closures can serve as handlers.
impl<F> HttpHandler for F
where
    F: Fn(HttpRequest, SocketAddr) -> HttpResponse + Send + Sync + 'static,
{
    fn handle(&self, request: HttpRequest, peer: SocketAddr) -> HttpResponse {
        self(request, peer)
    }
}

/// A running HTTP/1.1 server with keep-alive.
///
/// Dropping the handle (or calling [`shutdown`](Self::shutdown)) stops the
/// accept thread; in-flight connections finish their current request.
#[derive(Debug)]
pub struct HttpServer {
    tcp: TcpService,
    connections: Arc<AtomicU64>,
    requests: Arc<AtomicU64>,
}

impl HttpServer {
    /// Bind to an ephemeral loopback port and start serving `handler`.
    pub fn spawn(handler: Arc<dyn HttpHandler>) -> Result<HttpServer> {
        Self::spawn_with_limits(handler, ParseLimits::default())
    }

    /// Bind with explicit parse limits.
    pub fn spawn_with_limits(
        handler: Arc<dyn HttpHandler>,
        limits: ParseLimits,
    ) -> Result<HttpServer> {
        let connections = Arc::new(AtomicU64::new(0));
        let requests = Arc::new(AtomicU64::new(0));
        let (conn_count, req_count) = (Arc::clone(&connections), Arc::clone(&requests));
        let tcp = TcpService::spawn("janus-http", move |stream, peer, shutdown| {
            conn_count.fetch_add(1, Ordering::Relaxed);
            let _ = serve_connection(stream, peer, &*handler, &limits, shutdown, &req_count);
        })?;
        Ok(HttpServer {
            tcp,
            connections,
            requests,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.tcp.addr()
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Stop accepting connections and stop serving new requests on
    /// existing ones.
    pub fn shutdown(&self) {
        self.tcp.shutdown();
    }
}

fn serve_connection(
    stream: TcpStream,
    peer: SocketAddr,
    handler: &dyn HttpHandler,
    limits: &ParseLimits,
    shutdown: &Shutdown,
    requests: &AtomicU64,
) -> Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    loop {
        if shutdown.is_triggered() {
            return Ok(());
        }
        let request = match read_request(&mut reader, limits) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // clean keep-alive close
            Err(_) => {
                // Malformed request: answer 400 and drop the connection.
                let resp = HttpResponse::status(StatusCode::BAD_REQUEST);
                let _ = reader.get_mut().write_all(&resp.to_bytes());
                return Ok(());
            }
        };
        requests.fetch_add(1, Ordering::Relaxed);
        let close = request.wants_close();
        let response = handler.handle(request, peer);
        reader.get_mut().write_all(&response.to_bytes())?;
        if close {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpClient;

    fn echo_server() -> HttpServer {
        HttpServer::spawn(Arc::new(|req: HttpRequest, peer: SocketAddr| {
            HttpResponse::ok(format!("{} {} from {}", req.method, req.target, peer.ip()))
        }))
        .unwrap()
    }

    #[test]
    fn serves_basic_request() {
        let server = echo_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let resp = client.request(&HttpRequest::get("/hello")).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body_text(), "GET /hello from 127.0.0.1");
        assert_eq!(server.requests(), 1);
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let server = echo_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for i in 0..10 {
            let resp = client
                .request(&HttpRequest::get(format!("/req{i}")))
                .unwrap();
            assert!(resp.body_text().contains(&format!("/req{i}")));
        }
        assert_eq!(
            server.connections(),
            1,
            "keep-alive should reuse one TCP connection"
        );
        assert_eq!(server.requests(), 10);
    }

    #[test]
    fn parallel_clients_are_served() {
        let server = echo_server();
        let addr = server.addr();
        let mut handles = Vec::new();
        for i in 0..16 {
            handles.push(std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let resp = client
                    .request(&HttpRequest::get(format!("/client{i}")))
                    .unwrap();
                assert!(resp.body_text().contains(&format!("/client{i}")));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.requests(), 16);
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::Read;
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    }

    #[test]
    fn connection_close_honored() {
        use std::io::Read;
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let req = HttpRequest::get("/bye").with_header("connection", "close");
        stream.write_all(&req.to_bytes()).unwrap();
        let mut buf = Vec::new();
        // read_to_end only returns if the server actually closes.
        stream.read_to_end(&mut buf).unwrap();
        assert!(String::from_utf8_lossy(&buf).starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn shutdown_stops_new_connections() {
        let server = echo_server();
        let addr = server.addr();
        server.shutdown();
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Either the connect fails outright or the first request errors.
        let outcome = HttpClient::connect(addr)
            .and_then(|mut client| client.request(&HttpRequest::get("/after")));
        assert!(outcome.is_err(), "server answered after shutdown");
    }
}
