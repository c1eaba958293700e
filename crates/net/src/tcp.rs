//! The TCP accept loop every line-protocol server in the workspace shares
//! (HTTP, the database, the HA port, the demo app's cache and photo
//! store): one named accept thread, one thread per connection — the
//! paper's Apache and MySQL are thread-per-connection servers too.

use janus_types::sync::Shutdown;
use janus_types::Result;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

/// A listening TCP service. Dropping the handle (or
/// [`shutdown`](Self::shutdown)) stops the accept thread and frees the
/// port; connections already accepted run until their peer closes or
/// their handler returns.
#[derive(Debug)]
pub struct TcpService {
    addr: SocketAddr,
    shutdown: Shutdown,
}

impl TcpService {
    /// Bind an ephemeral loopback port and run `serve(stream, peer, stop)`
    /// on a fresh thread per accepted connection; `stop` is the service's
    /// stop signal, for handlers that serve many requests per connection
    /// and should wind down with the service. Threads are named `name`
    /// with an `-accept` / `-conn` suffix.
    pub fn spawn(
        name: &str,
        serve: impl Fn(TcpStream, SocketAddr, &Shutdown) + Send + Sync + 'static,
    ) -> Result<TcpService> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Shutdown::new();
        let stopped = shutdown.clone();
        let serve = std::sync::Arc::new(serve);
        let conn_name = format!("{name}-conn");
        thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                while let Ok((stream, peer)) = listener.accept() {
                    if stopped.is_triggered() {
                        break;
                    }
                    let (serve, stopped) = (std::sync::Arc::clone(&serve), stopped.clone());
                    // A refused thread drops the connection: the peer
                    // sees a reset, exactly as from an overloaded server.
                    let _ = thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || serve(stream, peer, &stopped));
                }
            })?;
        Ok(TcpService { addr, shutdown })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections.
    pub fn shutdown(&self) {
        if !self.shutdown.is_triggered() {
            self.shutdown.trigger();
            // The accept thread is blocked in `accept`: a brief connect
            // wakes it so it observes the flag and drops the listener.
            let _ = TcpStream::connect_timeout(
                &crate::loopback_of(self.addr),
                std::time::Duration::from_millis(50),
            );
        }
    }
}

impl Drop for TcpService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn serves_each_connection_and_frees_the_port_on_shutdown() {
        let service = TcpService::spawn("echo", |mut stream, _peer, _stop| {
            let mut byte = [0u8; 1];
            while stream.read_exact(&mut byte).is_ok() {
                let _ = stream.write_all(&byte);
            }
        })
        .unwrap();
        let a = TcpStream::connect(service.addr()).unwrap();
        let b = TcpStream::connect(service.addr()).unwrap();
        // `Read`/`Write` are implemented for `&TcpStream`.
        for (mut stream, byte) in [(&a, b'a'), (&b, b'b'), (&a, b'c')] {
            stream.write_all(&[byte]).unwrap();
            let mut echoed = [0u8; 1];
            stream.read_exact(&mut echoed).unwrap();
            assert_eq!(echoed[0], byte);
        }
        let mut a = a;
        let addr = service.addr();
        service.shutdown();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while TcpStream::connect(addr).is_ok() {
            assert!(std::time::Instant::now() < deadline, "port still accepting");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // An accepted connection outlives the accept thread.
        a.write_all(b"z").unwrap();
        let mut echoed = [0u8; 1];
        a.read_exact(&mut echoed).unwrap();
        assert_eq!(&echoed, b"z");
    }
}
