//! The photo metadata store — the demo's "MySQL".
//!
//! A TCP line protocol over an in-memory table of uploads:
//!
//! ```text
//! add <user> <title...>\r\n   ->  OK <id>\r\n
//! latest <n>\r\n              ->  PHOTOS <k>\r\n + k lines "<id>\t<user>\t<title>"
//! count\r\n                   ->  COUNT <n>\r\n
//! ```
//!
//! A configurable per-query delay stands in for the real system's SQL and
//! disk work, so the demo's end-to-end latency has the paper's structure
//! (tens of milliseconds of application time vs ~3 ms of QoS time).

use janus_net::TcpService;
use janus_types::sync::RwLock;
use janus_types::{JanusError, Result};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One uploaded photo's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Photo {
    /// Upload id (monotonic).
    pub id: u64,
    /// Uploading user.
    pub user: String,
    /// Title text.
    pub title: String,
}

/// A running photo store: a [`TcpService`], one thread per connection.
pub struct PhotoServer {
    tcp: TcpService,
    queries: Arc<AtomicU64>,
}

impl PhotoServer {
    /// Spawn with a per-query artificial delay (0 for none).
    pub fn spawn(query_delay: Duration) -> Result<PhotoServer> {
        let photos: RwLock<Vec<Photo>> = RwLock::new(Vec::new());
        let next_id = AtomicU64::new(1);
        let queries = Arc::new(AtomicU64::new(0));
        let conn_queries = Arc::clone(&queries);
        let tcp = TcpService::spawn("photo-store", move |stream, _peer, _stop| {
            let _ = serve(stream, &photos, &next_id, &conn_queries, query_delay);
        })?;
        Ok(PhotoServer { tcp, queries })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.tcp.addr()
    }

    /// Queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Stop accepting connections.
    pub fn shutdown(&self) {
        self.tcp.shutdown();
    }
}

fn serve(
    stream: TcpStream,
    photos: &RwLock<Vec<Photo>>,
    next_id: &AtomicU64,
    queries: &AtomicU64,
    query_delay: Duration,
) -> Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        queries.fetch_add(1, Ordering::Relaxed);
        if !query_delay.is_zero() {
            std::thread::sleep(query_delay);
        }
        let trimmed = line.trim_end();
        let reply = if let Some(rest) = trimmed.strip_prefix("add ") {
            match rest.split_once(' ') {
                Some((user, title)) if !user.is_empty() && !title.is_empty() => {
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    photos.write().push(Photo {
                        id,
                        user: user.to_string(),
                        title: title.to_string(),
                    });
                    format!("OK {id}\r\n")
                }
                _ => "ERR add needs user and title\r\n".to_string(),
            }
        } else if let Some(n) = trimmed.strip_prefix("latest ") {
            match n.parse::<usize>() {
                Ok(n) => {
                    let guard = photos.read();
                    let take = n.min(guard.len()).min(1000);
                    let mut out = format!("PHOTOS {take}\r\n");
                    for photo in guard.iter().rev().take(take) {
                        out.push_str(&format!(
                            "{}\t{}\t{}\r\n",
                            photo.id, photo.user, photo.title
                        ));
                    }
                    out
                }
                Err(_) => "ERR bad count\r\n".to_string(),
            }
        } else if trimmed == "count" {
            format!("COUNT {}\r\n", photos.read().len())
        } else {
            "ERR unknown command\r\n".to_string()
        };
        reader.get_mut().write_all(reply.as_bytes())?;
    }
}

/// Client for the photo store protocol.
#[derive(Debug)]
pub struct PhotoClient {
    reader: BufReader<TcpStream>,
}

impl PhotoClient {
    /// Connect to a photo store.
    pub fn connect(addr: SocketAddr) -> Result<PhotoClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(PhotoClient {
            reader: BufReader::new(stream),
        })
    }

    fn line(&mut self) -> Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(JanusError::state("photo store closed connection"));
        }
        Ok(line.trim_end().to_string())
    }

    /// Record an upload; returns its id.
    pub fn add(&mut self, user: &str, title: &str) -> Result<u64> {
        let command = format!("add {user} {title}\r\n");
        self.reader.get_mut().write_all(command.as_bytes())?;
        let reply = self.line()?;
        reply
            .strip_prefix("OK ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| JanusError::state(format!("bad add reply {reply:?}")))
    }

    /// The latest `n` uploads, newest first.
    pub fn latest(&mut self, n: usize) -> Result<Vec<Photo>> {
        let command = format!("latest {n}\r\n");
        self.reader.get_mut().write_all(command.as_bytes())?;
        let header = self.line()?;
        let k: usize = header
            .strip_prefix("PHOTOS ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| JanusError::state(format!("bad latest reply {header:?}")))?;
        let mut photos = Vec::with_capacity(k);
        for _ in 0..k {
            let row = self.line()?;
            let mut parts = row.splitn(3, '\t');
            let id = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| JanusError::state(format!("bad photo row {row:?}")))?;
            let user = parts
                .next()
                .ok_or_else(|| JanusError::state("photo row missing user"))?
                .to_string();
            let title = parts
                .next()
                .ok_or_else(|| JanusError::state("photo row missing title"))?
                .to_string();
            photos.push(Photo { id, user, title });
        }
        Ok(photos)
    }

    /// Total uploads.
    pub fn count(&mut self) -> Result<u64> {
        self.reader.get_mut().write_all(b"count\r\n")?;
        let reply = self.line()?;
        reply
            .strip_prefix("COUNT ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| JanusError::state(format!("bad count reply {reply:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_list_latest() {
        let server = PhotoServer::spawn(Duration::ZERO).unwrap();
        let mut client = PhotoClient::connect(server.addr()).unwrap();
        for i in 1..=5 {
            let id = client.add("alice", &format!("photo {i}")).unwrap();
            assert_eq!(id, i);
        }
        let latest = client.latest(3).unwrap();
        assert_eq!(latest.len(), 3);
        assert_eq!(latest[0].title, "photo 5");
        assert_eq!(latest[2].title, "photo 3");
        assert_eq!(client.count().unwrap(), 5);
    }

    #[test]
    fn latest_on_empty_store() {
        let server = PhotoServer::spawn(Duration::ZERO).unwrap();
        let mut client = PhotoClient::connect(server.addr()).unwrap();
        assert!(client.latest(10).unwrap().is_empty());
        assert_eq!(client.count().unwrap(), 0);
    }

    #[test]
    fn titles_with_spaces() {
        let server = PhotoServer::spawn(Duration::ZERO).unwrap();
        let mut client = PhotoClient::connect(server.addr()).unwrap();
        client.add("bob", "sunset at the beach").unwrap();
        let latest = client.latest(1).unwrap();
        assert_eq!(latest[0].title, "sunset at the beach");
        assert_eq!(latest[0].user, "bob");
    }

    #[test]
    fn query_delay_is_applied() {
        let server = PhotoServer::spawn(Duration::from_millis(30)).unwrap();
        let mut client = PhotoClient::connect(server.addr()).unwrap();
        let start = std::time::Instant::now();
        client.latest(1).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn malformed_commands_get_errors() {
        let server = PhotoServer::spawn(Duration::ZERO).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        for bad in ["add onlyuser\r\n", "latest x\r\n", "nonsense\r\n"] {
            reader.get_mut().write_all(bad.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("ERR"), "{bad:?} -> {line:?}");
        }
    }
}
