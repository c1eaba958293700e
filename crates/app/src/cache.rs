//! A memcached-style cache server (the demo app's session store).
//!
//! Text protocol, a faithful subset of memcached's:
//!
//! ```text
//! set <key> <bytes>\r\n<data>\r\n      ->  STORED\r\n
//! get <key>\r\n                        ->  VALUE <key> <bytes>\r\n<data>\r\nEND\r\n
//!                                      or  END\r\n            (miss)
//! delete <key>\r\n                     ->  DELETED\r\n | NOT_FOUND\r\n
//! ```

use janus_net::TcpService;
use janus_types::sync::RwLock;
use janus_types::{JanusError, Result};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAX_VALUE_BYTES: usize = 1024 * 1024;

/// A running cache server: a [`TcpService`], one thread per connection.
pub struct CacheServer {
    tcp: TcpService,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

type Store = RwLock<HashMap<String, Vec<u8>>>;

impl CacheServer {
    /// Bind an ephemeral loopback port and serve.
    pub fn spawn() -> Result<CacheServer> {
        let store: Store = RwLock::new(HashMap::new());
        let hits = Arc::new(AtomicU64::new(0));
        let misses = Arc::new(AtomicU64::new(0));
        let (conn_hits, conn_misses) = (Arc::clone(&hits), Arc::clone(&misses));
        let tcp = TcpService::spawn("cache", move |stream, _peer, _stop| {
            let _ = serve(stream, &store, &conn_hits, &conn_misses);
        })?;
        Ok(CacheServer { tcp, hits, misses })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.tcp.addr()
    }

    /// GET hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// GET misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Stop accepting connections.
    pub fn shutdown(&self) {
        self.tcp.shutdown();
    }
}

fn serve(stream: TcpStream, store: &Store, hits: &AtomicU64, misses: &AtomicU64) -> Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let parts: Vec<&str> = line.trim_end().split(' ').collect();
        match parts.as_slice() {
            ["set", key, bytes] => {
                let len: usize = match bytes.parse() {
                    Ok(n) if n <= MAX_VALUE_BYTES => n,
                    _ => {
                        reader.get_mut().write_all(b"CLIENT_ERROR bad length\r\n")?;
                        continue;
                    }
                };
                let mut data = vec![0u8; len + 2]; // value + trailing \r\n
                reader.read_exact(&mut data)?;
                data.truncate(len);
                store.write().insert(key.to_string(), data);
                reader.get_mut().write_all(b"STORED\r\n")?;
            }
            ["get", key] => {
                let value = store.read().get(*key).cloned();
                match value {
                    Some(data) => {
                        hits.fetch_add(1, Ordering::Relaxed);
                        let header = format!("VALUE {key} {}\r\n", data.len());
                        reader.get_mut().write_all(header.as_bytes())?;
                        reader.get_mut().write_all(&data)?;
                        reader.get_mut().write_all(b"\r\nEND\r\n")?;
                    }
                    None => {
                        misses.fetch_add(1, Ordering::Relaxed);
                        reader.get_mut().write_all(b"END\r\n")?;
                    }
                }
            }
            ["delete", key] => {
                let existed = store.write().remove(*key).is_some();
                let reply: &[u8] = if existed {
                    b"DELETED\r\n"
                } else {
                    b"NOT_FOUND\r\n"
                };
                reader.get_mut().write_all(reply)?;
            }
            _ => {
                reader.get_mut().write_all(b"ERROR\r\n")?;
            }
        }
    }
}

/// Client for the cache protocol.
#[derive(Debug)]
pub struct CacheClient {
    reader: BufReader<TcpStream>,
}

impl CacheClient {
    /// Connect to a cache server.
    pub fn connect(addr: SocketAddr) -> Result<CacheClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(CacheClient {
            reader: BufReader::new(stream),
        })
    }

    /// Store a value.
    pub fn set(&mut self, key: &str, value: &[u8]) -> Result<()> {
        let header = format!("set {key} {}\r\n", value.len());
        self.reader.get_mut().write_all(header.as_bytes())?;
        self.reader.get_mut().write_all(value)?;
        self.reader.get_mut().write_all(b"\r\n")?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if line.trim_end() == "STORED" {
            Ok(())
        } else {
            Err(JanusError::state(format!("cache set failed: {line:?}")))
        }
    }

    /// Fetch a value, `None` on miss.
    pub fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>> {
        let command = format!("get {key}\r\n");
        self.reader.get_mut().write_all(command.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line == "END" {
            return Ok(None);
        }
        let len: usize = line
            .strip_prefix(&format!("VALUE {key} "))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| JanusError::state(format!("bad cache reply {line:?}")))?;
        let mut data = vec![0u8; len + 2];
        self.reader.read_exact(&mut data)?;
        data.truncate(len);
        let mut end = String::new();
        self.reader.read_line(&mut end)?;
        if end.trim_end() != "END" {
            return Err(JanusError::state(format!("bad cache trailer {end:?}")));
        }
        Ok(Some(data))
    }

    /// Delete a key; true if it existed.
    pub fn delete(&mut self, key: &str) -> Result<bool> {
        let command = format!("delete {key}\r\n");
        self.reader.get_mut().write_all(command.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line.trim_end() == "DELETED")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let server = CacheServer::spawn().unwrap();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("session:1").unwrap(), None);
        client.set("session:1", b"user=alice").unwrap();
        assert_eq!(
            client.get("session:1").unwrap().as_deref(),
            Some(&b"user=alice"[..])
        );
        assert_eq!(server.hits(), 1);
        assert_eq!(server.misses(), 1);
    }

    #[test]
    fn values_with_newlines_survive() {
        let server = CacheServer::spawn().unwrap();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        let payload = b"line1\r\nline2\nEND\r\nmore";
        client.set("tricky", payload).unwrap();
        assert_eq!(client.get("tricky").unwrap().as_deref(), Some(&payload[..]));
    }

    #[test]
    fn delete_semantics() {
        let server = CacheServer::spawn().unwrap();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        client.set("k", b"v").unwrap();
        assert!(client.delete("k").unwrap());
        assert!(!client.delete("k").unwrap());
        assert_eq!(client.get("k").unwrap(), None);
    }

    #[test]
    fn overwrite_replaces_value() {
        let server = CacheServer::spawn().unwrap();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        client.set("k", b"old").unwrap();
        client.set("k", b"new-value").unwrap();
        assert_eq!(client.get("k").unwrap().as_deref(), Some(&b"new-value"[..]));
    }

    #[test]
    fn empty_value_roundtrips() {
        let server = CacheServer::spawn().unwrap();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        client.set("empty", b"").unwrap();
        assert_eq!(client.get("empty").unwrap().as_deref(), Some(&b""[..]));
    }

    #[test]
    fn concurrent_clients() {
        let server = CacheServer::spawn().unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for i in 0..8 {
            handles.push(std::thread::spawn(move || {
                let mut client = CacheClient::connect(addr).unwrap();
                let key = format!("k{i}");
                client.set(&key, format!("v{i}").as_bytes()).unwrap();
                assert_eq!(
                    client.get(&key).unwrap(),
                    Some(format!("v{i}").into_bytes())
                );
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
