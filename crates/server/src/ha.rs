//! High-availability: master→slave QoS-table replication.
//!
//! "When high-availability is desired, an optional slave node can be
//! configured for each QoS server. The slave node continuously replicates
//! the local QoS rule table from the master node at a configurable
//! interval." (paper §III-C). The same TCP listener doubles as the health
//! probe target for the DNS failover record: while a connect succeeds the
//! master is considered healthy.
//!
//! Protocol (line-based, like the database wire):
//!
//! ```text
//! slave:   SNAPSHOT\n
//! master:  SNAPSHOT <n>\n  followed by n rule rows
//! ```

use crate::core::{decode_snapshot_header, encode_snapshot};
use janus_bucket::QosTable;
use janus_clock::SharedClock;
use janus_net::TcpService;
use janus_types::sync::Shutdown;
use janus_types::{JanusError, QosRule, Result};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Start the HA/health listener for a QoS server's table. The owner
/// keeps the returned service: dropping it frees the port.
pub(crate) fn spawn_ha_listener(
    table: Arc<dyn QosTable>,
    clock: SharedClock,
) -> Result<TcpService> {
    TcpService::spawn("qos-ha", move |stream, _peer, _stop| {
        let _ = serve_ha_connection(stream, &*table, &clock);
    })
}

fn serve_ha_connection(stream: TcpStream, table: &dyn QosTable, clock: &SharedClock) -> Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        match line.trim_end() {
            "SNAPSHOT" => {
                let out = encode_snapshot(&table.snapshot(clock.now()));
                reader.get_mut().write_all(out.as_bytes())?;
            }
            // Health probes just connect and close; tolerate anything else.
            _ => {
                reader.get_mut().write_all(b"ERR unknown command\n")?;
            }
        }
    }
}

/// Fetch one snapshot from a master's HA port.
pub fn fetch_snapshot(master_ha: SocketAddr) -> Result<Vec<QosRule>> {
    let stream = TcpStream::connect(master_ha)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    reader.get_mut().write_all(b"SNAPSHOT\n")?;
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Err(JanusError::state("master closed during snapshot"));
    }
    let n = decode_snapshot_header(header.trim_end())
        .ok_or_else(|| JanusError::state(format!("bad snapshot header {header:?}")))?;
    let mut rules = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = String::new();
        if reader.read_line(&mut row)? == 0 {
            return Err(JanusError::state("master closed mid-snapshot"));
        }
        rules.push(QosRule::parse_row(row.trim_end_matches(['\r', '\n']))?);
    }
    Ok(rules)
}

/// A slave-side replication loop: one thread that pulls the master's
/// table every `interval` and restores it into the slave's local table,
/// so a promoted slave "already has an up-to-date local QoS table".
pub struct SlaveReplicator {
    stop: Shutdown,
    rounds: Arc<AtomicU64>,
    failures: Arc<AtomicU64>,
}

impl SlaveReplicator {
    /// Start replicating `master_ha` into `table`.
    pub fn spawn(
        master_ha: SocketAddr,
        table: Arc<dyn QosTable>,
        clock: SharedClock,
        interval: Duration,
    ) -> SlaveReplicator {
        let stop = Shutdown::new();
        let rounds = Arc::new(AtomicU64::new(0));
        let failures = Arc::new(AtomicU64::new(0));
        let (stopped, rounds_seen, failures_seen) =
            (stop.clone(), Arc::clone(&rounds), Arc::clone(&failures));
        thread::Builder::new()
            .name("qos-slave-replicator".into())
            .spawn(move || {
                // First pull at once, then one per interval.
                let mut wait = Duration::ZERO;
                while !stopped.wait_timeout(wait) {
                    match fetch_snapshot(master_ha) {
                        Ok(rules) => {
                            table.restore(rules, clock.now());
                            rounds_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failures_seen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    wait = interval;
                }
            })
            .expect("spawn slave replicator thread");
        SlaveReplicator {
            stop,
            rounds,
            failures,
        }
    }

    /// Successful replication rounds so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Failed replication attempts so far (master unreachable).
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Stop replicating (the moment of promotion).
    pub fn stop(&self) {
        self.stop.trigger();
    }
}

impl Drop for SlaveReplicator {
    fn drop(&mut self) {
        self.stop.trigger();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QosServer, QosServerConfig};
    use janus_bucket::ShardedTable;
    use janus_types::{Credits, QosKey};

    fn rule(s: &str, cap: u64, rate: u64) -> QosRule {
        QosRule::per_second(QosKey::new(s).unwrap(), cap, rate)
    }

    #[test]
    fn snapshot_roundtrips_master_table() {
        let master = QosServer::spawn(
            QosServerConfig::test_defaults(),
            None,
            janus_clock::system(),
        )
        .unwrap();
        let now = master.clock().now();
        master.table().insert(rule("a", 100, 10), now);
        master.table().insert(rule("b", 50, 5), now);

        let snapshot = fetch_snapshot(master.ha_addr()).unwrap();
        assert_eq!(snapshot.len(), 2);
        let a = snapshot.iter().find(|r| r.key.as_str() == "a").unwrap();
        assert_eq!(a.capacity, Credits::from_whole(100));
    }

    #[test]
    fn slave_converges_to_master_state() {
        let master = QosServer::spawn(
            QosServerConfig::test_defaults(),
            None,
            janus_clock::system(),
        )
        .unwrap();
        let now = master.clock().now();
        master.table().insert(rule("tenant", 100, 0), now);
        // Drain some credit so the slave must see partial state.
        for _ in 0..30 {
            master
                .table()
                .decide(&QosKey::new("tenant").unwrap(), master.clock().now());
        }

        let slave_table: Arc<dyn QosTable> = Arc::new(ShardedTable::new());
        let replicator = SlaveReplicator::spawn(
            master.ha_addr(),
            Arc::clone(&slave_table),
            janus_clock::system(),
            Duration::from_millis(20),
        );

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = slave_table.snapshot(janus_clock::system().now());
            if let Some(r) = snap.iter().find(|r| r.key.as_str() == "tenant") {
                if r.credit == Credits::from_whole(70) {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "slave never converged"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(replicator.rounds() >= 1);
        replicator.stop();
    }

    #[test]
    fn replicator_counts_failures_against_dead_master() {
        let dead = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);

        let slave_table: Arc<dyn QosTable> = Arc::new(ShardedTable::new());
        let replicator = SlaveReplicator::spawn(
            dead_addr,
            slave_table,
            janus_clock::system(),
            Duration::from_millis(10),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while replicator.failures() == 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(replicator.rounds(), 0);
    }

    #[test]
    fn ha_port_answers_health_probe_connects() {
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            None,
            janus_clock::system(),
        )
        .unwrap();
        // A Route53-style probe is just a TCP connect.
        assert!(TcpStream::connect(server.ha_addr()).is_ok());
        server.shutdown();
    }

    #[test]
    fn unknown_ha_command_gets_error_line() {
        let server = QosServer::spawn(
            QosServerConfig::test_defaults(),
            None,
            janus_clock::system(),
        )
        .unwrap();
        let stream = TcpStream::connect(server.ha_addr()).unwrap();
        let mut reader = BufReader::new(stream);
        reader.get_mut().write_all(b"GIMME\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR"), "{line}");
    }
}
