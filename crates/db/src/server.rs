//! The database TCP server and its wire protocol.
//!
//! The protocol is deliberately telnet-friendly, one line per message:
//!
//! ```text
//! client:  SELECT * FROM qos_rules WHERE qos_key = 'alice'\n
//! server:  ROWS 1\n
//!          alice\t100\t1000\t998.5\n
//! ```
//!
//! Responses: `ROWS <n>` + n tab-separated rows (`key, refill_rate,
//! capacity, credit` as exact decimals), `COUNT <n>`, `OK <affected>`,
//! `VERSION <v>`, or `ERR <message>`. Keys cannot contain control
//! characters (enforced by [`janus_types::QosKey`]), so the line framing
//! is unambiguous.
//!
//! For high availability a server can forward every mutating statement to
//! a standby (`Multi-AZ` style). Forwarding happens on its own thread and is
//! best-effort, exactly like a replication link; the standby is promoted
//! by flipping the DNS failover record, which [`crate::client::DbClient`]
//! callers re-resolve on reconnect.

use crate::engine::RulesEngine;
use crate::sql::{self, SqlResponse};
use janus_net::TcpService;
use janus_types::sync::Mutex;
use janus_types::Result;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// Render one rule as a wire row. Delegates to [`janus_types::QosRule::to_row`]
/// (the row format is shared with the HA snapshot core); kept under the
/// historic name for existing callers.
pub fn format_rule_row(rule: &janus_types::QosRule) -> String {
    rule.to_row()
}

/// Parse one wire row back into a rule.
pub fn parse_rule_row(line: &str) -> Result<janus_types::QosRule> {
    janus_types::QosRule::parse_row(line)
}

fn encode_response(resp: &Result<SqlResponse>) -> String {
    match resp {
        Ok(SqlResponse::Rows(rows)) => {
            let mut out = format!("ROWS {}\n", rows.len());
            for rule in rows {
                out.push_str(&format_rule_row(rule));
                out.push('\n');
            }
            out
        }
        Ok(SqlResponse::Count(n)) => format!("COUNT {n}\n"),
        Ok(SqlResponse::Ok { affected }) => format!("OK {affected}\n"),
        Ok(SqlResponse::Version(v)) => format!("VERSION {v}\n"),
        Err(e) => {
            let msg: String = e
                .to_string()
                .chars()
                .map(|c| if c.is_control() { ' ' } else { c })
                .collect();
            format!("ERR {msg}\n")
        }
    }
}

fn is_mutation(query: &str) -> bool {
    let head = query.trim_start().get(..6).unwrap_or("");
    head.eq_ignore_ascii_case("insert")
        || head.eq_ignore_ascii_case("update")
        || head.eq_ignore_ascii_case("delete")
}

/// A running database node: a [`TcpService`] (one accept thread, one
/// thread per connection) and, with a standby, one replication-link
/// thread.
pub struct DbServer {
    tcp: TcpService,
    engine: Arc<RulesEngine>,
    queries: Arc<AtomicU64>,
    replication: Option<mpsc::Sender<String>>,
}

impl DbServer {
    /// Bind an ephemeral loopback port and serve `engine`.
    pub fn spawn(engine: Arc<RulesEngine>) -> Result<DbServer> {
        Self::spawn_inner(engine, None)
    }

    /// Spawn a master that forwards mutations to the standby at
    /// `standby_addr`.
    pub fn spawn_with_standby(
        engine: Arc<RulesEngine>,
        standby_addr: SocketAddr,
    ) -> Result<DbServer> {
        Self::spawn_inner(engine, Some(standby_addr))
    }

    fn spawn_inner(engine: Arc<RulesEngine>, standby_addr: Option<SocketAddr>) -> Result<DbServer> {
        let queries = Arc::new(AtomicU64::new(0));
        let replication = match standby_addr {
            Some(standby) => {
                let (tx, rx) = mpsc::channel::<String>();
                thread::Builder::new()
                    .name("janus-db-replication".into())
                    .spawn(move || replicate(standby, rx))?;
                Some(tx)
            }
            None => None,
        };
        // `mpsc::Sender` is `Send` but not `Sync`: each connection thread
        // takes its own clone out of the mutex.
        let (conn_engine, conn_queries, conn_replication) = (
            Arc::clone(&engine),
            Arc::clone(&queries),
            Mutex::new(replication.clone()),
        );
        let tcp = TcpService::spawn("janus-db", move |stream, _peer, _stop| {
            let replication = conn_replication.lock().clone();
            let _ = serve_connection(stream, &conn_engine, &conn_queries, replication);
        })?;
        Ok(DbServer {
            tcp,
            engine,
            queries,
            replication,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.tcp.addr()
    }

    /// The engine behind this server (tests inspect it directly).
    pub fn engine(&self) -> &Arc<RulesEngine> {
        &self.engine
    }

    /// Queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Stop accepting connections.
    pub fn shutdown(&self) {
        self.tcp.shutdown();
    }

    /// Is this server forwarding to a standby?
    pub fn has_standby(&self) -> bool {
        self.replication.is_some()
    }
}

/// The replication link: forward every statement from `rx` to the
/// standby until the last sender (the server and its connections) is
/// gone.
fn replicate(standby: SocketAddr, rx: mpsc::Receiver<String>) {
    let mut link: Option<BufReader<TcpStream>> = None;
    for mut statement in rx {
        // (Re)connect lazily; drop the statement if the standby is
        // unreachable — replication is best-effort, and a promoted
        // standby re-syncs from checkpoints.
        if link.is_none() {
            link = TcpStream::connect(standby).ok().map(BufReader::new);
        }
        let Some(reader) = link.as_mut() else {
            continue;
        };
        statement.push('\n');
        // Drain the one response line so the standby's writer does not
        // block; errors reset the link.
        let mut resp = String::new();
        if reader.get_mut().write_all(statement.as_bytes()).is_err()
            || reader.read_line(&mut resp).is_err()
        {
            link = None;
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    engine: &RulesEngine,
    queries: &AtomicU64,
    replication: Option<mpsc::Sender<String>>,
) -> Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let query = line.trim_end_matches(['\r', '\n']);
        if query.is_empty() {
            continue;
        }
        queries.fetch_add(1, Ordering::Relaxed);
        let result = sql::execute(engine, query);
        if result.is_ok() && is_mutation(query) {
            if let Some(tx) = &replication {
                let _ = tx.send(query.to_string());
            }
        }
        let response = encode_response(&result);
        reader.get_mut().write_all(response.as_bytes())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_types::{Credits, QosKey, QosRule, RefillRate};

    fn rule(key: &str, cap: u64, rate: u64) -> QosRule {
        QosRule::per_second(QosKey::new(key).unwrap(), cap, rate)
    }

    #[test]
    fn row_roundtrip() {
        let mut r = rule("alice:photos", 1000, 100);
        r.credit = Credits::from_micro(998_500_000);
        let row = format_rule_row(&r);
        assert_eq!(row, "alice:photos\t100\t1000\t998.5");
        assert_eq!(parse_rule_row(&row).unwrap(), r);
    }

    #[test]
    fn row_roundtrip_fractional_rate() {
        let r = QosRule::new(
            QosKey::new("slow").unwrap(),
            Credits::from_whole(1),
            RefillRate::from_micro_per_sec(16_666),
        );
        let parsed = parse_rule_row(&format_rule_row(&r)).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_row_rejects_malformed() {
        assert!(parse_rule_row("").is_err());
        assert!(parse_rule_row("key\t1\t2").is_err());
        assert!(parse_rule_row("key\t1\t2\t3\t4").is_err());
        assert!(parse_rule_row("key\tx\t2\t3").is_err());
    }

    #[test]
    fn mutation_detection() {
        assert!(is_mutation("INSERT INTO qos_rules ..."));
        assert!(is_mutation("  update qos_rules ..."));
        assert!(is_mutation("DELETE FROM qos_rules WHERE qos_key='x'"));
        assert!(!is_mutation("SELECT * FROM qos_rules"));
        assert!(!is_mutation("VERSION"));
        assert!(!is_mutation("IN"));
    }

    #[test]
    fn error_encoding_is_single_line() {
        let err: Result<SqlResponse> = Err(janus_types::JanusError::db("bad\nthing\thappened"));
        let encoded = encode_response(&err);
        assert!(encoded.starts_with("ERR "));
        assert_eq!(encoded.matches('\n').count(), 1);
    }

    #[test]
    fn serves_queries_over_tcp() {
        let engine = Arc::new(RulesEngine::new());
        engine.put(rule("alice", 1000, 100));
        let server = DbServer::spawn(engine).unwrap();

        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        reader
            .get_mut()
            .write_all(b"SELECT * FROM qos_rules WHERE qos_key = 'alice'\n")
            .unwrap();
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        assert_eq!(header, "ROWS 1\n");
        let mut row = String::new();
        reader.read_line(&mut row).unwrap();
        assert!(row.starts_with("alice\t100\t1000\t"), "{row}");
        assert_eq!(server.queries(), 1);
    }

    #[test]
    fn bad_sql_gets_err_not_disconnect() {
        let server = DbServer::spawn(Arc::new(RulesEngine::new())).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        reader
            .get_mut()
            .write_all(b"DROP TABLE qos_rules\nVERSION\n")
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR "), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with("VERSION "),
            "connection should survive: {line}"
        );
    }

    #[test]
    fn standby_receives_mutations() {
        let standby_engine = Arc::new(RulesEngine::new());
        let standby = DbServer::spawn(Arc::clone(&standby_engine)).unwrap();

        let master_engine = Arc::new(RulesEngine::new());
        let master =
            DbServer::spawn_with_standby(Arc::clone(&master_engine), standby.addr()).unwrap();
        assert!(master.has_standby());

        let stream = TcpStream::connect(master.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        reader
            .get_mut()
            .write_all(
                b"INSERT INTO qos_rules (qos_key, refill_rate, capacity) VALUES ('r', 5, 50)\n",
            )
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "OK 1\n");

        // Replication is async; poll for it.
        let key = QosKey::new("r").unwrap();
        for _ in 0..100 {
            if standby_engine.get(&key).is_some() {
                assert_eq!(master_engine.get(&key), standby_engine.get(&key));
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("standby never received the mutation");
    }

    #[test]
    fn unreachable_standby_does_not_block_master() {
        // Point the master at a dead standby address.
        let dead = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);

        let master = DbServer::spawn_with_standby(Arc::new(RulesEngine::new()), dead_addr).unwrap();
        let stream = TcpStream::connect(master.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        reader
            .get_mut()
            .write_all(
                b"INSERT INTO qos_rules (qos_key, refill_rate, capacity) VALUES ('x', 1, 1)\n",
            )
            .unwrap();
        reader
            .get_ref()
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("master blocked on dead standby");
        assert_eq!(line, "OK 1\n");
    }
}
