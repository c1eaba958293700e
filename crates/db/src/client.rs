//! Typed client for the database wire protocol.

use crate::server::parse_rule_row;
use crate::sql::{format_micro, SqlResponse};
use janus_types::{Credits, JanusError, QosKey, QosRule, Result};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// A connection to a [`crate::DbServer`], with typed helpers for every
/// statement shape the QoS server issues.
#[derive(Debug)]
pub struct DbClient {
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
    /// When set, every socket operation must finish by this instant.
    deadline: Option<Instant>,
}

/// Escape a key for embedding in a single-quoted SQL literal.
fn sql_quote(key: &QosKey) -> String {
    key.as_str().replace('\'', "''")
}

impl DbClient {
    /// Connect to the database node at `addr`.
    pub fn connect(addr: SocketAddr) -> Result<DbClient> {
        Self::from_stream(TcpStream::connect(addr)?, addr, None)
    }

    /// Connect with a budget: the connect itself and every later
    /// operation fail with a timed-out I/O error once `deadline` passes
    /// (until [`set_deadline`](Self::set_deadline) moves it).
    pub fn connect_by(addr: SocketAddr, deadline: Instant) -> Result<DbClient> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::from(io::ErrorKind::TimedOut).into());
        }
        Self::from_stream(
            TcpStream::connect_timeout(&addr, left)?,
            addr,
            Some(deadline),
        )
    }

    fn from_stream(
        stream: TcpStream,
        addr: SocketAddr,
        deadline: Option<Instant>,
    ) -> Result<DbClient> {
        stream.set_nodelay(true)?;
        Ok(DbClient {
            reader: BufReader::new(stream),
            addr,
            deadline,
        })
    }

    /// Bound every later operation by `deadline`: a hung database then
    /// costs its caller a budget, not a thread.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Arm the socket timeouts from what is left of the deadline.
    fn arm(&self) -> Result<()> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::from(io::ErrorKind::TimedOut).into());
        }
        let stream = self.reader.get_ref();
        stream.set_read_timeout(Some(left))?;
        stream.set_write_timeout(Some(left))?;
        Ok(())
    }

    /// One response line; 0 bytes means the database hung up.
    fn read_line(&mut self, line: &mut String) -> Result<usize> {
        self.arm()?;
        Ok(self.reader.read_line(line)?)
    }

    /// The node this client is connected to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Execute a raw statement.
    pub fn query(&mut self, statement: &str) -> Result<SqlResponse> {
        debug_assert!(!statement.contains('\n'), "statements are single lines");
        let mut line = statement.to_string();
        line.push('\n');
        self.arm()?;
        self.reader.get_mut().write_all(line.as_bytes())?;

        let mut header = String::new();
        if self.read_line(&mut header)? == 0 {
            return Err(JanusError::db("connection closed by database"));
        }
        let header = header.trim_end();
        let (kind, arg) = header.split_once(' ').unwrap_or((header, ""));
        match kind {
            "ROWS" => {
                let n: usize = arg
                    .parse()
                    .map_err(|_| JanusError::db(format!("bad ROWS header {header:?}")))?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let mut row = String::new();
                    if self.read_line(&mut row)? == 0 {
                        return Err(JanusError::db("connection closed mid-result"));
                    }
                    rows.push(parse_rule_row(row.trim_end_matches(['\r', '\n']))?);
                }
                Ok(SqlResponse::Rows(rows))
            }
            "COUNT" => Ok(SqlResponse::Count(arg.parse().map_err(|_| {
                JanusError::db(format!("bad COUNT header {header:?}"))
            })?)),
            "OK" => Ok(SqlResponse::Ok {
                affected: arg
                    .parse()
                    .map_err(|_| JanusError::db(format!("bad OK header {header:?}")))?,
            }),
            "VERSION" => Ok(SqlResponse::Version(arg.parse().map_err(|_| {
                JanusError::db(format!("bad VERSION header {header:?}"))
            })?)),
            "ERR" => Err(JanusError::db(arg.to_string())),
            other => Err(JanusError::db(format!("unknown response {other:?}"))),
        }
    }

    /// Point lookup: the QoS server's first-sighting query.
    pub fn get_rule(&mut self, key: &QosKey) -> Result<Option<QosRule>> {
        let stmt = format!(
            "SELECT * FROM qos_rules WHERE qos_key = '{}'",
            sql_quote(key)
        );
        match self.query(&stmt)? {
            SqlResponse::Rows(mut rows) => Ok(rows.pop()),
            other => Err(JanusError::db(format!("unexpected response {other:?}"))),
        }
    }

    /// `SELECT * FROM qos_rules` — the warm-up full scan.
    pub fn load_all(&mut self) -> Result<Vec<QosRule>> {
        match self.query("SELECT * FROM qos_rules")? {
            SqlResponse::Rows(rows) => Ok(rows),
            other => Err(JanusError::db(format!("unexpected response {other:?}"))),
        }
    }

    /// One batch of the streaming warm-up scan: up to `limit` rows,
    /// hottest keys first (by the persisted touch counts), skipping the
    /// first `offset`. A shorter-than-`limit` result means the scan is
    /// exhausted.
    pub fn scan_rules(&mut self, offset: usize, limit: usize) -> Result<Vec<QosRule>> {
        let stmt =
            format!("SELECT * FROM qos_rules ORDER BY touches DESC LIMIT {limit} OFFSET {offset}");
        match self.query(&stmt)? {
            SqlResponse::Rows(rows) => Ok(rows),
            other => Err(JanusError::db(format!("unexpected response {other:?}"))),
        }
    }

    /// Fold `count` observed decisions into `key`'s persisted hotness
    /// (called at reclaim time; additive, not a rule change).
    pub fn record_touches(&mut self, key: &QosKey, count: u64) -> Result<()> {
        let stmt = format!(
            "UPDATE qos_rules SET touches = touches + {count} WHERE qos_key = '{}'",
            sql_quote(key),
        );
        match self.query(&stmt)? {
            SqlResponse::Ok { .. } => Ok(()),
            other => Err(JanusError::db(format!("unexpected response {other:?}"))),
        }
    }

    /// Insert or replace a full rule.
    pub fn upsert_rule(&mut self, rule: &QosRule) -> Result<()> {
        let stmt = format!(
            "INSERT INTO qos_rules (qos_key, refill_rate, capacity, credit) \
             VALUES ('{}', {}, {}, {})",
            sql_quote(&rule.key),
            format_micro(rule.refill_rate.micro_per_sec()),
            format_micro(rule.capacity.as_micro()),
            format_micro(rule.credit.as_micro()),
        );
        match self.query(&stmt)? {
            SqlResponse::Ok { .. } => Ok(()),
            other => Err(JanusError::db(format!("unexpected response {other:?}"))),
        }
    }

    /// Check-point a bucket's remaining credit. Returns false if the rule
    /// no longer exists (it may have been deleted by the operator).
    pub fn checkpoint_credit(&mut self, key: &QosKey, credit: Credits) -> Result<bool> {
        let stmt = format!(
            "UPDATE qos_rules SET credit = {} WHERE qos_key = '{}'",
            format_micro(credit.as_micro()),
            sql_quote(key),
        );
        match self.query(&stmt)? {
            SqlResponse::Ok { affected } => Ok(affected > 0),
            other => Err(JanusError::db(format!("unexpected response {other:?}"))),
        }
    }

    /// Delete a rule. Returns true if it existed.
    pub fn delete_rule(&mut self, key: &QosKey) -> Result<bool> {
        let stmt = format!("DELETE FROM qos_rules WHERE qos_key = '{}'", sql_quote(key));
        match self.query(&stmt)? {
            SqlResponse::Ok { affected } => Ok(affected > 0),
            other => Err(JanusError::db(format!("unexpected response {other:?}"))),
        }
    }

    /// `SELECT COUNT(*) FROM qos_rules`.
    pub fn count(&mut self) -> Result<u64> {
        match self.query("SELECT COUNT(*) FROM qos_rules")? {
            SqlResponse::Count(n) => Ok(n),
            other => Err(JanusError::db(format!("unexpected response {other:?}"))),
        }
    }

    /// Current rule-table version (sync optimization).
    pub fn version(&mut self) -> Result<u64> {
        match self.query("VERSION")? {
            SqlResponse::Version(v) => Ok(v),
            other => Err(JanusError::db(format!("unexpected response {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DbServer, RulesEngine};
    use janus_types::RefillRate;
    use std::sync::Arc;

    fn rule(key: &str, cap: u64, rate: u64) -> QosRule {
        QosRule::per_second(QosKey::new(key).unwrap(), cap, rate)
    }

    fn spawn_db(rules: &[QosRule]) -> DbServer {
        let engine = Arc::new(RulesEngine::new());
        engine.load(rules.iter().cloned());
        DbServer::spawn(engine).unwrap()
    }

    #[test]
    fn deadline_bounds_a_silent_database() {
        // Accepts and never speaks: without a deadline the query would
        // block forever.
        let hung = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = hung.local_addr().unwrap();
        let started = Instant::now();
        let deadline = started + std::time::Duration::from_millis(50);
        let mut client = DbClient::connect_by(addr, deadline).unwrap();
        let err = client.version().unwrap_err();
        assert!(
            matches!(&err, JanusError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )),
            "{err}"
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
        // The deadline is sticky until moved: the next call fails at once.
        assert!(client.version().is_err());
    }

    #[test]
    fn typed_roundtrip() {
        let server = spawn_db(&[rule("alice", 1000, 100)]);
        let mut client = DbClient::connect(server.addr()).unwrap();

        let got = client
            .get_rule(&QosKey::new("alice").unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(got.capacity, Credits::from_whole(1000));
        assert_eq!(got.refill_rate, RefillRate::per_second(100));

        assert!(client
            .get_rule(&QosKey::new("ghost").unwrap())
            .unwrap()
            .is_none());
        assert_eq!(client.count().unwrap(), 1);
    }

    #[test]
    fn upsert_checkpoint_delete_cycle() {
        let server = spawn_db(&[]);
        let mut client = DbClient::connect(server.addr()).unwrap();
        let key = QosKey::new("bob").unwrap();

        client.upsert_rule(&rule("bob", 50, 5)).unwrap();
        assert_eq!(client.count().unwrap(), 1);

        assert!(client
            .checkpoint_credit(&key, Credits::from_whole(7))
            .unwrap());
        let got = client.get_rule(&key).unwrap().unwrap();
        assert_eq!(got.credit, Credits::from_whole(7));

        assert!(client.delete_rule(&key).unwrap());
        assert!(!client.delete_rule(&key).unwrap());
        assert!(!client.checkpoint_credit(&key, Credits::ZERO).unwrap());
    }

    #[test]
    fn load_all_returns_sorted_rows() {
        let server = spawn_db(&[rule("c", 1, 1), rule("a", 2, 2), rule("b", 3, 3)]);
        let mut client = DbClient::connect(server.addr()).unwrap();
        let rows = client.load_all().unwrap();
        let keys: Vec<_> = rows.iter().map(|r| r.key.to_string()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn scan_streams_hottest_first_in_batches() {
        let server = spawn_db(&[rule("cold", 1, 1), rule("hot", 1, 1), rule("warm", 1, 1)]);
        let mut client = DbClient::connect(server.addr()).unwrap();
        let hot = QosKey::new("hot").unwrap();
        let warm = QosKey::new("warm").unwrap();
        client.record_touches(&hot, 90).unwrap();
        client.record_touches(&hot, 10).unwrap();
        client.record_touches(&warm, 5).unwrap();
        let first = client.scan_rules(0, 2).unwrap();
        let names: Vec<_> = first.iter().map(|r| r.key.to_string()).collect();
        assert_eq!(names, vec!["hot", "warm"]);
        let second = client.scan_rules(2, 2).unwrap();
        assert_eq!(second.len(), 1, "short batch signals exhaustion");
        assert_eq!(second[0].key.to_string(), "cold");
    }

    #[test]
    fn version_advances_on_rule_changes() {
        let server = spawn_db(&[]);
        let mut client = DbClient::connect(server.addr()).unwrap();
        let v0 = client.version().unwrap();
        client.upsert_rule(&rule("x", 1, 1)).unwrap();
        let v1 = client.version().unwrap();
        assert!(v1 > v0);
        // Checkpoints do not bump the version.
        client
            .checkpoint_credit(&QosKey::new("x").unwrap(), Credits::ZERO)
            .unwrap();
        assert_eq!(client.version().unwrap(), v1);
    }

    #[test]
    fn keys_with_quotes_survive() {
        let server = spawn_db(&[]);
        let mut client = DbClient::connect(server.addr()).unwrap();
        let key = QosKey::new("o'brien's-key").unwrap();
        client
            .upsert_rule(&QosRule::per_second(key.clone(), 10, 1))
            .unwrap();
        let got = client.get_rule(&key).unwrap().unwrap();
        assert_eq!(got.key, key);
    }

    #[test]
    fn server_error_surfaces_as_db_error() {
        let server = spawn_db(&[]);
        let mut client = DbClient::connect(server.addr()).unwrap();
        let err = client.query("DROP TABLE qos_rules").unwrap_err();
        assert!(matches!(err, JanusError::Db(_)), "{err}");
        // Connection still usable.
        assert_eq!(client.count().unwrap(), 0);
    }

    #[test]
    fn hundred_rules_roundtrip_exactly() {
        let rules: Vec<_> = (0..100)
            .map(|i| {
                let mut r = rule(&format!("tenant-{i:03}"), 100 + i, 1 + i % 10);
                r.credit = Credits::from_micro(i * 123_457);
                r
            })
            .collect();
        let server = spawn_db(&rules);
        let mut client = DbClient::connect(server.addr()).unwrap();
        let mut loaded = client.load_all().unwrap();
        loaded.sort_by(|a, b| a.key.cmp(&b.key));
        let mut expected = rules.clone();
        expected.sort_by(|a, b| a.key.cmp(&b.key));
        // Engine clamps credit to capacity on load.
        let expected: Vec<_> = expected.into_iter().map(QosRule::clamped).collect();
        assert_eq!(loaded, expected);
    }
}
