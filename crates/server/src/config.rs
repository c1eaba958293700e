//! QoS server configuration: which of the two data planes runs
//! ([`SocketMode`]), which local table backs it ([`TableKind`]), and the
//! maintenance, overload and lease tunables around them.

use janus_bucket::DefaultRulePolicy;
use janus_db::DbClient;
use janus_net::dns::Resolver;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// How a QoS server finds its database.
///
/// The paper's RDS instance "is represented by a DNS name managed by
/// Amazon Route53" so that a Multi-AZ failover is transparent to every
/// QoS server: they simply re-resolve on reconnect. [`DbTarget::Named`]
/// is that mode; [`DbTarget::Direct`] is for single-node setups and
/// tests.
#[derive(Debug, Clone)]
pub enum DbTarget {
    /// A fixed address.
    Direct(SocketAddr),
    /// A DNS failover record resolved at (re)connect time.
    Named {
        /// Record name, e.g. `db.janus.internal`.
        name: String,
        /// The resolver to use (shares the deployment's zone).
        resolver: Arc<Resolver>,
    },
}

impl From<SocketAddr> for DbTarget {
    fn from(addr: SocketAddr) -> DbTarget {
        DbTarget::Direct(addr)
    }
}

impl DbTarget {
    fn resolve(&self) -> Option<SocketAddr> {
        match self {
            DbTarget::Direct(addr) => Some(*addr),
            DbTarget::Named { name, resolver } => resolver.resolve_one(name).ok(),
        }
    }

    /// Resolve (if named) and connect. `None` on any failure — callers
    /// retry on their next tick or miss.
    pub fn connect(&self) -> Option<DbClient> {
        DbClient::connect(self.resolve()?).ok()
    }

    /// [`connect`](Self::connect) under a budget: the connect, and every
    /// operation on the returned client, must finish by `deadline`.
    pub fn connect_by(&self, deadline: std::time::Instant) -> Option<DbClient> {
        DbClient::connect_by(self.resolve()?, deadline).ok()
    }
}

/// Which local QoS table implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Lock-striped table: decisions for different keys run in parallel.
    Sharded,
    /// One global lock — the paper's synchronized hash map, kept for the
    /// lock-contention ablation: a one-shard [`janus_bucket::ShardedTable`].
    Synchronized,
    /// Lock-free open-addressing table over atomic buckets: no lock on
    /// the decision path. The only table the per-core plane and idle-key
    /// reclaim run on; the server exports its CAS-retry and probe-length
    /// counters through [`crate::ServerStats`].
    LockFree,
}

/// The server's data plane: how UDP ingress maps onto sockets, threads
/// and syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SocketMode {
    /// The paper plane: one listener socket takes one request per
    /// wake-up and puts it on one bounded FIFO of `fifo_capacity` slots;
    /// `workers` threads pop that FIFO and each answers with its own
    /// datagram.
    #[default]
    SingleListener,
    /// The fast plane: each worker binds its own `SO_REUSEPORT` socket
    /// on the same address and receives, decides and answers its own
    /// batches run-to-completion — kernel flow steering replaces the
    /// listener→FIFO hop entirely. [`TableKind::LockFree`] only; Linux
    /// only (spawn fails elsewhere).
    PerCore,
}

// The overload-control tunables live with the mechanisms they tune —
// and with the sans-IO cores that consume them — so the simulator can
// build them without pulling in this (socket-facing) config module. Re-exported here because this is where they always
// lived publicly.
pub use crate::overload::OverloadConfig;

// Same story for the credit-lease policy: it lives with the sans-IO
// ledger in `crate::lease`, re-exported here next to the config that
// embeds it.
pub use crate::lease::LeaseConfig;

/// Tunables for one QoS server node.
#[derive(Debug, Clone)]
pub struct QosServerConfig {
    /// Worker threads popping the FIFO (or, on the per-core plane,
    /// owning one socket each). The paper sets this to the node's vCPU
    /// count.
    pub workers: usize,
    /// Bounded FIFO between the UDP listener and the workers. When full,
    /// datagrams are shed (the router's retry covers the loss).
    pub fifo_capacity: usize,
    /// House-keeping refill sweep interval.
    pub refill_interval: Duration,
    /// How often to re-query the database for updates to locally-held
    /// rules. `None` disables sync (no database configured).
    pub sync_interval: Duration,
    /// How often to check-point remaining credits back to the database.
    pub checkpoint_interval: Duration,
    /// What to do with keys the database has never heard of.
    pub default_policy: DefaultRulePolicy,
    /// Local table flavour.
    pub table: TableKind,
    /// Issue `SELECT * FROM qos_rules` at startup and preload the local
    /// table. The paper does this on the database side to warm RAM; doing
    /// it on the QoS server also removes first-sighting misses, which is
    /// the right trade when the rule set fits comfortably in memory.
    pub preload: bool,
    /// Budget for the per-miss database fetch (connect + `get_rule`). A
    /// hung database connection otherwise stalls the worker. On expiry
    /// the request falls back to the default policy and the connection is
    /// dropped for the next miss to rebuild.
    pub db_fetch_timeout: Duration,
    /// Overload control: staleness shedding, sojourn governor, duplicate
    /// suppression.
    pub overload: OverloadConfig,
    /// Credit leases: delegate bucket slices to hot-key routers so they
    /// admit locally with zero network I/O. Off by default — every
    /// pre-lease code path is untouched with `lease.enabled: false`.
    pub lease: LeaseConfig,
    /// The data plane: the paper's listener + FIFO, or per-core sockets.
    pub socket_mode: SocketMode,
    /// Address the admission socket(s) bind. Port 0 picks an ephemeral
    /// port (the default, right for tests); multi-host deployments set
    /// a routable address here instead of the historic hard-coded
    /// loopback.
    pub bind_addr: SocketAddr,
    /// Initial slot count for [`TableKind::LockFree`] (rounded up to a
    /// power of two). The table resizes itself incrementally past a ¾
    /// occupancy watermark, so this only sets the starting footprint.
    pub table_slots: usize,
    /// Demote keys with no decisions for this long from the in-memory
    /// table to the database cold tier, folding their exact credit and
    /// hotness back. `None` (default) keeps every key resident forever —
    /// the paper's behaviour. [`TableKind::LockFree`] only: the locked
    /// tables track no idleness.
    pub idle_ttl: Option<Duration>,
    /// How often the reclaim driver sweeps for idle keys (only with
    /// `idle_ttl` set).
    pub reclaim_interval: Duration,
    /// Rows per warm-up batch: the `preload` scan streams the table in
    /// hottest-first batches of this size instead of one monolithic
    /// `SELECT *`.
    pub warmup_batch: usize,
}

impl Default for QosServerConfig {
    fn default() -> Self {
        QosServerConfig {
            workers: 4,
            fifo_capacity: 4096,
            refill_interval: Duration::from_millis(100),
            sync_interval: Duration::from_secs(5),
            checkpoint_interval: Duration::from_secs(5),
            default_policy: DefaultRulePolicy::Deny,
            table: TableKind::Sharded,
            preload: false,
            db_fetch_timeout: Duration::from_millis(250),
            overload: OverloadConfig::default(),
            lease: LeaseConfig::default(),
            socket_mode: SocketMode::default(),
            bind_addr: default_bind_addr(),
            table_slots: janus_bucket::LockFreeTable::DEFAULT_SLOTS,
            idle_ttl: None,
            reclaim_interval: Duration::from_secs(5),
            warmup_batch: 512,
        }
    }
}

/// Loopback with an ephemeral port — the historic behaviour, now
/// overridable per deployment.
fn default_bind_addr() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

impl QosServerConfig {
    /// Sensible defaults for fast integration tests: small FIFO, short
    /// intervals. The DB-fetch budget stays generous because a loaded CI
    /// box can take a while to complete a first-sighting fetch.
    pub fn test_defaults() -> Self {
        QosServerConfig {
            workers: 2,
            fifo_capacity: 1024,
            refill_interval: Duration::from_millis(20),
            sync_interval: Duration::from_millis(100),
            checkpoint_interval: Duration::from_millis(100),
            default_policy: DefaultRulePolicy::Deny,
            table: TableKind::Sharded,
            preload: false,
            db_fetch_timeout: Duration::from_secs(2),
            overload: OverloadConfig::default(),
            lease: LeaseConfig::default(),
            socket_mode: SocketMode::default(),
            bind_addr: default_bind_addr(),
            table_slots: janus_bucket::LockFreeTable::DEFAULT_SLOTS,
            idle_ttl: None,
            reclaim_interval: Duration::from_millis(100),
            warmup_batch: 512,
        }
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> janus_types::Result<()> {
        if self.workers == 0 {
            return Err(janus_types::JanusError::config("workers must be > 0"));
        }
        if self.fifo_capacity == 0 {
            return Err(janus_types::JanusError::config("fifo_capacity must be > 0"));
        }
        if self.db_fetch_timeout.is_zero() {
            return Err(janus_types::JanusError::config(
                "db_fetch_timeout must be > 0",
            ));
        }
        if self.table_slots == 0 {
            return Err(janus_types::JanusError::config("table_slots must be > 0"));
        }
        if self.warmup_batch == 0 {
            return Err(janus_types::JanusError::config("warmup_batch must be > 0"));
        }
        if self.table != TableKind::LockFree
            && (self.socket_mode == SocketMode::PerCore || self.idle_ttl.is_some())
        {
            return Err(janus_types::JanusError::config(
                "socket_mode PerCore and idle_ttl run only on table LockFree",
            ));
        }
        if let Some(ttl) = self.idle_ttl {
            if ttl.is_zero() {
                return Err(janus_types::JanusError::config(
                    "idle_ttl must be > 0 when set",
                ));
            }
            if self.reclaim_interval.is_zero() {
                return Err(janus_types::JanusError::config(
                    "reclaim_interval must be > 0 when idle_ttl is set",
                ));
            }
        }
        if self.lease.enabled {
            if self.lease.ttl.is_zero() {
                return Err(janus_types::JanusError::config(
                    "lease.ttl must be > 0 when leases are enabled",
                ));
            }
            if self.lease.max_holders == 0 || self.lease.slice_fraction == 0 {
                return Err(janus_types::JanusError::config(
                    "lease.max_holders and lease.slice_fraction must be > 0 \
                     when leases are enabled",
                ));
            }
        }
        if self.overload.sojourn_shedding {
            if self.overload.sojourn_target.is_zero() {
                return Err(janus_types::JanusError::config(
                    "overload.sojourn_target must be > 0 when sojourn shedding is on",
                ));
            }
            if self.overload.sojourn_window < self.overload.sojourn_target {
                return Err(janus_types::JanusError::config(
                    "overload.sojourn_window must be >= overload.sojourn_target \
                     (the governor needs a full window of standing sojourns)",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(QosServerConfig::default().validate().is_ok());
        assert!(QosServerConfig::test_defaults().validate().is_ok());
    }

    #[test]
    fn zero_workers_invalid() {
        let mut c = QosServerConfig::default();
        c.workers = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_fifo_invalid() {
        let mut c = QosServerConfig::default();
        c.fifo_capacity = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_db_fetch_timeout_invalid() {
        let mut c = QosServerConfig::default();
        c.db_fetch_timeout = Duration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn reclaim_shape_is_validated_only_when_idle_ttl_set() {
        let mut c = QosServerConfig::default();
        c.reclaim_interval = Duration::ZERO;
        assert!(c.validate().is_ok(), "no idle_ttl: interval is ignored");
        c.table = TableKind::LockFree;
        c.idle_ttl = Some(Duration::from_secs(60));
        assert!(c.validate().is_err(), "zero reclaim_interval rejected");
        c.reclaim_interval = Duration::from_secs(5);
        assert!(c.validate().is_ok());
        c.idle_ttl = Some(Duration::ZERO);
        assert!(c.validate().is_err(), "zero idle_ttl rejected");
    }

    #[test]
    fn per_core_plane_and_idle_reclaim_need_the_lock_free_table() {
        use SocketMode::{PerCore, SingleListener};
        use TableKind::{LockFree, Sharded, Synchronized};
        let ttl = Some(Duration::from_secs(60));
        for table in [Sharded, Synchronized, LockFree] {
            for (socket_mode, idle_ttl) in [
                (SingleListener, None),
                (PerCore, None),
                (SingleListener, ttl),
                (PerCore, ttl),
            ] {
                let mut c = QosServerConfig::default();
                (c.socket_mode, c.table, c.idle_ttl) = (socket_mode, table, idle_ttl);
                let valid = table == LockFree || (socket_mode, idle_ttl) == (SingleListener, None);
                assert_eq!(
                    c.validate().is_ok(),
                    valid,
                    "{socket_mode:?} {table:?} {idle_ttl:?}"
                );
            }
        }
    }

    #[test]
    fn zero_table_slots_and_warmup_batch_invalid() {
        let mut c = QosServerConfig::default();
        c.table_slots = 0;
        assert!(c.validate().is_err());
        c.table_slots = 1024;
        c.warmup_batch = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn lease_shape_is_validated_only_when_enabled() {
        let mut c = QosServerConfig::default();
        c.lease.ttl = Duration::ZERO;
        c.lease.max_holders = 0;
        assert!(c.validate().is_ok(), "disabled leases ignore the shape");
        c.lease.enabled = true;
        assert!(c.validate().is_err());
        c.lease.ttl = Duration::from_millis(50);
        assert!(c.validate().is_err(), "zero max_holders must be rejected");
        c.lease.max_holders = 4;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sojourn_governor_shape_is_validated() {
        let mut c = QosServerConfig::default();
        c.overload.sojourn_target = Duration::ZERO;
        assert!(c.validate().is_err());
        c.overload.sojourn_target = Duration::from_millis(20);
        assert!(
            c.validate().is_err(),
            "window shorter than target must be rejected"
        );
        // With the governor off the shape is irrelevant.
        c.overload.sojourn_shedding = false;
        assert!(c.validate().is_ok());
    }
}
