//! Assembling the four layers into a running Janus deployment.

use crate::client::{Endpoint, QosClient};
use janus_clock::SharedClock;
use janus_db::{DbClient, DbServer, RulesEngine};
use janus_lb::{DnsLb, GatewayLb, HealthCheckConfig, LbPolicy};
use janus_net::dns::{spawn_tcp_health_monitor, HealthMonitor, Resolver, Zone};
use janus_net::BreakerConfig;
use janus_router::{Backend, RequestRouter, RouterConfig};
use janus_server::{DbTarget, QosServer, QosServerConfig, SlaveReplicator};
use janus_types::sync::RwLock;
use janus_types::{JanusError, QosRule, Result, Verdict};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Which load balancer fronts the router fleet.
#[derive(Debug, Clone)]
pub enum LbMode {
    /// ELB-style HTTP reverse proxy.
    Gateway(LbPolicy),
    /// Route53-style DNS load balancing with the given record TTL.
    Dns {
        /// A-record TTL; the paper's evaluation uses 30 s.
        ttl: Duration,
    },
    /// No LB: clients talk straight to the first router (single-node
    /// development setups).
    None,
    /// The paper's large-scale combination (§II-A): several gateway LB
    /// nodes, spread over by DNS — "the client connects to different
    /// gateway load balancer nodes via DNS resolution, while the gateway
    /// load balancer nodes further distribute the requests".
    DnsOverGateways {
        /// Gateway LB node count.
        gateways: usize,
        /// DNS record TTL for the gateway list.
        ttl: Duration,
        /// Per-gateway routing policy.
        policy: LbPolicy,
    },
}

/// Deployment shape and tuning.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Number of QoS server partitions (the `N` of `CRC32 mod N`).
    pub qos_servers: usize,
    /// Number of stateless router nodes.
    pub routers: usize,
    /// Load balancer flavour.
    pub lb: LbMode,
    /// Per-QoS-server tuning.
    pub server: QosServerConfig,
    /// Router → QoS server retry discipline.
    pub udp: janus_net::udp::UdpRpcConfig,
    /// Router's reply when a partition never answers.
    pub default_verdict: Verdict,
    /// Routers reuse idle connected UDP sockets across checks instead of
    /// the paper's socket-per-request discipline (see
    /// `janus_net::udp::UdpRpcClient::reusing`).
    pub pooled_rpc: bool,
    /// Spawn a slave per QoS server plus a health monitor that promotes
    /// it via DNS failover.
    pub ha: bool,
    /// Multi-AZ database: a standby node receiving replicated writes,
    /// promoted via DNS failover when the master dies (the paper's RDS
    /// configuration). QoS servers address the database by DNS name so
    /// the failover is transparent to them.
    pub db_ha: bool,
    /// Slave replication interval (only with `ha`).
    pub replication_interval: Duration,
    /// Per-partition circuit breaker on every router. `None` reproduces
    /// the paper exactly: full retry budget on every request, default
    /// reply on exhaustion, no degraded local admission.
    pub breaker: Option<BreakerConfig>,
    /// Active `/healthz` probing by gateway LB nodes, ejecting routers
    /// that report themselves browned out (all breakers open) or stop
    /// answering. `None` keeps the passive skip-on-connect-error LB.
    pub gateway_health: Option<HealthCheckConfig>,
    /// Initial contents of the `qos_rules` table.
    pub rules: Vec<QosRule>,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            qos_servers: 2,
            routers: 2,
            lb: LbMode::Gateway(LbPolicy::RoundRobin),
            server: QosServerConfig::test_defaults(),
            udp: janus_net::udp::UdpRpcConfig::lan_defaults(),
            default_verdict: Verdict::Allow,
            pooled_rpc: false,
            ha: false,
            db_ha: false,
            replication_interval: Duration::from_millis(50),
            breaker: None,
            gateway_health: None,
            rules: Vec::new(),
        }
    }
}

struct Partition {
    master: Option<QosServer>,
    slave: Option<QosServer>,
    replicator: Option<SlaveReplicator>,
    monitor: Option<HealthMonitor>,
    dns_name: String,
}

/// The database layer of a deployment: a single node, or a Multi-AZ
/// master/standby pair behind a DNS failover record.
struct DbLayer {
    master: Option<DbServer>,
    standby: Option<DbServer>,
    monitor: Option<HealthMonitor>,
}

/// DNS name of the database failover record.
const DB_DNS_NAME: &str = "db.janus.internal";

/// Probe interval of the QoS/DB failover health monitors (with `ha` or
/// `db_ha`). Shorter detects crashes faster at the price of more probe
/// traffic.
const HEALTH_PROBE_INTERVAL: Duration = Duration::from_millis(25);

/// Consecutive failed probes before a failover monitor promotes the
/// standby.
const HEALTH_FAIL_THRESHOLD: u32 = 3;

/// A running Janus deployment on loopback: one process, many nodes.
pub struct Deployment {
    clock: SharedClock,
    zone: Arc<Zone>,
    db: DbLayer,
    partitions: Vec<Partition>,
    routers: RwLock<Vec<RequestRouter>>,
    gateways: Vec<GatewayLb>,
    dns_lb: Option<DnsLb>,
    /// Every router node's configuration: another node spawned at
    /// runtime gets a clone.
    router_config: RouterConfig,
    /// The published record's TTL under DNS load balancing.
    lb_ttl: Option<Duration>,
    /// Everything needed to respawn a QoS server node at runtime
    /// (healing a blacked-out partition in fault drills).
    server_config: QosServerConfig,
    db_target: DbTarget,
}

impl Deployment {
    /// Launch every layer per `config`.
    pub fn launch(config: DeploymentConfig) -> Result<Deployment> {
        if config.qos_servers == 0 {
            return Err(JanusError::config("need at least one QoS server"));
        }
        if config.routers == 0 {
            return Err(JanusError::config("need at least one router"));
        }
        let clock = janus_clock::system();
        let zone = Zone::new();

        // Database layer.
        let db = if config.db_ha {
            // Standby first (the master needs its address), both engines
            // seeded with the initial rules (a fresh standby starts from
            // the same snapshot, then receives forwarded writes).
            let standby_engine = Arc::new(RulesEngine::new());
            standby_engine.load(config.rules.iter().cloned());
            let standby = DbServer::spawn(standby_engine)?;
            let master_engine = Arc::new(RulesEngine::new());
            master_engine.load(config.rules.iter().cloned());
            let master = DbServer::spawn_with_standby(master_engine, standby.addr())?;
            zone.insert_failover(
                DB_DNS_NAME,
                master.addr(),
                Some(standby.addr()),
                Duration::ZERO,
            );
            // The DB speaks TCP, so its own port doubles as health probe.
            let monitor = spawn_tcp_health_monitor(
                Arc::clone(&zone),
                DB_DNS_NAME.to_string(),
                |addr| addr,
                HEALTH_PROBE_INTERVAL,
                HEALTH_FAIL_THRESHOLD,
            );
            DbLayer {
                master: Some(master),
                standby: Some(standby),
                monitor: Some(monitor),
            }
        } else {
            let engine = Arc::new(RulesEngine::new());
            engine.load(config.rules.iter().cloned());
            DbLayer {
                master: Some(DbServer::spawn(engine)?),
                standby: None,
                monitor: None,
            }
        };
        let db_target = if config.db_ha {
            DbTarget::Named {
                name: DB_DNS_NAME.to_string(),
                resolver: Arc::new(Resolver::new(Arc::clone(&zone), Arc::clone(&clock))),
            }
        } else {
            DbTarget::Direct(db.master.as_ref().expect("master exists at launch").addr())
        };

        // QoS server layer: one failover DNS record per partition.
        let mut partitions = Vec::with_capacity(config.qos_servers);
        let mut ha_ports: HashMap<SocketAddr, SocketAddr> = HashMap::new();
        for index in 0..config.qos_servers {
            let master = QosServer::spawn(
                config.server.clone(),
                Some(db_target.clone()),
                Arc::clone(&clock),
            )?;
            let dns_name = format!("qos-{index}.janus.internal");
            ha_ports.insert(master.udp_addr(), master.ha_addr());

            let (slave, replicator) = if config.ha {
                let slave = QosServer::spawn(
                    config.server.clone(),
                    Some(db_target.clone()),
                    Arc::clone(&clock),
                )?;
                let replicator = SlaveReplicator::spawn(
                    master.ha_addr(),
                    Arc::clone(slave.table()),
                    Arc::clone(&clock),
                    config.replication_interval,
                );
                ha_ports.insert(slave.udp_addr(), slave.ha_addr());
                (Some(slave), Some(replicator))
            } else {
                (None, None)
            };

            zone.insert_failover(
                &dns_name,
                master.udp_addr(),
                slave.as_ref().map(|s| s.udp_addr()),
                // Routers must see a failover quickly; the record is only
                // consulted on the control plane, so a zero TTL is cheap.
                Duration::ZERO,
            );

            let monitor = if config.ha {
                let probe_map = ha_ports.clone();
                Some(spawn_tcp_health_monitor(
                    Arc::clone(&zone),
                    dns_name.clone(),
                    move |udp_addr| probe_map.get(&udp_addr).copied().unwrap_or(udp_addr),
                    HEALTH_PROBE_INTERVAL,
                    HEALTH_FAIL_THRESHOLD,
                ))
            } else {
                None
            };

            partitions.push(Partition {
                master: Some(master),
                slave,
                replicator,
                monitor,
                dns_name,
            });
        }

        // Request router layer.
        let router_config = RouterConfig {
            backends: partitions
                .iter()
                .map(|p| Backend::Named(p.dns_name.clone()))
                .collect(),
            udp: config.udp,
            default_verdict: config.default_verdict,
            pooled_rpc: config.pooled_rpc,
            breaker: config.breaker,
            // Routers spawned by `scale_routers` keep the launch-time
            // fleet size for the degraded-bucket split: a scaled fleet
            // briefly over- or under-splits, which the soak's slack bound
            // absorbs.
            fleet_size: config.routers,
            deadline_propagation: true,
            lease: false,
            gray: None,
        };
        let mut routers = Vec::with_capacity(config.routers);
        for _ in 0..config.routers {
            let resolver = Arc::new(Resolver::new(Arc::clone(&zone), Arc::clone(&clock)));
            routers.push(RequestRouter::spawn(router_config.clone(), Some(resolver))?);
        }

        // Load balancer layer.
        let gateway_health = config.gateway_health;
        let spawn_gateway = move |addrs: Vec<SocketAddr>, policy: LbPolicy| match gateway_health {
            Some(health) => GatewayLb::spawn_with_health(addrs, policy, health),
            None => GatewayLb::spawn(addrs, policy),
        };
        let router_addrs: Vec<SocketAddr> = routers.iter().map(|r| r.addr()).collect();
        let (gateways, dns_lb) = match config.lb {
            LbMode::Gateway(policy) => (vec![spawn_gateway(router_addrs, policy)?], None),
            LbMode::Dns { ttl } => (
                Vec::new(),
                Some(DnsLb::publish(
                    Arc::clone(&zone),
                    "janus.endpoint",
                    router_addrs,
                    ttl,
                )?),
            ),
            LbMode::DnsOverGateways {
                gateways: count,
                ttl,
                policy,
            } => {
                if count == 0 {
                    return Err(JanusError::config("need at least one gateway"));
                }
                let mut gateways = Vec::with_capacity(count);
                for _ in 0..count {
                    gateways.push(spawn_gateway(router_addrs.clone(), policy)?);
                }
                let gateway_addrs = gateways.iter().map(|g| g.addr()).collect();
                let dns_lb =
                    DnsLb::publish(Arc::clone(&zone), "janus.endpoint", gateway_addrs, ttl)?;
                (gateways, Some(dns_lb))
            }
            LbMode::None => (Vec::new(), None),
        };

        let lb_ttl = match config.lb {
            LbMode::Dns { ttl } | LbMode::DnsOverGateways { ttl, .. } => Some(ttl),
            _ => None,
        };
        Ok(Deployment {
            clock,
            zone,
            db,
            partitions,
            routers: RwLock::new(routers),
            gateways,
            dns_lb,
            server_config: config.server,
            db_target,
            router_config,
            lb_ttl,
        })
    }

    /// Build a QoS client, modelling a fresh client host (its own DNS
    /// cache under DNS load balancing).
    pub fn client(&self) -> Result<QosClient> {
        Ok(QosClient::new(self.endpoint()))
    }

    /// The endpoint clients of this deployment use.
    pub fn endpoint(&self) -> Endpoint {
        // DNS (plain or over gateways) takes precedence: that is the
        // published service name.
        if let Some(dns_lb) = &self.dns_lb {
            Endpoint::Dns {
                name: dns_lb.name().to_string(),
                resolver: Arc::new(Resolver::new(
                    Arc::clone(&self.zone),
                    Arc::clone(&self.clock),
                )),
            }
        } else if let Some(gateway) = self.gateways.first() {
            Endpoint::Direct(gateway.addr())
        } else {
            Endpoint::Direct(self.routers.read()[0].addr())
        }
    }

    /// Administrative handle to the rule database (the currently active
    /// node).
    pub fn db_client(&self) -> Result<DbClient> {
        DbClient::connect(self.active_db_addr()?)
    }

    /// The address of the currently active database node (master, or the
    /// promoted standby after a DB failover).
    pub fn active_db_addr(&self) -> Result<SocketAddr> {
        if self.db.monitor.is_some() {
            self.zone.active_primary(DB_DNS_NAME)
        } else {
            Ok(self
                .db
                .master
                .as_ref()
                .ok_or_else(|| JanusError::state("database master was killed"))?
                .addr())
        }
    }

    /// Insert or replace a rule at runtime — effective on next sighting,
    /// no restarts (paper §II-D).
    pub fn upsert_rule(&self, rule: &QosRule) -> Result<()> {
        self.db_client()?.upsert_rule(rule)
    }

    /// The active-at-launch database master node (None after
    /// [`kill_db_master`](Self::kill_db_master)).
    pub fn db(&self) -> &DbServer {
        self.db.master.as_ref().expect("database master was killed")
    }

    /// The database standby, when `db_ha` is on.
    pub fn db_standby(&self) -> Option<&DbServer> {
        self.db.standby.as_ref()
    }

    /// Kill the database master (crash injection; requires `db_ha`). The
    /// health monitor promotes the standby within a few probe intervals
    /// and QoS servers re-resolve on their next reconnect.
    pub fn kill_db_master(&mut self) {
        if let Some(master) = self.db.master.take() {
            master.shutdown();
        }
    }

    /// Wait until the DB failover record points at the standby.
    pub fn await_db_failover(&self, timeout: Duration) -> Result<SocketAddr> {
        let standby = self
            .db
            .standby
            .as_ref()
            .map(|s| s.addr())
            .ok_or_else(|| JanusError::state("deployment has no DB standby"))?;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.zone.active_primary(DB_DNS_NAME)? == standby {
                return Ok(standby);
            }
            if std::time::Instant::now() >= deadline {
                return Err(JanusError::state("DB failover did not happen in time"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Number of router nodes currently serving.
    pub fn router_count(&self) -> usize {
        self.routers.read().len()
    }

    /// Requests served per router node, in fleet order.
    pub fn router_served_counts(&self) -> Vec<u64> {
        self.routers
            .read()
            .iter()
            .map(|r| r.stats().served.load(std::sync::atomic::Ordering::Relaxed))
            .collect()
    }

    /// Requests answered by a router's default reply, summed over the
    /// fleet.
    pub fn router_defaulted_total(&self) -> u64 {
        self.routers
            .read()
            .iter()
            .map(|r| {
                r.stats()
                    .defaulted
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum()
    }

    /// Resize the router fleet to `target` nodes (the paper's Auto
    /// Scaling group on the router layer, §V-A). Routers are stateless,
    /// so scale-out is spawn + register and scale-in is deregister +
    /// drain. The load balancer (gateway or DNS) is updated atomically;
    /// in-flight requests on removed routers complete.
    pub fn scale_routers(&self, target: usize) -> Result<usize> {
        if target == 0 {
            return Err(JanusError::config("cannot scale the router layer to zero"));
        }
        // Spawn any new nodes before taking the lock.
        let current = self.router_count();
        let mut fresh = Vec::new();
        for _ in current..target {
            let resolver = Arc::new(Resolver::new(
                Arc::clone(&self.zone),
                Arc::clone(&self.clock),
            ));
            fresh.push(RequestRouter::spawn(
                self.router_config.clone(),
                Some(resolver),
            )?);
        }
        let removed: Vec<RequestRouter> = {
            let mut routers = self.routers.write();
            routers.extend(fresh);
            let keep = target.min(routers.len());
            routers.split_off(keep)
        };
        let addrs: Vec<SocketAddr> = self.routers.read().iter().map(|r| r.addr()).collect();
        for gateway in &self.gateways {
            gateway.set_backends(addrs.clone())?;
        }
        // Under plain DNS mode the record lists routers; under
        // DNS-over-gateways it lists gateways, which do not change here.
        if self.gateways.is_empty() {
            if let Some(dns_lb) = &self.dns_lb {
                dns_lb.update_targets(addrs, self.lb_ttl.unwrap_or(Duration::ZERO))?;
            }
        }
        for router in removed {
            router.shutdown();
        }
        Ok(self.router_count())
    }

    /// The gateway LB nodes (empty under pure-DNS or no-LB modes).
    pub fn gateways(&self) -> &[GatewayLb] {
        &self.gateways
    }

    /// The first gateway LB, if this deployment uses any.
    pub fn gateway(&self) -> Option<&GatewayLb> {
        self.gateways.first()
    }

    /// The DNS LB, if this deployment uses one.
    pub fn dns_lb(&self) -> Option<&DnsLb> {
        self.dns_lb.as_ref()
    }

    /// The shared DNS zone (failover records, endpoint record).
    pub fn zone(&self) -> &Arc<Zone> {
        &self.zone
    }

    /// DNS name of the database failover record (fault-injection tests
    /// rewire it to simulate a hung rather than dead database).
    pub fn db_dns_name(&self) -> &'static str {
        DB_DNS_NAME
    }

    /// The clock all nodes share.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Master QoS server of partition `index` (None after a kill).
    pub fn qos_master(&self, index: usize) -> Option<&QosServer> {
        self.partitions[index].master.as_ref()
    }

    /// Slave QoS server of partition `index`, when HA is on.
    pub fn qos_slave(&self, index: usize) -> Option<&QosServer> {
        self.partitions[index].slave.as_ref()
    }

    /// Number of QoS partitions.
    pub fn qos_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Kill the master of partition `index` (crash injection). With HA
    /// enabled the health monitor will promote the slave within a few
    /// probe intervals; the replicator is stopped as the slave is about
    /// to become authoritative.
    pub fn kill_qos_master(&mut self, index: usize) {
        let partition = &mut self.partitions[index];
        if let Some(replicator) = &partition.replicator {
            replicator.stop();
        }
        if let Some(master) = partition.master.take() {
            master.shutdown();
        }
    }

    /// Kill the slave of partition `index` (crash injection). Combined
    /// with [`kill_qos_master`](Self::kill_qos_master) this blacks the
    /// partition out entirely — no node answers admission RPCs until
    /// [`heal_partition`](Self::heal_partition).
    pub fn kill_qos_slave(&mut self, index: usize) {
        let partition = &mut self.partitions[index];
        if let Some(replicator) = &partition.replicator {
            replicator.stop();
        }
        if let Some(slave) = partition.slave.take() {
            slave.shutdown();
        }
    }

    /// Respawn a fresh master for a blacked-out partition and repoint
    /// its DNS record at it (healing after a blackout drill). The new
    /// node starts with an empty table and re-learns rules from the DB
    /// on first sighting, exactly like a node replaced by auto scaling.
    /// Any failover monitor for the partition is stopped first — its
    /// probe map predates the new node, so it would fight the record.
    pub fn heal_partition(&mut self, index: usize) -> Result<SocketAddr> {
        let master = QosServer::spawn(
            self.server_config.clone(),
            Some(self.db_target.clone()),
            Arc::clone(&self.clock),
        )?;
        let partition = &mut self.partitions[index];
        if let Some(monitor) = partition.monitor.take() {
            monitor.stop();
        }
        self.zone.insert_failover(
            &partition.dns_name,
            master.udp_addr(),
            partition.slave.as_ref().map(|s| s.udp_addr()),
            Duration::ZERO,
        );
        let addr = master.udp_addr();
        partition.master = Some(master);
        Ok(addr)
    }

    /// Breaker fast-fails summed over the router fleet (0 with the
    /// breaker disabled).
    pub fn router_fast_fail_total(&self) -> u64 {
        self.routers
            .read()
            .iter()
            .map(|r| {
                r.stats()
                    .breaker_fast_fails
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum()
    }

    /// Degraded-mode local admissions `(allowed, denied)` summed over
    /// the router fleet.
    pub fn router_degraded_totals(&self) -> (u64, u64) {
        let routers = self.routers.read();
        let allowed = routers
            .iter()
            .map(|r| {
                r.stats()
                    .degraded_allowed
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum();
        let denied = routers
            .iter()
            .map(|r| {
                r.stats()
                    .degraded_denied
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum();
        (allowed, denied)
    }

    /// True while at least one router holds the circuit breaker for
    /// `partition` open.
    pub fn breaker_open_anywhere(&self, partition: usize) -> bool {
        self.routers
            .read()
            .iter()
            .any(|r| r.breaker_state(partition) == Some(janus_net::BreakerState::Open))
    }

    /// True once no router's breaker for `partition` is open or probing
    /// (i.e. the fleet has confirmed the partition healthy again).
    pub fn breakers_closed_everywhere(&self, partition: usize) -> bool {
        self.routers.read().iter().all(|r| {
            matches!(
                r.breaker_state(partition),
                None | Some(janus_net::BreakerState::Closed)
            )
        })
    }

    /// Addresses of the live router nodes, in fleet order.
    pub fn router_addrs(&self) -> Vec<SocketAddr> {
        self.routers.read().iter().map(|r| r.addr()).collect()
    }

    /// Wait until the failover record of partition `index` points at the
    /// slave, or time out.
    pub fn await_failover(&self, index: usize, timeout: Duration) -> Result<SocketAddr> {
        let partition = &self.partitions[index];
        let slave_addr = partition
            .slave
            .as_ref()
            .map(|s| s.udp_addr())
            .ok_or_else(|| JanusError::state("partition has no slave"))?;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.zone.active_primary(&partition.dns_name)? == slave_addr {
                return Ok(slave_addr);
            }
            if std::time::Instant::now() >= deadline {
                return Err(JanusError::state("failover did not happen in time"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Shut every node down.
    pub fn shutdown(&self) {
        for gateway in &self.gateways {
            gateway.shutdown();
        }
        for router in self.routers.read().iter() {
            router.shutdown();
        }
        for partition in &self.partitions {
            if let Some(monitor) = &partition.monitor {
                monitor.stop();
            }
            if let Some(replicator) = &partition.replicator {
                replicator.stop();
            }
            if let Some(master) = &partition.master {
                master.shutdown();
            }
            if let Some(slave) = &partition.slave {
                slave.shutdown();
            }
        }
        if let Some(monitor) = &self.db.monitor {
            monitor.stop();
        }
        if let Some(master) = &self.db.master {
            master.shutdown();
        }
        if let Some(standby) = &self.db.standby {
            standby.shutdown();
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use janus_types::QosKey;

    fn key(s: &str) -> QosKey {
        QosKey::new(s).unwrap()
    }

    fn rules(specs: &[(&str, u64, u64)]) -> Vec<QosRule> {
        specs
            .iter()
            .map(|(k, cap, rate)| QosRule::per_second(key(k), *cap, *rate))
            .collect()
    }

    #[test]
    fn gateway_deployment_end_to_end() {
        let mut config = DeploymentConfig::default();
        config.rules = rules(&[("alice", 3, 0)]);
        config.default_verdict = Verdict::Deny;
        let deployment = Deployment::launch(config).unwrap();
        let mut client = deployment.client().unwrap();
        let mut allowed = 0;
        for _ in 0..6 {
            if client.qos_check(&key("alice")).unwrap() {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 3);
        // Unknown keys fall to the Deny default policy on the QoS server.
        assert!(!client.qos_check(&key("stranger")).unwrap());
    }

    #[test]
    fn dns_deployment_end_to_end() {
        let mut config = DeploymentConfig::default();
        config.lb = LbMode::Dns {
            ttl: Duration::from_secs(30),
        };
        config.rules = rules(&[("bob", 2, 0)]);
        let deployment = Deployment::launch(config).unwrap();
        let mut client = deployment.client().unwrap();
        assert!(client.qos_check(&key("bob")).unwrap());
        assert!(client.qos_check(&key("bob")).unwrap());
        assert!(!client.qos_check(&key("bob")).unwrap());
    }

    #[test]
    fn no_lb_deployment() {
        let mut config = DeploymentConfig::default();
        config.lb = LbMode::None;
        config.routers = 1;
        config.qos_servers = 1;
        config.rules = rules(&[("solo", 1, 0)]);
        let deployment = Deployment::launch(config).unwrap();
        let mut client = deployment.client().unwrap();
        assert!(client.qos_check(&key("solo")).unwrap());
        assert!(!client.qos_check(&key("solo")).unwrap());
    }

    #[test]
    fn rules_added_at_runtime_are_effective() {
        let config = DeploymentConfig {
            default_verdict: Verdict::Deny,
            ..Default::default()
        };
        let deployment = Deployment::launch(config).unwrap();
        let mut client = deployment.client().unwrap();
        assert!(!client.qos_check(&key("latecomer")).unwrap());
        deployment
            .upsert_rule(&QosRule::per_second(key("vip"), 5, 5))
            .unwrap();
        assert!(client.qos_check(&key("vip")).unwrap());
    }

    #[test]
    fn gateway_spreads_over_routers() {
        let mut config = DeploymentConfig::default();
        config.routers = 2;
        config.rules = rules(&[("spread", 1000, 1000)]);
        let deployment = Deployment::launch(config).unwrap();
        let mut client = deployment.client().unwrap();
        for _ in 0..20 {
            client.qos_check(&key("spread")).unwrap();
        }
        let counts = deployment.router_served_counts();
        assert_eq!(counts.iter().sum::<u64>(), 20);
        assert!(
            counts.iter().all(|&c| c == 10),
            "round robin skewed: {counts:?}"
        );
    }

    #[test]
    fn ha_failover_preserves_service_and_credit() {
        let mut config = DeploymentConfig::default();
        config.qos_servers = 1;
        config.routers = 1;
        config.ha = true;
        config.default_verdict = Verdict::Deny;
        config.rules = rules(&[("survivor", 100, 0)]);
        let mut deployment = Deployment::launch(config).unwrap();
        let mut client = deployment.client().unwrap();

        // Consume 40 credits on the master.
        for _ in 0..40 {
            assert!(client.qos_check(&key("survivor")).unwrap());
        }
        // Let replication catch up, then crash the master.
        std::thread::sleep(Duration::from_millis(200));
        deployment.kill_qos_master(0);
        deployment
            .await_failover(0, Duration::from_secs(5))
            .unwrap();

        // The slave answers with (approximately) the replicated credit:
        // at most 60 more requests may pass, not a fresh 100.
        let mut allowed = 0;
        for _ in 0..100 {
            if client.qos_check(&key("survivor")).unwrap() {
                allowed += 1;
            }
        }
        assert!(
            (55..=65).contains(&allowed),
            "slave admitted {allowed}, expected ~60 (replicated credit)"
        );
    }

    #[test]
    fn breaker_deployment_survives_blackout_and_heals() {
        let mut config = DeploymentConfig::default();
        config.qos_servers = 1;
        config.routers = 1;
        config.lb = LbMode::None;
        config.default_verdict = Verdict::Deny;
        config.breaker = Some(BreakerConfig {
            failure_threshold: 2,
            open_timeout: Duration::from_millis(200),
        });
        config.rules = rules(&[("metered", 4, 0)]);
        let mut deployment = Deployment::launch(config).unwrap();
        let mut client = deployment.client().unwrap();

        // One healthy request teaches the router the rule shape.
        assert!(client.qos_check(&key("metered")).unwrap());

        // Blackout: the only node of the only partition dies (no HA).
        deployment.kill_qos_master(0);
        let mut allowed_during_outage = 0;
        for _ in 0..12 {
            if client.qos_check(&key("metered")).unwrap() {
                allowed_during_outage += 1;
            }
        }
        // Request 1 exhausts retries -> default Deny and trips attempt 2's
        // breaker; from then on the degraded bucket (capacity 4, rate 0)
        // answers locally: 4 allows, then denies.
        assert_eq!(allowed_during_outage, 4, "degraded bucket oversold");
        assert!(deployment.breaker_open_anywhere(0));
        assert!(deployment.router_fast_fail_total() >= 1);
        let (degraded_allowed, degraded_denied) = deployment.router_degraded_totals();
        assert_eq!(degraded_allowed, 4);
        assert!(degraded_denied >= 6);

        // Heal: fresh node, DNS repointed; after the open timeout the
        // half-open probe closes the breaker on a live answer.
        deployment.heal_partition(0).unwrap();
        std::thread::sleep(Duration::from_millis(250));
        assert!(client.qos_check(&key("metered")).unwrap());
        assert!(deployment.breakers_closed_everywhere(0));
    }

    #[test]
    fn rejects_zero_sized_layers() {
        let mut config = DeploymentConfig::default();
        config.qos_servers = 0;
        assert!(Deployment::launch(config).is_err());
        let mut config = DeploymentConfig::default();
        config.routers = 0;
        assert!(Deployment::launch(config).is_err());
    }
}
