//! The operator surface: rule administration and fleet statistics over
//! HTTP.
//!
//! The paper assumes "the service provider can define different QoS
//! rules" and that rules are created, modified and deleted over time
//! (§II-D) but leaves the operator tooling out of scope. This module
//! provides it:
//!
//! ```text
//! GET    /rules                 -> JSON array of every rule
//! GET    /rules/{key}           -> one rule, or 404
//! PUT    /rules/{key}?capacity=1000&rate=100[&credit=500]
//! DELETE /rules/{key}           -> 200 / 404
//! GET    /stats                 -> fleet counters (routers, partitions, LB, DB)
//! GET    /healthz               -> "ok"
//! ```
//!
//! Rule changes go straight to the database, so they follow the paper's
//! propagation rules: new keys are effective on first sighting; keys with
//! live buckets converge at the QoS servers' next sync interval.

use crate::deployment::Deployment;
use janus_net::http::{
    percent_decode, HttpHandler, HttpRequest, HttpResponse, HttpServer, Method, StatusCode,
};
use janus_types::json::ToJson;
use janus_types::{Credits, QosKey, QosRule, RefillRate, Result};
use std::net::SocketAddr;
use std::sync::Arc;

/// Fleet-wide statistics returned by `GET /stats`.
#[derive(Debug)]
pub struct FleetStats {
    /// Router nodes currently serving.
    pub routers: usize,
    /// Requests served per router node.
    pub router_served: Vec<u64>,
    /// Default replies issued across the router fleet.
    pub router_defaulted: u64,
    /// QoS partitions.
    pub partitions: usize,
    /// Per-partition decision counters.
    pub partition_answered: Vec<u64>,
    /// Per-partition datagrams shed for any reason: full queue, expired
    /// deadline budget, or the sojourn governor.
    pub partition_shed: Vec<u64>,
    /// Per-partition database fetches (first sightings).
    pub partition_db_fetches: Vec<u64>,
    /// Rules currently in the database.
    pub rules: u64,
}

janus_types::impl_to_json!(FleetStats {
    routers,
    router_served,
    router_defaulted,
    partitions,
    partition_answered,
    partition_shed,
    partition_db_fetches,
    rules,
});

struct AdminHandler {
    deployment: Arc<Deployment>,
}

impl AdminHandler {
    fn get_rules(&self) -> Result<HttpResponse> {
        let mut db = self.deployment.db_client()?;
        let rules = db.load_all()?;
        Ok(json_response(&rules))
    }

    fn get_rule(&self, key: &QosKey) -> Result<HttpResponse> {
        let mut db = self.deployment.db_client()?;
        match db.get_rule(key)? {
            Some(rule) => Ok(json_response(&rule)),
            None => Ok(HttpResponse::status(StatusCode::NOT_FOUND)),
        }
    }

    fn put_rule(&self, key: QosKey, request: &HttpRequest) -> Result<HttpResponse> {
        let (Some(capacity), Some(rate)) = (
            parse_param(request, "capacity"),
            parse_param(request, "rate"),
        ) else {
            return Ok(HttpResponse::status(StatusCode::BAD_REQUEST)
                .with_header("x-error", "capacity and rate are required integers"));
        };
        let mut rule = QosRule::new(
            key,
            Credits::from_whole(capacity),
            RefillRate::per_second(rate),
        );
        if let Some(credit) = parse_param(request, "credit") {
            rule.credit = Credits::from_whole(credit).min(rule.capacity);
        }
        let mut db = self.deployment.db_client()?;
        db.upsert_rule(&rule)?;
        Ok(json_response(&rule))
    }

    fn delete_rule(&self, key: &QosKey) -> Result<HttpResponse> {
        let mut db = self.deployment.db_client()?;
        if db.delete_rule(key)? {
            Ok(HttpResponse::ok("deleted"))
        } else {
            Ok(HttpResponse::status(StatusCode::NOT_FOUND))
        }
    }

    fn stats(&self) -> Result<HttpResponse> {
        use std::sync::atomic::Ordering;
        let deployment = &self.deployment;
        let partitions = deployment.qos_partitions();
        let mut answered = Vec::with_capacity(partitions);
        let mut shed = Vec::with_capacity(partitions);
        let mut db_fetches = Vec::with_capacity(partitions);
        for index in 0..partitions {
            // A killed master reports zeros rather than erroring.
            let stats = deployment.qos_master(index).map(|m| Arc::clone(m.stats()));
            answered.push(
                stats
                    .as_ref()
                    .map(|s| s.answered.load(Ordering::Relaxed))
                    .unwrap_or(0),
            );
            shed.push(stats.as_ref().map(|s| s.shed_total()).unwrap_or(0));
            db_fetches.push(
                stats
                    .as_ref()
                    .map(|s| s.db_fetches.load(Ordering::Relaxed))
                    .unwrap_or(0),
            );
        }
        let mut db = deployment.db_client()?;
        let stats = FleetStats {
            routers: deployment.router_count(),
            router_served: deployment.router_served_counts(),
            router_defaulted: deployment.router_defaulted_total(),
            partitions,
            partition_answered: answered,
            partition_shed: shed,
            partition_db_fetches: db_fetches,
            rules: db.count()?,
        };
        Ok(json_response(&stats))
    }
}

fn json_response(value: &impl ToJson) -> HttpResponse {
    HttpResponse {
        status: StatusCode::OK,
        headers: vec![("content-type".into(), "application/json".into())],
        body: value.to_json().pretty().into_bytes(),
    }
}

fn parse_param(request: &HttpRequest, name: &str) -> Option<u64> {
    request.query_param(name)?.parse().ok()
}

/// Extract and validate the `{key}` segment of `/rules/{key}`.
fn rule_key(path: &str) -> Option<QosKey> {
    let encoded = path.strip_prefix("/rules/")?;
    if encoded.is_empty() || encoded.contains('/') {
        return None;
    }
    QosKey::new(percent_decode(encoded)).ok()
}

impl HttpHandler for AdminHandler {
    fn handle(&self, request: HttpRequest, _peer: SocketAddr) -> HttpResponse {
        let outcome = match (request.method, request.path()) {
            (Method::Get, "/healthz") => Ok(HttpResponse::ok("ok")),
            (Method::Get, "/stats") => self.stats(),
            (Method::Get, "/rules") => self.get_rules(),
            (method, path) if path.starts_with("/rules/") => match rule_key(path) {
                None => Ok(HttpResponse::status(StatusCode::BAD_REQUEST)),
                Some(key) => match method {
                    Method::Get => self.get_rule(&key),
                    Method::Put | Method::Post => self.put_rule(key, &request),
                    Method::Delete => self.delete_rule(&key),
                },
            },
            _ => Ok(HttpResponse::status(StatusCode::NOT_FOUND)),
        };
        outcome.unwrap_or_else(|_| HttpResponse::status(StatusCode::SERVICE_UNAVAILABLE))
    }
}

/// A running admin API server.
pub struct AdminApi {
    http: HttpServer,
}

impl AdminApi {
    /// Serve the admin API for `deployment` on an ephemeral loopback
    /// port.
    pub fn spawn(deployment: Arc<Deployment>) -> Result<AdminApi> {
        let handler = Arc::new(AdminHandler { deployment });
        Ok(AdminApi {
            http: HttpServer::spawn(handler as Arc<dyn HttpHandler>)?,
        })
    }

    /// The admin endpoint.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Stop serving.
    pub fn shutdown(&self) {
        self.http.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeploymentConfig, QosClient};
    use janus_net::http::HttpClient;
    use janus_types::json::Json;
    use janus_types::Verdict;

    fn setup() -> (Arc<Deployment>, AdminApi) {
        let config = DeploymentConfig {
            qos_servers: 1,
            routers: 1,
            rules: vec![QosRule::per_second(QosKey::new("seed").unwrap(), 10, 1)],
            default_verdict: Verdict::Deny,
            ..Default::default()
        };
        let deployment = Arc::new(Deployment::launch(config).unwrap());
        let admin = AdminApi::spawn(Arc::clone(&deployment)).unwrap();
        (deployment, admin)
    }

    #[test]
    fn rule_crud_cycle() {
        let (_deployment, admin) = setup();
        let mut http = HttpClient::connect(admin.addr()).unwrap();

        // Create.
        let resp = http
            .request(&HttpRequest {
                method: Method::Put,
                target: "/rules/alice%3Aphotos?capacity=1000&rate=100".into(),
                headers: vec![],
                body: vec![],
            })
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{}", resp.body_text());

        // Read one.
        let resp = http
            .request(&HttpRequest::get("/rules/alice%3Aphotos"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let rule = Json::parse(&resp.body_text()).unwrap();
        assert_eq!(rule.get("key").unwrap().as_str(), Some("alice:photos"));
        assert_eq!(
            rule.get("capacity").unwrap().as_u64(),
            Some(Credits::from_whole(1000).as_micro())
        );

        // List.
        let resp = http.request(&HttpRequest::get("/rules")).unwrap();
        let rules = Json::parse(&resp.body_text()).unwrap();
        assert_eq!(rules.items().len(), 2); // seed + alice

        // Delete.
        let resp = http
            .request(&HttpRequest {
                method: Method::Delete,
                target: "/rules/alice%3Aphotos".into(),
                headers: vec![],
                body: vec![],
            })
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let resp = http
            .request(&HttpRequest::get("/rules/alice%3Aphotos"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn admin_created_rules_govern_admission() {
        let (deployment, admin) = setup();
        HttpClient::oneshot(
            admin.addr(),
            &HttpRequest {
                method: Method::Put,
                target: "/rules/newbie?capacity=2&rate=0".into(),
                headers: vec![],
                body: vec![],
            },
        )
        .unwrap();
        let mut client = QosClient::new(deployment.endpoint());
        let key = QosKey::new("newbie").unwrap();
        assert!(client.qos_check(&key).unwrap());
        assert!(client.qos_check(&key).unwrap());
        assert!(!client.qos_check(&key).unwrap());
    }

    #[test]
    fn stats_reflect_traffic() {
        let (deployment, admin) = setup();
        let mut client = QosClient::new(deployment.endpoint());
        for _ in 0..5 {
            let _ = client.qos_check(&QosKey::new("seed").unwrap());
        }
        let resp = HttpClient::oneshot(admin.addr(), &HttpRequest::get("/stats")).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        let stats = Json::parse(&resp.body_text()).unwrap();
        let field = |name: &str| stats.get(name).unwrap();
        assert_eq!(field("routers").as_u64(), Some(1));
        assert_eq!(field("partitions").as_u64(), Some(1));
        assert_eq!(field("rules").as_u64(), Some(1));
        assert_eq!(field("partition_answered").items()[0].as_u64(), Some(5));
        assert_eq!(field("router_served").items()[0].as_u64(), Some(5));
    }

    #[test]
    fn rejects_malformed_requests() {
        let (_deployment, admin) = setup();
        let mut http = HttpClient::connect(admin.addr()).unwrap();
        // Missing params.
        let resp = http
            .request(&HttpRequest {
                method: Method::Put,
                target: "/rules/x?capacity=5".into(),
                headers: vec![],
                body: vec![],
            })
            .unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        // Nested path.
        let resp = http.request(&HttpRequest::get("/rules/a/b")).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        // Unknown route.
        let resp = http.request(&HttpRequest::get("/nope")).unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        // 404 on missing rule delete.
        let resp = http
            .request(&HttpRequest {
                method: Method::Delete,
                target: "/rules/ghost".into(),
                headers: vec![],
                body: vec![],
            })
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }
}
