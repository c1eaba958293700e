//! The photo-sharing HTTP application, with and without the QoS wrapper.
//!
//! The index page performs the paper's four steps: client IP, session via
//! the cache server, latest-N query against the photo store, HTML
//! rendering. With QoS enabled the handler is the paper's snippet,
//! transliterated:
//!
//! ```php
//! $key = $_SERVER['REMOTE_ADDR'];
//! if (qos_check($key)) { include("original_index.php"); }
//! else { header("HTTP/1.1 403 Forbidden"); }
//! ```

use crate::cache::CacheClient;
use crate::photos::PhotoClient;
use janus_core::{Endpoint, QosClient};
use janus_net::http::{HttpHandler, HttpRequest, HttpResponse, HttpServer, StatusCode};
use janus_types::sync::Mutex;
use janus_types::{QosKey, Result};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard};

/// A small round-robin pool of lazily-connected clients.
///
/// The paper's PHP app runs one MySQL/Memcached connection per Apache
/// worker; a single shared connection here would serialize the 10 ms
/// photo-store queries and cap the app at ~100 req/s. Each slot holds an
/// `Option<T>`: `None` until first use and after an error (the caller
/// reconnects lazily, exactly like the single-connection code did).
#[derive(Debug)]
struct ClientPool<T> {
    slots: Vec<Mutex<Option<T>>>,
    cursor: AtomicUsize,
}

impl<T> ClientPool<T> {
    fn new(size: usize) -> Self {
        ClientPool {
            slots: (0..size.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Lock one slot (round robin; waits only if that slot is busy).
    fn acquire(&self) -> MutexGuard<'_, Option<T>> {
        let index = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        self.slots[index].lock()
    }
}

/// Wiring for one photo-app node.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Session cache server.
    pub cache_addr: SocketAddr,
    /// Photo store.
    pub photo_addr: SocketAddr,
    /// Janus endpoint; `None` deploys the app without QoS support (the
    /// paper's baseline measurement).
    pub qos: Option<Endpoint>,
    /// How many photos the index page lists.
    pub latest_count: usize,
}

/// Back-end connections per pool — the app's effective concurrency,
/// like the paper's Apache worker count.
const POOL_SIZE: usize = 8;

/// Counters exported by the app.
#[derive(Debug, Default)]
pub struct AppStats {
    /// Index pages served (admitted requests).
    pub served: AtomicU64,
    /// Requests throttled with 403.
    pub throttled: AtomicU64,
    /// Uploads accepted.
    pub uploads: AtomicU64,
}

struct AppHandler {
    config: AppConfig,
    qos: Option<ClientPool<QosClient>>,
    cache: ClientPool<CacheClient>,
    photos: ClientPool<PhotoClient>,
    stats: Arc<AppStats>,
}

impl AppHandler {
    /// The QoS key for a request: the client IP, preferring the address
    /// the load balancer saw (`x-forwarded-for`) over the socket peer.
    fn client_ip(request: &HttpRequest, peer: SocketAddr) -> String {
        request
            .header("x-forwarded-for")
            .map(|s| s.to_string())
            .unwrap_or_else(|| peer.ip().to_string())
    }

    fn qos_allows(&self, ip: &str) -> bool {
        let Some(qos) = &self.qos else { return true };
        let Ok(key) = QosKey::new(ip) else {
            return false;
        };
        let mut slot = qos.acquire();
        if slot.is_none() {
            *slot = Some(QosClient::new(
                self.config
                    .qos
                    .clone()
                    .expect("qos pool exists only with an endpoint"),
            ));
        }
        let client = slot.as_mut().expect("just created");
        // On transport failure the wrapper fails open: the paper's demo
        // prefers serving over erroring when the QoS system is down.
        client.qos_check(&key).unwrap_or(true)
    }

    fn render_index(&self, ip: &str) -> Result<HttpResponse> {
        // Session via the cache server (step b).
        let session_key = format!("session:{ip}");
        {
            let mut guard = self.cache.acquire();
            if guard.is_none() {
                *guard = Some(CacheClient::connect(self.config.cache_addr)?);
            }
            let cache = guard.as_mut().expect("just connected");
            let visits = match cache.get(&session_key) {
                Ok(Some(bytes)) => String::from_utf8_lossy(&bytes).parse().unwrap_or(0u64) + 1,
                Ok(None) => 1,
                Err(e) => {
                    *guard = None;
                    return Err(e);
                }
            };
            if let Err(e) = cache.set(&session_key, visits.to_string().as_bytes()) {
                *guard = None;
                return Err(e);
            }
        }

        // Latest uploads via the photo store (step c).
        let photos = {
            let mut guard = self.photos.acquire();
            if guard.is_none() {
                *guard = Some(PhotoClient::connect(self.config.photo_addr)?);
            }
            let client = guard.as_mut().expect("just connected");
            match client.latest(self.config.latest_count) {
                Ok(photos) => photos,
                Err(e) => {
                    *guard = None;
                    return Err(e);
                }
            }
        };

        // Render (step d).
        let mut html = String::from("<html><body><h1>Photo Sharing</h1><ul>");
        for photo in &photos {
            html.push_str(&format!(
                "<li>#{} {} by {}</li>",
                photo.id, photo.title, photo.user
            ));
        }
        html.push_str("</ul></body></html>");
        Ok(HttpResponse::html(html))
    }

    fn handle_upload(&self, request: &HttpRequest) -> HttpResponse {
        let (Some(user), Some(title)) = (request.query_param("user"), request.query_param("title"))
        else {
            return HttpResponse::status(StatusCode::BAD_REQUEST);
        };
        let mut guard = self.photos.acquire();
        if guard.is_none() {
            match PhotoClient::connect(self.config.photo_addr) {
                Ok(client) => *guard = Some(client),
                Err(_) => return HttpResponse::status(StatusCode::SERVICE_UNAVAILABLE),
            }
        }
        let client = guard.as_mut().expect("connected");
        match client.add(&user, &title) {
            Ok(id) => {
                self.stats.uploads.fetch_add(1, Ordering::Relaxed);
                HttpResponse::ok(format!("uploaded #{id}"))
            }
            Err(_) => {
                *guard = None;
                HttpResponse::status(StatusCode::SERVICE_UNAVAILABLE)
            }
        }
    }
}

impl HttpHandler for AppHandler {
    fn handle(&self, request: HttpRequest, peer: SocketAddr) -> HttpResponse {
        let ip = Self::client_ip(&request, peer);
        // The paper's wrapper: QoS check before anything else.
        if !self.qos_allows(&ip) {
            self.stats.throttled.fetch_add(1, Ordering::Relaxed);
            return HttpResponse::forbidden();
        }
        match (request.method, request.path()) {
            (janus_net::http::Method::Get, "/") => match self.render_index(&ip) {
                Ok(response) => {
                    self.stats.served.fetch_add(1, Ordering::Relaxed);
                    response
                }
                Err(_) => HttpResponse::status(StatusCode::SERVICE_UNAVAILABLE),
            },
            (janus_net::http::Method::Post, "/upload") => self.handle_upload(&request),
            _ => HttpResponse::status(StatusCode::NOT_FOUND),
        }
    }
}

/// A running photo-app node.
pub struct PhotoApp {
    http: HttpServer,
    stats: Arc<AppStats>,
}

impl PhotoApp {
    /// Spawn the app.
    pub fn spawn(config: AppConfig) -> Result<PhotoApp> {
        let stats = Arc::new(AppStats::default());
        let qos = config.qos.as_ref().map(|_| ClientPool::new(POOL_SIZE));
        let handler = Arc::new(AppHandler {
            config,
            qos,
            cache: ClientPool::new(POOL_SIZE),
            photos: ClientPool::new(POOL_SIZE),
            stats: Arc::clone(&stats),
        });
        let http = HttpServer::spawn(handler as Arc<dyn HttpHandler>)?;
        Ok(PhotoApp { http, stats })
    }

    /// The app's HTTP address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Counters.
    pub fn stats(&self) -> &Arc<AppStats> {
        &self.stats
    }

    /// Stop serving.
    pub fn shutdown(&self) {
        self.http.shutdown();
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::cache::CacheServer;
    use crate::photos::PhotoServer;
    use janus_core::{Deployment, DeploymentConfig, QosRule, Verdict};
    use janus_net::http::HttpClient;
    use std::time::Duration;

    fn substrate() -> (CacheServer, PhotoServer) {
        (
            CacheServer::spawn().unwrap(),
            PhotoServer::spawn(Duration::ZERO).unwrap(),
        )
    }

    #[test]
    fn serves_index_without_qos() {
        let (cache, photos) = substrate();
        let mut seed = PhotoClient::connect(photos.addr()).unwrap();
        seed.add("alice", "first light").unwrap();
        let app = PhotoApp::spawn(AppConfig {
            cache_addr: cache.addr(),
            photo_addr: photos.addr(),
            qos: None,
            latest_count: 10,
        })
        .unwrap();
        let resp = HttpClient::oneshot(app.addr(), &HttpRequest::get("/")).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert!(
            resp.body_text().contains("first light"),
            "{}",
            resp.body_text()
        );
        assert_eq!(app.stats().served.load(Ordering::Relaxed), 1);
        assert!(cache.hits() + cache.misses() >= 1);
    }

    #[test]
    fn uploads_appear_on_index() {
        let (cache, photos) = substrate();
        let app = PhotoApp::spawn(AppConfig {
            cache_addr: cache.addr(),
            photo_addr: photos.addr(),
            qos: None,
            latest_count: 10,
        })
        .unwrap();
        let resp = HttpClient::oneshot(
            app.addr(),
            &HttpRequest::post("/upload?user=bob&title=my+cat", ""),
        )
        .unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{}", resp.body_text());
        let index = HttpClient::oneshot(app.addr(), &HttpRequest::get("/")).unwrap();
        assert!(index.body_text().contains("my cat"));
    }

    #[test]
    fn qos_wrapper_throttles_like_the_paper_snippet() {
        let (cache, photos) = substrate();
        // Rule for this client's IP: 3 requests, no refill.
        let mut config = DeploymentConfig::default();
        config.qos_servers = 1;
        config.routers = 1;
        config.rules = vec![QosRule::per_second(QosKey::new("127.0.0.1").unwrap(), 3, 0)];
        config.default_verdict = Verdict::Deny;
        let deployment = Deployment::launch(config).unwrap();

        let app = PhotoApp::spawn(AppConfig {
            cache_addr: cache.addr(),
            photo_addr: photos.addr(),
            qos: Some(deployment.endpoint()),
            latest_count: 5,
        })
        .unwrap();

        let mut statuses = Vec::new();
        for _ in 0..5 {
            let resp = HttpClient::oneshot(app.addr(), &HttpRequest::get("/")).unwrap();
            statuses.push(resp.status);
        }
        assert_eq!(
            statuses,
            vec![
                StatusCode::OK,
                StatusCode::OK,
                StatusCode::OK,
                StatusCode::FORBIDDEN,
                StatusCode::FORBIDDEN
            ]
        );
        assert_eq!(app.stats().served.load(Ordering::Relaxed), 3);
        assert_eq!(app.stats().throttled.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn throttled_requests_skip_the_application_entirely() {
        let (cache, photos) = substrate();
        let mut config = DeploymentConfig::default();
        config.qos_servers = 1;
        config.routers = 1;
        config.default_verdict = Verdict::Deny; // no rule for 127.0.0.1 -> deny
        let deployment = Deployment::launch(config).unwrap();
        let app = PhotoApp::spawn(AppConfig {
            cache_addr: cache.addr(),
            photo_addr: photos.addr(),
            qos: Some(deployment.endpoint()),
            latest_count: 5,
        })
        .unwrap();
        let resp = HttpClient::oneshot(app.addr(), &HttpRequest::get("/")).unwrap();
        assert_eq!(resp.status, StatusCode::FORBIDDEN);
        // Neither the cache nor the photo store saw the request.
        assert_eq!(cache.hits() + cache.misses(), 0);
        assert_eq!(photos.queries(), 0);
    }
}
