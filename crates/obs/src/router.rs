//! Zero-dependency HTTP/1.1 router: method+path → handler registration.
//!
//! This is the plumbing that used to live as a hard-coded `match` inside
//! `serve.rs`, extracted so every HTTP surface in the workspace —
//! `/metrics`, `/cluster`, `/healthz`, and the serving gateway's
//! `/v1/predict` + `/v1/tenants` — shares one server implementation
//! instead of each crate growing its own socket loop.
//!
//! * [`Router`] maps `(method, path)` to a [`Handler`]. Registration is
//!   **scoped**: [`Router::register`] returns a [`RouteGuard`] that
//!   removes the handler on drop. Per-path registrations form a stack —
//!   the latest registration wins, and dropping it restores the previous
//!   one — which replaces the old `set_cluster_provider` /
//!   `clear_cluster_provider` global-slot-with-token scheme.
//! * [`HttpServer`] binds a listener and dispatches each connection to
//!   the router on its own thread, so a handler that blocks (the
//!   gateway's micro-batcher coalescing a batch) does not stall other
//!   requests. Request bodies are read per `Content-Length` (the old
//!   loop supported none), which is what `POST /v1/predict` needs.
//! * [`global_router`] is the process-wide router pre-seeded with the
//!   standard observability routes; `SKIPPER_OBS_ADDR` servers and the
//!   cluster coordinator's `/cluster` table both hang off it.
//!
//! Dispatch semantics match the old endpoint exactly: malformed heads
//! get 400, an unknown path 404, a known path with the wrong method 405,
//! and a panicking handler 500 — the listener keeps serving in every
//! case.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body; bigger payloads get `413`.
const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed HTTP request as handed to a [`Handler`].
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …). `HEAD` dispatches to the
    /// `GET` handler, matching the old endpoint.
    pub method: String,
    /// Path without the query string (`/v1/predict`).
    pub path: String,
    /// Query string after `?`, empty when absent.
    pub query: String,
    /// Raw body bytes (empty unless the client sent `Content-Length`).
    pub body: Vec<u8>,
}

/// Response a [`Handler`] returns; helpers cover every status the
/// workspace serves.
#[derive(Debug, Clone)]
pub struct Response {
    /// Numeric status (200, 404, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";

impl Response {
    /// Build a response with an explicit status and content type.
    pub fn new(status: u16, content_type: &str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            body: body.into(),
        }
    }

    /// `200 OK` with `text/plain`.
    pub fn ok_text(body: impl Into<String>) -> Response {
        Response::new(200, TEXT, body)
    }

    /// `200 OK` with `application/json`.
    pub fn ok_json(body: impl Into<String>) -> Response {
        Response::new(200, JSON, body)
    }

    /// `400 Bad Request` with a JSON error body.
    pub fn bad_request(reason: &str) -> Response {
        Response::new(400, JSON, error_json("bad_request", reason))
    }

    /// `404 Not Found`.
    pub fn not_found() -> Response {
        Response::new(404, TEXT, "not found\n")
    }

    /// `405 Method Not Allowed`.
    pub fn method_not_allowed() -> Response {
        Response::new(405, TEXT, "method not allowed\n")
    }

    /// `429 Too Many Requests` with a typed JSON reason (admission
    /// control: per-tenant rate limit exceeded).
    pub fn too_many_requests(reason: &str) -> Response {
        Response::new(429, JSON, error_json("rate_limited", reason))
    }

    /// `503 Service Unavailable` with a typed JSON reason (load
    /// shedding: queue full or deadline unmeetable).
    pub fn service_unavailable(kind: &str, reason: &str) -> Response {
        Response::new(503, JSON, error_json(kind, reason))
    }

    fn payload_too_large() -> Response {
        Response::new(413, TEXT, "payload too large\n")
    }

    fn internal_error() -> Response {
        Response::new(500, TEXT, "internal error\n")
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// Render `{"error":"<kind>","reason":"<reason>"}` with escaping.
fn error_json(kind: &str, reason: &str) -> String {
    let mut out = String::from("{\"error\":");
    crate::push_json_string(&mut out, kind);
    out.push_str(",\"reason\":");
    crate::push_json_string(&mut out, reason);
    out.push('}');
    out
}

/// A route handler. Handlers run on the connection thread; panics are
/// contained to a `500` for that request.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

struct RouteStack {
    /// Registration stack: dispatch uses the **last** entry; dropping a
    /// [`RouteGuard`] removes its entry wherever it sits, so the
    /// previous registration is restored.
    entries: Vec<(u64, Handler)>,
}

/// Method+path → handler table shared by every [`HttpServer`].
pub struct Router {
    routes: Mutex<HashMap<(String, String), RouteStack>>,
    next_token: AtomicU64,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let routes = crate::lock_unpoisoned(&self.routes);
        f.debug_struct("Router")
            .field("routes", &routes.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for Router {
    fn default() -> Router {
        Router::new()
    }
}

impl Router {
    /// An empty router (no routes, not even `/healthz`).
    pub fn new() -> Router {
        Router {
            routes: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
        }
    }

    /// A router pre-seeded with the standard observability routes:
    /// `GET /metrics` (Prometheus text), `GET /metrics.json`,
    /// `GET /profile` (collapsed-stack profile, flamegraph.pl-ready) +
    /// `GET /profile.json`, `GET /healthz` + `GET /` (liveness), and a
    /// default `GET /cluster` answering `{"workers":[]}` until a
    /// coordinator shadows it.
    pub fn with_standard_routes() -> Arc<Router> {
        let router = Arc::new(Router::new());
        router.seed("GET", "/metrics", |_req| {
            Response::new(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                crate::serve::prometheus_text(&crate::registry().snapshot()),
            )
        });
        router.seed("GET", "/metrics.json", |_req| {
            Response::ok_json(crate::serve::snapshot_json(&crate::registry().snapshot()))
        });
        router.seed("GET", "/profile", |_req| {
            Response::ok_text(crate::profile::folded_text())
        });
        router.seed("GET", "/profile.json", |_req| {
            Response::ok_json(crate::profile::profile_json())
        });
        router.seed("GET", "/healthz", |_req| Response::ok_text("ok\n"));
        router.seed("GET", "/", |_req| Response::ok_text("ok\n"));
        router.seed("GET", "/cluster", |_req| {
            Response::ok_json("{\"workers\":[]}")
        });
        router
    }

    /// Register a permanent route (no guard; lives for the router's
    /// lifetime). Used for the standard seeds.
    fn seed(
        &self,
        method: &str,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) {
        let mut routes = crate::lock_unpoisoned(&self.routes);
        routes
            .entry((method.to_string(), path.to_string()))
            .or_insert_with(|| RouteStack {
                entries: Vec::new(),
            })
            .entries
            .push((0, Arc::new(handler)));
    }

    /// Register `handler` for `method path`, scoped to the returned
    /// [`RouteGuard`]: the route serves while the guard lives and is
    /// removed when it drops. Registering an already-routed pair shadows
    /// the earlier handler (latest wins) and dropping the guard restores
    /// it — a later registration can never be torn down by an earlier
    /// owner's drop, which is the property the old provider-token scheme
    /// existed to provide.
    #[must_use = "dropping the guard unregisters the route"]
    pub fn register(
        self: &Arc<Self>,
        method: &str,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> RouteGuard {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut routes = crate::lock_unpoisoned(&self.routes);
        routes
            .entry((method.to_string(), path.to_string()))
            .or_insert_with(|| RouteStack {
                entries: Vec::new(),
            })
            .entries
            .push((token, Arc::new(handler)));
        RouteGuard {
            router: Arc::clone(self),
            method: method.to_string(),
            path: path.to_string(),
            token,
        }
    }

    fn unregister(&self, method: &str, path: &str, token: u64) {
        let mut routes = crate::lock_unpoisoned(&self.routes);
        let key = (method.to_string(), path.to_string());
        if let Some(stack) = routes.get_mut(&key) {
            stack.entries.retain(|(t, _)| *t != token);
            if stack.entries.is_empty() {
                routes.remove(&key);
            }
        }
    }

    /// Look up the live handler for `(method, path)`. `HEAD` falls back
    /// to the `GET` handler. Returns `Err(true)` when the path exists
    /// under another method (405) and `Err(false)` when unknown (404).
    fn resolve(&self, method: &str, path: &str) -> Result<Handler, bool> {
        let routes = crate::lock_unpoisoned(&self.routes);
        let lookup = |m: &str| -> Option<Handler> {
            routes
                .get(&(m.to_string(), path.to_string()))
                .and_then(|s| s.entries.last())
                .map(|(_, h)| Arc::clone(h))
        };
        if let Some(h) = lookup(method) {
            return Ok(h);
        }
        if method == "HEAD" {
            if let Some(h) = lookup("GET") {
                return Ok(h);
            }
        }
        let path_known = routes.keys().any(|(_, p)| p == path);
        Err(path_known)
    }

    /// Route one request: 404 for unknown paths, 405 when the path is
    /// registered under a different method, 500 when the handler panics.
    pub fn dispatch(&self, req: &Request) -> Response {
        match self.resolve(&req.method, &req.path) {
            Ok(handler) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(req))) {
                    Ok(resp) => resp,
                    Err(_) => Response::internal_error(),
                }
            }
            Err(true) => Response::method_not_allowed(),
            Err(false) => Response::not_found(),
        }
    }
}

/// Scoped route registration; dropping it removes the handler (and
/// restores any registration it was shadowing).
#[must_use = "dropping the guard unregisters the route"]
pub struct RouteGuard {
    router: Arc<Router>,
    method: String,
    path: String,
    token: u64,
}

impl std::fmt::Debug for RouteGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteGuard")
            .field("method", &self.method)
            .field("path", &self.path)
            .finish()
    }
}

impl Drop for RouteGuard {
    fn drop(&mut self) {
        self.router.unregister(&self.method, &self.path, self.token);
    }
}

/// The process-wide router: pre-seeded with the standard routes, shared
/// by `SKIPPER_OBS_ADDR` metrics servers and the cluster coordinator's
/// scoped `/cluster` registration.
pub fn global_router() -> Arc<Router> {
    static GLOBAL: OnceLock<Arc<Router>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(Router::with_standard_routes))
}

/// A listening HTTP/1.1 server dispatching to a [`Router`]. Dropping it
/// stops the accept loop; in-flight connection threads finish their
/// single response and exit.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (port 0 picks a free port) and serve `router`.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: &str, router: Arc<Router>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("skipper-http-serve".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let router = Arc::clone(&router);
                    // One thread per connection: a handler that blocks
                    // (micro-batch coalescing) must not stall the accept
                    // loop or other requests. Panics are contained per
                    // connection.
                    let _ = std::thread::Builder::new()
                        .name("skipper-http-conn".into())
                        .spawn(move || {
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let _ = handle_connection(stream, &router);
                            }));
                        });
                }
            })?;
        Ok(HttpServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop blocks in `incoming()`; poke it awake so it
        // sees the stop flag. A failed connect means it already died.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn handle_connection(mut stream: TcpStream, router: &Router) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    // Read until the end of the request head.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return write_response(&mut stream, &Response::bad_request("head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                // Peer connected and went away (the Drop wake-up does
                // exactly this); nothing to answer.
                return Ok(());
            }
            return write_response(&mut stream, &Response::bad_request("truncated head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut body = buf.split_off(head_end + 4);

    let Some(mut req) = parse_head(&head) else {
        return write_response(&mut stream, &Response::bad_request("malformed request"));
    };
    let content_length = match content_length(&head) {
        Ok(n) => n,
        Err(reason) => return write_response(&mut stream, &Response::bad_request(reason)),
    };
    if content_length > MAX_BODY {
        return write_response(&mut stream, &Response::payload_too_large());
    }
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return write_response(&mut stream, &Response::bad_request("truncated body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    req.body = body;

    let head_only = req.method == "HEAD";
    let resp = router.dispatch(&req);
    write_response_with(&mut stream, &resp, head_only)
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse the request line into a body-less [`Request`]; `None` → 400.
fn parse_head(head: &str) -> Option<Request> {
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = (parts.next()?, parts.next()?, parts.next()?);
    if !version.starts_with("HTTP/") {
        return None;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        query: query.to_string(),
        body: Vec::new(),
    })
}

/// The body length the head declares: its `Content-Length`, 0 when it
/// has none. A header line without a `:` or a length that is not a number
/// is an error: reading past either would take the wrong bytes as the
/// body.
fn content_length(head: &str) -> Result<usize, &'static str> {
    let mut length = 0;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            return Err("malformed header line");
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = value
                .trim()
                .parse()
                .map_err(|_| "Content-Length is not a number")?;
        }
    }
    Ok(length)
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    write_response_with(stream, resp, false)
}

fn write_response_with(
    stream: &mut TcpStream,
    resp: &Response,
    head_only: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        resp.reason(),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    if !head_only {
        stream.write_all(resp.body.as_bytes())?;
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        http(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n"),
        )
    }

    #[test]
    fn register_shadow_and_restore() {
        let router = Arc::new(Router::new());
        let a = router.register("GET", "/x", |_| Response::ok_text("a"));
        let req = Request {
            method: "GET".into(),
            path: "/x".into(),
            query: String::new(),
            body: Vec::new(),
        };
        assert_eq!(router.dispatch(&req).body, "a");

        // Latest registration wins...
        let b = router.register("GET", "/x", |_| Response::ok_text("b"));
        assert_eq!(router.dispatch(&req).body, "b");

        // ...and an earlier owner's drop cannot tear down its successor.
        drop(a);
        assert_eq!(router.dispatch(&req).body, "b");

        // Dropping the live registration restores... nothing: 404.
        drop(b);
        assert_eq!(router.dispatch(&req).status, 404);
    }

    #[test]
    fn shadowed_route_is_restored_on_drop() {
        let router = Arc::new(Router::new());
        let base = router.register("GET", "/y", |_| Response::ok_text("base"));
        let req = Request {
            method: "GET".into(),
            path: "/y".into(),
            query: String::new(),
            body: Vec::new(),
        };
        {
            let _shadow = router.register("GET", "/y", |_| Response::ok_text("shadow"));
            assert_eq!(router.dispatch(&req).body, "shadow");
        }
        assert_eq!(router.dispatch(&req).body, "base");
        drop(base);
    }

    #[test]
    fn dispatch_distinguishes_404_405_500() {
        let router = Arc::new(Router::new());
        let _g = router.register("GET", "/only-get", |_| Response::ok_text("ok"));
        let _p = router.register("POST", "/panics", |_| panic!("handler bug"));
        let req = |method: &str, path: &str| Request {
            method: method.into(),
            path: path.into(),
            query: String::new(),
            body: Vec::new(),
        };
        assert_eq!(router.dispatch(&req("GET", "/nope")).status, 404);
        assert_eq!(router.dispatch(&req("POST", "/only-get")).status, 405);
        assert_eq!(router.dispatch(&req("POST", "/panics")).status, 500);
        // HEAD falls back to the GET handler.
        assert_eq!(router.dispatch(&req("HEAD", "/only-get")).status, 200);
    }

    #[test]
    fn server_reads_post_bodies_and_queries() {
        let router = Arc::new(Router::new());
        let _g = router.register("POST", "/echo", |req| {
            Response::ok_text(format!(
                "q={} b={}",
                req.query,
                String::from_utf8_lossy(&req.body)
            ))
        });
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
        let body = "hello body";
        let raw = format!(
            "POST /echo?tenant=t1 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let resp = http(server.addr(), &raw);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "got: {resp}");
        assert!(resp.contains("q=tenant=t1 b=hello body"), "got: {resp}");
    }

    #[test]
    fn server_handles_concurrent_blocking_handlers() {
        // Two in-flight requests must be served concurrently: the first
        // blocks until the second arrives (rendezvous), which only
        // completes if connections get their own threads.
        use std::sync::mpsc;
        let router = Arc::new(Router::new());
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let pair = Arc::new(Mutex::new(Some(tx)));
        let _g = router.register("GET", "/rendezvous", move |_| {
            let tx = crate::lock_unpoisoned(&pair).take();
            match tx {
                Some(_tx) => {
                    // First arrival: wait for the second (dropping _tx on
                    // timeout keeps the test from hanging forever).
                    let _ = crate::lock_unpoisoned(&rx)
                        .recv_timeout(std::time::Duration::from_secs(10));
                    Response::ok_text("first")
                }
                None => Response::ok_text("second"),
            }
        });
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
        let addr = server.addr();
        let t1 = std::thread::spawn(move || get(addr, "/rendezvous"));
        // Give the first request time to park in the handler.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let second = get(addr, "/rendezvous");
        assert!(second.contains("second"), "got: {second}");
        let first = t1.join().unwrap();
        assert!(first.contains("first"), "got: {first}");
    }

    #[test]
    fn standard_routes_include_default_cluster() {
        let router = Router::with_standard_routes();
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
        let cluster = get(server.addr(), "/cluster");
        assert!(cluster.contains("{\"workers\":[]}"), "got: {cluster}");
        let health = get(server.addr(), "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "got: {health}");

        // A scoped registration shadows the default...
        {
            let _guard = router.register("GET", "/cluster", |_| {
                Response::ok_json("{\"workers\":[{\"id\":1}]}")
            });
            let live = get(server.addr(), "/cluster");
            assert!(live.contains("\"id\":1"), "got: {live}");
        }
        // ...and dropping it restores the empty table.
        let after = get(server.addr(), "/cluster");
        assert!(after.contains("{\"workers\":[]}"), "got: {after}");
    }

    /// A server echoing POST bodies, for the body-length tests.
    fn echo_server() -> (HttpServer, RouteGuard) {
        let router = Arc::new(Router::new());
        let guard = router.register("POST", "/echo", |req| {
            Response::ok_text(String::from_utf8_lossy(&req.body).into_owned())
        });
        (HttpServer::bind("127.0.0.1:0", router).unwrap(), guard)
    }

    #[test]
    fn header_line_without_colon_is_rejected() {
        let (server, _route) = echo_server();
        let raw =
            "POST /echo HTTP/1.1\r\nHost: x\r\nno colon here\r\nContent-Length: 5\r\n\r\nhello";
        let resp = http(server.addr(), raw);
        assert!(resp.starts_with("HTTP/1.1 400"), "got: {resp}");
        assert!(resp.contains("\"error\":\"bad_request\""), "got: {resp}");
        assert!(resp.contains("malformed header line"), "got: {resp}");
    }

    #[test]
    fn unparseable_content_length_is_rejected() {
        let (server, _route) = echo_server();
        let raw = "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: ten\r\n\r\nhello";
        let resp = http(server.addr(), raw);
        assert!(resp.starts_with("HTTP/1.1 400"), "got: {resp}");
        assert!(resp.contains("\"error\":\"bad_request\""), "got: {resp}");
        assert!(
            resp.contains("Content-Length is not a number"),
            "got: {resp}"
        );
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let router = Arc::new(Router::new());
        let _g = router.register("POST", "/big", |_| Response::ok_text("ok"));
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
        let raw = format!(
            "POST /big HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let resp = http(server.addr(), &raw);
        assert!(resp.starts_with("HTTP/1.1 413"), "got: {resp}");
    }

    use proptest::prelude::*;

    /// What a hostile head is built from: any byte, or a token that steers
    /// the parsers into their branches.
    fn head_piece() -> impl Strategy<Value = Vec<u8>> {
        const TOKENS: [&str; 10] = [
            "\r\n",
            "\r\n\r\n",
            ":",
            " ",
            "?",
            "GET",
            "HTTP/1.1",
            "Content-Length",
            "42",
            "99999999999999999999999",
        ];
        prop_oneof![
            (0u16..256).prop_map(|b| vec![b as u8]),
            (0..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec()),
        ]
    }

    const PATH_CHARS: &[u8] = b"abcxyz019-_./";
    const QUERY_CHARS: &[u8] = b"abz09=&%+";

    proptest! {
        /// Whatever bytes arrive, the head parsers answer with a value or
        /// a typed refusal, and never panic.
        #[test]
        fn hostile_heads_parse_to_a_typed_result(
            pieces in prop::collection::vec(head_piece(), 0..64),
        ) {
            let buf = pieces.concat();
            let end = find_head_end(&buf);
            if let Some(end) = end {
                prop_assert_eq!(&buf[end..end + 4], b"\r\n\r\n");
                prop_assert!(find_head_end(&buf[..end + 3]).is_none());
            }
            let head = String::from_utf8_lossy(&buf[..end.unwrap_or(buf.len())]);
            if let Some(req) = parse_head(&head) {
                prop_assert_eq!(req.method.to_ascii_uppercase(), req.method.clone());
                prop_assert!(!req.path.contains('?'), "{:?}", req.path);
                prop_assert!(req.body.is_empty());
            }
            if let Err(reason) = content_length(&head) {
                prop_assert!(
                    ["malformed header line", "Content-Length is not a number"].contains(&reason)
                );
            }
        }

        /// A well-formed head gives back its method, path, query and
        /// `Content-Length`, with other headers on either side of the length.
        #[test]
        fn well_formed_heads_parse_back(
            method in 0usize..4,
            path in prop::collection::vec(0..PATH_CHARS.len(), 0..12),
            query in prop::collection::vec(0..QUERY_CHARS.len(), 0..12),
            extra in prop::collection::vec(0u32..1000, 0..4),
            length in 0..MAX_BODY + 1,
            lower in 0u8..2,
        ) {
            let method = ["GET", "POST", "HEAD", "delete"][method];
            let chars = |set: &[u8], picks: &[usize]| -> String {
                picks.iter().map(|&i| set[i] as char).collect()
            };
            let path = format!("/{}", chars(PATH_CHARS, &path));
            let query = chars(QUERY_CHARS, &query);
            let target = if query.is_empty() { path.clone() } else { format!("{path}?{query}") };
            let name = if lower == 1 { "content-length" } else { "Content-Length" };
            let mut lines = vec![format!("{method} {target} HTTP/1.1"), "Host: localhost".into()];
            lines.extend(extra.iter().map(|v| format!("X-Extra-{v}:{v}")));
            lines.insert(1 + extra.len() / 2, format!("{name}: {length}"));
            let head = lines.join("\r\n");
            let raw = format!("{head}\r\n\r\nbody");
            prop_assert_eq!(find_head_end(raw.as_bytes()), Some(head.len()));
            let Some(req) = parse_head(&head) else {
                return Err(TestCaseError::Fail(format!("no request in {head:?}")));
            };
            prop_assert_eq!(req.method, method.to_ascii_uppercase());
            prop_assert_eq!(req.path, path);
            prop_assert_eq!(req.query, query);
            prop_assert_eq!(content_length(&head), Ok(length));
        }
    }
}
