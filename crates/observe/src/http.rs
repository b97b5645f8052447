//! Dependency-free HTTP plumbing: a minimal request-routing server over std
//! [`TcpListener`] ([`HttpServer`]), the telemetry exposition server built on
//! it ([`ObserveServer`]: `/metrics`, `/statusz`, `/healthz`), and a generic
//! background [`Sampler`] that periodically folds instantaneous state (queue
//! depths, pool occupancy, DB round-trip counters) into gauges so a scrape
//! sees current values, not just monotone totals.
//!
//! [`HttpServer`] is deliberately small — HTTP/1.0, one request per
//! connection, no keep-alive, a blocking accept loop that [`HttpServer::stop`]
//! unblocks by connecting to itself — but it is hardened against misbehaving
//! clients: request heads and bodies are capped ([`HttpServerConfig::
//! max_request_bytes`], overflow ⇒ `413 Payload Too Large`), reads carry a
//! deadline ([`HttpServerConfig::read_timeout`], expiry ⇒ `408 Request
//! Timeout`), and every connection is served on its own thread so one slow
//! client can never wedge the accept loop. The ensemble gateway
//! (`entk-gateway`) builds its `/v1/*` workflow-submission routes on the
//! same server type.

use crate::metrics::Metrics;
use crate::prom;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Telemetry-plane knobs for embedders (the ensemble service). The default
/// is fully off: no listener, so standalone runs are unaffected.
#[derive(Debug, Clone)]
pub struct ObserveConfig {
    /// Address for the exposition listener; `None` disables it. Use port 0
    /// to bind an ephemeral port (see [`ObserveServer::local_addr`]).
    pub listen_addr: Option<SocketAddr>,
    /// Background sampler period for depth/occupancy gauges.
    pub sample_interval: Duration,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            listen_addr: None,
            sample_interval: Duration::from_millis(100),
        }
    }
}

impl ObserveConfig {
    /// Enable the listener on `addr`.
    pub fn with_listen_addr(mut self, addr: SocketAddr) -> Self {
        self.listen_addr = Some(addr);
        self
    }

    /// Set the sampler period.
    pub fn with_sample_interval(mut self, interval: Duration) -> Self {
        self.sample_interval = interval;
        self
    }
}

/// Producer of the `/statusz` JSON body, injected by the embedder so the
/// listener stays dependency-free.
pub type StatuszFn = Arc<dyn Fn() -> String + Send + Sync>;

/// A parsed HTTP request as handed to a [`Handler`].
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, `DELETE`, ...), uppercase as sent.
    pub method: String,
    /// Request path without the query string.
    pub path: String,
    /// Raw query string after `?` (empty when absent).
    pub query: String,
    /// Request headers in arrival order, names as sent (match with
    /// [`HttpRequest::header`], which is case-insensitive per RFC 9110).
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// First header with the given name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Value of one `k=v` pair in the query string, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// A response produced by a [`Handler`].
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (200, 404, 429, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// Extra headers beyond Content-Type/Length (e.g. `Retry-After`).
    pub headers: Vec<(String, String)>,
}

impl HttpResponse {
    /// A response with the given status, content type, and body.
    pub fn new(status: u16, content_type: impl Into<String>, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: content_type.into(),
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// `200 OK` with an `application/json` body.
    pub fn ok_json(body: impl Into<String>) -> Self {
        Self::new(200, "application/json", body)
    }

    /// `200 OK` with a `text/plain` body.
    pub fn ok_text(body: impl Into<String>) -> Self {
        Self::new(200, "text/plain", body)
    }

    /// A JSON error envelope `{"error": "..."}` with the given status.
    pub fn error_json(status: u16, message: &str) -> Self {
        Self::new(
            status,
            "application/json",
            format!("{{\"error\":\"{}\"}}", crate::export::json_escape(message)),
        )
    }

    /// `404 Not Found`.
    pub fn not_found() -> Self {
        Self::new(404, "text/plain", "not found\n")
    }

    /// `405 Method Not Allowed`.
    pub fn method_not_allowed() -> Self {
        Self::new(405, "text/plain", "method not allowed\n")
    }

    /// Builder: append an extra header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Canonical reason phrase for the status codes this stack emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        }
    }
}

/// Request handler installed into an [`HttpServer`]: total routing is the
/// handler's job; the server only parses, caps, and writes.
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// Hardening knobs for [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Cap on the request head *and* on the body, each; a client exceeding
    /// either gets `413 Payload Too Large` and the connection is closed.
    pub max_request_bytes: usize,
    /// Deadline for reading the head and the body; a client stalling past it
    /// gets `408 Request Timeout`.
    pub read_timeout: Duration,
    /// Cap on concurrently served connections; excess connections get `503`.
    pub max_connections: usize,
    /// Accept-loop thread name.
    pub thread_name: String,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        HttpServerConfig {
            max_request_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(2),
            max_connections: 64,
            thread_name: "entk-http".into(),
        }
    }
}

/// Minimal threaded HTTP/1.0 server over std [`TcpListener`].
///
/// One request per connection, no keep-alive; each accepted connection is
/// served on its own short-lived thread so a slow client cannot block the
/// accept loop, bounded by [`HttpServerConfig::max_connections`]. See the
/// module docs for the 408/413 hardening contract.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpServer {
    /// Bind `addr` and serve requests through `handler`.
    pub fn start(
        addr: SocketAddr,
        handler: Handler,
        config: HttpServerConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let active = Arc::new(AtomicUsize::new(0));
        let handle = std::thread::Builder::new()
            .name(config.thread_name.clone())
            .spawn(move || {
                loop {
                    let accepted = listener.accept();
                    if stop2.load(Ordering::Acquire) {
                        break; // woken by `stop`'s connection to itself
                    }
                    match accepted {
                        Ok((stream, _)) => {
                            if active.load(Ordering::Relaxed) >= config.max_connections {
                                respond(stream, &HttpResponse::error_json(503, "overloaded"));
                                continue;
                            }
                            active.fetch_add(1, Ordering::Relaxed);
                            let handler = Arc::clone(&handler);
                            let config = config.clone();
                            let active = Arc::clone(&active);
                            // Detached on purpose: the read timeout bounds the
                            // thread's lifetime, and stop() only needs the
                            // accept loop gone.
                            let _ = std::thread::Builder::new()
                                .name(format!("{}-conn", config.thread_name))
                                .spawn(move || {
                                    serve_connection(stream, &handler, &config);
                                    active.fetch_sub(1, Ordering::Relaxed);
                                });
                        }
                        Err(_) => {
                            // Out of descriptors or the like: back off
                            // instead of spinning on the error.
                            std::thread::sleep(Duration::from_millis(5)); // sleep-ok: accept-backoff
                        }
                    }
                }
            })
            .expect("spawn http accept thread");
        Ok(HttpServer {
            addr: bound,
            stop,
            handle: Some(handle),
        })
    }

    /// Actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join it. In-flight connection threads finish
    /// on their own (bounded by the read timeout).
    pub fn stop(&mut self) {
        let Some(h) = self.handle.take() else { return };
        self.stop.store(true, Ordering::Release);
        // The loop is blocked in `accept`: hand it a connection. If this one
        // cannot be made, the backlog is full and the loop is about to wake
        // on its own.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = h.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Why reading a request off the socket failed.
enum ReadFailure {
    /// The client stalled past the read deadline → 408.
    TimedOut,
    /// The head or body exceeded the configured cap → 413.
    TooLarge,
    /// The connection died or the bytes were not parseable → drop/400.
    Malformed,
}

fn read_request(
    stream: &mut TcpStream,
    config: &HttpServerConfig,
) -> Result<HttpRequest, ReadFailure> {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    // --- head: read until the blank line, capped -------------------------
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let split = loop {
        if let Some(pos) = find_head_end(&head) {
            break pos;
        }
        if head.len() >= config.max_request_bytes {
            return Err(ReadFailure::TooLarge);
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(ReadFailure::Malformed),
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(ReadFailure::TimedOut)
            }
            Err(_) => return Err(ReadFailure::Malformed),
        }
    };
    let mut body = head.split_off(split + 4);
    let head_text = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return Err(ReadFailure::Malformed);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(name, v)| (name.trim().to_string(), v.trim().to_string()))
        .collect();
    let content_length = headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > config.max_request_bytes {
        return Err(ReadFailure::TooLarge);
    }
    // --- body: exactly Content-Length bytes, under the same deadline -----
    while body.len() < content_length {
        match stream.read(&mut buf) {
            Ok(0) => return Err(ReadFailure::Malformed),
            Ok(n) => body.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(ReadFailure::TimedOut)
            }
            Err(_) => return Err(ReadFailure::Malformed),
        }
    }
    body.truncate(content_length);
    Ok(HttpRequest {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

fn serve_connection(mut stream: TcpStream, handler: &Handler, config: &HttpServerConfig) {
    let _ = stream.set_write_timeout(Some(config.read_timeout));
    let response = match read_request(&mut stream, config) {
        Ok(req) => handler(&req),
        Err(ReadFailure::TimedOut) => HttpResponse::error_json(408, "request timed out"),
        Err(ReadFailure::TooLarge) => HttpResponse::error_json(413, "request too large"),
        Err(ReadFailure::Malformed) => HttpResponse::error_json(400, "malformed request"),
    };
    respond(stream, &response);
}

fn respond(mut stream: TcpStream, response: &HttpResponse) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut extra = String::new();
    for (name, value) in &response.headers {
        extra.push_str(name);
        extra.push_str(": ");
        extra.push_str(value);
        extra.push_str("\r\n");
    }
    let _ = write!(
        stream,
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        response.status,
        HttpResponse::reason(response.status),
        response.content_type,
        response.body.len(),
        extra,
        response.body
    );
    let _ = stream.flush();
}

/// The telemetry exposition server: [`HttpServer`] routing `GET /metrics`
/// (text/plain, Prometheus 0.0.4), `GET /statusz` (application/json via the
/// injected closure), `GET /healthz` (`ok`), plus any extra JSON routes;
/// anything else is a 404 and non-GET methods are 405.
pub struct ObserveServer {
    server: HttpServer,
}

impl std::fmt::Debug for ObserveServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserveServer")
            .field("addr", &self.server.local_addr())
            .finish()
    }
}

impl ObserveServer {
    /// Bind `addr` and start serving the built-in routes plus two kinds of
    /// extra ones (pass `Vec::new()` for either when unused). `routes` are
    /// exact `(path, application/json producer)` endpoints, e.g.
    /// `/debug/decisions` for the control plane's flight recorder.
    /// `handlers` are request-aware prefix handlers: an entry
    /// `("/v1/traces", h)` serves `GET /v1/traces` and every path under
    /// `/v1/traces/`, and `h` sees the full [`HttpRequest`] (path suffix,
    /// query string, headers). Built-ins win over exact `routes`, which win
    /// over prefix `handlers`.
    pub fn start(
        addr: SocketAddr,
        metrics: Arc<Metrics>,
        statusz: StatuszFn,
        routes: Vec<(String, StatuszFn)>,
        handlers: Vec<(String, Handler)>,
    ) -> std::io::Result<ObserveServer> {
        let handler: Handler = Arc::new(move |req: &HttpRequest| {
            if req.method != "GET" {
                return HttpResponse::method_not_allowed();
            }
            match req.path.as_str() {
                "/metrics" => {
                    HttpResponse::new(200, "text/plain; version=0.0.4", prom::encode(&metrics))
                }
                "/statusz" => HttpResponse::ok_json(statusz()),
                "/healthz" => HttpResponse::ok_text("ok\n"),
                path => {
                    if let Some((_, f)) = routes.iter().find(|(p, _)| p == path) {
                        return HttpResponse::ok_json(f());
                    }
                    match handlers.iter().find(|(prefix, _)| {
                        path == prefix
                            || (path.starts_with(prefix)
                                && path.as_bytes().get(prefix.len()) == Some(&b'/'))
                    }) {
                        Some((_, h)) => h(req),
                        None => HttpResponse::not_found(),
                    }
                }
            }
        });
        let config = HttpServerConfig {
            thread_name: "observe-http".into(),
            ..Default::default()
        };
        Ok(ObserveServer {
            server: HttpServer::start(addr, handler, config)?,
        })
    }

    /// Actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop the accept loop and join the thread.
    pub fn stop(&mut self) {
        self.server.stop();
    }
}

/// Background thread invoking a closure on a fixed period — used to fold
/// broker queue depths, pool occupancy, and DocDb round-trip counters into
/// gauges. Runs the closure once immediately so short-lived runs still
/// publish at least one sample. Stops on Drop.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler").finish()
    }
}

impl Sampler {
    /// Start sampling `f` every `interval`.
    pub fn start(interval: Duration, mut f: impl FnMut() + Send + 'static) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let interval = interval.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("observe-sampler".into())
            .spawn(move || {
                f();
                // Sleep in small slices so Drop doesn't block a full period.
                let slice = interval.min(Duration::from_millis(20));
                let mut elapsed = Duration::ZERO;
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(slice); // sleep-ok: sampler
                    elapsed += slice;
                    if elapsed >= interval {
                        elapsed = Duration::ZERO;
                        f();
                    }
                }
                // Final sample so the last gauges reflect end-of-run state.
                f();
            })
            .expect("spawn observe-sampler thread");
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the sampler and join the thread (one final sample runs first).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").expect("has header/body split");
        (head.to_string(), body.to_string())
    }

    fn server() -> (ObserveServer, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::default());
        let statusz: StatuszFn = Arc::new(|| "{\"healthy\":true}".to_string());
        let srv = ObserveServer::start(
            "127.0.0.1:0".parse().unwrap(),
            Arc::clone(&metrics),
            statusz,
            Vec::new(),
            Vec::new(),
        )
        .expect("bind");
        (srv, metrics)
    }

    #[test]
    fn healthz_and_statusz_respond() {
        let (srv, _m) = server();
        let (head, body) = get(srv.local_addr(), "/healthz");
        assert!(head.contains("200 OK"), "{head}");
        assert_eq!(body, "ok\n");
        let (head, body) = get(srv.local_addr(), "/statusz");
        assert!(head.contains("application/json"), "{head}");
        assert_eq!(body, "{\"healthy\":true}");
    }

    #[test]
    fn metrics_endpoint_serves_valid_prometheus_text() {
        let (srv, m) = server();
        m.counter("tasks.done").add(3);
        m.gauge("mq.queue.pending.depth").set(5);
        m.histogram("service.turnaround")
            .record(Duration::from_millis(2));
        let (head, body) = get(srv.local_addr(), "/metrics");
        assert!(head.contains("200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        let samples = prom::parse(&body).expect("parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "tasks_done_total" && s.value == 3.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "mq_queue_pending_depth" && s.value == 5.0));
        prom::validate_histograms(&samples).expect("histograms valid");
    }

    #[test]
    fn extra_routes_are_served_as_json() {
        let metrics = Arc::new(Metrics::default());
        let statusz: StatuszFn = Arc::new(|| "{}".to_string());
        let decisions: StatuszFn = Arc::new(|| "[{\"kind\":\"scale_up\"}]".to_string());
        let srv = ObserveServer::start(
            "127.0.0.1:0".parse().unwrap(),
            metrics,
            statusz,
            vec![("/debug/decisions".to_string(), decisions)],
            Vec::new(),
        )
        .expect("bind");
        let (head, body) = get(srv.local_addr(), "/debug/decisions");
        assert!(head.contains("200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert_eq!(body, "[{\"kind\":\"scale_up\"}]");
        let (head, _) = get(srv.local_addr(), "/debug/nothing");
        assert!(head.contains("404"), "{head}");
    }

    #[test]
    fn request_headers_are_captured_case_insensitively() {
        let handler: Handler = Arc::new(|req: &HttpRequest| {
            HttpResponse::ok_text(format!(
                "{}|{}",
                req.header("TraceParent").unwrap_or("-"),
                req.query_param("slowest").unwrap_or("-"),
            ))
        });
        let srv = HttpServer::start(
            "127.0.0.1:0".parse().unwrap(),
            handler,
            HttpServerConfig::default(),
        )
        .expect("bind");
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        write!(
            stream,
            "GET /x?slowest=5&stage=enqueue HTTP/1.0\r\ntraceparent: 00-abc-def-01\r\n\r\n"
        )
        .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("00-abc-def-01|5"), "{resp}");
    }

    #[test]
    fn prefix_handlers_see_the_request_and_lose_to_exact_routes() {
        let metrics = Arc::new(Metrics::default());
        let statusz: StatuszFn = Arc::new(|| "{}".to_string());
        let exact: StatuszFn = Arc::new(|| "\"exact\"".to_string());
        let traces: Handler = Arc::new(|req: &HttpRequest| {
            HttpResponse::ok_json(format!(
                "{{\"path\":\"{}\",\"q\":\"{}\"}}",
                req.path, req.query
            ))
        });
        let srv = ObserveServer::start(
            "127.0.0.1:0".parse().unwrap(),
            metrics,
            statusz,
            vec![("/v1/traces/exact".to_string(), exact)],
            vec![("/v1/traces".to_string(), traces)],
        )
        .expect("bind");
        let (head, body) = get(srv.local_addr(), "/v1/traces/abc123");
        assert!(head.contains("200 OK"), "{head}");
        assert!(body.contains("\"path\":\"/v1/traces/abc123\""), "{body}");
        let (_, body) = get(srv.local_addr(), "/v1/traces?slowest=3");
        assert!(body.contains("\"q\":\"slowest=3\""), "{body}");
        let (_, body) = get(srv.local_addr(), "/v1/traces/exact");
        assert_eq!(body, "\"exact\"", "exact route wins over prefix handler");
        // A sibling path that merely shares the prefix string is not matched.
        let (head, _) = get(srv.local_addr(), "/v1/tracesandmore");
        assert!(head.contains("404"), "{head}");
    }

    #[test]
    fn unknown_path_is_404_and_post_is_405() {
        let (srv, _m) = server();
        let (head, _) = get(srv.local_addr(), "/nope");
        assert!(head.contains("404"), "{head}");
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("405"), "{resp}");
    }

    #[test]
    fn server_stops_cleanly() {
        let (mut srv, _m) = server();
        let addr = srv.local_addr();
        srv.stop();
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
        srv.stop(); // idempotent
    }

    /// The accept loop blocks instead of polling: stopping a server nobody
    /// talks to must not wait for anything, and an exchange must not pay a
    /// poll interval (the 5 ms poll made 100 of them take ≥ 500 ms).
    #[test]
    fn accept_blocks_and_stop_wakes_it() {
        let (mut srv, _m) = server();
        let addr = srv.local_addr();
        let t0 = std::time::Instant::now();
        for _ in 0..100 {
            let (head, body) = get(addr, "/healthz");
            assert!(head.contains("200 OK") && body == "ok\n", "{head}");
        }
        let exchanges = t0.elapsed();
        assert!(
            exchanges < Duration::from_millis(250),
            "100 fresh-connection exchanges took {exchanges:?}"
        );
        let t0 = std::time::Instant::now();
        srv.stop();
        let stop = t0.elapsed();
        assert!(stop < Duration::from_millis(200), "stop took {stop:?}");
    }

    #[test]
    fn unspecified_bind_address_still_stops() {
        let handler: Handler = Arc::new(|_req: &HttpRequest| HttpResponse::ok_text("ok\n"));
        let mut srv = HttpServer::start(
            "0.0.0.0:0".parse().unwrap(),
            handler,
            HttpServerConfig::default(),
        )
        .expect("bind");
        assert!(srv.local_addr().ip().is_unspecified());
        srv.stop();
    }

    #[test]
    fn sampler_runs_immediately_and_periodically() {
        let ticks = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&ticks);
        let mut sampler = Sampler::start(Duration::from_millis(10), move || {
            t2.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while ticks.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ticks.load(Ordering::Relaxed) >= 3, "sampler ticked");
        sampler.stop();
        let after = ticks.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(ticks.load(Ordering::Relaxed), after, "no ticks after stop");
    }

    // --- HttpServer hardening + routing ----------------------------------

    fn echo_server(config: HttpServerConfig) -> HttpServer {
        let handler: Handler = Arc::new(|req: &HttpRequest| {
            HttpResponse::ok_json(format!(
                "{{\"method\":\"{}\",\"path\":\"{}\",\"query\":\"{}\",\"body_len\":{}}}",
                req.method,
                req.path,
                req.query,
                req.body.len()
            ))
        });
        HttpServer::start("127.0.0.1:0".parse().unwrap(), handler, config).expect("bind")
    }

    #[test]
    fn http_server_parses_method_path_query_and_body() {
        let srv = echo_server(HttpServerConfig::default());
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        let body = "{\"x\":1}";
        write!(
            stream,
            "POST /v1/things?take=true HTTP/1.0\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("200 OK"), "{resp}");
        assert!(resp.contains("\"method\":\"POST\""), "{resp}");
        assert!(resp.contains("\"path\":\"/v1/things\""), "{resp}");
        assert!(resp.contains("\"query\":\"take=true\""), "{resp}");
        assert!(resp.contains("\"body_len\":7"), "{resp}");
    }

    #[test]
    fn oversized_request_gets_413() {
        let srv = echo_server(HttpServerConfig {
            max_request_bytes: 256,
            ..Default::default()
        });
        // Oversized declared body: rejected from the header alone.
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        write!(
            stream,
            "POST /v1 HTTP/1.0\r\nContent-Length: 100000\r\n\r\n"
        )
        .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("413"), "{resp}");
        // Oversized head (a header flood), no Content-Length at all. The
        // server may close mid-flood, so writes are allowed to fail (EPIPE).
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        let _ = write!(stream, "GET /v1 HTTP/1.0\r\n");
        for i in 0..64 {
            if write!(stream, "X-Flood-{i}: {}\r\n", "y".repeat(64)).is_err() {
                break;
            }
        }
        let _ = write!(stream, "\r\n");
        let mut resp = String::new();
        let _ = stream.read_to_string(&mut resp);
        assert!(resp.contains("413"), "{resp}");
    }

    #[test]
    fn slow_client_gets_408_not_a_wedged_listener() {
        let srv = echo_server(HttpServerConfig {
            read_timeout: Duration::from_millis(100),
            ..Default::default()
        });
        // A client that opens a connection and sends half a request line...
        let mut slow = TcpStream::connect(srv.local_addr()).unwrap();
        write!(slow, "GET /half").unwrap();
        // ...must not block other clients (connections are per-thread).
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        write!(stream, "GET /ok HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("200 OK"), "{resp}");
        // ...and eventually gets 408 itself.
        let mut resp = String::new();
        slow.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("408"), "{resp}");
    }

    #[test]
    fn extra_headers_are_written() {
        let handler: Handler = Arc::new(|_req: &HttpRequest| {
            HttpResponse::error_json(429, "saturated").with_header("Retry-After", "3")
        });
        let srv = HttpServer::start(
            "127.0.0.1:0".parse().unwrap(),
            handler,
            HttpServerConfig::default(),
        )
        .expect("bind");
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        write!(stream, "POST /v1/workflows HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("429 Too Many Requests"), "{resp}");
        assert!(resp.contains("Retry-After: 3"), "{resp}");
        assert!(resp.contains("\"error\":\"saturated\""), "{resp}");
    }
}
