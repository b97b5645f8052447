//! The gateway server: request routing over `entk-observe`'s HTTP stack.

use crate::wire;
use entk_observe::{
    components, format_traceparent, generate_trace_id, hops, parse_traceparent, Handler,
    HttpRequest, HttpResponse, HttpServer, HttpServerConfig, Recorder, TraceCtx, TraceStore,
};
use entk_service::{ServiceClient, SubmissionId, SubmitError};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on cached terminal-result renderings. 256 JSON bodies is a
/// few hundred KiB at most — enough for any realistic polling window while
/// keeping a long-lived gateway's memory flat.
const RESULT_CACHE_CAP: usize = 256;

/// A bounded LRU of rendered terminal results. The service hands a result
/// out at most once ([`ServiceClient::take_result`]); the gateway takes it
/// on the first terminal `GET` and serves the cached rendering on repeat
/// polls, keeping `GET` idempotent on the wire. Without a bound, a
/// long-lived gateway leaks one rendering per finished submission forever;
/// here the least-recently-read entry is evicted at capacity, and `DELETE`
/// evicts eagerly.
struct ResultCache {
    entries: HashMap<SubmissionId, String>,
    /// Recency order, least-recent first. Invariant: same key set as
    /// `entries`, no duplicates.
    order: VecDeque<SubmissionId>,
    cap: usize,
}

impl ResultCache {
    fn new(cap: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    fn touch(&mut self, id: SubmissionId) {
        if let Some(pos) = self.order.iter().position(|x| *x == id) {
            self.order.remove(pos);
        }
        self.order.push_back(id);
    }

    fn get(&mut self, id: SubmissionId) -> Option<String> {
        let body = self.entries.get(&id)?.clone();
        self.touch(id);
        Some(body)
    }

    fn insert(&mut self, id: SubmissionId, body: String) {
        if self.entries.insert(id, body).is_none() && self.entries.len() > self.cap {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        self.touch(id);
    }

    fn remove(&mut self, id: SubmissionId) -> bool {
        if self.entries.remove(&id).is_none() {
            return false;
        }
        if let Some(pos) = self.order.iter().position(|x| *x == id) {
            self.order.remove(pos);
        }
        true
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Shared gateway state behind the per-connection handler threads.
struct GatewayState {
    client: ServiceClient,
    recorder: Recorder,
    /// Rendered terminal results, keyed by submission (bounded; see
    /// [`ResultCache`]).
    results: Mutex<ResultCache>,
    /// The service's settled-timeline store, mounted on `/v1/traces`. The
    /// disabled store (404s) unless started via [`Gateway::start_with_traces`].
    traces: Arc<TraceStore>,
    /// Distinguishes trace ids generated in the same nanosecond.
    trace_seq: AtomicU64,
}

/// A running HTTP gateway fronting one [`EnsembleService`].
///
/// [`EnsembleService`]: entk_service::EnsembleService
pub struct Gateway {
    server: HttpServer,
}

impl Gateway {
    /// Bind `addr` (port 0 picks an ephemeral port) and start serving the
    /// wire protocol against `client`. The recorder receives `gateway.*`
    /// request counters — pass the service's own recorder
    /// ([`EnsembleService::recorder`]) so gateway traffic lands on the same
    /// `/metrics` exposition.
    ///
    /// [`EnsembleService::recorder`]: entk_service::EnsembleService::recorder
    pub fn start(addr: SocketAddr, client: ServiceClient, recorder: Recorder) -> io::Result<Self> {
        let config = HttpServerConfig {
            thread_name: "entk-gateway".into(),
            ..HttpServerConfig::default()
        };
        Self::start_with(addr, client, recorder, config)
    }

    /// [`Gateway::start`] with explicit HTTP limits (request-size cap, read
    /// timeout, connection cap).
    pub fn start_with(
        addr: SocketAddr,
        client: ServiceClient,
        recorder: Recorder,
        config: HttpServerConfig,
    ) -> io::Result<Self> {
        Self::start_inner(
            addr,
            client,
            recorder,
            config,
            Arc::new(TraceStore::disabled()),
        )
    }

    /// [`Gateway::start`] with the service's settled-timeline store mounted
    /// on `GET /v1/traces` (pass [`EnsembleService::trace_store`]). Submit
    /// requests then propagate an incoming W3C `traceparent` header — or
    /// mint a fresh trace id — and stamp `wire_recv`/`parsed` hops that ride
    /// through admission into every per-task timeline of the run.
    ///
    /// [`EnsembleService::trace_store`]: entk_service::EnsembleService::trace_store
    pub fn start_with_traces(
        addr: SocketAddr,
        client: ServiceClient,
        recorder: Recorder,
        traces: Arc<TraceStore>,
    ) -> io::Result<Self> {
        let config = HttpServerConfig {
            thread_name: "entk-gateway".into(),
            ..HttpServerConfig::default()
        };
        Self::start_inner(addr, client, recorder, config, traces)
    }

    fn start_inner(
        addr: SocketAddr,
        client: ServiceClient,
        recorder: Recorder,
        config: HttpServerConfig,
        traces: Arc<TraceStore>,
    ) -> io::Result<Self> {
        let state = Arc::new(GatewayState {
            client,
            recorder,
            results: Mutex::new(ResultCache::new(RESULT_CACHE_CAP)),
            traces,
            trace_seq: AtomicU64::new(0),
        });
        let handler: Handler = Arc::new(move |req| route(&state, req));
        let server = HttpServer::start(addr, handler, config)?;
        Ok(Gateway { server })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop accepting connections and join the accept loop.
    pub fn stop(mut self) {
        self.server.stop();
    }
}

fn route(gw: &GatewayState, req: &HttpRequest) -> HttpResponse {
    let m = gw.recorder.metrics();
    m.counter("gateway.requests").incr();
    let resp = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/workflows") => submit(gw, req),
        ("GET", "/v1/sessions") => sessions(gw),
        ("GET", "/healthz") => HttpResponse::ok_text("ok\n"),
        (_, path) if path == "/v1/traces" || path.starts_with("/v1/traces/") => {
            gw.traces.serve("/v1/traces", req)
        }
        (method, path) if path.starts_with("/v1/workflows/") => {
            match wire::parse_id(&path["/v1/workflows/".len()..]) {
                None => HttpResponse::error_json(400, "malformed submission id"),
                Some(id) => match method {
                    "GET" => status(gw, id),
                    "DELETE" => cancel(gw, id),
                    _ => HttpResponse::method_not_allowed(),
                },
            }
        }
        ("POST" | "GET" | "DELETE", _) => HttpResponse::not_found(),
        _ => HttpResponse::method_not_allowed(),
    };
    m.counter(&format!("gateway.http.{}", resp.status)).incr();
    resp
}

/// Start the wire-side trace for one submit request: propagate the client's
/// W3C `traceparent` trace id when the header is present and valid, mint a
/// fresh id otherwise, and stamp the `wire_recv` hop at `recv_ns` (captured
/// at handler entry, before parsing). `None` when the recorder is disabled —
/// the whole trace plane then costs one branch.
fn wire_trace(gw: &GatewayState, req: &HttpRequest, recv_ns: u64) -> Option<TraceCtx> {
    if !gw.recorder.is_enabled() {
        return None;
    }
    let trace_id = req
        .header("traceparent")
        .and_then(parse_traceparent)
        .unwrap_or_else(|| generate_trace_id(gw.trace_seq.fetch_add(1, Ordering::Relaxed)));
    Some(TraceCtx::new(&trace_id).with_trace_id(&trace_id).with_hop(
        components::GATEWAY,
        hops::WIRE_RECV,
        recv_ns,
    ))
}

fn submit(gw: &GatewayState, req: &HttpRequest) -> HttpResponse {
    let recv_ns = gw.recorder.now_ns();
    let body = match wire::parse_submit(&req.body_str()) {
        Ok(body) => body,
        Err(e) => return HttpResponse::error_json(400, &e),
    };
    let mut trace = wire_trace(gw, req, recv_ns);
    if let Some(t) = trace.as_mut() {
        t.hop(components::GATEWAY, hops::PARSED, gw.recorder.now_ns());
    }
    let trace_id = trace.as_ref().and_then(|t| t.trace_id.clone());
    let m = gw.recorder.metrics();
    match gw
        .client
        .submit_spec_traced(body.tenant, body.spec, body.weight, trace)
    {
        Ok(id) => {
            m.counter("gateway.submitted").incr();
            let mut resp = HttpResponse::new(
                202,
                "application/json",
                wire::accepted_json(id, trace_id.as_deref()),
            );
            if let Some(tid) = &trace_id {
                resp = resp.with_header("traceparent", format_traceparent(tid));
            }
            resp
        }
        Err(SubmitError::Saturated { retry_after }) => {
            m.counter("gateway.rejected.saturated").incr();
            // Round the hint up: a 0-second Retry-After invites a tight
            // client spin against an already-saturated service.
            let secs = retry_after.as_secs_f64().ceil().max(1.0) as u64;
            HttpResponse::error_json(429, &format!("saturated; retry after {secs}s"))
                .with_header("Retry-After", secs.to_string())
        }
        Err(SubmitError::Draining) => {
            m.counter("gateway.rejected.draining").incr();
            HttpResponse::error_json(503, "service draining; no new submissions")
        }
        Err(SubmitError::Invalid(detail)) => {
            HttpResponse::error_json(400, &format!("invalid workflow spec: {detail}"))
        }
        Err(SubmitError::Journal(detail)) => {
            m.counter("gateway.rejected.journal").incr();
            HttpResponse::error_json(500, &format!("journal refused submission: {detail}"))
        }
    }
}

fn status(gw: &GatewayState, id: SubmissionId) -> HttpResponse {
    if let Some(cached) = gw.results.lock().get(id) {
        return HttpResponse::ok_json(cached);
    }
    match gw.client.status(id) {
        None => HttpResponse::error_json(404, "unknown submission"),
        Some(st) if st.is_terminal() => match gw.client.take_result(id) {
            Some(result) => {
                let body = wire::result_json(&result);
                let depth = {
                    let mut cache = gw.results.lock();
                    cache.insert(id, body.clone());
                    cache.len()
                };
                gw.recorder
                    .metrics()
                    .gauge("gateway.result_cache")
                    .set(depth as i64);
                HttpResponse::ok_json(body)
            }
            // Result consumed by an in-process client: the lifecycle state
            // is still honest, just without the summary.
            None => HttpResponse::ok_json(wire::status_json(id, &st)),
        },
        Some(st) => HttpResponse::ok_json(wire::status_json(id, &st)),
    }
}

fn cancel(gw: &GatewayState, id: SubmissionId) -> HttpResponse {
    if gw.client.status(id).is_none() {
        return HttpResponse::error_json(404, "unknown submission");
    }
    // The client is done with this submission: drop its cached rendering
    // now rather than waiting for LRU pressure. A later GET still answers
    // honestly from the live lifecycle state.
    if gw.results.lock().remove(id) {
        gw.recorder
            .metrics()
            .counter("gateway.results_evicted")
            .incr();
    }
    let initiated = gw.client.cancel(id);
    if initiated {
        gw.recorder.metrics().counter("gateway.canceled").incr();
    }
    HttpResponse::ok_json(format!("{{\"id\":\"{id}\",\"canceled\":{initiated}}}"))
}

fn sessions(gw: &GatewayState) -> HttpResponse {
    HttpResponse::ok_json(wire::sessions_json(&gw.client.list()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> SubmissionId {
        SubmissionId(n)
    }

    #[test]
    fn result_cache_caps_at_capacity_evicting_least_recent() {
        let mut c = ResultCache::new(3);
        for n in 0..3 {
            c.insert(id(n), format!("r{n}"));
        }
        assert_eq!(c.len(), 3);
        // Read id 0 so it becomes most-recent; id 1 is now the LRU victim.
        assert_eq!(c.get(id(0)).as_deref(), Some("r0"));
        c.insert(id(3), "r3".into());
        assert_eq!(c.len(), 3);
        assert!(c.get(id(1)).is_none(), "least-recently-read entry evicted");
        assert_eq!(c.get(id(0)).as_deref(), Some("r0"));
        assert_eq!(c.get(id(3)).as_deref(), Some("r3"));
    }

    #[test]
    fn result_cache_remove_evicts_eagerly() {
        let mut c = ResultCache::new(8);
        c.insert(id(7), "body".into());
        assert!(c.remove(id(7)));
        assert!(!c.remove(id(7)), "second remove is a no-op");
        assert!(c.get(id(7)).is_none());
        assert_eq!(c.len(), 0);
        // Order list stays consistent with the map after removal: filling
        // past capacity must not underflow or double-evict.
        for n in 0..20 {
            c.insert(id(n), format!("r{n}"));
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn result_cache_reinsert_updates_in_place() {
        let mut c = ResultCache::new(2);
        c.insert(id(1), "a".into());
        c.insert(id(1), "b".into());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(id(1)).as_deref(), Some("b"));
        c.insert(id(2), "c".into());
        assert_eq!(c.len(), 2, "reinsert must not inflate the count");
    }
}
