//! Integration tests for the wire-facing durable gateway: the HTTP
//! protocol end-to-end over real TCP, property-based round-trips of the
//! workflow-spec wire codec, ≥32-client concurrency against one listener,
//! and kill-the-service crash recovery through the durable journal.

use entk::gateway::Gateway;
use entk::observe::json::{self, Json};
use entk::prelude::*;
use entk::service::{ExecSpec, PipelineSpec, StageSpec, TaskSpec, WorkflowSpec};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn timeout() -> Duration {
    Duration::from_secs(300)
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "entk-gateway-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn sim_service(journal_dir: Option<PathBuf>) -> EnsembleService {
    let mut cfg = ServiceConfig::new(ResourceDescription::sim(
        PlatformId::TestRig,
        2,
        1_000_000_000,
    ))
    .with_warm_pilots(1)
    .with_max_active(2)
    .with_max_pending(64)
    .with_run_timeout(timeout());
    if let Some(dir) = journal_dir {
        cfg = cfg.with_journal_dir(dir);
    }
    EnsembleService::start(cfg)
}

fn gateway_for(service: &EnsembleService) -> Gateway {
    Gateway::start(
        "127.0.0.1:0".parse().unwrap(),
        service.client(),
        service.recorder(),
    )
    .expect("bind gateway")
}

/// One raw HTTP/1.0-style exchange: own connection, full response read.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    http_with_headers(addr, method, path, &[], body)
}

/// [`http`] with extra request headers (e.g. `traceparent`).
fn http_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect gateway");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (k, v) in extra {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    if let Some(b) = body {
        req.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    req.push_str("\r\n");
    if let Some(b) = body {
        req.push_str(b);
    }
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("response has head");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    (status, headers, payload.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn submit_body(label: &str, tasks: usize, weight: Option<u32>) -> String {
    let mut stage = StageSpec::new(format!("{label}-s"));
    for t in 0..tasks {
        stage = stage.with_task(TaskSpec::new(
            format!("{label}-t{t}"),
            ExecSpec::Sleep { secs: 50.0 },
        ));
    }
    let spec = WorkflowSpec::new()
        .with_pipeline(PipelineSpec::new(format!("{label}-p")).with_stage(stage));
    let weight = weight.map_or(String::new(), |w| format!("\"weight\":{w},"));
    format!(
        "{{\"tenant\":\"{label}\",{weight}\"workflow\":{}}}",
        spec.to_json()
    )
}

/// Poll `GET /v1/workflows/{id}` until the state is terminal; returns the
/// final response document.
fn wait_terminal(addr: SocketAddr, id: &str) -> Json {
    let deadline = std::time::Instant::now() + timeout();
    loop {
        let (status, _, body) = http(addr, "GET", &format!("/v1/workflows/{id}"), None);
        assert_eq!(status, 200, "status poll for {id}: {body}");
        let doc = json::parse(&body).expect("status body is JSON");
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("");
        if matches!(state, "done" | "failed" | "canceled") {
            return doc;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "submission {id} never settled"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// Satellite: property-based round-trip of the workflow-spec wire codec.
// ---------------------------------------------------------------------------

fn exec_strategy() -> BoxedStrategy<ExecSpec> {
    prop_oneof![
        (0u32..86_400).prop_map(|s| ExecSpec::Sleep { secs: f64::from(s) }),
        (1u32..10_000).prop_map(|s| ExecSpec::Mdrun {
            nominal_secs: f64::from(s)
        }),
        ((1u32..10_000), (0u32..1_000_000)).prop_map(|(s, io)| ExecSpec::Specfem {
            nominal_secs: f64::from(s),
            io_demand_bps: f64::from(io)
        }),
        (1u32..10_000).prop_map(|s| ExecSpec::Canalogs {
            nominal_secs: f64::from(s)
        }),
        Just(ExecSpec::Noop),
    ]
    .boxed()
}

fn task_strategy() -> BoxedStrategy<(ExecSpec, u32, u32)> {
    (exec_strategy(), 1u32..64, 0u32..8).boxed()
}

fn spec_strategy() -> BoxedStrategy<WorkflowSpec> {
    // Names exercise JSON escaping: quotes, backslashes, control chars,
    // non-ASCII.
    let names = proptest::sample::select(vec![
        "plain".to_string(),
        "with space".to_string(),
        "qu\"ote".to_string(),
        "back\\slash".to_string(),
        "tab\there".to_string(),
        "uni-cøde-✓".to_string(),
    ]);
    vec((names, vec(task_strategy(), 1..5)), 1..4)
        .prop_map(|pipelines| {
            let mut spec = WorkflowSpec::new();
            for (i, (name, tasks)) in pipelines.into_iter().enumerate() {
                let mut stage = StageSpec::new(format!("{name}-s{i}"));
                for (j, (exec, cpus, gpus)) in tasks.into_iter().enumerate() {
                    stage = stage.with_task(
                        TaskSpec::new(format!("{name}-t{i}.{j}",), exec)
                            .with_cpus(cpus)
                            .with_gpus(gpus),
                    );
                }
                let mut pipeline = PipelineSpec::new(format!("{name}-p{i}")).with_stage(stage);
                // Chain a dependency on an earlier pipeline now and then.
                if i > 0 && i % 2 == 0 {
                    pipeline = pipeline.after_index(i - 1);
                }
                spec = spec.with_pipeline(pipeline);
            }
            spec
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spec_json_codec_round_trips(spec in spec_strategy()) {
        let json = spec.to_json();
        let back = WorkflowSpec::from_json(&json).expect("own encoding decodes");
        prop_assert_eq!(&back, &spec);
        // And the re-encoding is byte-stable (canonical form).
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn mutated_spec_json_never_panics(spec in spec_strategy(), cut in 0usize..512, flip in 0usize..512) {
        // Truncations and byte flips must produce Err, never a panic or a
        // silently-wrong accept of structurally broken input.
        let json = spec.to_json();
        let mut cut = cut.min(json.len());
        while !json.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = WorkflowSpec::from_json(&json[..cut]);
        let mut bytes = json.clone().into_bytes();
        let at = flip % bytes.len();
        bytes[at] = bytes[at].wrapping_add(1);
        if let Ok(mutated) = String::from_utf8(bytes) {
            let _ = WorkflowSpec::from_json(&mutated);
        }
    }
}

// ---------------------------------------------------------------------------
// Tentpole: the full protocol over real TCP.
// ---------------------------------------------------------------------------

#[test]
fn gateway_full_lifecycle_over_tcp() {
    let service = sim_service(None);
    let gw = gateway_for(&service);
    let addr = gw.local_addr();

    // Submit.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/workflows",
        Some(&submit_body("alice", 4, Some(3))),
    );
    assert_eq!(status, 202, "submit: {body}");
    let doc = json::parse(&body).unwrap();
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .expect("id in reply")
        .to_string();
    assert!(id.starts_with("sub."));

    // Settles done with all tasks counted.
    let done = wait_terminal(addr, &id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(done.get("success").and_then(Json::as_bool), Some(true));
    assert_eq!(done.get("tasks_done").and_then(Json::as_f64), Some(4.0));
    assert_eq!(done.get("recovered").and_then(Json::as_bool), Some(false));

    // GET stays idempotent after the service's one-shot result was taken.
    let again = wait_terminal(addr, &id);
    assert_eq!(again.get("tasks_done").and_then(Json::as_f64), Some(4.0));

    // The session listing shows the settled, durable submission.
    let (status, _, body) = http(addr, "GET", "/v1/sessions", None);
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    let rows = doc.get("sessions").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("tenant").and_then(Json::as_str), Some("alice"));
    assert_eq!(rows[0].get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(rows[0].get("durable").and_then(Json::as_bool), Some(true));

    // Cancel a fresh queued/running submission.
    let (_, _, body) = http(
        addr,
        "POST",
        "/v1/workflows",
        Some(&submit_body("bob", 64, None)),
    );
    let id2 = json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let (status, _, body) = http(addr, "DELETE", &format!("/v1/workflows/{id2}"), None);
    assert_eq!(status, 200);
    assert_eq!(
        json::parse(&body).unwrap().get("id").and_then(Json::as_str),
        Some(id2.as_str())
    );
    let settled = wait_terminal(addr, &id2);
    assert_ne!(settled.get("state").and_then(Json::as_str), Some("queued"));

    gw.stop();
    service.shutdown();
}

#[test]
fn gateway_rejects_malformed_requests_with_http_errors() {
    let service = sim_service(None);
    let gw = gateway_for(&service);
    let addr = gw.local_addr();

    // Malformed bodies → 400 with a JSON error payload.
    for bad in [
        "{nope",
        "{\"workflow\":{\"pipelines\":[]}}",
        "{\"tenant\":\"\",\"workflow\":{\"pipelines\":[]}}",
        "{\"tenant\":\"a\"}",
        "{\"tenant\":\"a\",\"weight\":-1,\"workflow\":{\"pipelines\":[]}}",
        "{\"tenant\":\"a\",\"workflow\":{\"pipelines\":[{\"name\":\"p\"}]}}",
    ] {
        let (status, _, body) = http(addr, "POST", "/v1/workflows", Some(bad));
        assert_eq!(status, 400, "accepted malformed body {bad}: {body}");
        assert!(
            json::parse(&body).unwrap().get("error").is_some(),
            "400 body carries an error field"
        );
    }

    // Unknown/garbage ids and routes.
    let (status, _, _) = http(addr, "GET", "/v1/workflows/sub.09999", None);
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "GET", "/v1/workflows/not-an-id", None);
    assert_eq!(status, 400);
    let (status, _, _) = http(addr, "DELETE", "/v1/workflows/sub.09999", None);
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "GET", "/v1/nope", None);
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "PUT", "/v1/workflows/sub.00001", None);
    assert_eq!(status, 405);

    gw.stop();
    service.shutdown();
}

#[test]
fn saturated_service_answers_429_with_retry_after() {
    // One worker, tiny queue; occupy it with slow in-process submissions
    // (closures can't cross the wire, which is exactly why this knob is
    // deterministic here), then a wire submission must bounce with 429.
    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::local(2))
            .with_warm_pilots(1)
            .with_max_active(1)
            .with_max_pending(2)
            .with_run_timeout(timeout()),
    );
    let client = service.client();
    let gw = gateway_for(&service);
    let addr = gw.local_addr();

    let slow_wf = |label: &str| {
        Workflow::new().with_pipeline(Pipeline::new(format!("{label}-p")).with_stage(
            Stage::new("s").with_task(Task::new(
                label,
                Executable::compute(0.1, || {
                    std::thread::sleep(Duration::from_millis(50));
                    Ok(())
                }),
            )),
        ))
    };
    // Occupy the only worker first: a submit returns before the worker has
    // woken, and a queue that is full only until it pops would admit the
    // wire submission below.
    let first = client.submit("flooder", slow_wf("w0")).expect("admitted");
    let deadline = std::time::Instant::now() + timeout();
    while client.status(first) != Some(SubmissionStatus::Running) {
        assert!(std::time::Instant::now() < deadline, "never started");
        std::thread::yield_now();
    }
    // Fill until the service itself reports saturation.
    let mut accepted = vec![first];
    loop {
        match client.submit("flooder", slow_wf(&format!("w{}", accepted.len()))) {
            Ok(id) => accepted.push(id),
            Err(SubmitError::Saturated { .. }) => break,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        assert!(accepted.len() < 64, "service never saturated");
    }

    let (status, headers, body) = http(
        addr,
        "POST",
        "/v1/workflows",
        Some(&submit_body("wire", 1, None)),
    );
    assert_eq!(status, 429, "saturated submit: {body}");
    let retry_after: u64 = header(&headers, "Retry-After")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is integer seconds");
    assert!(retry_after >= 1);

    for id in accepted {
        client.wait(id, timeout()).expect("admitted run settles");
    }
    gw.stop();
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Satellite: ≥32 concurrent TCP clients against one listener.
// ---------------------------------------------------------------------------

#[test]
fn thirty_two_concurrent_tcp_clients_all_complete() {
    const CLIENTS: usize = 32;
    let service = sim_service(None);
    let gw = gateway_for(&service);
    let addr = gw.local_addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let tenant = format!("client{i:02}");
                let (status, _, body) = http(
                    addr,
                    "POST",
                    "/v1/workflows",
                    Some(&submit_body(&tenant, 2, None)),
                );
                assert_eq!(status, 202, "client {i} submit: {body}");
                let id = json::parse(&body)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string();
                let done = wait_terminal(addr, &id);
                assert_eq!(
                    done.get("state").and_then(Json::as_str),
                    Some("done"),
                    "client {i}"
                );
                assert_eq!(done.get("tasks_done").and_then(Json::as_f64), Some(2.0));
                id
            })
        })
        .collect();
    let ids: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    // Every client got a distinct submission.
    let distinct: std::collections::BTreeSet<&String> = ids.iter().collect();
    assert_eq!(distinct.len(), CLIENTS);

    let (status, _, body) = http(addr, "GET", "/v1/sessions", None);
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("sessions").and_then(Json::as_array).unwrap().len(),
        CLIENTS
    );

    gw.stop();
    let stats = service.shutdown();
    assert_eq!(stats.completed, CLIENTS as u64);
    assert_eq!(stats.failed, 0);
}

// ---------------------------------------------------------------------------
// Tentpole: kill the service mid-flight; recovery re-drives every
// in-flight workflow exactly once.
// ---------------------------------------------------------------------------

#[test]
fn killed_service_recovers_every_inflight_workflow_exactly_once() {
    let dir = tmp_dir("recover");
    const SUBS: usize = 6;

    // Epoch 1: submit through the wire, let one settle, kill with the rest
    // in flight.
    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::sim(
            PlatformId::TestRig,
            2,
            1_000_000_000,
        ))
        .with_warm_pilots(1)
        .with_max_active(1) // serialize so most submissions stay in flight
        .with_max_pending(64)
        .with_run_timeout(timeout())
        .with_journal_dir(&dir),
    );
    let gw = gateway_for(&service);
    let addr = gw.local_addr();

    let mut ids = Vec::new();
    for i in 0..SUBS {
        let (status, _, body) = http(
            addr,
            "POST",
            "/v1/workflows",
            Some(&submit_body(&format!("t{i}"), 3, None)),
        );
        assert_eq!(status, 202, "submit {i}: {body}");
        ids.push(
            json::parse(&body)
                .unwrap()
                .get("id")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
    }
    // Let the first settle so recovery has a settled watermark to respect.
    let first = wait_terminal(addr, &ids[0]);
    assert_eq!(first.get("state").and_then(Json::as_str), Some("done"));
    gw.stop();
    service.kill();

    // Epoch 2: recover from the journal directory and re-attach a gateway.
    let recovered = EnsembleService::recover(
        ServiceConfig::new(ResourceDescription::sim(
            PlatformId::TestRig,
            2,
            1_000_000_000,
        ))
        .with_warm_pilots(1)
        .with_max_active(2)
        .with_max_pending(64)
        .with_run_timeout(timeout())
        .with_journal_dir(&dir),
    )
    .expect("recovery succeeds");
    let gw = gateway_for(&recovered);
    let addr = gw.local_addr();

    // The settled-before-kill submission is restored as terminal from its
    // journal summary, NOT re-driven.
    let restored = wait_terminal(addr, &ids[0]);
    assert_eq!(restored.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        restored.get("recovered").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(restored.get("tasks_done").and_then(Json::as_f64), Some(3.0));

    // Every in-flight submission re-drives to done under its original id.
    for id in &ids[1..] {
        let done = wait_terminal(addr, id);
        assert_eq!(
            done.get("state").and_then(Json::as_str),
            Some("done"),
            "recovered submission {id}"
        );
        assert_eq!(done.get("tasks_done").and_then(Json::as_f64), Some(3.0));
    }

    // Exactly-once at the ledger: every submission counted exactly once
    // across both epochs, none lost, none duplicated.
    let (status, _, body) = http(addr, "GET", "/v1/sessions", None);
    assert_eq!(status, 200);
    let rows_len = json::parse(&body)
        .unwrap()
        .get("sessions")
        .and_then(Json::as_array)
        .unwrap()
        .len();
    assert_eq!(rows_len, SUBS, "no lost or duplicated submissions");
    gw.stop();
    let stats = recovered.shutdown();
    assert_eq!(stats.submitted, SUBS as u64);
    assert_eq!(stats.completed, SUBS as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.canceled, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Tentpole: wire-to-sync distributed tracing. A client traceparent rides
// through the gateway into the service, every task timeline carries the
// wire-side hops, and the settled trace is queryable back out of the
// gateway under the same trace id.
// ---------------------------------------------------------------------------

#[test]
fn traceparent_rides_wire_to_queryable_settled_timeline() {
    use entk::observe::{Recorder, TraceStoreConfig};

    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::sim(
            PlatformId::TestRig,
            2,
            1_000_000_000,
        ))
        .with_warm_pilots(1)
        .with_max_active(2)
        .with_max_pending(64)
        .with_run_timeout(timeout())
        .with_recorder(Recorder::new())
        .with_traces(TraceStoreConfig {
            sample_permille: 1_000, // keep every settled timeline
            ..TraceStoreConfig::default()
        }),
    );
    let gw = Gateway::start_with_traces(
        "127.0.0.1:0".parse().unwrap(),
        service.client(),
        service.recorder(),
        service.trace_store(),
    )
    .expect("bind gateway");
    let addr = gw.local_addr();

    // Submit with a client-minted W3C traceparent; the gateway must adopt
    // the embedded trace id rather than minting its own.
    let client_trace = "4bf92f3577b34da6a3ce929d0e0e4736";
    let traceparent = format!("00-{client_trace}-00f067aa0ba902b7-01");
    let (status, headers, body) = http_with_headers(
        addr,
        "POST",
        "/v1/workflows",
        &[("traceparent", &traceparent)],
        Some(&submit_body("traced", 3, None)),
    );
    assert_eq!(status, 202, "submit: {body}");
    let doc = json::parse(&body).unwrap();
    let id = doc.get("id").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(
        doc.get("trace_id").and_then(Json::as_str),
        Some(client_trace),
        "202 body echoes the propagated trace id"
    );
    // The response traceparent carries the same trace id back.
    let echoed = header(&headers, "traceparent").expect("traceparent response header");
    assert_eq!(echoed.split('-').nth(1), Some(client_trace));

    let done = wait_terminal(addr, &id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));

    // The settled timeline is queryable from the gateway under the trace id.
    let (status, _, body) = http(addr, "GET", &format!("/v1/traces/{client_trace}"), None);
    assert_eq!(status, 200, "trace lookup: {body}");
    let doc = json::parse(&body).unwrap();
    let tasks = doc.get("tasks").and_then(Json::as_array).unwrap();
    assert_eq!(tasks.len(), 3, "one timeline per task: {body}");

    for task in tasks {
        assert_eq!(
            task.get("trace_id").and_then(Json::as_str),
            Some(client_trace)
        );
        assert_eq!(task.get("outcome").and_then(Json::as_str), Some("done"));
        let hops = task.get("hops").and_then(Json::as_array).unwrap();
        let states: Vec<&str> = hops
            .iter()
            .filter_map(|h| h.get("state").and_then(Json::as_str))
            .collect();
        // Wire-side hops precede the in-process pipeline, in order.
        assert_eq!(
            &states[..5],
            &[
                "wire_recv",
                "parsed",
                "admitted",
                "journal_appended",
                "enqueue"
            ],
            "wire prefix for {states:?}"
        );
        assert_eq!(states.last(), Some(&"synced"));

        // Stage decomposition is exact by construction: consecutive-pair
        // durations sum to end-to-end, timestamps never go backwards.
        let times: Vec<f64> = hops
            .iter()
            .filter_map(|h| h.get("t_ns").and_then(Json::as_f64))
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "monotone hop clock: {times:?}"
        );
        let stage_sum: f64 = times.windows(2).map(|w| w[1] - w[0]).sum();
        let total = task.get("total_ns").and_then(Json::as_f64).unwrap();
        assert_eq!(stage_sum, total, "stage sum == end-to-end");
    }

    // The slow-stage index serves the ranked view, filterable by stage.
    let (status, _, body) = http(addr, "GET", "/v1/traces?slowest=4", None);
    assert_eq!(status, 200);
    let rows = json::parse(&body)
        .unwrap()
        .get("slowest")
        .and_then(Json::as_array)
        .unwrap()
        .len();
    assert!(rows > 0, "slowest index populated: {body}");

    // Unknown ids are a clean 404, not an empty 200.
    let (status, _, _) = http(
        addr,
        "GET",
        "/v1/traces/ffffffffffffffffffffffffffffffff",
        None,
    );
    assert_eq!(status, 404);

    gw.stop();
    service.shutdown();
}

#[test]
fn gateway_mints_trace_id_when_client_sends_none() {
    use entk::observe::{Recorder, TraceStoreConfig};

    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::sim(
            PlatformId::TestRig,
            2,
            1_000_000_000,
        ))
        .with_warm_pilots(1)
        .with_max_active(2)
        .with_run_timeout(timeout())
        .with_recorder(Recorder::new())
        .with_traces(TraceStoreConfig {
            sample_permille: 1_000,
            ..TraceStoreConfig::default()
        }),
    );
    let gw = Gateway::start_with_traces(
        "127.0.0.1:0".parse().unwrap(),
        service.client(),
        service.recorder(),
        service.trace_store(),
    )
    .expect("bind gateway");
    let addr = gw.local_addr();

    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/workflows",
        Some(&submit_body("mint", 1, None)),
    );
    assert_eq!(status, 202, "submit: {body}");
    let doc = json::parse(&body).unwrap();
    let id = doc.get("id").and_then(Json::as_str).unwrap().to_string();
    let tid = doc
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("gateway mints a trace id")
        .to_string();
    assert_eq!(tid.len(), 32, "W3C trace id is 32 hex chars: {tid}");
    assert!(tid.bytes().all(|b| b.is_ascii_hexdigit()));

    wait_terminal(addr, &id);
    let (status, _, body) = http(addr, "GET", &format!("/v1/traces/{tid}"), None);
    assert_eq!(status, 200, "minted trace queryable: {body}");

    gw.stop();
    service.shutdown();
}
