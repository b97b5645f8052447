//! Telemetry smoke: a live `/metrics` + `/statusz` scrape against a running
//! [`EnsembleService`].
//!
//! CI's answer to "is the telemetry plane actually wired end to end?": boot
//! the service with the observe listener on an ephemeral port, push a small
//! multi-tenant workload through it, scrape the listener over plain TCP while
//! one run is still in flight, and fail hard unless every key series is
//! present and well-formed:
//!
//! * task-state transition counters (`task_state_done_total`, ...);
//! * per-queue broker depth gauges (`mq_queue_*_depth`);
//! * warm-pool occupancy (`rts_pool_warm`);
//! * the turnaround histogram (`service_turnaround_seconds`), with monotone
//!   cumulative buckets per the Prometheus text 0.0.4 contract;
//! * a `/statusz` flight-recorder snapshot that is valid JSON and accounts
//!   for every submitted session.
//!
//! Observability v3 adds the wire-tracing leg: one workflow goes in through
//! a real [`Gateway`] with a client-minted `traceparent`, and after it
//! settles the smoke scrapes `GET /v1/traces/<id>` off the gateway and fails
//! unless the timeline carries the wire-side hops
//! (`wire_recv` → `parsed` → `admitted` → `journal_appended`).
//!
//! The raw scrapes are written next to the benchmark artifacts so a failing
//! run leaves the evidence behind.
//!
//! Usage: `telemetry_smoke [--quick] [--workflows N] [--tasks N]
//! [--out-metrics PATH] [--out-statusz PATH] [--out-trace PATH]`

use entk_bench::{argv, flag_num, flag_value, has_flag};
use entk_core::{Executable, Pipeline, ResourceDescription, Stage, Task, Workflow};
use entk_gateway::Gateway;
use entk_observe::{json, prom, ObserveConfig, SloConfig, TraceStoreConfig};
use entk_service::{
    EnsembleService, ExecSpec, PipelineSpec, ServiceConfig, StageSpec, TaskSpec, WorkflowSpec,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(300);

fn workflow(label: &str, tasks: usize) -> Workflow {
    let mut stage = Stage::new(format!("{label}-s"));
    for t in 0..tasks {
        stage.add_task(Task::new(format!("{label}-t{t}"), Executable::Noop));
    }
    Workflow::new().with_pipeline(Pipeline::new(format!("{label}-p")).with_stage(stage))
}

/// Blocking HTTP/1.0 GET against the observe listener; returns (head, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to observe listener");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: smoke\r\n\r\n").unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// Blocking HTTP/1.1 POST with an optional extra header (`traceparent`).
fn http_post(
    addr: SocketAddr,
    path: &str,
    extra: Option<(&str, &str)>,
    body: &str,
) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to gateway");
    let mut req = format!("POST {path} HTTP/1.1\r\nHost: smoke\r\n");
    if let Some((k, v)) = extra {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("send request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

fn main() {
    let args = argv();
    let quick = has_flag(&args, "--quick");
    let n_wf = flag_num(&args, "--workflows", if quick { 4usize } else { 8 });
    let tasks = flag_num(&args, "--tasks", 8usize);
    let out_metrics =
        flag_value(&args, "--out-metrics").unwrap_or_else(|| "TELEMETRY_metrics.prom".into());
    let out_statusz =
        flag_value(&args, "--out-statusz").unwrap_or_else(|| "TELEMETRY_statusz.json".into());
    let out_trace =
        flag_value(&args, "--out-trace").unwrap_or_else(|| "TELEMETRY_trace.json".into());

    println!("# telemetry_smoke: {n_wf} workflows x {tasks} tasks, live scrape");

    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::local(4))
            .with_warm_pilots(1)
            .with_max_active(2)
            .with_run_timeout(TIMEOUT)
            .with_slo(SloConfig::default())
            .with_adaptive_control(true)
            .with_traces(TraceStoreConfig {
                sample_permille: 1_000, // smoke keeps every settled timeline
                ..TraceStoreConfig::default()
            })
            .with_observe(
                ObserveConfig::default()
                    .with_listen_addr("127.0.0.1:0".parse().unwrap())
                    .with_sample_interval(Duration::from_millis(5)),
            ),
    );
    let addr = service.observe_addr().expect("observe listener enabled");
    println!("observe listener on http://{addr}");
    let client = service.client();

    let start = Instant::now();
    let ids: Vec<_> = (0..n_wf)
        .map(|i| {
            client
                .submit(
                    format!("tenant{}", i % 2),
                    workflow(&format!("w{i}"), tasks),
                )
                .expect("admitted")
        })
        .collect();
    for id in ids {
        let result = client.wait(id, TIMEOUT).expect("run settles");
        assert!(result.outcome.is_success(), "workload run failed");
    }
    println!(
        "workload done: {n_wf} workflows in {:.2} s",
        start.elapsed().as_secs_f64()
    );

    // Hold one run open while scraping so the broker depth sampler sees live
    // session queues (they are deleted when a run finishes).
    let slow_id = {
        let stage = Stage::new("hold-s").with_task(Task::new(
            "hold",
            Executable::compute(1.0, || {
                std::thread::sleep(Duration::from_millis(400));
                Ok(())
            }),
        ));
        let wf = Workflow::new().with_pipeline(Pipeline::new("hold-p").with_stage(stage));
        client.submit("tenant0", wf).expect("admitted")
    };
    std::thread::sleep(Duration::from_millis(150));

    // ---- /metrics ------------------------------------------------------
    let (head, metrics_body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.0 200"), "/metrics: {head}");
    std::fs::write(&out_metrics, &metrics_body).expect("write metrics artifact");
    println!("wrote {out_metrics} ({} bytes)", metrics_body.len());

    let samples = prom::parse(&metrics_body).expect("scrape parses as Prometheus text 0.0.4");
    let histograms =
        prom::validate_histograms(&samples).expect("histogram buckets are monotone cumulative");
    assert!(
        histograms.iter().any(|h| h == "service_turnaround_seconds"),
        "turnaround histogram missing: {histograms:?}"
    );
    let has = |name: &str| samples.iter().any(|s| s.name == name);
    let mut missing = Vec::new();
    for series in [
        "task_state_done_total",
        "task_state_scheduled_total",
        "task_state_submitted_total",
        "service_queue_depth",
        "service_active_sessions",
        "rts_pool_warm",
        "service_submitted_tenant0_total",
        "service_completed_tenant0_total",
        // SLO plane: declared targets + live burn-rate gauges.
        "slo_target_p50_ms",
        "slo_target_p99_ms",
        "slo_target_queue_wait_ms",
        "slo_p50_burn",
        "slo_p99_burn",
        "slo_queue_wait_burn",
        // Control plane: pool-capacity mirror + actuation counter.
        "control_pool_capacity",
        "control_actuations_total",
    ] {
        if !has(series) {
            missing.push(series);
        }
    }
    assert!(
        missing.is_empty(),
        "key series missing from scrape: {missing:?}"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name.starts_with("mq_queue_") && s.name.ends_with("_depth")),
        "no per-queue depth gauge in scrape"
    );
    println!(
        "/metrics ok: {} samples, {} histograms",
        samples.len(),
        histograms.len()
    );

    // Settle the held-open run before reading the flight recorder.
    let result = client.wait(slow_id, TIMEOUT).expect("held run settles");
    assert!(result.outcome.is_success());

    // ---- wire tracing: gateway traceparent → /v1/traces ----------------
    // One workflow goes in over real TCP with a client-minted traceparent;
    // the settled timeline must come back out of the gateway under the same
    // trace id, wire hops included.
    let trace_tasks = 4usize;
    let gw = Gateway::start_with_traces(
        "127.0.0.1:0".parse().unwrap(),
        service.client(),
        service.recorder(),
        service.trace_store(),
    )
    .expect("bind gateway");
    let gw_addr = gw.local_addr();
    println!("gateway on http://{gw_addr}");

    let trace_id = "0af7651916cd43dd8448eb211c80319c";
    let mut stage = StageSpec::new("trace-s");
    for t in 0..trace_tasks {
        stage = stage.with_task(TaskSpec::new(format!("trace-t{t}"), ExecSpec::Noop));
    }
    let spec = WorkflowSpec::new().with_pipeline(PipelineSpec::new("trace-p").with_stage(stage));
    let (head, body) = http_post(
        gw_addr,
        "/v1/workflows",
        Some(("traceparent", &format!("00-{trace_id}-00f067aa0ba902b7-01"))),
        &format!("{{\"tenant\":\"tenant0\",\"workflow\":{}}}", spec.to_json()),
    );
    let status = head.split_whitespace().nth(1).unwrap_or("");
    assert_eq!(status, "202", "gateway submit: {head} {body}");
    let doc = json::parse(&body).expect("submit reply is JSON");
    assert_eq!(
        doc.get("trace_id").and_then(|v| v.as_str()),
        Some(trace_id),
        "202 body echoes the propagated trace id: {body}"
    );
    let sub_id = doc
        .get("id")
        .and_then(|v| v.as_str())
        .expect("submit id")
        .to_string();

    let deadline = Instant::now() + TIMEOUT;
    loop {
        let (_, body) = http_get(gw_addr, &format!("/v1/workflows/{sub_id}"));
        let state = json::parse(&body)
            .ok()
            .and_then(|d| d.get("state").and_then(|v| v.as_str()).map(String::from))
            .unwrap_or_default();
        if state == "done" {
            break;
        }
        assert!(
            !matches!(state.as_str(), "failed" | "canceled"),
            "traced run settled {state}"
        );
        assert!(Instant::now() < deadline, "traced run never settled");
        std::thread::sleep(Duration::from_millis(5));
    }

    let (head, trace_body) = http_get(gw_addr, &format!("/v1/traces/{trace_id}"));
    let status = head.split_whitespace().nth(1).unwrap_or("");
    assert_eq!(status, "200", "/v1/traces/{trace_id}: {head} {trace_body}");
    std::fs::write(&out_trace, &trace_body).expect("write trace artifact");
    println!("wrote {out_trace} ({} bytes)", trace_body.len());

    let doc = json::parse(&trace_body).expect("trace lookup is valid JSON");
    let rows = doc
        .get("tasks")
        .and_then(|t| t.as_array())
        .expect("trace tasks array");
    assert_eq!(
        rows.len(),
        trace_tasks,
        "one timeline per task: {trace_body}"
    );
    for task in rows {
        let hops: Vec<String> = task
            .get("hops")
            .and_then(|h| h.as_array())
            .expect("hops array")
            .iter()
            .filter_map(|h| h.get("state").and_then(|v| v.as_str()).map(String::from))
            .collect();
        for wire_hop in ["wire_recv", "parsed", "admitted", "journal_appended"] {
            assert!(
                hops.iter().any(|h| h == wire_hop),
                "timeline missing wire hop {wire_hop}: {hops:?}"
            );
        }
        assert_eq!(hops.last().map(String::as_str), Some("synced"));
    }
    println!("/v1/traces ok: {trace_tasks} timelines with wire hops");
    gw.stop();

    // ---- /statusz ------------------------------------------------------
    let (head, statusz_body) = http_get(addr, "/statusz");
    assert!(head.starts_with("HTTP/1.0 200"), "/statusz: {head}");
    std::fs::write(&out_statusz, &statusz_body).expect("write statusz artifact");
    println!("wrote {out_statusz} ({} bytes)", statusz_body.len());

    let doc = json::parse(&statusz_body).expect("statusz is valid JSON");
    assert_eq!(
        doc.get("healthy").and_then(|v| v.as_bool()),
        Some(true),
        "service must report healthy"
    );
    let completed = doc
        .get("totals")
        .and_then(|t| t.get("completed"))
        .and_then(|v| v.as_f64())
        .expect("totals.completed");
    assert_eq!(completed, (n_wf + 2) as f64, "every session accounted for");
    let cp_tasks = doc
        .get("critical_path")
        .and_then(|c| c.get("tasks"))
        .and_then(|v| v.as_f64())
        .expect("critical_path.tasks");
    assert_eq!(
        cp_tasks,
        (n_wf * tasks + 1 + trace_tasks) as f64,
        "every task's trace folded into the critical path"
    );

    // Observability v3 sections: host inventory and trace-store accounting
    // are always present.
    let host_cores = doc
        .get("host")
        .and_then(|h| h.get("cores"))
        .and_then(|v| v.as_f64())
        .expect("host.cores");
    assert!(host_cores >= 1.0, "host core count recorded");
    let host_shards = doc
        .get("host")
        .and_then(|h| h.get("broker_shards"))
        .and_then(|v| v.as_f64())
        .expect("host.broker_shards");
    assert!(host_shards >= 1.0, "broker shard count recorded");
    doc.get("queues_stale")
        .and_then(|v| v.as_bool())
        .expect("queues_stale marker");
    let traces_kept = doc
        .get("traces")
        .and_then(|t| t.get("kept"))
        .and_then(|v| v.as_f64())
        .expect("traces.kept");
    assert!(
        traces_kept >= trace_tasks as f64,
        "trace store kept the wire-traced timelines (kept {traces_kept})"
    );

    assert!(
        doc.get("slo")
            .map(|s| s.as_str() != Some("null"))
            .unwrap_or(false),
        "statusz must carry the declared SLO"
    );
    let slo_p99 = doc
        .get("slo")
        .and_then(|s| s.get("target_p99_ms"))
        .and_then(|v| v.as_f64())
        .expect("slo.target_p99_ms");
    assert_eq!(slo_p99, 30_000.0, "default p99 target is 30s");
    assert!(doc.get("alerts").and_then(|a| a.as_array()).is_some());
    doc.get("decisions")
        .and_then(|d| d.get("total"))
        .and_then(|v| v.as_f64())
        .expect("decisions.total");

    // ---- /debug/decisions ----------------------------------------------
    let (head, decisions_body) = http_get(addr, "/debug/decisions");
    assert!(head.starts_with("HTTP/1.0 200"), "/debug/decisions: {head}");
    let ring = json::parse(&decisions_body).expect("decision ring is valid JSON");
    ring.get("total")
        .and_then(|v| v.as_f64())
        .expect("ring total");
    ring.get("decisions")
        .and_then(|d| d.as_array())
        .expect("ring decisions array");

    // ---- /healthz ------------------------------------------------------
    let (head, body) = http_get(addr, "/healthz");
    assert!(
        head.starts_with("HTTP/1.0 200") && body == "ok\n",
        "/healthz: {head}"
    );

    service.shutdown();
    println!("telemetry smoke passed");
}
