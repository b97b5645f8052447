//! Cross-layer observability integration tests: one recorder threaded
//! through the toolkit, the broker, the RTS and the simulator, with the
//! paper's overhead decomposition (§IV-A2) re-derived from the trace and
//! checked against the run's own report.

use entk::core::ExecManagerConfig;
use entk::observe::{components, hops, json, prom, Event, Recorder};
use entk::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn timeout() -> Duration {
    Duration::from_secs(300)
}

/// A scratch path under the OS temp dir that outlives the test (no RAII
/// cleanup: a concurrently running AppManager must never find its export
/// prefix deleted under it).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("entk-observe-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(tag)
}

/// 2 pipelines × 2 stages × 3 tasks on the local backend; `fail_first`
/// makes one task fail its first attempt so the retry path enters the trace.
fn run_traced(tag: &str, fail_first: bool) -> (RunReport, Recorder) {
    run_traced_with(tag, fail_first, ExecManagerConfig::default())
}

fn run_traced_with(tag: &str, fail_first: bool, exec: ExecManagerConfig) -> (RunReport, Recorder) {
    let mut wf = Workflow::new();
    for p in 0..2 {
        let mut pipeline = Pipeline::new(format!("p{p}"));
        for s in 0..2 {
            let mut stage = Stage::new(format!("p{p}s{s}"));
            for t in 0..3 {
                let exe = if fail_first && p == 0 && s == 0 && t == 0 {
                    let calls = Arc::new(AtomicUsize::new(0));
                    Executable::compute(1.0, move || {
                        if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                            Err("transient".into())
                        } else {
                            Ok(())
                        }
                    })
                } else {
                    Executable::compute(1.0, || Ok(()))
                };
                stage.add_task(Task::new(format!("p{p}s{s}t{t}"), exe));
            }
            pipeline.add_stage(stage);
        }
        wf.add_pipeline(pipeline);
    }
    let recorder = Recorder::new();
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(3))
            .with_run_timeout(timeout())
            .with_exec_manager(exec)
            .with_recorder(recorder.clone())
            .with_trace_path(scratch(tag)),
    );
    let report = amgr.run(wf).expect("run succeeds");
    assert!(report.succeeded);
    (report, recorder)
}

/// Sync batches the Synchronizer applied over a run: its `sync.apply`
/// spans, one per `sync_tasks` call.
fn sync_batches_applied(recorder: &Recorder) -> u64 {
    recorder
        .snapshot()
        .iter()
        .filter(|e| e.component == components::SYNC && e.kind == "apply")
        .count() as u64
}

#[test]
fn trace_derived_overheads_agree_with_the_run_report() {
    let (report, recorder) = run_traced("agree", true);
    let live = &report.overheads;
    let traced = OverheadReport::from_trace(&recorder.snapshot());

    // The counters agree exactly: both count the same applied transitions
    // and attempt outcomes.
    assert_eq!(traced.transitions, live.transitions);
    assert_eq!(traced.tasks_done, live.tasks_done);
    assert_eq!(traced.failed_attempts, live.failed_attempts);
    assert_eq!(traced.tasks_done, 12);
    assert!(traced.failed_attempts >= 1, "the seeded failure must show");

    // So do the EnTK durations, to the nanosecond: the live report folds
    // each span's duration as it closes, and the trace holds the same spans.
    assert!(traced.entk_setup_secs > 0.0);
    assert!(traced.entk_management_secs > 0.0);
    let ns = |r: &OverheadReport| {
        [
            r.entk_setup_secs,
            r.entk_management_secs,
            r.entk_teardown_secs,
            r.rts_teardown_secs,
        ]
        .map(|secs| (secs * 1e9).round() as u64)
    };
    assert_eq!(
        ns(&traced),
        ns(live),
        "setup, management, tear-down and RTS tear-down, in ns"
    );
}

#[test]
fn every_task_has_monotone_unit_lifecycle() {
    let (_report, recorder) = run_traced("monotone", true);
    let mut events: Vec<Event> = recorder
        .snapshot()
        .into_iter()
        .filter(|e| e.component == components::RTS)
        .collect();
    // Stable tie-break on the lifecycle rank so equal-nanosecond stamps
    // from different threads cannot fake an inversion.
    let rank = |kind: &str| match kind {
        "unit_submitted" => 0u8,
        "unit_started" => 1,
        "unit_ended" => 2,
        _ => 3,
    };
    events.sort_by_key(|e| (e.ts_ns, rank(e.kind)));

    use std::collections::HashMap;
    let mut counts: HashMap<String, (u64, u64, u64)> = HashMap::new();
    for e in &events {
        if rank(e.kind) == 3 {
            continue; // pilot lifecycle / unit_state events
        }
        let c = counts.entry(e.entity_uid.clone()).or_default();
        match e.kind {
            "unit_submitted" => c.0 += 1,
            "unit_started" => c.1 += 1,
            "unit_ended" => c.2 += 1,
            _ => unreachable!(),
        }
        // Prefix invariant: at no point may a unit have started more often
        // than it was submitted, or ended more often than it started.
        assert!(
            c.0 >= c.1 && c.1 >= c.2,
            "non-monotone lifecycle for {}: {:?}",
            e.entity_uid,
            c
        );
    }
    assert_eq!(counts.len(), 12, "every task appears in the trace");
    for (uid, (sub, start, end)) in &counts {
        assert!(*sub >= 1, "{uid} never submitted");
        assert_eq!(sub, start, "{uid}: every attempt must start");
        assert_eq!(start, end, "{uid}: every started attempt must end");
    }
}

#[test]
fn mq_latency_histograms_are_populated_by_a_full_run() {
    let (_report, recorder) = run_traced("mq-hist", false);
    let m = recorder.metrics();
    for name in ["mq.publish_to_deliver", "mq.deliver_to_ack"] {
        let h = m.histogram(name).snapshot();
        assert!(h.count > 0, "{name} must see traffic");
        assert!(h.p50_ns > 0 && h.p50_ns <= h.p95_ns && h.p95_ns <= h.p99_ns);
    }
    // On this retry-free run every task is one Pending delivery: the RTS
    // Callback settles an attempt itself, with no Done queue. Each task
    // takes six synchronized transitions, so a batch per transition would
    // make six applies per task; Enqueue's first pass tags both pipelines'
    // first stages, six tasks, in one batch, so there are fewer. A sync
    // batch is a function call, not a message.
    let tasks = 12;
    let batches = sync_batches_applied(&recorder);
    assert!((1..6 * tasks).contains(&batches), "{batches} sync batches");
    assert_eq!(m.histogram("mq.publish_to_deliver").snapshot().count, tasks);
    // The synchronizer's transition-latency histogram is the paper's
    // management-overhead microscope.
    assert!(m.histogram("span.sync.apply").snapshot().count > 0);
}

#[test]
fn a_batch_limit_of_one_delivers_one_message_per_task() {
    // The per-task path: one Pending message, and six sync batches of one
    // task applied in process.
    let exec = ExecManagerConfig { max_batch: 1 };
    let (_report, recorder) = run_traced_with("mq-hist-1", false, exec);
    let tasks = 12;
    assert_eq!(sync_batches_applied(&recorder), 6 * tasks);
    assert_eq!(
        recorder
            .metrics()
            .histogram("mq.publish_to_deliver")
            .snapshot()
            .count,
        tasks
    );
}

/// While a pool's pilot is re-acquired the Emgr requeues that pool's
/// tasks and waits for it to serve again, instead of taking the same
/// deliveries back from the Pending queue until it does. The walltime
/// scenario of `tests/fault_tolerance.rs` (a 200 s task on 60 s pilots,
/// one retry): each incarnation takes at most one submitting batch and one
/// requeueing batch.
#[test]
fn the_emgr_waits_for_a_recovering_pool_instead_of_spinning() {
    for _ in 0..5 {
        let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(
            Stage::new("s").with_task(
                Task::new("too-long", Executable::Sleep { secs: 200.0 }).with_max_retries(Some(1)),
            ),
        ));
        let recorder = Recorder::new();
        let cfg = AppManagerConfig::new(
            ResourceDescription::sim(PlatformId::TestRig, 1, 60).with_seed(8),
        )
        .with_max_rts_restarts(5)
        .with_run_timeout(timeout())
        .with_recorder(recorder.clone());
        let report = AppManager::new(cfg).run(wf).expect("run terminates");
        assert!(!report.succeeded);
        assert!(report.rts_restarts >= 1, "pilot must have been re-acquired");
        let batches = recorder
            .metrics()
            .histogram("span.emgr.submit_batch")
            .count();
        let bound = 2 * (u64::from(report.rts_restarts) + 1);
        assert!(
            batches <= bound,
            "{batches} Emgr batches over {} restarts",
            report.rts_restarts
        );
    }
}

#[test]
fn exported_trace_files_parse_cleanly() {
    let prefix = scratch("export");
    let (_report, _recorder) = {
        let mut stage = Stage::new("s");
        for i in 0..4 {
            stage.add_task(Task::new(
                format!("t{i}"),
                Executable::compute(1.0, || Ok(())),
            ));
        }
        let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
        let mut amgr = AppManager::new(
            AppManagerConfig::new(ResourceDescription::local(2))
                .with_run_timeout(timeout())
                .with_trace_path(prefix.clone()),
        );
        let report = amgr.run(wf).expect("run succeeds");
        assert!(report.succeeded);
        let recorder = report.recorder.clone();
        (report, recorder)
    };

    // Chrome trace: one JSON document with a traceEvents array.
    let chrome =
        std::fs::read_to_string(format!("{}.chrome.json", prefix.display())).expect("chrome file");
    let doc = json::parse(&chrome).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents is an array");
    assert!(!events.is_empty());
    for ev in events {
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
    }

    // .prof JSONL: every line is its own JSON object.
    let prof =
        std::fs::read_to_string(format!("{}.prof.jsonl", prefix.display())).expect("prof file");
    assert!(prof.lines().count() > 0);
    for line in prof.lines() {
        let row = json::parse(line).expect("prof line is valid JSON");
        assert!(row.get("comp").and_then(|v| v.as_str()).is_some());
        assert!(row.get("ts_ns").and_then(|v| v.as_f64()).is_some());
    }

    // The text report exists and mentions the trace.
    let txt =
        std::fs::read_to_string(format!("{}.report.txt", prefix.display())).expect("report file");
    assert!(txt.contains("== trace:"));
}

/// Tentpole acceptance: a 1024-task traced run's per-task hop timelines
/// (TraceCtx) roll up into a per-stage residency decomposition that
/// reproduces the Fig. 7-style numbers that `OverheadReport::from_trace`
/// derives independently from the event stream.
#[test]
fn critical_path_covers_1024_tasks_and_matches_profiler_execution_window() {
    let mut stage = Stage::new("s");
    for i in 0..1024 {
        stage.add_task(Task::new(format!("t{i}"), Executable::Noop));
    }
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
    let recorder = Recorder::new();
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(64))
            .with_run_timeout(timeout())
            .with_recorder(recorder.clone()),
    );
    let report = amgr.run(wf).expect("run succeeds");
    assert!(report.succeeded);

    let cp = &report.critical_path;
    assert_eq!(
        cp.tasks(),
        1024,
        "every settled task folds its timeline into the aggregate:\n{}",
        cp.report()
    );

    // The decomposition is exact: per-stage residencies partition the
    // summed first-hop → last-hop time.
    let stage_sum: u64 = cp.stages().iter().map(|s| s.total_ns).sum();
    assert_eq!(stage_sum, cp.total_ns(), "stages partition the timelines");

    // Hop order is the pipeline order, for every task (no failures here, so
    // one identical 8-hop timeline per task and one count per segment).
    let labels: Vec<&str> = cp.stages().iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        labels,
        [
            "enqueue->emgr_dequeue",
            "emgr_dequeue->rts_submit",
            "rts_submit->agent_start",
            "agent_start->agent_end",
            "agent_end->callback",
            "callback->dequeue",
            "dequeue->synced",
        ]
    );
    for s in cp.stages() {
        assert_eq!(s.count, 1024, "segment {} covers every task", s.stage);
    }

    // Fig. 7 cross-check: the hop-derived execution window (earliest
    // agent_start → latest agent_end) must agree with the trace-derived
    // task_execution_secs, which takes the same window from the
    // unit_started/unit_ended event records on the same clock.
    let traced = OverheadReport::from_trace(&recorder.snapshot());
    let window = cp
        .window_secs(hops::AGENT_START, hops::AGENT_END)
        .expect("agent hops are present");
    assert!(
        (window - traced.task_execution_secs).abs() < 0.1,
        "hop window {window:.4}s vs trace {:.4}s",
        traced.task_execution_secs
    );
}

/// Live exposition: a service with the telemetry listener enabled serves
/// `/metrics` as valid Prometheus text (monotone cumulative buckets),
/// `/statusz` as parseable JSON, and `/healthz`; the key series — task
/// state transitions, queue depths, pool occupancy, turnaround histogram —
/// are all present after a small workload.
#[test]
fn live_scrape_serves_prometheus_metrics_and_statusz() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::local(4))
            .with_warm_pilots(1)
            .with_max_active(2)
            .with_run_timeout(timeout())
            .with_observe(
                entk::observe::ObserveConfig::default()
                    .with_listen_addr("127.0.0.1:0".parse().unwrap())
                    .with_sample_interval(Duration::from_millis(5)),
            ),
    );
    let addr = service.observe_addr().expect("listener is enabled");
    let client = service.client();
    let ids: Vec<_> = (0..4)
        .map(|i| {
            let mut stage = Stage::new("s");
            for t in 0..8 {
                stage.add_task(Task::new(format!("w{i}t{t}"), Executable::Noop));
            }
            let wf =
                Workflow::new().with_pipeline(Pipeline::new(format!("p{i}")).with_stage(stage));
            client
                .submit(format!("tenant{}", i % 2), wf)
                .expect("admitted")
        })
        .collect();
    for id in ids {
        let result = client.wait(id, timeout()).expect("run settles");
        assert!(result.outcome.is_success());
    }

    // Hold one run open while scraping, so the background samplers see its
    // live session queues (session queues are deleted when a run finishes).
    let slow_id = {
        let stage = Stage::new("slow").with_task(Task::new(
            "hold",
            Executable::compute(1.0, || {
                std::thread::sleep(Duration::from_millis(400));
                Ok(())
            }),
        ));
        let wf = Workflow::new().with_pipeline(Pipeline::new("slow").with_stage(stage));
        client.submit("tenant0", wf).expect("admitted")
    };
    std::thread::sleep(Duration::from_millis(150));

    let get = |path: &str| -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect scrape");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).expect("read response");
        let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    };

    // /healthz
    let (head, body) = get("/healthz");
    assert!(head.starts_with("HTTP/1.0 200"), "healthz: {head}");
    assert_eq!(body, "ok\n");

    // /metrics parses as Prometheus text 0.0.4 with valid histograms.
    let (head, body) = get("/metrics");
    assert!(head.starts_with("HTTP/1.0 200"), "metrics: {head}");
    let samples = prom::parse(&body).expect("valid Prometheus exposition");
    let histograms = prom::validate_histograms(&samples).expect("monotone cumulative buckets");
    assert!(
        histograms.iter().any(|h| h == "service_turnaround_seconds"),
        "turnaround histogram exported: {histograms:?}"
    );
    let has = |name: &str| samples.iter().any(|s| s.name == name);
    for series in [
        "task_state_done_total", // task-state transition counters
        "task_state_scheduled_total",
        "service_queue_depth", // service dispatch gauge
        "rts_pool_warm",       // pool occupancy
        "service_submitted_tenant0_total",
    ] {
        assert!(has(series), "key series {series} missing from scrape");
    }
    assert!(
        samples
            .iter()
            .any(|s| s.name.starts_with("mq_queue_") && s.name.ends_with("_depth")),
        "per-queue depth gauges present"
    );

    // Settle the held-open run, then check the flight recorder.
    let result = client.wait(slow_id, timeout()).expect("slow run settles");
    assert!(result.outcome.is_success());

    // /statusz parses as JSON and reports the flight-recorder state.
    let (head, body) = get("/statusz");
    assert!(head.starts_with("HTTP/1.0 200"), "statusz: {head}");
    let doc = json::parse(&body).expect("statusz is valid JSON");
    assert_eq!(doc.get("healthy").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        doc.get("totals")
            .and_then(|t| t.get("completed"))
            .and_then(|v| v.as_f64()),
        Some(5.0)
    );
    let sessions = doc
        .get("sessions")
        .and_then(|v| v.as_array())
        .expect("sessions array");
    assert_eq!(sessions.len(), 5);
    for s in sessions {
        assert_eq!(s.get("state").and_then(|v| v.as_str()), Some("done"));
    }
    let cp_tasks = doc
        .get("critical_path")
        .and_then(|c| c.get("tasks"))
        .and_then(|v| v.as_f64())
        .expect("critical_path.tasks");
    assert_eq!(cp_tasks, 33.0, "5 runs × their traced tasks aggregated");

    // 404 for unknown paths.
    let (head, _) = get("/nope");
    assert!(head.starts_with("HTTP/1.0 404"), "unknown path: {head}");

    service.shutdown();
}

#[test]
fn entk_trace_env_hook_enables_tracing() {
    // config.trace_path wins over the env var in every other test of this
    // binary, so a briefly leaked ENTK_TRACE cannot disturb them.
    let prefix = scratch("env-hook");
    std::env::set_var("ENTK_TRACE", &prefix);
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("p").with_stage(Stage::new("s").with_task(Task::new("t", Executable::Noop))),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(1)).with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run succeeds");
    std::env::remove_var("ENTK_TRACE");
    assert!(report.succeeded);
    assert!(report.recorder.is_enabled(), "env hook must enable tracing");
    let traced = OverheadReport::from_trace(&report.recorder.snapshot());
    assert_eq!(traced.tasks_done, 1, "the trace covers the run");
    // The export prefix may have gained a `.N` suffix if another traced run
    // in this process raced us, so look for any matching export.
    let dir = prefix.parent().unwrap();
    let stem = prefix.file_name().unwrap().to_string_lossy().to_string();
    let found = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| {
            let name = e.file_name().to_string_lossy().to_string();
            name.starts_with(&stem) && name.ends_with(".prof.jsonl")
        });
    assert!(found, "env hook must export a .prof.jsonl trace");
}
