//! Integration tests for `entk-service`: session isolation on a shared
//! broker, cooperative cancellation, multi-tenant stress, admission
//! control, fair-share dispatch, and demand-driven pool sizing.

use entk::core::{
    AppManager, AppManagerConfig, QueueNamespace, ResourceDescription, SessionAttachment,
};
use entk::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn timeout() -> Duration {
    Duration::from_secs(300)
}

/// A small deterministic workflow: `stages` stages × `tasks` sleep tasks.
fn sim_workflow(label: &str, stages: usize, tasks: usize) -> Workflow {
    let mut pipeline = Pipeline::new(format!("{label}-p"));
    for s in 0..stages {
        let mut stage = Stage::new(format!("{label}-s{s}"));
        for t in 0..tasks {
            stage.add_task(Task::new(
                format!("{label}-s{s}t{t}"),
                Executable::Sleep { secs: 50.0 },
            ));
        }
        pipeline.add_stage(stage);
    }
    Workflow::new().with_pipeline(pipeline)
}

/// Structural (name, state, attempts) rows in pipeline/stage/task order —
/// the byte-for-byte comparison key between service and standalone runs.
fn task_rows(wf: &Workflow) -> Vec<(String, TaskState, u32)> {
    wf.pipelines()
        .iter()
        .flat_map(|p| p.stages())
        .flat_map(|s| s.tasks())
        .map(|t| (t.name().to_string(), t.state(), t.attempts()))
        .collect()
}

// ---------------------------------------------------------------------------
// Satellite: two simultaneous sessions on one broker (queue namespacing).
// ---------------------------------------------------------------------------

#[test]
fn two_sessions_share_one_broker_without_leakage() {
    let broker = entk::mq::Broker::new();
    let resource = || ResourceDescription::sim(PlatformId::TestRig, 2, 7200);

    let handles: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|label| {
            let broker = broker.clone();
            let wf = sim_workflow(label, 2, 4);
            std::thread::spawn(move || {
                let mut amgr =
                    AppManager::new(AppManagerConfig::new(resource()).with_run_timeout(timeout()));
                let attachment = SessionAttachment::shared(broker, QueueNamespace::session(label));
                (label, amgr.run_attached(wf, attachment).expect("run ok"))
            })
        })
        .collect();

    for h in handles {
        let (label, report) = h.join().expect("session thread");
        assert!(report.succeeded, "session {label} failed");
        assert_eq!(report.overheads.tasks_done, 8, "session {label}");
        // Leakage check: every unit this session executed belongs to its own
        // workflow — nothing crossed over from the sibling session.
        let own: BTreeSet<String> = report
            .workflow
            .pipelines()
            .iter()
            .flat_map(|p| p.stages())
            .flat_map(|s| s.tasks())
            .map(|t| t.uid().to_string())
            .collect();
        assert_eq!(report.unit_records.len(), 8, "session {label}");
        for r in &report.unit_records {
            assert!(
                own.contains(&r.tag),
                "session {label} executed foreign unit {}",
                r.tag
            );
        }
    }
    // Both sessions deleted their namespaced queues on the shared broker.
    assert_eq!(broker.delete_matching("entk-").expect("broker alive"), 0);
}

// ---------------------------------------------------------------------------
// Satellite: cooperative cancellation mid-stage.
// ---------------------------------------------------------------------------

#[test]
fn cancellation_mid_stage_settles_all_tasks() {
    // Stage 1 tasks spin until `release` flips; stage 2 must never start.
    let release = Arc::new(AtomicBool::new(false));
    let mut gate = Stage::new("gate");
    for i in 0..4 {
        let release = Arc::clone(&release);
        gate.add_task(Task::new(
            format!("gate-{i}"),
            Executable::compute(0.1, move || {
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            }),
        ));
    }
    let after = Stage::new("after").with_task(Task::new("never", Executable::Noop));
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("cancelable")
            .with_stage(gate)
            .with_stage(after),
    );

    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(2)).with_run_timeout(timeout()),
    );
    let token = amgr.cancel_token();
    let releaser = {
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            // Let the gate tasks get in flight, cancel, then unblock them so
            // the local runtime can join its workers.
            std::thread::sleep(Duration::from_millis(150));
            token.cancel();
            std::thread::sleep(Duration::from_millis(50));
            release.store(true, Ordering::Release);
        })
    };
    let report = amgr.run(wf).expect("canceled run still settles");
    releaser.join().unwrap();

    assert!(report.canceled, "report must flag the cancellation");
    assert!(!report.succeeded);
    assert!(
        report.workflow.count_in(TaskState::Canceled) >= 1,
        "at least the never-started stage-2 task settles Canceled"
    );
    for row in task_rows(&report.workflow) {
        assert!(
            row.1.is_terminal(),
            "task {} left non-terminal after cancel: {:?}",
            row.0,
            row.1
        );
    }
}

// ---------------------------------------------------------------------------
// Tentpole: concurrent multi-tenant service stress.
// ---------------------------------------------------------------------------

#[test]
fn sixteen_workflows_from_four_tenants_match_standalone_runs() {
    // Baseline: the same workflow shape run on a private AppManager.
    let baseline = {
        let mut amgr = AppManager::new(
            AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 2, 7200))
                .with_run_timeout(timeout()),
        );
        let report = amgr.run(sim_workflow("base", 2, 2)).expect("baseline run");
        assert!(report.succeeded);
        task_rows(&report.workflow)
    };

    // Pooled pilots idle between leases, so give them effectively unlimited
    // walltime.
    let resource = ResourceDescription::sim(PlatformId::TestRig, 2, 1_000_000_000);
    let service = EnsembleService::start(
        ServiceConfig::new(resource)
            .with_warm_pilots(2)
            .with_max_active(4)
            .with_max_pending(64)
            .with_run_timeout(timeout()),
    );
    let client = service.client();

    let mut ids = Vec::new();
    for round in 0..4 {
        for tenant in ["t-ala", "t-bob", "t-cyn", "t-dee"] {
            let wf = sim_workflow(&format!("{tenant}-{round}"), 2, 2);
            let id = client.submit(tenant, wf).expect("admitted");
            ids.push((tenant, id));
        }
    }
    assert_eq!(ids.len(), 16);

    for (tenant, id) in &ids {
        let result = client
            .wait(*id, timeout())
            .unwrap_or_else(|| panic!("{tenant} submission {id} timed out"));
        assert_eq!(result.tenant, *tenant);
        assert!(
            result.outcome.is_success(),
            "{tenant} {id} outcome: {:?}",
            result.outcome
        );
        let report = result.outcome.report().expect("completed has report");
        // Byte-for-byte vs the standalone run: same per-task names (modulo
        // the label prefix), states and attempt counts in structural order.
        let rows = task_rows(&report.workflow);
        assert_eq!(rows.len(), baseline.len());
        for (got, want) in rows.iter().zip(&baseline) {
            assert_eq!(got.1, want.1, "state mismatch on {}", got.0);
            assert_eq!(got.2, want.2, "attempts mismatch on {}", got.0);
            assert_eq!(
                got.0.rsplit_once('s').map(|x| x.1),
                want.0.rsplit_once('s').map(|x| x.1),
                "structural position mismatch"
            );
        }
        // Zero cross-session leakage: exactly this workflow's units.
        assert_eq!(report.unit_records.len(), 4);
        let own: BTreeSet<String> = report
            .workflow
            .pipelines()
            .iter()
            .flat_map(|p| p.stages())
            .flat_map(|s| s.tasks())
            .map(|t| t.uid().to_string())
            .collect();
        for r in &report.unit_records {
            assert!(own.contains(&r.tag), "foreign unit {} leaked in", r.tag);
        }
    }

    let stats = client.stats();
    assert_eq!(stats.submitted, 16);
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.failed, 0);
    assert!(
        stats.pool.warm_hits >= 14,
        "warm pool should serve almost every lease: {:?}",
        stats.pool
    );

    let final_stats = service.shutdown();
    assert_eq!(final_stats.pending, 0);
    assert_eq!(final_stats.active, 0);
}

// ---------------------------------------------------------------------------
// Each session's overhead report is its own, also on a shared live recorder.
// ---------------------------------------------------------------------------

#[test]
fn traced_sessions_report_their_own_overheads() {
    let resource = || ResourceDescription::sim(PlatformId::TestRig, 2, 1_000_000_000);
    let shapes = [2usize, 6];
    // Baseline: each shape's transition count from a private AppManager.
    let standalone: Vec<u64> = shapes
        .iter()
        .map(|&tasks| {
            let mut amgr =
                AppManager::new(AppManagerConfig::new(resource()).with_run_timeout(timeout()));
            let report = amgr
                .run(sim_workflow(&format!("base{tasks}"), 1, tasks))
                .expect("baseline run");
            assert!(report.succeeded);
            report.overheads.transitions
        })
        .collect();

    let recorder = Recorder::new();
    let service = EnsembleService::start(
        ServiceConfig::new(resource())
            .with_recorder(recorder.clone())
            .with_warm_pilots(2)
            .with_max_active(4)
            .with_max_pending(64)
            .with_run_timeout(timeout()),
    );
    let client = service.client();
    let ids: Vec<(usize, SubmissionId)> = (0..8)
        .map(|i| {
            let shape = i % 2;
            let wf = sim_workflow(&format!("w{i}"), 1, shapes[shape]);
            (shape, client.submit("t", wf).expect("admitted"))
        })
        .collect();

    for (shape, id) in ids {
        let result = client.wait(id, timeout()).expect("settles");
        let report = result.outcome.report().expect("completed has report");
        let o = &report.overheads;
        assert_eq!(o.tasks_done, shapes[shape] as u64, "{id}: {o:?}");
        assert_eq!(o.failed_attempts, 0, "{id}: {o:?}");
        assert_eq!(o.transitions, standalone[shape], "{id}: {o:?}");
        assert!(o.entk_management_secs > 0.0, "{id}: {o:?}");
    }
    assert!(recorder.event_count() > 0, "the sessions traced");
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Satellite: admission control under saturation.
// ---------------------------------------------------------------------------

#[test]
fn saturated_service_rejects_with_retry_after() {
    // One worker, a 2-deep pending queue, and runs that take real time.
    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::local(2))
            .with_warm_pilots(1)
            .with_max_active(1)
            .with_max_pending(2)
            .with_run_timeout(timeout()),
    );
    let client = service.client();

    let slow_wf = |label: &str| {
        Workflow::new().with_pipeline(Pipeline::new(format!("{label}-p")).with_stage(
            Stage::new("s").with_task(Task::new(
                label,
                Executable::compute(0.1, || {
                    std::thread::sleep(Duration::from_millis(40));
                    Ok(())
                }),
            )),
        ))
    };

    let mut accepted = Vec::new();
    let mut rejections = Vec::new();
    for i in 0..8 {
        match client.submit("flooder", slow_wf(&format!("w{i}"))) {
            Ok(id) => accepted.push(id),
            Err(SubmitError::Saturated { retry_after }) => rejections.push(retry_after),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        !rejections.is_empty(),
        "8 fast submissions into a 2-deep queue must saturate"
    );
    for retry_after in &rejections {
        assert!(
            *retry_after > Duration::ZERO,
            "rejection must carry a usable backoff hint"
        );
    }
    // Everything that was admitted still completes.
    for id in &accepted {
        let result = client.wait(*id, timeout()).expect("admitted run finishes");
        assert!(result.outcome.is_success());
    }
    let stats = service.shutdown();
    assert_eq!(stats.rejected as usize, rejections.len());
    assert_eq!(stats.completed as usize, accepted.len());
}

// ---------------------------------------------------------------------------
// Satellite: fair-share dispatch order.
// ---------------------------------------------------------------------------

#[test]
fn fair_share_interleaves_tenants_and_preserves_tenant_order() {
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::local(2))
            .with_warm_pilots(1)
            .with_max_active(1) // serialize runs so dispatch order is observable
            .with_max_pending(64)
            .with_run_timeout(timeout()),
    );
    let client = service.client();

    let tracked_wf = |label: String| {
        let order = Arc::clone(&order);
        let task_label = label.clone();
        Workflow::new().with_pipeline(Pipeline::new(format!("{label}-p")).with_stage(
            Stage::new("s").with_task(Task::new(
                label,
                Executable::compute(0.1, move || {
                    order.lock().unwrap().push(task_label.clone());
                    std::thread::sleep(Duration::from_millis(15));
                    Ok(())
                }),
            )),
        ))
    };

    let mut ids = Vec::new();
    // Tenant "big" floods first; "small" submits afterwards.
    for i in 0..6 {
        ids.push(
            client
                .submit("big", tracked_wf(format!("big-{i}")))
                .unwrap(),
        );
    }
    for i in 0..2 {
        ids.push(
            client
                .submit("small", tracked_wf(format!("small-{i}")))
                .unwrap(),
        );
    }
    for id in &ids {
        client.wait(*id, timeout()).expect("run finishes");
    }
    let service_stats = service.shutdown();
    assert_eq!(service_stats.completed, 8);

    let ran = order.lock().unwrap().clone();
    assert_eq!(ran.len(), 8);
    // Per-tenant submission order is preserved verbatim.
    for tenant in ["big", "small"] {
        let seq: Vec<&String> = ran.iter().filter(|l| l.starts_with(tenant)).collect();
        for (i, label) in seq.iter().enumerate() {
            assert_eq!(
                label.as_str(),
                &format!("{tenant}-{i}"),
                "per-tenant FIFO violated: {ran:?}"
            );
        }
    }
    // No starvation: both of small's runs land before big's flood finishes.
    let last_small = ran.iter().rposition(|l| l.starts_with("small")).unwrap();
    let last_big = ran.iter().rposition(|l| l.starts_with("big")).unwrap();
    assert!(
        last_small < last_big,
        "small tenant starved behind the flood: {ran:?}"
    );
}

// ---------------------------------------------------------------------------
// Service-level cancellation over the wire protocol.
// ---------------------------------------------------------------------------

#[test]
fn service_cancels_queued_and_running_submissions() {
    let release = Arc::new(AtomicBool::new(false));
    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::local(2))
            .with_warm_pilots(1)
            .with_max_active(1)
            .with_max_pending(8)
            .with_run_timeout(timeout()),
    );
    let client = service.client();

    let gated_wf = |label: &str, release: Arc<AtomicBool>| {
        Workflow::new().with_pipeline(Pipeline::new(format!("{label}-p")).with_stage(
            Stage::new("s").with_task(Task::new(
                label,
                Executable::compute(0.1, move || {
                    while !release.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(())
                }),
            )),
        ))
    };

    // First submission occupies the single worker; second stays queued.
    let running = client
        .submit("ten", gated_wf("running", Arc::clone(&release)))
        .unwrap();
    let queued = client
        .submit("ten", gated_wf("queued", Arc::clone(&release)))
        .unwrap();

    // Wait until the first is actually running.
    let deadline = std::time::Instant::now() + timeout();
    while client.status(running) != Some(SubmissionStatus::Running) {
        assert!(std::time::Instant::now() < deadline, "never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        client.status(queued),
        Some(SubmissionStatus::Queued { ahead: 0 })
    );

    // Cancel the queued one: settles immediately, no report.
    assert!(client.cancel(queued));
    let result = client.wait(queued, timeout()).expect("settled");
    assert!(matches!(result.outcome, SubmissionOutcome::Canceled(None)));
    assert_eq!(result.warm_pilot, None);

    // Cancel the running one, then unblock its spinning task.
    assert!(client.cancel(running));
    std::thread::sleep(Duration::from_millis(30));
    release.store(true, Ordering::Release);
    let result = client.wait(running, timeout()).expect("settled");
    match result.outcome {
        SubmissionOutcome::Canceled(Some(report)) => {
            assert!(report.canceled);
        }
        other => panic!("expected mid-run cancellation, got {other:?}"),
    }

    let stats = service.shutdown();
    assert_eq!(stats.canceled, 2);
}

// ---------------------------------------------------------------------------
// Satellite: restart on a shared recorder leaves no stale series or samplers.
// ---------------------------------------------------------------------------

#[test]
fn restart_on_shared_recorder_leaves_no_stale_series_or_samplers() {
    use entk::observe::{prom, ObserveConfig};

    let recorder = Recorder::new();
    for round in 0..2 {
        let service = EnsembleService::start(
            ServiceConfig::new(ResourceDescription::sim(PlatformId::TestRig, 2, 7200))
                .with_recorder(recorder.clone())
                .with_warm_pilots(1)
                .with_max_active(2)
                .with_run_timeout(timeout())
                .with_slo(SloConfig::default())
                .with_adaptive_control(true)
                .with_observe(
                    ObserveConfig::default().with_sample_interval(Duration::from_millis(5)),
                ),
        );
        let client = service.client();
        let id = client
            .submit(
                format!("t{round}"),
                sim_workflow(&format!("r{round}"), 1, 4),
            )
            .expect("admitted");
        let result = client.wait(id, timeout()).expect("settles");
        assert!(result.outcome.is_success());
        service.shutdown();

        // Per-queue gauges die with their session queues: a scrape after
        // shutdown must not carry any round's `mq.queue.*` series.
        let stale: Vec<String> = recorder
            .metrics()
            .gauges()
            .into_iter()
            .map(|(name, _, _)| name)
            .filter(|n| n.starts_with("mq.queue."))
            .collect();
        assert!(
            stale.is_empty(),
            "round {round}: stale queue gauges {stale:?}"
        );
    }

    // Every sampler/watchdog thread joined at shutdown: the event stream is
    // frozen once the last service is gone.
    let settled = recorder.event_count();
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(
        recorder.event_count(),
        settled,
        "a sampler thread outlived shutdown"
    );

    // The scrape after a restart carries each non-histogram series exactly
    // once — re-registration reuses the original series instead of
    // duplicating it.
    let scrape = prom::encode(recorder.metrics());
    let samples = prom::parse(&scrape).expect("scrape parses");
    let mut seen = BTreeSet::new();
    for s in &samples {
        if s.name.ends_with("_bucket") || s.name.ends_with("_sum") || s.name.ends_with("_count") {
            continue;
        }
        assert!(
            seen.insert(s.name.clone()),
            "duplicate series after restart: {}",
            s.name
        );
    }
    assert!(seen.iter().any(|n| n == "control_pool_capacity"));
}

// ---------------------------------------------------------------------------
// Demand-driven pool sizing: a queued burst grows the warm pool.
// ---------------------------------------------------------------------------

#[test]
fn prescaler_grows_the_pool_under_a_queued_burst() {
    use entk::observe::ObserveConfig;
    const MAX_ACTIVE: usize = 4;

    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::sim(PlatformId::TestRig, 2, 7200))
            .with_warm_pilots(1)
            .with_max_active(MAX_ACTIVE)
            .with_run_timeout(timeout())
            .with_adaptive_control(true)
            .with_observe(ObserveConfig::default().with_sample_interval(Duration::from_millis(5))),
    );
    let client = service.client();
    let ids: Vec<SubmissionId> = (0..16)
        .map(|i| {
            client
                .submit(format!("t{}", i % 2), sim_workflow(&format!("b{i}"), 1, 4))
                .expect("admitted")
        })
        .collect();

    // Backlog with no warm pilot left: the prescaler grows the pool toward
    // peak concurrency, never past the worker-slot budget.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let capacity = service.pool_capacity();
        assert!(capacity <= MAX_ACTIVE, "capacity {capacity} > max_active");
        if capacity > 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool never grew past 1"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for id in ids {
        let result = client.wait(id, timeout()).expect("settles");
        assert!(result.outcome.is_success());
    }
    assert!(service.pool_capacity() <= MAX_ACTIVE);

    // Every pool move is explained in the decision ring.
    let grows: Vec<_> = service
        .decisions()
        .snapshot()
        .into_iter()
        .filter(|d| d.class == "actuation" && d.kind == "prescaler" && d.subject == "pilot_pool")
        .collect();
    assert!(
        grows.iter().any(|d| d.evidence.contains("queued=")),
        "no prescaler grow in the decision ring: {grows:?}"
    );
    let actuations = service
        .recorder()
        .metrics()
        .counter("control.prescaler.actuations")
        .get();
    assert!(
        actuations >= 1,
        "control.prescaler.actuations = {actuations}"
    );
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Session-scoped RTS state: a warm pilot keeps nothing of the workflows it
// has served.
// ---------------------------------------------------------------------------

#[test]
fn a_warm_pilot_keeps_nothing_of_the_workflows_it_served() {
    const TASKS: usize = 3;
    let service = EnsembleService::start(
        ServiceConfig::new(ResourceDescription::sim(
            PlatformId::TestRig,
            2,
            1_000_000_000,
        ))
        .with_warm_pilots(1)
        .with_max_active(1)
        .with_run_timeout(timeout()),
    );
    let client = service.client();
    for i in 0..200 {
        let id = client
            .submit("tenant", sim_workflow(&format!("w{i}"), 1, TASKS))
            .expect("admitted");
        let result = client.wait(id, timeout()).expect("settles");
        assert_eq!(result.warm_pilot, Some(true), "workflow {i} booted cold");
        let report = result.outcome.report().expect("run produced a report");
        assert!(report.succeeded, "workflow {i} failed");
        // Exactly its own units, however many the pilot ran before.
        let mut own: Vec<String> = task_rows(&report.workflow)
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        let mut ran: Vec<String> = report
            .unit_records
            .iter()
            .map(|r| {
                let task = report
                    .workflow
                    .task(&r.tag)
                    .expect("a unit of this workflow");
                task.name().to_string()
            })
            .collect();
        own.sort();
        ran.sort();
        assert_eq!(ran, own, "workflow {i}");
        // The lease is back in the pool, and the runtime behind it holds no
        // unit entry, DB document or simulator task.
        let stats = client.stats();
        assert_eq!(stats.warm_pilots, 1);
        assert_eq!(stats.resident_units, 0, "after workflow {i}");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 200);
    assert_eq!(stats.pool.cold_boots, 0);
}

// ---------------------------------------------------------------------------
// Durable state: the workflow journal and one task journal per submission.
// ---------------------------------------------------------------------------

/// A durable service's directory holds what recovery reads and nothing else:
/// `service.journal` and one `sub-NNNNN.tasks.log` per durable submission,
/// before a kill and after the recovery that follows it.
#[test]
fn durable_service_keeps_only_workflow_and_task_journals() {
    use entk::service::{ExecSpec, PipelineSpec, StageSpec, TaskSpec, WorkflowSpec};
    let dir = std::env::temp_dir().join(format!(
        "entk-it-durable-files-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || {
        ServiceConfig::new(ResourceDescription::sim(
            PlatformId::TestRig,
            2,
            1_000_000_000,
        ))
        .with_warm_pilots(1)
        .with_max_active(1)
        .with_max_pending(16)
        .with_run_timeout(timeout())
        .with_journal_dir(&dir)
    };
    let spec = |i: usize| {
        WorkflowSpec::new().with_pipeline(PipelineSpec::new(format!("p{i}")).with_stage(
            StageSpec::new(format!("s{i}")).with_task(TaskSpec::new(
                format!("t{i}"),
                ExecSpec::Sleep { secs: 50.0 },
            )),
        ))
    };
    let files = || -> BTreeSet<String> {
        std::fs::read_dir(&dir)
            .expect("journal directory")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    };
    let only_journals = |names: &BTreeSet<String>| {
        names.contains("service.journal")
            && names.iter().all(|n| {
                n == "service.journal" || (n.starts_with("sub-") && n.ends_with(".tasks.log"))
            })
    };

    let service = EnsembleService::start(config());
    let client = service.client();
    let ids: Vec<SubmissionId> = (0..4)
        .map(|i| {
            client
                .submit_spec(format!("t{i}"), spec(i), None)
                .expect("admitted")
        })
        .collect();
    client.wait(ids[0], timeout()).expect("first settles");
    service.kill();
    let before = files();
    assert!(only_journals(&before), "after kill: {before:?}");
    assert!(before.contains("sub-00001.tasks.log"), "{before:?}");

    let recovered = EnsembleService::recover(config()).expect("recovery succeeds");
    let rc = recovered.client();
    for id in &ids {
        let result = rc.wait(*id, timeout()).expect("settles after recovery");
        assert!(result.outcome.is_success(), "{id}: {:?}", result.outcome);
    }
    let stats = recovered.shutdown();
    assert_eq!((stats.submitted, stats.completed), (4, 4));
    let after = files();
    assert!(only_journals(&after), "after recovery: {after:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
