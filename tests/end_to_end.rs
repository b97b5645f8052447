//! Cross-crate integration tests: full EnTK stack (broker + toolkit + RTS +
//! simulated CI) driving PST applications end to end.

use entk::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn timeout() -> Duration {
    // Generous: on small CI boxes, cargo may still be compiling other test
    // binaries while this one runs, starving the middleware threads.
    Duration::from_secs(300)
}

#[test]
fn concurrent_pipelines_execute_independently() {
    // 4 pipelines × 2 stages × 4 tasks: pipelines run concurrently, stages
    // sequentially within each.
    let mut wf = Workflow::new();
    for p in 0..4 {
        let mut pipeline = Pipeline::new(format!("p{p}"));
        for s in 0..2 {
            let mut stage = Stage::new(format!("p{p}s{s}"));
            for t in 0..4 {
                stage.add_task(Task::new(
                    format!("p{p}s{s}t{t}"),
                    Executable::Sleep { secs: 100.0 },
                ));
            }
            pipeline.add_stage(stage);
        }
        wf.add_pipeline(pipeline);
    }
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 4, 7200))
            .with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    assert_eq!(report.overheads.tasks_done, 32);
    // 32 cores on the rig, 16 tasks per wave across pipelines: the two
    // stages serialize per pipeline, so the makespan is ≈ 2 generations.
    assert!(report.rts_profile.exec_makespan_secs >= 200.0 - 1.0);
    assert!(report.rts_profile.exec_makespan_secs < 260.0);
}

/// Every attempt's virtual timeline, keyed by task name: per task its
/// attempt count and each unit's submitted/started/ended virtual seconds.
type Timeline = Vec<(String, u32, Vec<(f64, Option<f64>, Option<f64>)>)>;

/// A 4 × 8 × 4 workflow of I/O-heavy forward simulations on one Titan
/// node: 16 concurrent tasks overload the shared filesystem, whose hazard
/// dooms tasks at seeded random points, and unlimited retries re-run them.
/// Durations are seeded draws too, distinct per pipeline, so no two
/// reactions share an instant.
fn seeded_unreliable_run() -> Timeline {
    let mut wf = Workflow::new();
    for p in 0..4 {
        let mut pipeline = Pipeline::new(format!("p{p}"));
        for s in 0..8 {
            let mut stage = Stage::new(format!("p{p}s{s}"));
            for t in 0..4 {
                stage.add_task(Task::new(
                    format!("p{p}s{s}t{t}"),
                    Executable::SpecfemForward {
                        nominal_secs: 100.0 + 7.0 * p as f64,
                        io_demand_bps: 3e9,
                    },
                ));
            }
            pipeline.add_stage(stage);
        }
        wf.add_pipeline(pipeline);
    }
    let mut amgr = AppManager::new(
        AppManagerConfig::new(
            ResourceDescription::sim(PlatformId::Titan, 1, 1_000_000).with_seed(9),
        )
        .with_task_retries(None)
        .with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    let mut units: std::collections::HashMap<&str, Vec<_>> = Default::default();
    for r in &report.unit_records {
        units.entry(r.tag.as_str()).or_default().push((
            r.submitted_secs,
            r.started_secs,
            r.ended_secs,
        ));
    }
    let mut timeline = Timeline::new();
    for task in report
        .workflow
        .pipelines()
        .iter()
        .flat_map(|p| p.stages())
        .flat_map(|s| s.tasks())
    {
        let mut attempts = units.remove(task.uid()).unwrap_or_default();
        attempts.sort_by(|a, b| a.0.total_cmp(&b.0));
        timeline.push((task.name().to_string(), task.attempts(), attempts));
    }
    timeline
}

/// One wide stage of 256 tasks on a 32-core node: every unit is submitted
/// at one instant and runs in one of 8 waves. Returns each unit record's
/// `(unit, submitted, started, ended)` in the report's order.
fn wide_stage_records() -> Vec<(u64, f64, Option<f64>, Option<f64>)> {
    let mut stage = Stage::new("wide");
    for t in 0..256 {
        stage.add_task(Task::new(format!("t{t}"), Executable::Sleep { secs: 60.0 }));
    }
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 1, 7200).with_seed(5))
            .with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    assert_eq!(report.unit_records.len(), 256);
    report
        .unit_records
        .iter()
        .map(|r| (r.unit.0, r.submitted_secs, r.started_secs, r.ended_secs))
        .collect()
}

/// The report lists unit records by submission instant, ties broken by
/// unit id, so the order does not depend on how the RTS stores its units:
/// two runs with one seed give the same sequence.
#[test]
fn unit_records_come_in_submission_then_unit_order() {
    let first = wide_stage_records();
    for pair in first.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(
            a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)).is_lt(),
            "{a:?} before {b:?}"
        );
    }
    assert_eq!(first, wide_stage_records());
}

/// Virtual time advances only when every reaction to the last instant has
/// reached the simulator, so a starved host slows the run down without
/// moving a single virtual timestamp.
#[test]
fn virtual_timeline_is_independent_of_host_load() {
    let quiet = seeded_unreliable_run();
    assert!(
        quiet.iter().any(|(_, attempts, _)| *attempts > 1),
        "the filesystem overload never failed a task"
    );
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let spinners: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    let loaded = seeded_unreliable_run();
    stop.store(true, Ordering::Relaxed);
    for s in spinners {
        s.join().unwrap();
    }
    assert_eq!(quiet.len(), loaded.len());
    for (q, l) in quiet.iter().zip(&loaded) {
        assert_eq!(q, l, "timeline moved under host load");
    }
}

#[test]
fn stage_ordering_is_enforced_in_virtual_time() {
    // The analysis stage's task must start only after both simulation tasks
    // finished; virtual timestamps prove the ordering.
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("ordered")
            .with_stage(
                Stage::new("sim")
                    .with_task(Task::new("sim-a", Executable::Sleep { secs: 300.0 }))
                    .with_task(Task::new("sim-b", Executable::Sleep { secs: 200.0 })),
            )
            .with_stage(
                Stage::new("analysis")
                    .with_task(Task::new("post", Executable::Sleep { secs: 50.0 })),
            ),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 2, 7200))
            .with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    // Stage 1 ends at ≥300 virtual s; total ≥ 350.
    assert!(report.rts_profile.exec_makespan_secs >= 350.0 - 1.0);
}

#[test]
fn heterogeneous_tasks_in_one_stage() {
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("hetero").with_stage(
            Stage::new("mix")
                .with_task(
                    Task::new(
                        "mpi-sim",
                        Executable::GromacsMdrun {
                            nominal_secs: 400.0,
                        },
                    )
                    .with_cpus(16),
                )
                .with_task(Task::new("serial", Executable::Sleep { secs: 100.0 }))
                .with_task(
                    Task::new("gpu-task", Executable::Sleep { secs: 50.0 })
                        .with_cpus(1)
                        .with_gpus(1),
                )
                .with_task(Task::new("noop", Executable::Noop)),
        ),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 4, 7200))
            .with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    assert_eq!(report.overheads.tasks_done, 4);
}

#[test]
fn local_backend_runs_real_compute_with_dependencies() {
    // Stage 2 reads what stage 1 produced — real dataflow through shared
    // state, ordered by the PST semantics.
    let produced = Arc::new(AtomicUsize::new(0));
    let consumed = Arc::new(AtomicUsize::new(0));

    let mut produce = Stage::new("produce");
    for i in 0..8 {
        let p = Arc::clone(&produced);
        produce.add_task(Task::new(
            format!("produce-{i}"),
            Executable::compute(1.0, move || {
                p.fetch_add(i + 1, Ordering::SeqCst);
                Ok(())
            }),
        ));
    }
    let p2 = Arc::clone(&produced);
    let c2 = Arc::clone(&consumed);
    let consume = Stage::new("consume").with_task(Task::new(
        "consume",
        Executable::compute(1.0, move || {
            let total = p2.load(Ordering::SeqCst);
            if total != 36 {
                return Err(format!("stage ordering violated: saw {total}"));
            }
            c2.store(total, Ordering::SeqCst);
            Ok(())
        }),
    ));

    let wf = Workflow::new().with_pipeline(
        Pipeline::new("dataflow")
            .with_stage(produce)
            .with_stage(consume),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(4)).with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    assert_eq!(consumed.load(Ordering::SeqCst), 36);
}

/// A run's queues are not durable, so a journaled broker it attaches to
/// writes nothing: every segment stays empty. This is why the service keeps
/// no broker journal.
#[test]
fn durable_broker_journal_coexists_with_run() {
    use entk::core::{QueueNamespace, SessionAttachment};
    use entk::mq::{Broker, BrokerConfig};
    let dir = std::env::temp_dir().join(format!(
        "entk-it-broker-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let broker = Broker::with_config(BrokerConfig {
        journal_path: Some(dir.join("broker.journal")),
        ..Default::default()
    })
    .expect("journaled broker");
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(
        Stage::new("s").with_task(Task::new("only", Executable::Sleep { secs: 10.0 })),
    ));
    let cfg = AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 1, 7200))
        .with_run_timeout(timeout());
    let attachment = SessionAttachment::shared(broker.clone(), QueueNamespace::session("s1"));
    let report = AppManager::new(cfg)
        .run_attached(wf, attachment)
        .expect("run completes");
    assert!(report.succeeded);
    broker.close();
    let segments: Vec<(String, u64)> = std::fs::read_dir(&dir)
        .expect("journal directory")
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, e.metadata().unwrap().len())
        })
        .collect();
    assert_eq!(segments.len(), broker.shard_count(), "{segments:?}");
    for (name, len) in &segments {
        assert_eq!(*len, 0, "{name} holds {len} bytes");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_pipeline_growth_via_post_exec() {
    // A pipeline that keeps appending stages until a shared counter hits 5 —
    // unknown-length iteration, the §II-B1 branching mechanism.
    let iterations = Arc::new(AtomicUsize::new(0));

    fn growing_stage(n: usize, iterations: Arc<AtomicUsize>) -> Stage {
        let i2 = Arc::clone(&iterations);
        Stage::new(format!("iter-{n}"))
            .with_task(Task::new(
                format!("iter-task-{n}"),
                Executable::compute(1.0, move || {
                    i2.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            ))
            .with_post_exec(move |pipeline| {
                if iterations.load(Ordering::SeqCst) < 5 {
                    pipeline.add_stage(growing_stage(n + 1, Arc::clone(&iterations)));
                }
            })
    }

    let wf = Workflow::new().with_pipeline(
        Pipeline::new("grower").with_stage(growing_stage(0, Arc::clone(&iterations))),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(2)).with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    assert_eq!(iterations.load(Ordering::SeqCst), 5);
    assert_eq!(report.workflow.pipelines()[0].stages().len(), 5);
}

#[test]
fn report_decomposition_is_consistent() {
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("p").with_stage(
            Stage::new("s")
                .with_task(Task::new("a", Executable::Sleep { secs: 100.0 }))
                .with_task(Task::new("b", Executable::Sleep { secs: 100.0 })),
        ),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 1, 7200))
            .with_python_emulation(PythonEmulation::tacc_vm())
            .with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    let m = &report.overheads;
    assert!(m.entk_setup_secs > 0.0);
    assert!(m.entk_teardown_secs > 0.0);
    assert!(m.task_execution_secs >= 100.0 - 1.0);
    assert_eq!(m.tasks_done, 2);
    assert_eq!(m.failed_attempts, 0);
    // 2 tasks × 6 transitions, plus nothing else.
    assert!(m.transitions >= 12);
    let e = report.emulated.expect("emulation configured");
    assert!(e.entk_setup_secs > m.entk_setup_secs);
    assert_eq!(e.task_execution_secs, m.task_execution_secs);
}

#[test]
fn inter_pipeline_dependencies_order_execution() {
    // p2 runs only after p1; virtual timestamps prove it.
    let p1 = Pipeline::new("first").with_stage(
        Stage::new("f-s").with_task(Task::new("first-task", Executable::Sleep { secs: 300.0 })),
    );
    let p2 = Pipeline::new("second").after(&p1).with_stage(
        Stage::new("s-s").with_task(Task::new("second-task", Executable::Sleep { secs: 100.0 })),
    );
    let wf = Workflow::new().with_pipeline(p1).with_pipeline(p2);
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 4, 7200))
            .with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    // Sequential: 300 + 100 (+ small launcher noise), not max(300, 100).
    assert!(
        report.rts_profile.exec_makespan_secs >= 400.0 - 1.0,
        "dependent pipeline ran early: makespan {}",
        report.rts_profile.exec_makespan_secs
    );
}

#[test]
fn failed_dependency_cancels_dependents() {
    let p1 = Pipeline::new("broken").with_stage(
        Stage::new("b-s").with_task(
            Task::new(
                "always-fails",
                Executable::compute(1.0, || Err("nope".into())),
            )
            .with_max_retries(Some(0)),
        ),
    );
    let p2 = Pipeline::new("dependent")
        .after(&p1)
        .with_stage(Stage::new("d-s").with_task(Task::new("never-runs", Executable::Noop)));
    let wf = Workflow::new().with_pipeline(p1).with_pipeline(p2);
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(2)).with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run terminates");
    assert!(!report.succeeded);
    let states = report.workflow.pipeline_state_counts();
    assert_eq!(states.get(&PipelineState::Failed).copied().unwrap_or(0), 1);
    assert_eq!(
        states.get(&PipelineState::Canceled).copied().unwrap_or(0),
        1,
        "dependent must be canceled, not stuck"
    );
    assert_eq!(
        report.workflow.count_in(TaskState::Canceled),
        1,
        "the dependent's task is canceled without executing"
    );
}

#[test]
fn dependency_validation_rejects_cycles_and_unknowns() {
    let a = Pipeline::new("a")
        .with_stage(Stage::new("sa").with_task(Task::new("ta", Executable::Noop)));
    let b = Pipeline::new("b")
        .after(&a)
        .with_stage(Stage::new("sb").with_task(Task::new("tb", Executable::Noop)));
    // Cycle: a depends on b, b depends on a.
    let a = a.after(&b);
    let wf = Workflow::new().with_pipeline(a).with_pipeline(b);
    assert!(wf.validate().is_err(), "cycle must be rejected");

    let lonely = Pipeline::new("lonely")
        .after_uid("pipeline.999999")
        .with_stage(Stage::new("sl").with_task(Task::new("tl", Executable::Noop)));
    let wf = Workflow::new().with_pipeline(lonely);
    assert!(
        wf.validate().is_err(),
        "unknown dependency must be rejected"
    );
}

#[test]
fn run_report_exports_task_timeline_csv() {
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("p").with_stage(
            Stage::new("s")
                .with_task(Task::new("csv-a", Executable::Sleep { secs: 30.0 }))
                .with_task(Task::new("csv-b", Executable::Sleep { secs: 60.0 })),
        ),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 1, 7200))
            .with_run_timeout(timeout()),
    );
    let report = amgr.run(wf).expect("run completes");
    assert_eq!(report.unit_records.len(), 2);

    let path = std::env::temp_dir().join(format!("entk-it-{}.csv", std::process::id()));
    report.write_task_csv(&path).expect("csv written");
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "header + 2 rows");
    assert!(lines[0].starts_with("tag,submitted_s"));
    assert!(lines[1..].iter().all(|l| l.ends_with(",done")));
    std::fs::remove_file(&path).unwrap();
}

/// Tear-down wakes its components instead of outwaiting them: a run that
/// had to sleep through any component's poll timeout could not return in
/// time, and tear-down itself costs next to nothing.
#[test]
fn teardown_wakes_every_component_instead_of_outwaiting_it() {
    let mut teardown_secs: Vec<f64> = (0..20)
        .map(|i| {
            let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(
                Stage::new("s").with_task(Task::new(format!("wake-{i}"), Executable::Noop)),
            ));
            let cfg =
                AppManagerConfig::new(ResourceDescription::local(1)).with_run_timeout(timeout());
            let t0 = std::time::Instant::now();
            let report = AppManager::new(cfg).run(wf).expect("run completes");
            let wall = t0.elapsed();
            assert!(report.succeeded);
            assert!(wall < Duration::from_secs(1), "run {i} took {wall:?}");
            report.overheads.entk_teardown_secs
        })
        .collect();
    teardown_secs.sort_by(f64::total_cmp);
    let median = teardown_secs[teardown_secs.len() / 2];
    assert!(
        median < 0.005,
        "median tear-down {median:.4} s of {teardown_secs:?}"
    );
}
