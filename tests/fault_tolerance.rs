//! Fault-tolerance integration tests: the §II-B4 failure model exercised
//! end to end — task failures, RTS death and restart, journal recovery.
//!
//! Every scenario is a plain function over an [`ExecManagerConfig`] and runs
//! twice through the one data path: once with the default batch limit and
//! once with `max_batch: 1`, the paper's per-task path. The recovery
//! guarantees must hold identically on both.

use entk::core::ExecManagerConfig;
use entk::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Expand one scenario function into `<name>::batched` (the default batch
/// limit) and `<name>::per_task` (a batch limit of 1) test cases sharing its
/// body.
macro_rules! both_batch_limits {
    ($($name:ident),+ $(,)?) => {
        $(
            mod $name {
                use super::ExecManagerConfig;
                #[test]
                fn batched() {
                    super::$name(ExecManagerConfig::default());
                }
                #[test]
                fn per_task() {
                    super::$name(ExecManagerConfig { max_batch: 1 });
                }
            }
        )+
    };
}

both_batch_limits!(
    failed_tasks_are_resubmitted_within_budget,
    retry_budget_exhaustion_fails_pipeline_cleanly,
    rts_death_is_survived_by_restart,
    rts_restart_budget_exhaustion_is_a_clean_error,
    journal_recovery_skips_completed_tasks_mid_pipeline,
    pilot_walltime_expiry_triggers_pilot_reacquisition,
    unreliable_ci_is_survived_end_to_end,
    cancel_wakes_a_throttled_enqueue_and_an_idle_emgr,
);

fn failed_tasks_are_resubmitted_within_budget(exec: ExecManagerConfig) {
    let attempts = Arc::new(AtomicU32::new(0));
    let a = Arc::clone(&attempts);
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("p").with_stage(
            Stage::new("s").with_task(
                Task::new(
                    "flaky",
                    Executable::compute(1.0, move || {
                        if a.fetch_add(1, Ordering::SeqCst) < 3 {
                            Err("boom".into())
                        } else {
                            Ok(())
                        }
                    }),
                )
                .with_max_retries(Some(10)),
            ),
        ),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(1))
            .with_exec_manager(exec)
            .with_run_timeout(Duration::from_secs(300)),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    assert_eq!(attempts.load(Ordering::SeqCst), 4);
    assert_eq!(report.overheads.failed_attempts, 3);
    assert_eq!(report.overheads.tasks_done, 1);
}

fn retry_budget_exhaustion_fails_pipeline_cleanly(exec: ExecManagerConfig) {
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("p").with_stage(
            Stage::new("s")
                .with_task(
                    Task::new("doomed", Executable::compute(1.0, || Err("always".into())))
                        .with_max_retries(Some(2)),
                )
                .with_task(Task::new("fine", Executable::Noop)),
        ),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(2))
            .with_exec_manager(exec)
            .with_run_timeout(Duration::from_secs(300)),
    );
    let report = amgr.run(wf).expect("run completes (unsuccessfully)");
    assert!(!report.succeeded, "pipeline must report failure");
    // The doomed task ran 1 + 2 retries = 3 attempts.
    assert_eq!(report.overheads.failed_attempts, 3);
    let counts = report.workflow.task_state_counts();
    assert_eq!(counts.get(&TaskState::Failed).copied().unwrap_or(0), 1);
    assert_eq!(counts.get(&TaskState::Done).copied().unwrap_or(0), 1);
    assert_eq!(
        report.workflow.pipelines()[0].state(),
        PipelineState::Failed
    );
}

fn rts_death_is_survived_by_restart(exec: ExecManagerConfig) {
    // Kill the RTS 150 ms into a run with long tasks; the Heartbeat must
    // tear it down, start a new incarnation, re-acquire the pilot, and
    // re-execute the lost tasks — "loosing only those tasks that were in
    // execution at the time of the RTS failure".
    // 5,000 virtual seconds cost ~0.5 s of wall time at the simulator's
    // pace (virtual time at most 10,000× real time), so a kill at 100 ms
    // lands mid-execution.
    let mut stage = Stage::new("work");
    for i in 0..8 {
        stage.add_task(Task::new(
            format!("w{i}"),
            Executable::Sleep { secs: 5000.0 },
        ));
    }
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
    let mut amgr = AppManager::new(
        AppManagerConfig::new(
            ResourceDescription::sim(PlatformId::TestRig, 1, 3 * 3600).with_seed(5),
        )
        .with_exec_manager(exec)
        .with_chaos_rts_kill(Duration::from_millis(100))
        .with_run_timeout(Duration::from_secs(300)),
    );
    let report = amgr.run(wf).expect("run completes despite RTS death");
    assert!(report.succeeded, "workflow must still finish");
    assert!(
        report.rts_restarts >= 1,
        "heartbeat must have restarted the RTS"
    );
    assert_eq!(report.overheads.tasks_done, 8);
}

fn rts_restart_budget_exhaustion_is_a_clean_error(exec: ExecManagerConfig) {
    let wf = Workflow::new()
        .with_pipeline(Pipeline::new("p").with_stage(
            Stage::new("s").with_task(Task::new("t", Executable::Sleep { secs: 1e6 })),
        ));
    let mut cfg =
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 1, 7200).with_seed(6))
            .with_exec_manager(exec)
            .with_chaos_rts_kill(Duration::from_millis(100))
            .with_run_timeout(Duration::from_secs(300));
    cfg.max_rts_restarts = 0;
    let err = AppManager::new(cfg).run(wf).expect_err("restart budget 0");
    let msg = err.to_string();
    assert!(msg.contains("restart budget"), "unexpected error: {msg}");
}

fn journal_recovery_skips_completed_tasks_mid_pipeline(exec: ExecManagerConfig) {
    let journal = std::env::temp_dir().join(format!(
        "entk-it-journal-{}-{:?}-{}.log",
        std::process::id(),
        std::thread::current().id(),
        exec.max_batch
    ));
    let _ = std::fs::remove_file(&journal);

    let executions = Arc::new(AtomicUsize::new(0));

    // First run: stage 1 succeeds, stage 2 fails terminally.
    let build = |fail_stage2: bool, executions: Arc<AtomicUsize>| {
        let mut s1 = Stage::new("s1");
        for i in 0..3 {
            let e = Arc::clone(&executions);
            s1.add_task(Task::new(
                format!("s1-{i}"),
                Executable::compute(1.0, move || {
                    e.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            ));
        }
        let e2 = Arc::clone(&executions);
        let s2 = Stage::new("s2").with_task(
            Task::new(
                "s2-final",
                Executable::compute(1.0, move || {
                    if fail_stage2 {
                        Err("stage 2 broken this run".into())
                    } else {
                        e2.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }
                }),
            )
            .with_max_retries(Some(0)),
        );
        Workflow::new().with_pipeline(Pipeline::new("p").with_stage(s1).with_stage(s2))
    };

    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(2))
            .with_exec_manager(exec.clone())
            .with_journal(&journal)
            .with_run_timeout(Duration::from_secs(300)),
    );
    let r1 = amgr
        .run(build(true, Arc::clone(&executions)))
        .expect("first run completes");
    assert!(!r1.succeeded);
    assert_eq!(executions.load(Ordering::SeqCst), 3, "stage 1 ran");

    // Second attempt: stage-1 tasks are recovered from the journal; only
    // the stage-2 task executes.
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(2))
            .with_exec_manager(exec)
            .with_journal(&journal)
            .with_run_timeout(Duration::from_secs(300)),
    );
    let r2 = amgr
        .run(build(false, Arc::clone(&executions)))
        .expect("second run completes");
    assert!(r2.succeeded);
    assert_eq!(
        executions.load(Ordering::SeqCst),
        4,
        "exactly one more execution (the stage-2 task)"
    );

    let _ = std::fs::remove_file(&journal);
}

fn pilot_walltime_expiry_triggers_pilot_reacquisition(exec: ExecManagerConfig) {
    // The pilot's walltime (60 virtual s) is far too short for the 200 s
    // task; the Heartbeat re-acquires a pilot and the task is retried until
    // it fits... it never fits, so the retry budget must eventually cancel
    // the task and the run must terminate rather than loop forever.
    let wf =
        Workflow::new().with_pipeline(Pipeline::new("p").with_stage(Stage::new("s").with_task(
            Task::new("too-long", Executable::Sleep { secs: 200.0 }).with_max_retries(Some(1)),
        )));
    let mut cfg =
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 1, 60).with_seed(8))
            .with_exec_manager(exec)
            .with_run_timeout(Duration::from_secs(300));
    cfg.max_rts_restarts = 5;
    let report = AppManager::new(cfg).run(wf).expect("run terminates");
    assert!(!report.succeeded);
    assert!(report.rts_restarts >= 1, "pilot must have been re-acquired");
}

fn unreliable_ci_is_survived_end_to_end(exec: ExecManagerConfig) {
    // CI-level faults (§II-B4): node crashes kill tasks and occasionally the
    // whole pilot. With unlimited task retries and pilot re-acquisition the
    // ensemble still completes.
    use entk::sim::Platform;
    let mut platform = Platform::catalog(PlatformId::TestRig);
    platform.faults.node_mtbf = Some(entk::sim::SimDuration::from_secs(350));
    platform.faults.pilot_kill_prob = 0.1;

    let mut stage = Stage::new("unreliable");
    for i in 0..12 {
        stage.add_task(Task::new(
            format!("u{i}"),
            Executable::Sleep { secs: 300.0 },
        ));
    }
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));

    let resource = ResourceDescription {
        name: "default".into(),
        backend: ResourceBackend::SimCustom { platform },
        nodes: 4,
        walltime_secs: 1_000_000,
        bootstrap_secs: 0.0,
        stagers: 1,
        seed: 21,
        db_op_latency: Duration::ZERO,
    };
    let mut cfg = AppManagerConfig::new(resource)
        .with_exec_manager(exec)
        .with_task_retries(None)
        .with_run_timeout(Duration::from_secs(300));
    cfg.max_rts_restarts = 50;
    let report = AppManager::new(cfg).run(wf).expect("run completes");
    assert!(report.succeeded, "ensemble must survive the unreliable CI");
    assert_eq!(report.overheads.tasks_done, 12);
    assert!(
        report.overheads.failed_attempts > 0,
        "the CI must actually have failed some attempts for this test to bite"
    );
}

fn cancel_wakes_a_throttled_enqueue_and_an_idle_emgr(exec: ExecManagerConfig) {
    // Two of eight tasks fit under the cap and never end within the test
    // (10^7 virtual seconds). Once both execute, Enqueue is parked on the
    // throttle, the Emgr on an empty Pending queue and the AppManager on
    // its signal; nothing but the cancel can move the run.
    let mut stage = Stage::new("held");
    for i in 0..8 {
        stage.add_task(Task::new(
            format!("held-{i}"),
            Executable::Sleep { secs: 1e7 },
        ));
    }
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
    let recorder = Recorder::new();
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(
            PlatformId::TestRig,
            1,
            1_000_000_000,
        ))
        .with_exec_manager(exec)
        .with_recorder(recorder.clone())
        .with_execution_strategy(ExecutionStrategy::FixedConcurrency(2))
        .with_run_timeout(Duration::from_secs(300)),
    );
    let token = amgr.cancel_token();
    let canceler = std::thread::spawn(move || {
        let started = recorder.metrics().counter("rts.units_started");
        while started.get() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        token.cancel();
        std::time::Instant::now()
    });
    let report = amgr.run(wf).expect("canceled run still settles");
    let settled_in = canceler.join().unwrap().elapsed();
    assert!(
        settled_in < Duration::from_secs(2),
        "cancel → return took {settled_in:?}"
    );
    assert!(report.canceled && !report.succeeded);
    assert_eq!(report.workflow.count_in(TaskState::Canceled), 8);
    assert_eq!(
        report.unit_records.len(),
        2,
        "only two ever reached the RTS"
    );
}

/// A replacement pilot that boots in virtual time comes up while Enqueue
/// keeps publishing its pool's retries one at a time. Each Pending message
/// holds the simulator's clock until the Emgr takes it, so an Emgr that sat
/// out the re-acquisition would leave the boot stalled until
/// `wait_pilot_ready` gave up (30 s of wall time per re-acquisition).
#[test]
fn a_booting_replacement_pilot_is_not_held_back_by_queued_retries() {
    let mut stage = Stage::new("s");
    for i in 0..2 {
        stage.add_task(
            Task::new(format!("too-long-{i}"), Executable::Sleep { secs: 200.0 })
                .with_max_retries(Some(1)),
        );
    }
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
    let mut resource = ResourceDescription::sim(PlatformId::TestRig, 1, 60).with_seed(8);
    resource.bootstrap_secs = 5.0;
    let mut cfg = AppManagerConfig::new(resource)
        .with_exec_manager(ExecManagerConfig { max_batch: 1 })
        .with_run_timeout(Duration::from_secs(300));
    cfg.max_rts_restarts = 5;
    let started = std::time::Instant::now();
    let report = AppManager::new(cfg).run(wf).expect("run terminates");
    let took = started.elapsed();
    assert!(!report.succeeded);
    assert!(report.rts_restarts >= 1, "pilot must have been re-acquired");
    assert!(took < Duration::from_secs(10), "run took {took:?}");
}
