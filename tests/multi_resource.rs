//! Multi-resource execution: one RTS per named resource pool, tasks routed
//! by their pool tag — the §III-A requirement to "interleave simulation
//! tasks with data-processing tasks, each requiring respectively
//! leadership-scale systems and moderately sized clusters".

use entk::prelude::*;
use std::time::Duration;

#[test]
fn tasks_route_to_their_resource_pools() {
    // Simulation tasks need 384 Titan nodes; analysis tasks run on a small
    // cluster pool. Neither pool could run the other's tasks: the big tasks
    // don't fit the cluster, and routing everything to Titan would be
    // detected by the virtual timeline below.
    let mut sims = Stage::new("simulate");
    for i in 0..2 {
        sims.add_task(
            Task::new(
                format!("sim-{i}"),
                Executable::SpecfemForward {
                    nominal_secs: 180.0,
                    io_demand_bps: 2e9,
                },
            )
            .with_cpus(6144)
            .with_gpus(384),
        );
    }
    let mut analysis = Stage::new("analyze");
    for i in 0..4 {
        analysis.add_task(
            Task::new(format!("an-{i}"), Executable::Sleep { secs: 50.0 })
                .with_cpus(4)
                .with_resource_pool("cluster"),
        );
    }
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("interleaved")
            .with_stage(sims)
            .with_stage(analysis),
    );

    let titan = ResourceDescription::sim(PlatformId::Titan, 2 * 384, 24 * 3600).with_seed(9);
    let cluster = ResourceDescription::sim(PlatformId::SuperMic, 2, 24 * 3600)
        .with_seed(9)
        .named("cluster");
    let mut amgr = AppManager::new(
        AppManagerConfig::new(titan)
            .with_extra_resource(cluster)
            .with_run_timeout(Duration::from_secs(300)),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    assert_eq!(report.overheads.tasks_done, 6);
}

#[test]
fn unknown_pool_is_rejected_before_running() {
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("p").with_stage(
            Stage::new("s")
                .with_task(Task::new("t", Executable::Noop).with_resource_pool("nonexistent")),
        ),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(1))
            .with_run_timeout(Duration::from_secs(10)),
    );
    let err = amgr.run(wf).expect_err("must reject unknown pool");
    assert!(err.to_string().contains("nonexistent"), "{err}");
}

#[test]
fn duplicate_pool_names_rejected() {
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("p").with_stage(Stage::new("s").with_task(Task::new("t", Executable::Noop))),
    );
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::local(1))
            .with_extra_resource(ResourceDescription::local(1)) // also "default"
            .with_run_timeout(Duration::from_secs(10)),
    );
    let err = amgr.run(wf).expect_err("must reject duplicate names");
    assert!(err.to_string().contains("duplicate"), "{err}");
}

#[test]
fn mixed_local_and_sim_pools() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // Real compute on a local pool, simulated execution on the default sim
    // pool, inside one stage.
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    let stage = Stage::new("mixed")
        .with_task(Task::new("virtual", Executable::Sleep { secs: 400.0 }))
        .with_task(
            Task::new(
                "real",
                Executable::compute(1.0, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            )
            .with_resource_pool("workstation"),
        );
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 1, 7200))
            .with_extra_resource(ResourceDescription::local(2).named("workstation"))
            .with_run_timeout(Duration::from_secs(300)),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    assert_eq!(counter.load(Ordering::SeqCst), 1, "local task really ran");
    // The sim task's 400 virtual seconds are visible in the profile.
    assert!(report.rts_profile.exec_makespan_secs >= 400.0 - 1.0);
}

#[test]
fn pool_failure_recovery_does_not_disturb_other_pools() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // The primary (sim) pool's 200 s walltime fits its 90 s task, so its
    // pilot lives through the run; the local pool's tasks complete beside
    // it. `other_pools_run_while_a_pool_reacquires_its_pilot` covers a
    // pilot that ends.
    let counter = Arc::new(AtomicUsize::new(0));
    let mut stage = Stage::new("split");
    stage.add_task(Task::new("sim-long", Executable::Sleep { secs: 90.0 }).with_max_retries(None));
    for i in 0..3 {
        let c = Arc::clone(&counter);
        stage.add_task(
            Task::new(
                format!("local-{i}"),
                Executable::compute(1.0, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            )
            .with_resource_pool("workstation"),
        );
    }
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
    // Walltime 120 s fits the 90 s task only after the first pilot (used
    // briefly) survives; use 200 s to stay deterministic: the task fits.
    let mut amgr = AppManager::new(
        AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 1, 200).with_seed(12))
            .with_extra_resource(ResourceDescription::local(2).named("workstation"))
            .with_task_retries(None)
            .with_run_timeout(Duration::from_secs(300)),
    );
    let report = amgr.run(wf).expect("run completes");
    assert!(report.succeeded);
    assert_eq!(counter.load(Ordering::SeqCst), 3);
}

/// A pool whose pilot is re-acquired holds up no other pool. The primary
/// (sim) pool's pilot boots for 5 000 s and ends at 5 070 s: "warm" (40 s)
/// fits, "long" (50 s) does not and is retried on a replacement that boots
/// for 5 000 virtual s again, at least 0.5 s of wall time at the
/// simulator's pace. The local pool's "meanwhile" tasks become ready once
/// that re-acquisition has started, and all run before it ends.
#[test]
fn other_pools_run_while_a_pool_reacquires_its_pilot() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let recorder = Recorder::new();
    let heartbeat_saw = {
        let recorder = recorder.clone();
        move |kind: &str| {
            recorder
                .snapshot()
                .iter()
                .any(|e| e.component == "heartbeat" && e.kind == kind)
        }
    };
    let sim = Pipeline::new("sim")
        .with_stage(
            Stage::new("warm").with_task(Task::new("warm", Executable::Sleep { secs: 40.0 })),
        )
        .with_stage(Stage::new("long").with_task(
            Task::new("long", Executable::Sleep { secs: 50.0 }).with_max_retries(Some(1)),
        ));
    let saw = heartbeat_saw.clone();
    let wait = Task::new(
        "wait-for-recovery",
        Executable::compute(1.0, move || {
            let give_up = Instant::now() + Duration::from_secs(20);
            while !saw("recovery_start") {
                if Instant::now() > give_up {
                    return Err("the sim pool never started a recovery".into());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        }),
    )
    .with_resource_pool("workstation");
    let during = Arc::new(AtomicUsize::new(0));
    let mut meanwhile = Stage::new("meanwhile");
    for i in 0..3 {
        let (saw, during) = (heartbeat_saw.clone(), Arc::clone(&during));
        meanwhile.add_task(
            Task::new(
                format!("local-{i}"),
                Executable::compute(1.0, move || {
                    if !saw("pilot_reacquired") {
                        during.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(())
                }),
            )
            .with_resource_pool("workstation"),
        );
    }
    let local = Pipeline::new("local")
        .with_stage(Stage::new("wait").with_task(wait))
        .with_stage(meanwhile);
    let wf = Workflow::new().with_pipeline(sim).with_pipeline(local);

    let mut primary = ResourceDescription::sim(PlatformId::TestRig, 1, 5_070).with_seed(12);
    primary.bootstrap_secs = 5_000.0;
    let report = AppManager::new(
        AppManagerConfig::new(primary)
            .with_extra_resource(ResourceDescription::local(2).named("workstation"))
            .with_max_rts_restarts(2)
            .with_recorder(recorder.clone())
            .with_run_timeout(Duration::from_secs(60)),
    )
    .run(wf)
    .expect("run completes");
    assert!(report.succeeded);
    assert_eq!(
        report.rts_restarts, 1,
        "the sim pool's pilot was re-acquired"
    );
    assert_eq!(
        during.load(Ordering::SeqCst),
        3,
        "the local pool's tasks ran while the sim pool re-acquired its pilot"
    );
}
