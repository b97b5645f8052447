//! Property-based tests for the DES engine invariants the middleware
//! depends on: exactly-once task termination, time monotonicity, core
//! conservation, and determinism.

use hpc_sim::{
    DurationModel, FailureModel, JobDescription, Platform, PlatformId, SimConfig, SimDuration,
    SimEvent, Simulation, TaskDesc, TaskId, TaskOutcome,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// A randomly shaped task.
#[derive(Debug, Clone)]
struct RandTask {
    cores: u32,
    secs: u64,
    fail_prob: u8, // percent
}

fn task_strategy() -> impl Strategy<Value = RandTask> {
    (1u32..=8, 1u64..300, 0u8..=40).prop_map(|(cores, secs, fail_prob)| RandTask {
        cores,
        secs,
        fail_prob,
    })
}

/// Run `tasks` on a fresh 4-node pilot and return every task event in
/// order. `one_command` sends the burst as one `launch_tasks`; otherwise
/// each task is its own `launch_task`, and a real-time pause longer than the
/// engine's grace window between two of them may let the clock move
/// mid-burst.
fn run_workload(tasks: &[RandTask], seed: u64, one_command: bool) -> Vec<(TaskId, SimEvent)> {
    let h =
        Simulation::start(SimConfig::new(Platform::catalog(PlatformId::TestRig)).with_seed(seed));
    // A one-command burst queues while the pilot bootstraps and starts when
    // it turns Ready, wherever the clock was when it arrived. With no
    // bootstrap a burst that trailed the job by two grace windows found the
    // clock moved on toward the walltime, and started later. One-by-one
    // launches keep a ready pilot, so later ones reach a running scheduler.
    let job = h.submit_job(JobDescription {
        nodes: 4,
        walltime: SimDuration::from_secs(1_000_000),
        bootstrap: if one_command {
            SimDuration::from_secs(120)
        } else {
            SimDuration::ZERO
        },
    });
    let descs = tasks.iter().map(|t| TaskDesc {
        cores: t.cores,
        gpus: 0,
        duration: DurationModel::Fixed(SimDuration::from_secs(t.secs)),
        failure: if t.fail_prob == 0 {
            FailureModel::None
        } else {
            FailureModel::Random {
                prob: t.fail_prob as f64 / 100.0,
            }
        },
        skip_env_setup: true,
    });
    if one_command {
        h.launch_tasks(job, descs.collect());
    } else {
        for desc in descs {
            h.launch_task(job, desc);
        }
    }
    let mut events = Vec::new();
    let mut ended = 0;
    while ended < tasks.len() {
        let ev = h
            .events()
            .recv_timeout(Duration::from_secs(20))
            .expect("workload must terminate");
        match &ev {
            SimEvent::TaskEnded { task, .. } => {
                ended += 1;
                events.push((*task, ev.clone()));
            }
            SimEvent::TaskStarted { task, .. } => events.push((*task, ev.clone())),
            _ => {}
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every task terminates exactly once, with start ≤ end, and outcomes
    /// are only Completed/Failed (nothing cancels in this workload).
    #[test]
    fn exactly_once_termination(tasks in proptest::collection::vec(task_strategy(), 1..40), seed in 0u64..1000) {
        let events = run_workload(&tasks, seed, false);
        let mut ends: HashMap<TaskId, u32> = HashMap::new();
        let mut starts: HashMap<TaskId, f64> = HashMap::new();
        for (id, ev) in &events {
            match ev {
                SimEvent::TaskStarted { time, .. } => {
                    starts.insert(*id, time.as_secs_f64());
                }
                SimEvent::TaskEnded { time, outcome, started_at, .. } => {
                    *ends.entry(*id).or_insert(0) += 1;
                    prop_assert!(matches!(outcome, TaskOutcome::Completed | TaskOutcome::Failed(_)));
                    let s = starts.get(id).copied().expect("started before ended");
                    prop_assert!(time.as_secs_f64() >= s);
                    prop_assert_eq!(started_at.map(|t| t.as_secs_f64()), Some(s));
                }
                _ => {}
            }
        }
        prop_assert_eq!(ends.len(), tasks.len());
        prop_assert!(ends.values().all(|&c| c == 1), "double termination");
    }

    /// Core conservation: reconstructing concurrent usage from the event
    /// stream never exceeds the pilot's capacity (32 cores on the rig).
    #[test]
    fn cores_never_oversubscribed(tasks in proptest::collection::vec(task_strategy(), 1..40), seed in 0u64..1000) {
        let events = run_workload(&tasks, seed, false);
        let cores_of: Vec<u32> = tasks.iter().map(|t| t.cores).collect();
        // Build (time, +cores/-cores) ticks; process ends before starts at
        // equal timestamps (the scheduler frees cores before reusing them).
        let mut ticks: Vec<(u64, i64, i64)> = Vec::new(); // (time_us, order, delta)
        for (id, ev) in &events {
            let idx = (id.0 - 1) as usize;
            match ev {
                SimEvent::TaskStarted { time, .. } => {
                    ticks.push((time.0, 1, cores_of[idx] as i64));
                }
                SimEvent::TaskEnded { time, .. } => {
                    ticks.push((time.0, 0, -(cores_of[idx] as i64)));
                }
                _ => {}
            }
        }
        ticks.sort();
        let mut in_use = 0i64;
        for (_, _, delta) in ticks {
            in_use += delta;
            prop_assert!(in_use <= 32, "oversubscribed: {in_use} cores");
            prop_assert!(in_use >= 0);
        }
    }

    /// Determinism: identical workload + seed ⇒ identical event trace. The
    /// burst is one command into a booting pilot, so both runs give the
    /// engine the same command sequence and start it at the same instant.
    #[test]
    fn deterministic_traces(tasks in proptest::collection::vec(task_strategy(), 1..20), seed in 0u64..100) {
        let a = run_workload(&tasks, seed, true);
        let b = run_workload(&tasks, seed, true);
        prop_assert_eq!(a.len(), b.len());
        for ((id_a, ev_a), (id_b, ev_b)) in a.iter().zip(&b) {
            prop_assert_eq!(id_a, id_b);
            prop_assert_eq!(ev_a.time(), ev_b.time());
        }
    }
}
