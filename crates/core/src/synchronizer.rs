//! The Synchronizer: AppManager's state-keeping subcomponent.
//!
//! "Each component and subcomponent synchronizes these transitions with
//! AppManager by pushing messages through dedicated queues. AppManager pulls
//! these messages and updates the application states. AppManager then
//! acknowledges the updates via dedicated queues. This messaging mechanism
//! ensures that AppManager is always up-to-date with any state change,
//! making it the only stateful component of EnTK." (§II-B3)
//!
//! Components request *task* transitions; the Synchronizer derives the
//! consequent stage and pipeline transitions (scheduling propagation, stage
//! completion, `post_exec` hooks, pipeline advancement) atomically under the
//! workflow lock and journals every applied transition. This module is the
//! only code that changes PST state, so AppManager stays the only stateful
//! component. In the paper the components are separate processes and reach
//! that state through queues; here they are threads of one process, the
//! per-run queues are not durable (the `StateStore` journal is), and every
//! requester waits for the whole answer anyway. So a component's
//! `Ctx::sync_tasks` call is a function call: it applies its batch — one
//! target state for every uid — under one workflow lock on the requesting
//! thread and returns the flags in request order.

use crate::appmanager::Ctx;
use crate::messages::Reaction;
use crate::states::{PipelineState, StageState, TaskState};
use crate::workflow::Workflow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// Apply one sync batch on the caller's thread: the same transition for
/// every uid under one workflow lock, timed by one `sync.apply` span. The
/// span is not charged to the run's management overhead, because the
/// requesting component's own span encloses it. Counts the applied
/// transitions in the run's report and, when traced, records each as a
/// `transition` event. Returns the applied flag of each uid, in order.
/// `reaction` holds the simulator credits of what the batch reacts to; see
/// [`apply_all`].
pub(crate) fn apply_batch(
    ctx: &Ctx,
    uids: &[String],
    state: TaskState,
    reaction: &Reaction,
) -> Vec<bool> {
    let span = ctx
        .recorder
        .span(entk_observe::components::SYNC, "apply")
        .with_payload(uids.len());
    let applied = apply_all(ctx, uids, state, reaction);
    let count = applied.iter().filter(|a| **a).count();
    ctx.transitions.fetch_add(count as u64, Ordering::Relaxed);
    if ctx.recorder.is_enabled() {
        let state = state.name();
        for (uid, _) in uids.iter().zip(&applied).filter(|(_, a)| **a) {
            ctx.recorder.record(
                entk_observe::components::SYNC,
                "transition",
                uid.as_str(),
                state,
            );
        }
    }
    drop(span);
    applied
}

/// Apply one transition on its own; returns whether it was applied. The
/// single-request form of [`apply_batch`], for the AppManager's cancel
/// sweep and unit tests; it leaves the run's transition count alone, which
/// counts what components request. It parks no credits.
pub(crate) fn apply_task(ctx: &Ctx, uid: &str, state: TaskState) -> bool {
    apply_all(ctx, &[uid], state, &Reaction::default())[0]
}

/// Apply the same transition to every uid under one workflow lock;
/// returns the applied flag of each, in order. Whoever waits on the run's
/// signal is woken once, after the lock is dropped, if any transition
/// asked for it; such a transition also parks `reaction` for Enqueue under
/// that lock, so an Enqueue that sees the tasks it made schedulable also
/// finds their credits. Each caller passes its own reaction: two pools'
/// Callback threads may settle at once.
fn apply_all(
    ctx: &Ctx,
    uids: &[impl AsRef<str>],
    state: TaskState,
    reaction: &Reaction,
) -> Vec<bool> {
    let mut wake = false;
    let mut wf = ctx.workflow.lock();
    let applied: Vec<bool> = uids
        .iter()
        .map(|uid| {
            let step = apply_locked(ctx, &mut wf, uid.as_ref(), state);
            wake |= step == Some(true);
            step.is_some()
        })
        .collect();
    if wake {
        ctx.park(reaction.clone());
    }
    drop(wf);
    if wake {
        ctx.wake();
    }
    // Per-state transition counters for the live exposition plane; there
    // are none when untraced.
    if let Some(counters) = &ctx.state_counters {
        let count = applied.iter().filter(|a| **a).count();
        counters[state as usize].add(count as u64);
    }
    applied
}

/// Apply one transition under the workflow lock: `None` if it was refused
/// (unknown uid, illegal transition), else whether it changed something a
/// parked thread waits for.
fn apply_locked(ctx: &Ctx, wf: &mut Workflow, uid: &str, state: TaskState) -> Option<bool> {
    let loc = wf.locate(uid)?;
    let stage = wf.stage_mut(loc);
    stage.advance_task(loc.task, state).ok()?;
    ctx.journal("task", uid, &stage.tasks()[loc.task].name, state.name());

    // Maintain the in-flight counter behind the Enqueue throttle: a task is
    // in flight from Scheduling until it settles or rejoins the pool.
    match state {
        TaskState::Scheduling => {
            ctx.in_flight.fetch_add(1, Ordering::Relaxed);
        }
        TaskState::Described | TaskState::Done | TaskState::Failed | TaskState::Canceled => {
            // Saturating decrement: recovery-forced states never underflow.
            let _ = ctx
                .in_flight
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
        }
        _ => {}
    }

    // Derive stage/pipeline consequences; the value is whether the
    // transition changed something a parked thread waits for.
    let wake = match state {
        TaskState::Scheduling => {
            let pipeline = &mut wf.pipelines_mut()[loc.pipeline];
            if pipeline.state() == PipelineState::Described {
                let uid = pipeline.uid().to_string();
                if pipeline.advance(PipelineState::Scheduling).is_ok() {
                    ctx.journal("pipeline", &uid, "", "scheduling");
                }
            }
            let stage = &mut pipeline.stages_mut()[loc.stage];
            match stage.state() {
                StageState::Described | StageState::Scheduled => {
                    let uid = stage.uid().to_string();
                    if stage.advance(StageState::Scheduling).is_ok() {
                        ctx.journal("stage", &uid, "", "scheduling");
                    }
                }
                _ => {}
            }
            false
        }
        TaskState::Scheduled => {
            let pipeline = &mut wf.pipelines_mut()[loc.pipeline];
            let stage = &mut pipeline.stages_mut()[loc.stage];
            if stage.state() == StageState::Scheduling && stage.tally().all_pushed() {
                let uid = stage.uid().to_string();
                if stage.advance(StageState::Scheduled).is_ok() {
                    ctx.journal("stage", &uid, "", "scheduled");
                }
            }
            false
        }
        TaskState::Done | TaskState::Failed | TaskState::Canceled => {
            // A settled stage advances its pipeline or ends it: Enqueue has
            // new tasks to tag or the AppManager a finished run to collect.
            // Under a concurrency cap every settled task frees a slot the
            // throttled Enqueue is parked for.
            let settled = settle_stage(ctx, wf, loc.pipeline, loc.stage);
            settled || ctx.concurrency_cap.load(Ordering::Relaxed) != usize::MAX
        }
        // Back in the pool: Enqueue must tag it again.
        TaskState::Described => true,
        _ => false,
    };
    Some(wake)
}

/// When all tasks of a stage are terminal, settle the stage and possibly the
/// pipeline; runs `post_exec` hooks on success. Returns whether the stage
/// settled.
fn settle_stage(ctx: &Ctx, wf: &mut Workflow, p: usize, s: usize) -> bool {
    let tally = {
        let stage = &mut wf.pipelines_mut()[p].stages_mut()[s];
        if stage.state().is_terminal() {
            return false;
        }
        let tally = stage.tally();
        if tally.terminal < stage.tasks().len() {
            return false;
        }
        tally
    };

    let next_stage_state = if tally.failed > 0 {
        StageState::Failed
    } else if tally.canceled > 0 {
        StageState::Canceled
    } else {
        StageState::Done
    };

    let pipeline = &mut wf.pipelines_mut()[p];
    let stage_uid = pipeline.stages()[s].uid().to_string();
    let hook = pipeline.stages()[s].post_exec();
    {
        let stage = &mut pipeline.stages_mut()[s];
        if stage.advance(next_stage_state).is_err() {
            return false;
        }
    }
    ctx.journal("stage", &stage_uid, "", next_stage_state.name());

    match next_stage_state {
        StageState::Done => {
            // Branching: the hook may append stages before we decide whether
            // the pipeline is exhausted. It runs on the requesting
            // component's thread, so a panicking hook fails the run instead
            // of killing that component and stranding the rest of it.
            let hooked = hook.is_some();
            if let Some(hook) = hook {
                if panic::catch_unwind(AssertUnwindSafe(|| hook(pipeline))).is_err() {
                    ctx.fail_fatal(format!("post_exec hook of stage {stage_uid} panicked"));
                    return true;
                }
            }
            let puid = pipeline.uid().to_string();
            if pipeline.advance_stage() {
                // More stages to run; reindex if the hook may have added
                // tasks. Without one the index stands, and rebuilding it —
                // every task of the pipeline — would cost each stage hop
                // time linear in the pipeline's length.
                if hooked {
                    wf.reindex_pipeline(p);
                }
            } else if wf.pipelines_mut()[p].advance(PipelineState::Done).is_ok() {
                ctx.journal("pipeline", &puid, "", "done");
            }
        }
        StageState::Failed => {
            let puid = pipeline.uid().to_string();
            if pipeline.advance(PipelineState::Failed).is_ok() {
                ctx.journal("pipeline", &puid, "", "failed");
            }
            cascade_cancellations(ctx, wf);
        }
        StageState::Canceled => {
            let puid = pipeline.uid().to_string();
            if pipeline.advance(PipelineState::Canceled).is_ok() {
                ctx.journal("pipeline", &puid, "", "canceled");
            }
            cascade_cancellations(ctx, wf);
        }
        _ => unreachable!("settle states are terminal"),
    }
    true
}

/// A failed/canceled pipeline poisons every pipeline depending on it: those
/// can never start, so they are canceled (otherwise the run never reaches
/// completion).
fn cascade_cancellations(ctx: &Ctx, wf: &mut Workflow) {
    for uid in wf.cancel_broken_dependents() {
        ctx.journal("pipeline", &uid, "", "canceled");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appmanager::Ctx;
    use crate::pipeline::Pipeline;
    use crate::stage::{Stage, StageTally};
    use crate::task::Task;
    use crate::workflow::Workflow;
    use proptest::prelude::*;
    use rp_rts::Executable;
    use std::sync::Arc;

    fn ctx_for(wf: Workflow) -> Arc<Ctx> {
        Ctx::for_tests(wf)
    }

    fn wf_single(names: &[&str]) -> (Workflow, Vec<String>) {
        let mut stage = Stage::new("s0");
        let mut uids = vec![];
        for n in names {
            let t = Task::new(*n, Executable::Noop);
            uids.push(t.uid().to_string());
            stage.add_task(t);
        }
        let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
        (wf, uids)
    }

    fn drive(ctx: &Ctx, uid: &str, states: &[TaskState]) {
        for s in states {
            assert!(
                apply_task(ctx, uid, *s),
                "transition to {s} rejected for {uid}"
            );
        }
    }

    const FULL: [TaskState; 6] = [
        TaskState::Scheduling,
        TaskState::Scheduled,
        TaskState::Submitting,
        TaskState::Submitted,
        TaskState::Executed,
        TaskState::Done,
    ];

    #[test]
    fn task_completion_settles_stage_and_pipeline() {
        let (wf, uids) = wf_single(&["a", "b"]);
        let ctx = ctx_for(wf);
        drive(&ctx, &uids[0], &FULL);
        {
            let wf = ctx.workflow.lock();
            assert_eq!(wf.pipelines()[0].state(), PipelineState::Scheduling);
            assert!(!wf.pipelines()[0].stages()[0].state().is_terminal());
        }
        drive(&ctx, &uids[1], &FULL);
        let wf = ctx.workflow.lock();
        assert_eq!(wf.pipelines()[0].stages()[0].state(), StageState::Done);
        assert_eq!(wf.pipelines()[0].state(), PipelineState::Done);
        assert!(wf.is_complete());
    }

    #[test]
    fn failed_task_fails_stage_and_pipeline() {
        let (wf, uids) = wf_single(&["a"]);
        let ctx = ctx_for(wf);
        drive(
            &ctx,
            &uids[0],
            &[
                TaskState::Scheduling,
                TaskState::Scheduled,
                TaskState::Submitting,
                TaskState::Submitted,
                TaskState::Executed,
                TaskState::Failed,
            ],
        );
        let wf = ctx.workflow.lock();
        assert_eq!(wf.pipelines()[0].stages()[0].state(), StageState::Failed);
        assert_eq!(wf.pipelines()[0].state(), PipelineState::Failed);
    }

    #[test]
    fn resubmission_reopens_stage() {
        let (wf, uids) = wf_single(&["a"]);
        let ctx = ctx_for(wf);
        drive(
            &ctx,
            &uids[0],
            &[
                TaskState::Scheduling,
                TaskState::Scheduled,
                TaskState::Submitting,
                TaskState::Submitted,
                TaskState::Executed,
                TaskState::Described, // resubmit
            ],
        );
        {
            let wf = ctx.workflow.lock();
            assert!(!wf.pipelines()[0].stages()[0].state().is_terminal());
            assert_eq!(wf.schedulable_tasks(), vec![uids[0].clone()]);
        }
        drive(&ctx, &uids[0], &FULL);
        let wf = ctx.workflow.lock();
        assert!(wf.is_complete());
        assert_eq!(wf.task(&uids[0]).unwrap().attempts(), 2);
    }

    #[test]
    fn stage_done_advances_to_next_stage() {
        let t0 = Task::new("a", Executable::Noop);
        let t1 = Task::new("b", Executable::Noop);
        let uid0 = t0.uid().to_string();
        let uid1 = t1.uid().to_string();
        let wf = Workflow::new().with_pipeline(
            Pipeline::new("p")
                .with_stage(Stage::new("s0").with_task(t0))
                .with_stage(Stage::new("s1").with_task(t1)),
        );
        let ctx = ctx_for(wf);
        drive(&ctx, &uid0, &FULL);
        {
            let wf = ctx.workflow.lock();
            assert_eq!(wf.pipelines()[0].current_stage(), 1);
            assert_eq!(wf.schedulable_tasks(), vec![uid1.clone()]);
            assert!(!wf.is_complete());
        }
        drive(&ctx, &uid1, &FULL);
        assert!(ctx.workflow.lock().is_complete());
    }

    #[test]
    fn post_exec_hook_appends_stage() {
        use std::sync::atomic::AtomicUsize;
        let counter = Arc::new(AtomicUsize::new(0));
        let t0 = Task::new("first", Executable::Noop);
        let uid0 = t0.uid().to_string();
        let c2 = Arc::clone(&counter);
        let stage = Stage::new("s0").with_task(t0).with_post_exec(move |p| {
            // Append one extra stage the first time only.
            if c2.fetch_add(1, Ordering::SeqCst) == 0 {
                p.add_stage(Stage::new("grown").with_task(Task::new("second", Executable::Noop)));
            }
        });
        let wf = Workflow::new().with_pipeline(Pipeline::new("adaptive").with_stage(stage));
        let ctx = ctx_for(wf);
        drive(&ctx, &uid0, &FULL);
        let second_uid = {
            let wf = ctx.workflow.lock();
            assert_eq!(wf.pipelines()[0].stages().len(), 2);
            assert!(!wf.is_complete());
            let sched = wf.schedulable_tasks();
            assert_eq!(sched.len(), 1);
            sched[0].clone()
        };
        drive(&ctx, &second_uid, &FULL);
        assert!(ctx.workflow.lock().is_complete());
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    /// A stage-addressed step of the tally property test.
    #[derive(Debug, Clone)]
    enum Step {
        /// Advance the `pick`-th task (all tasks, in PST order): `choice` 0
        /// cancels it, 1 resubmits or fails it, 2 fails it, anything else
        /// moves it one step towards `Done`, so most walks settle stages.
        /// A task with no legal move gets an illegal one.
        Advance { pick: usize, choice: usize },
        /// Replay a journal recovery of the tasks whose bit is set.
        Recover(u64),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            60 => (0usize..64, 0usize..16).prop_map(|(pick, choice)| Step::Advance { pick, choice }),
            // Sparse masks: recover about a quarter of the tasks.
            1 => (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(a, b)| Step::Recover(a & b)),
        ]
    }

    /// Three pipelines: one whose `post_exec` hook appends a stage, one that
    /// may fail, and one that depends on it (a failure cascades a cancel).
    fn tally_workflow(sizes: (usize, usize, usize)) -> Workflow {
        let tasks = |prefix: &str, n: usize| {
            (0..n)
                .map(|i| Task::new(format!("{prefix}.t{i}"), Executable::Noop))
                .collect::<Vec<_>>()
        };
        let grows = Pipeline::new("grows").with_stage(
            Stage::new("grows.s0")
                .with_tasks(tasks("grows.s0", sizes.0))
                .with_post_exec(|p| {
                    if p.stages().len() == 1 {
                        p.add_stage(Stage::new("grown").with_tasks(
                            (0..2).map(|i| Task::new(format!("grown.t{i}"), Executable::Noop)),
                        ));
                    }
                }),
        );
        let upstream = Pipeline::new("upstream")
            .with_stage(Stage::new("upstream.s0").with_tasks(tasks("upstream.s0", sizes.1)));
        let downstream = Pipeline::new("downstream")
            .after(&upstream)
            .with_stage(Stage::new("downstream.s0").with_tasks(tasks("downstream.s0", sizes.2)));
        Workflow::new()
            .with_pipeline(grows)
            .with_pipeline(upstream)
            .with_pipeline(downstream)
    }

    /// Every state the workflow exposes, addressed by name (a hook builds
    /// fresh uids in each copy), plus what Enqueue would tag next.
    fn observed(wf: &Workflow) -> Vec<String> {
        let mut out = Vec::new();
        for p in wf.pipelines() {
            out.push(format!("{} {} @{}", p.name, p.state(), p.current_stage()));
            for s in p.stages() {
                out.push(format!("  {} {}", s.name, s.state()));
                for t in s.tasks() {
                    out.push(format!("    {} {} x{}", t.name, t.state(), t.attempts()));
                }
            }
        }
        let mut ready: Vec<&str> = wf
            .schedulable_tasks()
            .iter()
            .map(|u| wf.task(u).unwrap().name())
            .collect();
        ready.sort();
        out.push(format!("ready {ready:?}"));
        out
    }

    /// The tally by brute force, sharing no code with `StageTally`.
    fn recount(stage: &Stage) -> StageTally {
        let n =
            |f: &dyn Fn(TaskState) -> bool| stage.tasks().iter().filter(|t| f(t.state())).count();
        StageTally {
            described: n(&|s| s == TaskState::Described),
            in_scheduling: n(&|s| s == TaskState::Scheduling),
            terminal: n(&|s| {
                matches!(s, TaskState::Done | TaskState::Failed | TaskState::Canceled)
            }),
            failed: n(&|s| s == TaskState::Failed),
            canceled: n(&|s| s == TaskState::Canceled),
        }
    }

    fn task_uids(wf: &Workflow) -> Vec<String> {
        wf.pipelines()
            .iter()
            .flat_map(|p| p.stages())
            .flat_map(|s| s.tasks())
            .map(|t| t.uid().to_string())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random transition sequences through the synchronizer: the
        /// maintained tally always equals a recount of its stage, and the
        /// stage/pipeline states equal those of a twin run whose tallies are
        /// dropped before every step — a recount at each use, which is
        /// exactly what the old per-transition scans computed.
        #[test]
        fn stage_tally_matches_recount(
            sizes in (1usize..4, 1usize..4, 1usize..3),
            steps in proptest::collection::vec(step_strategy(), 1..200),
        ) {
            let wf = tally_workflow(sizes);
            let tallied = ctx_for(wf.clone());
            let scanned = ctx_for(wf);
            for step in steps {
                match step {
                    Step::Advance { pick, choice } => {
                        let (a, next) = {
                            let wf = tallied.workflow.lock();
                            let uids = task_uids(&wf);
                            let uid = uids[pick % uids.len()].clone();
                            let from = wf.task(&uid).unwrap().state();
                            let prefer: &[TaskState] = match choice {
                                0 => &[TaskState::Canceled],
                                1 => &[TaskState::Described, TaskState::Failed],
                                2 => &[TaskState::Failed],
                                _ => &[],
                            };
                            let next = prefer
                                .iter()
                                .chain(&FULL)
                                .copied()
                                .find(|s| from.can_transition_to(*s))
                                .unwrap_or(TaskState::Scheduling);
                            (uid, next)
                        };
                        let b = {
                            let mut wf = scanned.workflow.lock();
                            for p in wf.pipelines_mut() {
                                for stage in p.stages_mut() {
                                    stage.tasks_mut(); // drop the tally
                                }
                            }
                            let uids = task_uids(&wf);
                            uids[pick % uids.len()].clone()
                        };
                        prop_assert_eq!(
                            apply_task(&tallied, &a, next),
                            apply_task(&scanned, &b, next),
                            "applied flags differ for {}", next
                        );
                    }
                    Step::Recover(mask) => {
                        for ctx in [&tallied, &scanned] {
                            let mut wf = ctx.workflow.lock();
                            let done: std::collections::HashSet<String> = wf
                                .pipelines()
                                .iter()
                                .flat_map(|p| p.stages())
                                .flat_map(|s| s.tasks())
                                .enumerate()
                                .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
                                .map(|(_, t)| t.name.clone())
                                .collect();
                            crate::appmanager::recover_completed(&mut wf, &done);
                        }
                    }
                }
                let wf = tallied.workflow.lock();
                for stage in wf.pipelines().iter().flat_map(|p| p.stages()) {
                    if let Some(tally) = stage.cached_tally() {
                        prop_assert_eq!(tally, recount(stage), "stage {}", stage.name);
                    }
                }
                prop_assert_eq!(observed(&wf), observed(&scanned.workflow.lock()));
            }
        }
    }

    /// A 64-uid `sync_tasks` is one apply under one lock, answered in
    /// request order: the unknown uid and the illegal transition in the
    /// middle are refused, every other uid applied.
    #[test]
    fn a_sync_batch_is_one_apply_answered_in_request_order() {
        let names: Vec<String> = (0..63).map(|i| format!("t{i}")).collect();
        let (wf, uids) = wf_single(&names.iter().map(String::as_str).collect::<Vec<_>>());
        let ctx = ctx_for(wf);
        let applies = || ctx.recorder.metrics().histogram("span.sync.apply").count();
        // Already Scheduling: asking for Scheduling again is illegal.
        assert_eq!(ctx.sync_tasks(&uids[62..], TaskState::Scheduling), [true]);
        let before = applies();
        let mut batch = uids[..31].to_vec();
        batch.push("task.999999".into());
        batch.push(uids[62].clone());
        batch.extend_from_slice(&uids[31..62]);
        assert_eq!(batch.len(), 64);
        let applied = ctx.sync_tasks(&batch, TaskState::Scheduling);
        assert_eq!(applies() - before, 1, "one apply per sync batch");
        let want: Vec<bool> = (0..64).map(|i| i != 31 && i != 32).collect();
        assert_eq!(applied, want);
        assert_eq!(ctx.workflow.lock().count_in(TaskState::Scheduling), 63);
        assert_eq!(ctx.transitions.load(Ordering::Relaxed), 63);
    }

    #[test]
    fn unknown_uid_rejected() {
        let (wf, _) = wf_single(&["a"]);
        let ctx = ctx_for(wf);
        assert!(!apply_task(&ctx, "task.999999", TaskState::Scheduling));
    }

    #[test]
    fn invalid_transition_rejected_without_side_effects() {
        let (wf, uids) = wf_single(&["a"]);
        let ctx = ctx_for(wf);
        assert!(!apply_task(&ctx, &uids[0], TaskState::Done));
        let wf = ctx.workflow.lock();
        assert_eq!(wf.task(&uids[0]).unwrap().state(), TaskState::Described);
        assert_eq!(wf.pipelines()[0].state(), PipelineState::Described);
    }
}
