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
//! workflow lock, journals every applied transition, and acknowledges the
//! requester.

use crate::appmanager::Ctx;
use crate::messages::{self, parse_sync, UNTIL_CLOSED};
use crate::states::{PipelineState, StageState, TaskState};
use crate::uid::Kind;
use entk_mq::Message;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Spawn the Synchronizer: one drainer thread per sync-queue shard. The
/// sync plane is sharded per requesting component
/// ([`crate::messages::QueueNamespace::sync_shard`]), so each drainer owns
/// one component's FIFO with its own cumulative-ack cursor and the shards
/// settle in parallel — transitions still serialize on the workflow lock,
/// but queue drains, acks and journal appends do not. Ordering within a
/// component (the only ordering [`Ctx::sync_tasks`] relies on) is preserved
/// because a component's requests all land on its own shard; ordering
/// *across* components was never guaranteed — each component publishes and
/// then waits for its acks, so cross-component happens-before is enforced
/// at the application layer, not by queue position.
pub(crate) fn spawn(ctx: Arc<Ctx>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("entk-synchronizer".into())
        .spawn(move || {
            let shards: Vec<String> = ctx.ns.sync_shards().to_vec();
            let mut drainers = Vec::with_capacity(shards.len());
            for (i, queue) in shards.into_iter().enumerate() {
                let ctx = Arc::clone(&ctx);
                drainers.push(
                    std::thread::Builder::new()
                        .name(format!("entk-sync-{i}"))
                        .spawn(move || {
                            if ctx.batched {
                                run_batched(ctx, &queue)
                            } else {
                                run(ctx, &queue)
                            }
                        })
                        .expect("spawn sync drainer"),
                );
            }
            for d in drainers {
                let _ = d.join();
            }
        })
        .expect("spawn synchronizer")
}

/// Batched fast path: drain one sync shard in one broker call, apply every
/// transition in one pass (one recorder span per batch), settle the batch
/// with one cumulative ack, and publish the acknowledgements grouped per
/// requesting component — within a component the order matches the
/// requests, which is what [`Ctx::sync_tasks`] relies on. (A shard carries
/// one component's requests by construction; the grouping also tolerates
/// custom components routed onto a shared fallback name.)
fn run_batched(ctx: Arc<Ctx>, sync_queue: &str) {
    // Until the shard closes, not until the run flag clears: tear-down joins
    // the requesters first, and their last round-trips need a live drainer.
    loop {
        let max_batch = ctx.exec.batch_limit();
        let batch = match ctx.broker.get_batch(sync_queue, max_batch, UNTIL_CLOSED) {
            Ok(b) if !b.is_empty() => b,
            Ok(_) => continue,
            Err(_) => break, // queue closed: shutting down
        };
        let t0 = Instant::now();
        let span = ctx
            .recorder
            .span(entk_observe::components::SYNC, "apply")
            .with_payload(batch.len().to_string());
        let mut acks: Vec<(String, Vec<Message>)> = Vec::new();
        for d in &batch {
            let Some(req) = parse_sync(&d.message) else {
                continue;
            };
            let ok = apply(&ctx, &req);
            if ok {
                ctx.recorder.record(
                    entk_observe::components::SYNC,
                    "transition",
                    req.uid.clone(),
                    req.state.clone(),
                );
            }
            let msg = messages::ack_message(&req.uid, ok);
            match acks.iter_mut().find(|(c, _)| *c == req.component) {
                Some((_, msgs)) => msgs.push(msg),
                None => acks.push((req.component, vec![msg])),
            }
        }
        // This drainer is its shard's only consumer: one cumulative ack —
        // the per-shard ack cursor — settles the whole batch.
        let boundary = batch.last().expect("non-empty batch").tag;
        let _ = ctx.broker.ack_multiple(sync_queue, boundary);
        for (comp, msgs) in acks {
            let _ = ctx.broker.publish_batch(&ctx.ns.ack(&comp), msgs);
        }
        drop(span);
        ctx.profiler.add_management(t0.elapsed());
    }
}

fn run(ctx: Arc<Ctx>, sync_queue: &str) {
    loop {
        let delivery = match ctx.broker.get_timeout(sync_queue, UNTIL_CLOSED) {
            Ok(Some(d)) => d,
            Ok(None) => continue,
            Err(_) => break, // queue closed: shutting down
        };
        let t0 = Instant::now();
        let Some(req) = parse_sync(&delivery.message) else {
            let _ = ctx.broker.ack(sync_queue, delivery.tag);
            continue;
        };
        // Transition latency: request dequeued → applied → acknowledged
        // (histogram span.sync.apply gives p50/p95/p99).
        let span = ctx
            .recorder
            .span(entk_observe::components::SYNC, "apply")
            .with_uid(req.uid.clone())
            .with_payload(req.state.clone());
        let ok = apply(&ctx, &req);
        if ok {
            ctx.recorder.record(
                entk_observe::components::SYNC,
                "transition",
                req.uid.clone(),
                req.state.clone(),
            );
        }
        let _ = ctx.broker.ack(sync_queue, delivery.tag);
        let _ = ctx.broker.publish(
            &ctx.ns.ack(&req.component),
            messages::ack_message(&req.uid, ok),
        );
        drop(span);
        ctx.profiler.add_management(t0.elapsed());
    }
}

/// Apply one transition request; returns whether it was applied.
fn apply(ctx: &Ctx, req: &messages::SyncRequest) -> bool {
    match req.kind {
        Kind::Task => {
            let Some(state) = TaskState::parse(&req.state) else {
                return false;
            };
            apply_task(ctx, &req.uid, state)
        }
        // Direct stage/pipeline requests are accepted for completeness (the
        // API layer may cancel whole pipelines) but the normal flow derives
        // them from task transitions.
        Kind::Stage | Kind::Pipeline => false,
    }
}

pub(crate) fn apply_task(ctx: &Ctx, uid: &str, state: TaskState) -> bool {
    let mut wf = ctx.workflow.lock();
    let Some((loc, task)) = wf.task_mut(uid) else {
        return false;
    };
    let name = task.name.clone();
    if task.advance(state).is_err() {
        return false;
    }
    ctx.journal("task", uid, &name, state.name());
    ctx.profiler.count_transition();
    // Per-state transition counters (`task.state.<state>`) for the live
    // exposition plane; skipped when untraced to keep the hot path lean.
    if ctx.recorder.is_enabled() {
        ctx.recorder
            .metrics()
            .counter(&format!("task.state.{}", state.name()))
            .incr();
    }

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
            let all_pushed = stage
                .tasks()
                .iter()
                .all(|t| !matches!(t.state(), TaskState::Described | TaskState::Scheduling));
            if all_pushed && stage.state() == StageState::Scheduling {
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
            let settled = settle_stage(ctx, &mut wf, loc.pipeline, loc.stage);
            settled || ctx.concurrency_cap.load(Ordering::Relaxed) != usize::MAX
        }
        // Back in the pool: Enqueue must tag it again.
        TaskState::Described => true,
        _ => false,
    };
    drop(wf);
    if wake {
        ctx.wake();
    }
    true
}

/// When all tasks of a stage are terminal, settle the stage and possibly the
/// pipeline; runs `post_exec` hooks on success. Returns whether the stage
/// settled.
fn settle_stage(ctx: &Ctx, wf: &mut crate::workflow::Workflow, p: usize, s: usize) -> bool {
    let (stage_done, any_failed, any_canceled) = {
        let stage = &wf.pipelines()[p].stages()[s];
        if stage.state().is_terminal() {
            return false;
        }
        let mut any_failed = false;
        let mut any_canceled = false;
        let mut all_terminal = true;
        for t in stage.tasks() {
            match t.state() {
                TaskState::Done => {}
                TaskState::Failed => any_failed = true,
                TaskState::Canceled => any_canceled = true,
                _ => {
                    all_terminal = false;
                    break;
                }
            }
        }
        (all_terminal, any_failed, any_canceled)
    };
    if !stage_done {
        return false;
    }

    let next_stage_state = if any_failed {
        StageState::Failed
    } else if any_canceled {
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
            // the pipeline is exhausted.
            if let Some(hook) = hook {
                hook(pipeline);
            }
            let puid = pipeline.uid().to_string();
            if pipeline.advance_stage() {
                // More stages to run; reindex in case the hook added tasks.
                wf.reindex_pipeline(p);
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
fn cascade_cancellations(ctx: &Ctx, wf: &mut crate::workflow::Workflow) {
    for uid in wf.cancel_broken_dependents() {
        ctx.journal("pipeline", &uid, "", "canceled");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appmanager::Ctx;
    use crate::pipeline::Pipeline;
    use crate::stage::Stage;
    use crate::task::Task;
    use crate::workflow::Workflow;
    use rp_rts::Executable;

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
