//! The WFProcessor: Enqueue and Dequeue subcomponents (Fig. 2).
//!
//! *Enqueue* "initiates the execution by ... tagging tasks for execution"
//! and "pushes these tasks to the Pending queue" (arrow 1). *Dequeue* "pulls
//! completed tasks (arrow 5) and tags them as done, failed or canceled,
//! depending on the return code from the RTS" — and, per the fault-tolerance
//! requirements (§II-A), resubmits failed tasks within their retry budget.

use crate::appmanager::{Ctx, ExecutionStrategy};
use crate::messages::{self, component, AttemptOutcome, UNTIL_CLOSED};
use crate::states::TaskState;
use entk_mq::Message;
use entk_observe::{components as obs, hops, TraceCtx};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Spawn the Enqueue thread.
pub(crate) fn spawn_enqueue(ctx: Arc<Ctx>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("entk-enqueue".into())
        .spawn(move || enqueue_loop(ctx))
        .expect("spawn enqueue")
}

/// Spawn the Dequeue thread.
pub(crate) fn spawn_dequeue(ctx: Arc<Ctx>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("entk-dequeue".into())
        .spawn(move || dequeue_loop(ctx))
        .expect("spawn dequeue")
}

/// Whether Enqueue should stop tagging: the run ended or was canceled.
fn standing_down(ctx: &Ctx) -> bool {
    !ctx.running.load(Ordering::Acquire) || ctx.cancel.is_canceled()
}

fn enqueue_loop(ctx: Arc<Ctx>) {
    loop {
        // Park until there are tasks to tag: the Synchronizer notifies when
        // a stage advances or a task rejoins the pool, `Ctx::stop` and
        // `CancelToken::cancel` when they are called.
        let mut ready = Vec::new();
        ctx.cancel.signal().wait_until(None, || {
            if standing_down(&ctx) {
                return true;
            }
            ready = ctx.workflow.lock().schedulable_tasks();
            !ready.is_empty()
        });
        if standing_down(&ctx) {
            // Cooperative cancellation: stop tagging new work; the
            // AppManager's cancel sweep settles everything already in
            // flight.
            return;
        }
        let t0 = Instant::now();
        let span = ctx
            .recorder
            .span(obs::ENQ, "batch")
            .with_payload(ready.len().to_string());
        let alive = if ctx.batched {
            enqueue_batched(&ctx, &ready)
        } else {
            enqueue_per_task(&ctx, &ready)
        };
        drop(span);
        ctx.profiler.add_management(t0.elapsed());
        if !alive {
            return;
        }
    }
}

/// Batched fast path: tag a chunk of ready tasks Scheduling → Scheduled
/// with two bulk sync round-trips and make the chunk visible to the Emgr as
/// one batched Pending publish. Chunks are sized by the free concurrency
/// budget so the execution-strategy throttle still holds. `Scheduled` is
/// synchronized *before* the publish so the Emgr can never see a task that
/// is still mid-transition. Returns whether the loop should keep running.
fn enqueue_batched(ctx: &Ctx, ready: &[String]) -> bool {
    let max_batch = ctx.exec.batch_limit();
    let mut idx = 0;
    while idx < ready.len() {
        // Throttle: wait for a free slot under the concurrency cap (every
        // task that settles under a cap notifies).
        let mut free = 0;
        ctx.cancel.signal().wait_until(None, || {
            free = ctx
                .concurrency_cap
                .load(Ordering::Relaxed)
                .saturating_sub(ctx.in_flight.load(Ordering::Relaxed));
            free > 0 || standing_down(ctx)
        });
        if standing_down(ctx) {
            return false;
        }
        let chunk = &ready[idx..(idx + free.min(max_batch)).min(ready.len())];
        idx += chunk.len();
        let scheduling = ctx.sync_tasks(component::ENQUEUE, chunk, TaskState::Scheduling);
        let chunk: Vec<String> = chunk
            .iter()
            .zip(scheduling)
            .filter(|(_, ok)| *ok)
            .map(|(uid, _)| uid.clone())
            .collect();
        let scheduled = ctx.sync_tasks(component::ENQUEUE, &chunk, TaskState::Scheduled);
        let pending: Vec<Message> = chunk
            .iter()
            .zip(scheduled)
            .filter(|(_, ok)| *ok)
            .map(|(uid, _)| traced_pending_message(ctx, uid))
            .collect();
        if !pending.is_empty() {
            let _ = ctx.broker.publish_batch(ctx.ns.pending(), pending);
        }
    }
    true
}

/// The paper's per-task data path: two sync round-trips and one publish per
/// task. Returns whether the loop should keep running.
fn enqueue_per_task(ctx: &Ctx, ready: &[String]) -> bool {
    for uid in ready {
        // Execution-strategy throttle: hold the task back while the
        // in-flight count sits at the concurrency cap (every task that
        // settles under a cap notifies).
        ctx.cancel.signal().wait_until(None, || {
            ctx.in_flight.load(Ordering::Relaxed) < ctx.concurrency_cap.load(Ordering::Relaxed)
                || standing_down(ctx)
        });
        if standing_down(ctx) {
            return false;
        }
        // Tag for execution, then make visible to the Emgr. `Scheduled`
        // is synchronized *before* the publish so the Emgr can never see
        // a task that is still mid-transition.
        if !ctx.sync_task(component::ENQUEUE, uid, TaskState::Scheduling) {
            continue;
        }
        if !ctx.sync_task(component::ENQUEUE, uid, TaskState::Scheduled) {
            continue;
        }
        let _ = ctx
            .broker
            .publish(ctx.ns.pending(), traced_pending_message(ctx, uid));
    }
    true
}

/// Pending-queue message for a tagged task, with the causal trace's first
/// hop stamped when tracing is on. Untraced runs publish the plain message —
/// the whole trace plane costs nothing when the recorder is disabled.
fn traced_pending_message(ctx: &Ctx, uid: &str) -> Message {
    let msg = messages::pending_message(uid);
    if !ctx.recorder.is_enabled() {
        return msg;
    }
    // Wire-submitted runs seed every per-task timeline from the gateway's
    // hops (wire_recv → … → journal_appended), so CriticalPath and the
    // trace store cover the full wire-to-sync path.
    let trace = match &ctx.base_trace {
        Some(base) => TraceCtx::from_base(uid, base),
        None => TraceCtx::new(uid),
    }
    .with_hop(obs::ENQ, hops::ENQUEUE, ctx.recorder.now_ns());
    msg.with_trace(&trace)
}

fn dequeue_loop(ctx: Arc<Ctx>) {
    while ctx.running.load(Ordering::Acquire) {
        if ctx.batched {
            let max_batch = ctx.exec.batch_limit();
            let batch = match ctx.broker.get_batch(ctx.ns.done(), max_batch, UNTIL_CLOSED) {
                Ok(b) if !b.is_empty() => b,
                Ok(_) => continue,
                Err(_) => break,
            };
            let t0 = Instant::now();
            let span = ctx
                .recorder
                .span(obs::DEQ, "handle")
                .with_payload(batch.len().to_string());
            for d in &batch {
                let (uid, outcome) = messages::parse_done(&d.message);
                handle_outcome(&ctx, &uid, outcome, dequeued_trace(&ctx, &d.message));
            }
            // Dequeue is the Done queue's only consumer, so one cumulative
            // ack settles the whole batch.
            let boundary = batch.last().expect("non-empty batch").tag;
            let _ = ctx.broker.ack_multiple(ctx.ns.done(), boundary);
            drop(span);
            ctx.profiler.add_management(t0.elapsed());
        } else {
            let delivery = match ctx.broker.get_timeout(ctx.ns.done(), UNTIL_CLOSED) {
                Ok(Some(d)) => d,
                Ok(None) => continue,
                Err(_) => break,
            };
            let t0 = Instant::now();
            let (uid, outcome) = messages::parse_done(&delivery.message);
            let span = ctx.recorder.span(obs::DEQ, "handle").with_uid(uid.clone());
            handle_outcome(&ctx, &uid, outcome, dequeued_trace(&ctx, &delivery.message));
            let _ = ctx.broker.ack(ctx.ns.done(), delivery.tag);
            drop(span);
            ctx.profiler.add_management(t0.elapsed());
        }
    }
}

/// AIMD adaptation of the concurrency cap (AdaptiveConcurrency strategy):
/// halve on failure, add one back per success.
fn adapt_cap(ctx: &Ctx, success: bool) {
    let ExecutionStrategy::AdaptiveConcurrency { initial, min } = ctx.strategy else {
        return;
    };
    let _ = ctx
        .concurrency_cap
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cap| {
            Some(if success {
                (cap + 1).min(initial.max(1))
            } else {
                (cap / 2).max(min.max(1))
            })
        });
}

/// Pull the accumulated causal trace off a Done-queue delivery and stamp
/// the dequeue hop. `None` when tracing is off or the message carries no
/// trace (e.g. heartbeat Lost sweeps).
fn dequeued_trace(ctx: &Ctx, message: &Message) -> Option<TraceCtx> {
    if !ctx.recorder.is_enabled() {
        return None;
    }
    let mut trace = message.trace()?;
    trace.hop(obs::DEQ, hops::DEQUEUE, ctx.recorder.now_ns());
    Some(trace)
}

/// Apply the attempt's settling transition, stamp the final `synced` hop,
/// and fold the completed timeline into the run's critical-path aggregate.
/// Only `Done` timelines are folded: a canceled or failpoint-killed attempt
/// carries a *partial* hop list (it never reached the stages it skipped),
/// and folding it would understate per-stage residency means — SLO burn
/// rates and stall thresholds derive from those means, so the aggregate
/// must describe completed work only.
fn settle(ctx: &Ctx, uid: &str, state: TaskState, trace: Option<TraceCtx>) {
    ctx.sync_task(component::DEQUEUE, uid, state);
    let Some(mut trace) = trace else { return };
    trace.hop(obs::SYNC, hops::SYNCED, ctx.recorder.now_ns());
    let outcome = match state {
        TaskState::Done => {
            ctx.critical_path.lock().add(&trace);
            "done"
        }
        TaskState::Canceled => "canceled",
        _ => "failed",
    };
    // Failed/canceled timelines skip the aggregate (partial hop lists would
    // understate residency means) but still reach the trace store: tail
    // sampling always keeps non-success outcomes for postmortems.
    if let Some(store) = &ctx.trace_store {
        store.offer(&trace, outcome, Some(ctx.recorder.metrics()));
    }
}

/// Decide a task's fate from its attempt outcome.
fn handle_outcome(ctx: &Ctx, uid: &str, outcome: AttemptOutcome, trace: Option<TraceCtx>) {
    match outcome {
        AttemptOutcome::Done => {
            ctx.profiler.count_attempt_done();
            ctx.recorder.record(obs::DEQ, "attempt_done", uid, "");
            adapt_cap(ctx, true);
            settle(ctx, uid, TaskState::Done, trace);
        }
        AttemptOutcome::Failed(reason) => {
            ctx.profiler.count_attempt_failed();
            ctx.recorder
                .record(obs::DEQ, "attempt_failed", uid, reason.clone());
            adapt_cap(ctx, false);
            let (attempts, budget) = {
                let mut wf = ctx.workflow.lock();
                match wf.task_mut(uid) {
                    Some((_, task)) => {
                        task.last_error = Some(reason.clone());
                        (
                            task.attempts(),
                            task.max_retries.unwrap_or(ctx.default_retries),
                        )
                    }
                    None => return,
                }
            };
            // `attempts` counts executions so far; a budget of N retries
            // allows N+1 executions in total. `None` = unlimited. A canceled
            // run stops retrying: the attempt settles to Canceled.
            let may_retry = !ctx.cancel.is_canceled() && budget.is_none_or(|n| attempts <= n);
            if may_retry {
                // Retried attempts don't settle: the re-enqueue starts a
                // fresh timeline, so the partial trace is dropped.
                ctx.sync_task(component::DEQUEUE, uid, TaskState::Described);
            } else if ctx.cancel.is_canceled() {
                settle(ctx, uid, TaskState::Canceled, trace);
            } else {
                settle(ctx, uid, TaskState::Failed, trace);
            }
        }
        AttemptOutcome::Canceled => {
            // A canceled attempt usually means the pilot died under the
            // task (walltime, CI failure). Treat it like a failed attempt:
            // retry within budget, cancel terminally otherwise.
            ctx.profiler.count_attempt_failed();
            ctx.recorder
                .record(obs::DEQ, "attempt_failed", uid, "canceled");
            let (attempts, budget) = {
                let wf = ctx.workflow.lock();
                match wf.task(uid) {
                    Some(task) => (
                        task.attempts(),
                        task.max_retries.unwrap_or(ctx.default_retries),
                    ),
                    None => return,
                }
            };
            let may_retry = !ctx.cancel.is_canceled() && budget.is_none_or(|n| attempts <= n);
            if may_retry {
                ctx.sync_task(component::DEQUEUE, uid, TaskState::Described);
            } else {
                settle(ctx, uid, TaskState::Canceled, trace);
            }
        }
        AttemptOutcome::Lost => {
            // Lost to an RTS failure: re-execute without consuming budget
            // ("without restarting completed tasks" — only in-flight work
            // is redone).
            ctx.profiler.count_attempt_failed();
            ctx.recorder.record(obs::DEQ, "attempt_failed", uid, "lost");
            if ctx.cancel.is_canceled() {
                settle(ctx, uid, TaskState::Canceled, trace);
            } else {
                ctx.sync_task(component::DEQUEUE, uid, TaskState::Described);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::stage::Stage;
    use crate::task::Task;
    use crate::workflow::Workflow;
    use rp_rts::Executable;

    /// Drive a uid through the pre-execution states via the test Ctx's
    /// in-line synchronizer.
    fn to_executed(ctx: &Ctx, uid: &str) {
        for s in [
            TaskState::Scheduling,
            TaskState::Scheduled,
            TaskState::Submitting,
            TaskState::Submitted,
            TaskState::Executed,
        ] {
            assert!(ctx.sync_task("test", uid, s));
        }
    }

    fn single_task_ctx(retries: Option<u32>) -> (Arc<Ctx>, String) {
        let t = Task::new("only", Executable::Noop);
        let uid = t.uid().to_string();
        let wf = Workflow::new()
            .with_pipeline(Pipeline::new("p").with_stage(Stage::new("s").with_task(t)));
        (Ctx::for_tests_with_retries(wf, retries), uid)
    }

    #[test]
    fn done_outcome_completes_task() {
        let (ctx, uid) = single_task_ctx(Some(0));
        to_executed(&ctx, &uid);
        handle_outcome(&ctx, &uid, AttemptOutcome::Done, None);
        assert_eq!(
            ctx.workflow.lock().task(&uid).unwrap().state(),
            TaskState::Done
        );
    }

    #[test]
    fn failed_within_budget_resubmits() {
        let (ctx, uid) = single_task_ctx(Some(1));
        to_executed(&ctx, &uid);
        handle_outcome(&ctx, &uid, AttemptOutcome::Failed("crash".into()), None);
        let wf = ctx.workflow.lock();
        let task = wf.task(&uid).unwrap();
        assert_eq!(task.state(), TaskState::Described, "must rejoin the pool");
        assert_eq!(task.last_error.as_deref(), Some("crash"));
    }

    #[test]
    fn failed_beyond_budget_is_terminal() {
        let (ctx, uid) = single_task_ctx(Some(0));
        to_executed(&ctx, &uid); // attempts = 1 > budget 0
        handle_outcome(&ctx, &uid, AttemptOutcome::Failed("crash".into()), None);
        assert_eq!(
            ctx.workflow.lock().task(&uid).unwrap().state(),
            TaskState::Failed
        );
    }

    #[test]
    fn unlimited_budget_always_resubmits() {
        let (ctx, uid) = single_task_ctx(None);
        for _ in 0..5 {
            to_executed(&ctx, &uid);
            handle_outcome(&ctx, &uid, AttemptOutcome::Failed("x".into()), None);
            assert_eq!(
                ctx.workflow.lock().task(&uid).unwrap().state(),
                TaskState::Described
            );
        }
        assert_eq!(ctx.workflow.lock().task(&uid).unwrap().attempts(), 5);
    }

    #[test]
    fn lost_outcome_resubmits_from_submitted() {
        let (ctx, uid) = single_task_ctx(Some(0));
        for s in [
            TaskState::Scheduling,
            TaskState::Scheduled,
            TaskState::Submitting,
            TaskState::Submitted,
        ] {
            assert!(ctx.sync_task("test", uid.as_str(), s));
        }
        handle_outcome(&ctx, &uid, AttemptOutcome::Lost, None);
        // Lost does not consume the (zero) retry budget.
        assert_eq!(
            ctx.workflow.lock().task(&uid).unwrap().state(),
            TaskState::Described
        );
    }

    #[test]
    fn canceled_beyond_budget_terminal() {
        let (ctx, uid) = single_task_ctx(Some(0));
        to_executed(&ctx, &uid);
        handle_outcome(&ctx, &uid, AttemptOutcome::Canceled, None);
        assert_eq!(
            ctx.workflow.lock().task(&uid).unwrap().state(),
            TaskState::Canceled
        );
    }

    #[test]
    fn unknown_uid_is_ignored() {
        let (ctx, _) = single_task_ctx(Some(0));
        handle_outcome(&ctx, "task.424242", AttemptOutcome::Done, None);
        // No panic, no state change.
        assert_eq!(ctx.workflow.lock().count_in(TaskState::Described), 1);
    }
}
