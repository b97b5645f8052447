//! The WFProcessor: Enqueue and Dequeue subcomponents (Fig. 2).
//!
//! *Enqueue* "initiates the execution by ... tagging tasks for execution"
//! and "pushes these tasks to the Pending queue" (arrow 1). *Dequeue* "pulls
//! completed tasks (arrow 5) and tags them as done, failed or canceled,
//! depending on the return code from the RTS" — and, per the fault-tolerance
//! requirements (§II-A), resubmits failed tasks within their retry budget.
//!
//! Enqueue is a thread. Dequeue is not: the paper's components are
//! processes linked by a broker, here they are threads of one process and
//! the per-run queues are not durable, so the RTS Callback thread that
//! receives an attempt's end (and the Heartbeat's Lost sweep) hands it to
//! [`handle_outcomes`] directly, with no Done queue between them.

use crate::appmanager::{Ctx, ExecutionStrategy};
use crate::messages::{self, AttemptOutcome, Reaction};
use crate::states::TaskState;
use crate::synchronizer;
use entk_mq::Message;
use entk_observe::{components as obs, hops, TraceCtx};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Spawn the Enqueue thread.
pub(crate) fn spawn_enqueue(ctx: Arc<Ctx>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("entk-enqueue".into())
        .spawn(move || enqueue_loop(ctx))
        .expect("spawn enqueue")
}

/// Whether Enqueue should stop tagging: the run ended or was canceled.
fn standing_down(ctx: &Ctx) -> bool {
    !ctx.running.load(Ordering::Acquire) || ctx.cancel.is_canceled()
}

fn enqueue_loop(ctx: Arc<Ctx>) {
    // The simulator credits Enqueue holds: taken from where the transitions
    // that woke it parked them, under the same lock as the schedulable set
    // they cover, and kept until Enqueue is about to wait — for tasks to
    // tag, or for a slot under the concurrency cap.
    let mut reaction = Reaction::default();
    loop {
        // Park until there are tasks to tag: the Synchronizer notifies when
        // a stage advances or a task rejoins the pool, `Ctx::stop` and
        // `CancelToken::cancel` when they are called.
        let mut ready = Vec::new();
        ctx.cancel.signal().wait_until(None, || {
            if standing_down(&ctx) {
                return true;
            }
            let wf = ctx.workflow.lock();
            ready = wf.schedulable_tasks();
            reaction.absorb(ctx.take_parked());
            drop(wf);
            if ready.is_empty() {
                reaction = Reaction::default();
            }
            !ready.is_empty()
        });
        if standing_down(&ctx) {
            // Cooperative cancellation: stop tagging new work; the
            // AppManager's cancel sweep settles everything already in
            // flight.
            return;
        }
        let span = ctx
            .recorder
            .span(obs::ENQ, "batch")
            .with_payload(ready.len());
        let alive = enqueue(&ctx, &ready, &mut reaction);
        ctx.charge_management(span);
        if !alive {
            return;
        }
    }
}

/// Execution-strategy throttle: wait for a free slot under the concurrency
/// cap (every task that settles under a cap notifies) and return how many
/// there are, or `None` once the run stands down. A slot frees when a task
/// settles, which is virtual progress: before it waits, Enqueue drops
/// `reaction` and whatever is parked, and afterwards holds what the settle
/// that freed the slot parked. A settle frees its slot and parks its
/// credits in one workflow-lock section, so reading the slots under that
/// lock before the wait, and taking the credits under it after, is exact.
fn free_slots(ctx: &Ctx, reaction: &mut Reaction) -> Option<usize> {
    let free_now = || {
        ctx.concurrency_cap
            .load(Ordering::Relaxed)
            .saturating_sub(ctx.in_flight.load(Ordering::Relaxed))
    };
    let mut free = 0;
    let mut waited = false;
    ctx.cancel.signal().wait_until(None, || {
        free = free_now();
        if free > 0 || standing_down(ctx) {
            return true;
        }
        let _wf = ctx.workflow.lock();
        free = free_now();
        let parked = ctx.take_parked();
        if free > 0 {
            reaction.absorb(parked);
            return true;
        }
        *reaction = Reaction::default();
        waited = true;
        false
    });
    if standing_down(ctx) {
        return None;
    }
    if waited {
        let _wf = ctx.workflow.lock();
        reaction.absorb(ctx.take_parked());
    }
    Some(free)
}

/// Tag a chunk of ready tasks Scheduling → Scheduled with two bulk sync
/// round-trips and make the chunk visible to the Emgr as one batched
/// Pending publish, carrying `reaction`. Chunks are sized by the batch limit
/// and the free concurrency budget, so the execution-strategy throttle still
/// holds. `Scheduled` is synchronized *before* the publish so the Emgr can
/// never see a task that is still mid-transition. Returns whether the loop
/// should keep running.
fn enqueue(ctx: &Ctx, ready: &[String], reaction: &mut Reaction) -> bool {
    let max_batch = ctx.exec.max_batch;
    let mut idx = 0;
    while idx < ready.len() {
        let Some(free) = free_slots(ctx, reaction) else {
            return false;
        };
        let chunk = &ready[idx..(idx + free.min(max_batch)).min(ready.len())];
        idx += chunk.len();
        let scheduling = ctx.sync_tasks(chunk, TaskState::Scheduling);
        let chunk: Vec<String> = chunk
            .iter()
            .zip(scheduling)
            .filter(|(_, ok)| *ok)
            .map(|(uid, _)| uid.clone())
            .collect();
        let scheduled = ctx.sync_tasks(&chunk, TaskState::Scheduled);
        let hold = reaction.attachment();
        let pending: Vec<Message> = chunk
            .iter()
            .zip(scheduled)
            .filter(|(_, ok)| *ok)
            .map(|(uid, _)| messages::attached(traced_pending_message(ctx, uid), &hold))
            .collect();
        if !pending.is_empty() {
            let _ = ctx.broker.publish_batch(ctx.ns.pending(), pending);
            ctx.published_pending();
        }
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

/// Dequeue's verdict on one attempt: the state to sync the task to, and
/// the timeline to settle with it (`None` for a retry, whose re-enqueue
/// starts a fresh timeline).
struct Verdict {
    uid: String,
    state: TaskState,
    trace: Option<TraceCtx>,
}

/// Dequeue: settle a batch of attempt outcomes on the calling thread —
/// decide each one, then apply the verdicts. `reaction` holds the
/// simulator credits of the attempts' ends; a verdict that wakes Enqueue
/// parks them for it.
pub(crate) fn handle_outcomes(
    ctx: &Ctx,
    outcomes: impl IntoIterator<Item = (String, AttemptOutcome, Option<TraceCtx>)>,
    reaction: &Reaction,
) {
    let verdicts: Vec<Verdict> = outcomes
        .into_iter()
        .filter_map(|(uid, outcome, trace)| decide(ctx, uid, outcome, trace))
        .collect();
    apply(ctx, verdicts, reaction);
}

/// Whether a task's failed attempt may run again. `attempts` counts
/// executions so far; a budget of N retries allows N+1 executions in total,
/// `None` is unlimited. A canceled run stops retrying.
fn may_retry(ctx: &Ctx, task: &crate::task::Task) -> bool {
    let budget = task.max_retries.unwrap_or(ctx.default_retries);
    !ctx.cancel.is_canceled() && budget.is_none_or(|n| task.attempts() <= n)
}

/// Decide a task's fate from its attempt outcome: retry-budget arithmetic,
/// attempt counters, the AIMD cap and recorder events. `None` for a task
/// this run does not know.
fn decide(
    ctx: &Ctx,
    uid: String,
    outcome: AttemptOutcome,
    trace: Option<TraceCtx>,
) -> Option<Verdict> {
    let state = match outcome {
        AttemptOutcome::Done => {
            ctx.attempts_done.fetch_add(1, Ordering::Relaxed);
            ctx.recorder
                .record(obs::DEQ, "attempt_done", uid.as_str(), "");
            adapt_cap(ctx, true);
            TaskState::Done
        }
        AttemptOutcome::Failed(reason) => {
            ctx.attempts_failed.fetch_add(1, Ordering::Relaxed);
            ctx.recorder
                .record(obs::DEQ, "attempt_failed", uid.as_str(), reason.clone());
            adapt_cap(ctx, false);
            let retry = {
                let mut wf = ctx.workflow.lock();
                let loc = wf.locate(&uid)?;
                may_retry(ctx, wf.stage_mut(loc).set_last_error(loc.task, reason))
            };
            if retry {
                TaskState::Described
            } else if ctx.cancel.is_canceled() {
                TaskState::Canceled
            } else {
                TaskState::Failed
            }
        }
        AttemptOutcome::Canceled => {
            // A canceled attempt usually means the pilot died under the
            // task (walltime, CI failure). Treat it like a failed attempt:
            // retry within budget, cancel terminally otherwise.
            ctx.attempts_failed.fetch_add(1, Ordering::Relaxed);
            ctx.recorder
                .record(obs::DEQ, "attempt_failed", uid.as_str(), "canceled");
            if may_retry(ctx, ctx.workflow.lock().task(&uid)?) {
                TaskState::Described
            } else {
                TaskState::Canceled
            }
        }
        AttemptOutcome::Lost => {
            // Lost to an RTS failure: re-execute without consuming budget
            // ("without restarting completed tasks" — only in-flight work
            // is redone).
            ctx.attempts_failed.fetch_add(1, Ordering::Relaxed);
            ctx.recorder
                .record(obs::DEQ, "attempt_failed", uid.as_str(), "lost");
            if ctx.cancel.is_canceled() {
                TaskState::Canceled
            } else {
                TaskState::Described
            }
        }
    };
    let trace = trace.filter(|_| state != TaskState::Described);
    Some(Verdict { uid, state, trace })
}

/// Apply verdicts: one `sync_tasks` call per run of consecutive equal
/// target states, so batch order — and with it per-uid order — is kept.
/// Then stamp each settled timeline's final `synced` hop and fold it into
/// the run's critical-path aggregate. Only `Done` timelines are folded: a
/// canceled or failpoint-killed attempt carries a *partial* hop list (it
/// never reached the stages it skipped), and folding it would understate
/// per-stage residency means — SLO burn rates and stall thresholds derive
/// from those means, so the aggregate must describe completed work only.
fn apply(ctx: &Ctx, verdicts: Vec<Verdict>, reaction: &Reaction) {
    let mut rest = verdicts.into_iter().peekable();
    while let Some(first) = rest.next() {
        let state = first.state;
        let mut run = vec![first];
        while let Some(v) = rest.next_if(|v| v.state == state) {
            run.push(v);
        }
        let uids: Vec<String> = run.iter().map(|v| v.uid.clone()).collect();
        synchronizer::apply_batch(ctx, &uids, state, reaction);
        for mut trace in run.into_iter().filter_map(|v| v.trace) {
            trace.hop(obs::SYNC, hops::SYNCED, ctx.recorder.now_ns());
            let outcome = match state {
                TaskState::Done => {
                    ctx.critical_path.lock().add(&trace);
                    "done"
                }
                TaskState::Canceled => "canceled",
                _ => "failed",
            };
            // Failed/canceled timelines skip the aggregate but still reach
            // the trace store: tail sampling always keeps non-success
            // outcomes for postmortems.
            if let Some(store) = &ctx.trace_store {
                store.offer(&trace, outcome, Some(ctx.recorder.metrics()));
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

    /// Drive a uid through the pre-execution states.
    fn to_executed(ctx: &Ctx, uid: &str) {
        for s in [
            TaskState::Scheduling,
            TaskState::Scheduled,
            TaskState::Submitting,
            TaskState::Submitted,
            TaskState::Executed,
        ] {
            assert_eq!(ctx.sync_tasks(&[uid.to_string()], s), [true]);
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
        handle_outcomes(
            &ctx,
            [(uid.clone(), AttemptOutcome::Done, None)],
            &Reaction::default(),
        );
        assert_eq!(
            ctx.workflow.lock().task(&uid).unwrap().state(),
            TaskState::Done
        );
    }

    #[test]
    fn failed_within_budget_resubmits() {
        let (ctx, uid) = single_task_ctx(Some(1));
        to_executed(&ctx, &uid);
        handle_outcomes(
            &ctx,
            [(uid.clone(), AttemptOutcome::Failed("crash".into()), None)],
            &Reaction::default(),
        );
        let wf = ctx.workflow.lock();
        let task = wf.task(&uid).unwrap();
        assert_eq!(task.state(), TaskState::Described, "must rejoin the pool");
        assert_eq!(task.last_error.as_deref(), Some("crash"));
    }

    #[test]
    fn failed_beyond_budget_is_terminal() {
        let (ctx, uid) = single_task_ctx(Some(0));
        to_executed(&ctx, &uid); // attempts = 1 > budget 0
        handle_outcomes(
            &ctx,
            [(uid.clone(), AttemptOutcome::Failed("crash".into()), None)],
            &Reaction::default(),
        );
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
            handle_outcomes(
                &ctx,
                [(uid.clone(), AttemptOutcome::Failed("x".into()), None)],
                &Reaction::default(),
            );
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
            assert_eq!(ctx.sync_tasks(std::slice::from_ref(&uid), s), [true]);
        }
        handle_outcomes(
            &ctx,
            [(uid.clone(), AttemptOutcome::Lost, None)],
            &Reaction::default(),
        );
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
        handle_outcomes(
            &ctx,
            [(uid.clone(), AttemptOutcome::Canceled, None)],
            &Reaction::default(),
        );
        assert_eq!(
            ctx.workflow.lock().task(&uid).unwrap().state(),
            TaskState::Canceled
        );
    }

    /// One batch of outcomes mixing every kind, with two deliveries for
    /// one uid, settled in one pass must leave the workflow exactly as the
    /// per-task path (a batch of one per delivery) does, in one sync apply
    /// per run of equal target states.
    #[test]
    fn batched_dequeue_matches_per_task_path() {
        let names = ["done", "twice", "retry", "lost", "fail", "cancel"];
        let mut stage = Stage::new("s");
        for n in names {
            let t = Task::new(n, Executable::Noop);
            // No retry budget for the two that must settle terminally.
            stage.add_task(match n {
                "fail" | "cancel" => t.with_max_retries(Some(0)),
                _ => t,
            });
        }
        let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
        let uid = |name: &str| {
            wf.pipelines()[0].stages()[0]
                .tasks()
                .iter()
                .find(|t| t.name == name)
                .unwrap()
                .uid()
                .to_string()
        };
        let deliveries = || {
            [
                ("done", AttemptOutcome::Done),
                ("twice", AttemptOutcome::Done),
                ("retry", AttemptOutcome::Failed("boom".into())), // within budget
                ("lost", AttemptOutcome::Lost),
                ("twice", AttemptOutcome::Failed("late".into())), // after Done: refused
                ("fail", AttemptOutcome::Failed("bust".into())),  // beyond budget
                ("cancel", AttemptOutcome::Canceled),
            ]
            .map(|(n, o)| (uid(n), o, Some(TraceCtx::new(uid(n)))))
        };
        // Target-state runs: Done ×2 | Described ×3 | Failed | Canceled.
        const RUNS: u64 = 4;

        let prepare = |ctx: &Ctx| {
            for n in names {
                let last = if n == "lost" { 4 } else { 5 };
                for s in &[
                    TaskState::Scheduling,
                    TaskState::Scheduled,
                    TaskState::Submitting,
                    TaskState::Submitted,
                    TaskState::Executed,
                ][..last]
                {
                    assert!(crate::synchronizer::apply_task(ctx, &uid(n), *s));
                }
            }
        };
        let outcome = |ctx: &Ctx| {
            let wf = ctx.workflow.lock();
            names.map(|n| {
                let t = wf.task(&uid(n)).unwrap();
                (t.state(), t.attempts(), t.last_error.clone())
            })
        };

        let per_task = Ctx::for_tests_with_retries(wf.clone(), Some(1));
        prepare(&per_task);
        for d in deliveries() {
            handle_outcomes(&per_task, [d], &Reaction::default());
        }

        let batched = Ctx::for_tests_with_retries(wf.clone(), Some(1));
        prepare(&batched);
        handle_outcomes(&batched, deliveries(), &Reaction::default());
        let applies = batched
            .recorder
            .metrics()
            .histogram("span.sync.apply")
            .count();

        let got = outcome(&batched);
        assert_eq!(got, outcome(&per_task));
        assert_eq!(
            got,
            [
                (TaskState::Done, 1, None),
                // Per-uid order kept: Done first, so the late failure is
                // recorded but its resubmit is refused.
                (TaskState::Done, 1, Some("late".into())),
                (TaskState::Described, 1, Some("boom".into())),
                (TaskState::Described, 1, None),
                (TaskState::Failed, 1, Some("bust".into())),
                (TaskState::Canceled, 1, None),
            ]
        );
        assert_eq!(applies, RUNS, "one sync apply per run of equal states");
        for ctx in [&per_task, &batched] {
            assert_eq!(
                ctx.critical_path.lock().tasks(),
                2,
                "only Done timelines fold"
            );
        }
    }

    #[test]
    fn unknown_uid_is_ignored() {
        let (ctx, _) = single_task_ctx(Some(0));
        handle_outcomes(
            &ctx,
            [("task.424242".into(), AttemptOutcome::Done, None)],
            &Reaction::default(),
        );
        // No panic, no state change.
        assert_eq!(ctx.workflow.lock().count_in(TaskState::Described), 1);
    }

    /// Two pools' Callback threads settle verdicts at once, each with the
    /// credits of its own callbacks: both sets end up parked for Enqueue,
    /// neither overwrites the other.
    #[test]
    fn concurrent_settles_park_both_reactions() {
        let tasks = [0, 1].map(|i| Task::new(format!("t{i}"), Executable::Noop));
        let uids = tasks.each_ref().map(|t| t.uid().to_string());
        let wf = Workflow::new()
            .with_pipeline(Pipeline::new("p").with_stage(Stage::new("s").with_tasks(tasks)));
        let ctx = Ctx::for_tests_with_retries(wf, Some(1));
        for uid in &uids {
            to_executed(&ctx, uid);
        }
        let reactions = [(); 2].map(|_| Reaction::holding(Vec::new()));
        let held = reactions
            .each_ref()
            .map(|r| Arc::downgrade(&r.attachment().expect("one credit set")));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (uid, reaction) in uids.iter().zip(reactions) {
                let (ctx, start) = (&ctx, &start);
                s.spawn(move || {
                    start.wait();
                    // Within budget: the task rejoins the pool, which wakes
                    // Enqueue and parks the credits.
                    let failed = AttemptOutcome::Failed("x".into());
                    handle_outcomes(ctx, [(uid.clone(), failed, None)], &reaction);
                });
            }
        });
        assert!(held.iter().all(|c| c.strong_count() == 1), "both parked");
        drop(ctx.take_parked());
        assert!(held.iter().all(|c| c.strong_count() == 0));
    }
}
