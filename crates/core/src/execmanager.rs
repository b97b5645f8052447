//! The ExecManager: Rmgr, Emgr, RTS Callback and Heartbeat subcomponents.
//!
//! * **Rmgr** acquires resources: it starts one RTS per configured resource
//!   pool and submits each pool's pilot. Multiple pools realize the seismic
//!   use case's need to "interleave simulation tasks with data-processing
//!   tasks, each requiring respectively leadership-scale systems and
//!   moderately sized clusters" (§III-A).
//! * **Emgr** "pulls tasks from the Pending queue (arrow 2) and executes
//!   them using a RTS (arrow 3)", routing each task to its resource pool.
//! * **RTS Callback** receives the tasks that have completed execution —
//!   one callback thread per pool. In the paper it pushes them to the Done
//!   queue (arrow 4) for Dequeue to pull (arrow 5); here the thread applies
//!   Dequeue's verdicts itself ([`crate::wfprocessor::handle_outcomes`]).
//! * **Heartbeat** recovers each black-box RTS; "when the RTS fails or
//!   becomes unresponsive, EnTK can tear it down and bring it back, loosing
//!   only those tasks that were in execution at the time of the RTS failure"
//!   (§II-B2). It also re-acquires a pilot when the CI ends it (walltime,
//!   CI failure) while work remains. The RTS announces both events on the
//!   streams the pool's RTS Callback thread already waits on, so that
//!   thread runs the recovery: the Heartbeat is a role, not a thread.

use crate::appmanager::Ctx;
use crate::messages::{self, AttemptOutcome, Reaction, UNTIL_CLOSED};
use crate::states::TaskState;
use crate::task::Task;
use crate::wfprocessor;
use crate::workflow::Workflow;
use crossbeam::channel::{Select, TryRecvError};
use entk_observe::{components as obs, hops};
use parking_lot::{Mutex, RwLock};
use rp_rts::{
    Credit, PilotDescription, PilotId, PilotLease, PilotState, RtsConfig, RuntimeSystem,
    UnitCallback, UnitDescription, UnitOutcome, UnitRecord,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// ExecManager tuning: the maximum batch size used by every component loop
/// (Enqueue, Emgr, RTS Callback). No loop polls; each blocks on its queue,
/// its channels or the run's signal (DESIGN.md §3k).
#[derive(Debug, Clone)]
pub struct ExecManagerConfig {
    /// Maximum tasks moved per batched operation (0 is read as 1). `1` is
    /// the paper's per-task data path: every hop moves one task through the
    /// same code. The one excess: after requeueing tasks for a pool that
    /// does not serve, the Emgr's next fetch also takes those back.
    pub max_batch: usize,
}

impl Default for ExecManagerConfig {
    fn default() -> Self {
        ExecManagerConfig { max_batch: 256 }
    }
}

/// Shared handle to one resource pool's RTS incarnation plus restart
/// bookkeeping.
pub(crate) struct RtsSlot {
    /// Pool name (tasks select it via `Task::with_resource_pool`).
    pub name: String,
    /// Current (RTS, pilot). Write-locked during restart so the Emgr cannot
    /// submit while the Heartbeat sweeps lost tasks.
    pub slot: RwLock<(Arc<RuntimeSystem>, PilotId)>,
    /// Restart budget consumed.
    pub restarts: AtomicU32,
    /// Unit records of dead incarnations (for the final profile).
    pub archived: Mutex<Vec<UnitRecord>>,
    /// Config used to build replacement RTS instances.
    pub rts_config: RtsConfig,
    /// Pilot description used for re-acquisition.
    pub pilot_desc: PilotDescription,
    /// Maximum RTS/pilot restarts.
    pub max_restarts: u32,
    /// Cumulative RTS teardown wall time across incarnations.
    pub teardown_wall: Mutex<Duration>,
    /// Warm pilot lease backing this slot, if any. Held for the duration of
    /// the run; `final_teardown` returns it to its pool instead of tearing
    /// the RTS down.
    pub lease: Mutex<Option<PilotLease>>,
}

impl RtsSlot {
    /// Rmgr: start the first RTS incarnation and acquire the pilot.
    pub(crate) fn acquire(
        name: String,
        rts_config: RtsConfig,
        pilot_desc: PilotDescription,
        max_restarts: u32,
    ) -> Self {
        let rts = Arc::new(RuntimeSystem::start(rts_config.clone()));
        let pilot = rts.submit_pilot(&pilot_desc);
        rts.wait_pilot_ready(pilot, Duration::from_secs(30));
        RtsSlot {
            name,
            slot: RwLock::new((rts, pilot)),
            restarts: AtomicU32::new(0),
            archived: Mutex::new(Vec::new()),
            rts_config,
            pilot_desc,
            max_restarts,
            teardown_wall: Mutex::new(Duration::ZERO),
            lease: Mutex::new(None),
        }
    }

    /// Back the slot with an already-bootstrapped warm pilot leased from a
    /// [`rp_rts::PilotPool`]. `rts_config`/`pilot_desc` are still kept: the
    /// Heartbeat's recovery uses them to build an owned replacement if the
    /// leased RTS dies mid-run.
    pub(crate) fn leased(
        name: String,
        rts_config: RtsConfig,
        pilot_desc: PilotDescription,
        max_restarts: u32,
        lease: PilotLease,
    ) -> Self {
        let rts = Arc::clone(lease.rts());
        let pilot = lease.pilot();
        RtsSlot {
            name,
            slot: RwLock::new((rts, pilot)),
            restarts: AtomicU32::new(0),
            archived: Mutex::new(Vec::new()),
            rts_config,
            pilot_desc,
            max_restarts,
            teardown_wall: Mutex::new(Duration::ZERO),
            lease: Mutex::new(Some(lease)),
        }
    }

    /// Whether the current incarnation can take units: its RTS is alive and
    /// its pilot is queued, booting or ready.
    pub(crate) fn serves(&self) -> bool {
        let guard = self.slot.read();
        serves(&guard.0, guard.1)
    }

    /// A reaction credit of the current incarnation's simulator.
    pub(crate) fn hold(&self) -> rp_rts::Credit {
        self.slot.read().0.hold()
    }

    /// All unit records across incarnations (archived + current), taken
    /// out of the RTS: a leased runtime goes back to its pool holding
    /// nothing of this session that has ended.
    pub(crate) fn take_records(&self) -> Vec<UnitRecord> {
        let mut records = std::mem::take(&mut *self.archived.lock());
        records.extend(self.slot.read().0.take_records());
        records
    }

    /// Tear down the current incarnation, recording the wall time. A leased
    /// incarnation is returned to its pool instead (zero teardown cost — the
    /// point of warm pilot reuse). Returns the cumulative teardown time
    /// across incarnations.
    pub(crate) fn final_teardown(&self) -> Duration {
        let rts = self.slot.read().0.clone();
        if let Some(lease) = self.lease.lock().take() {
            if Arc::ptr_eq(lease.rts(), &rts) {
                // Still the leased incarnation: hand it back to the pool.
                drop(lease);
                return *self.teardown_wall.lock();
            }
            // The leased RTS died mid-run and was replaced by an owned one;
            // dropping the stale lease lets the pool discard it, then the
            // replacement is torn down normally below.
            drop(lease);
        }
        let d = rts.teardown();
        *self.teardown_wall.lock() += d;
        *self.teardown_wall.lock()
    }
}

/// Whether `pilot` on `rts` can take units.
fn serves(rts: &RuntimeSystem, pilot: PilotId) -> bool {
    rts.is_alive()
        && matches!(
            rts.pilot_state(pilot),
            Some(PilotState::Ready | PilotState::Queued | PilotState::Active)
        )
}

/// The full set of resource pools; index 0 is the primary (default) pool.
pub(crate) struct RtsPools {
    pub pools: Vec<Arc<RtsSlot>>,
}

impl RtsPools {
    /// The index in `pools` of the slot a task's pool tag routes to;
    /// `None` ⇒ the primary pool. Unknown names also fall back to the
    /// primary pool (validation rejects them before the run starts, so this
    /// is belt-and-braces).
    pub(crate) fn index_for(&self, pool: Option<&str>) -> usize {
        pool.and_then(|name| self.pools.iter().position(|s| s.name == name))
            .unwrap_or(0)
    }
}

/// Spawn the Emgr thread (one; it routes to every pool).
pub(crate) fn spawn_emgr(ctx: Arc<Ctx>, pools: Arc<RtsPools>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("entk-emgr".into())
        .spawn(move || emgr_loop(ctx, pools))
        .expect("spawn emgr")
}

/// Spawn one RTS Callback thread per pool; it also runs the pool's
/// Heartbeat recovery.
pub(crate) fn spawn_callbacks(
    ctx: &Arc<Ctx>,
    pools: &Arc<RtsPools>,
) -> Vec<std::thread::JoinHandle<()>> {
    pools
        .pools
        .iter()
        .enumerate()
        .map(|(idx, slot)| {
            let ctx = Arc::clone(ctx);
            let slot = Arc::clone(slot);
            let is_primary = idx == 0;
            std::thread::Builder::new()
                .name(format!("entk-rts-callback-{}", slot.name))
                .spawn(move || callback_loop(ctx, slot, is_primary))
                .expect("spawn rts callback")
        })
        .collect()
}

#[derive(Default)]
struct PoolBatch {
    units: Vec<UnitDescription>,
    submitted: Vec<(u64, String)>,
}

/// One Pending-queue delivery resolved against the workflow.
struct PendingItem {
    tag: u64,
    uid: String,
    state: Option<TaskState>,
    unit: Option<UnitDescription>,
    /// Index of the task's slot in [`RtsPools::pools`].
    pool: usize,
}

fn emgr_loop(ctx: Arc<Ctx>, pools: Arc<RtsPools>) {
    // Messages the last batch requeued at the Pending front for pools that
    // did not serve. The next fetch takes them back plus up to a batch
    // limit of newer ones, so a requeued front cannot hide what is behind
    // it.
    let mut requeued = 0usize;
    while ctx.running.load(Ordering::Acquire) {
        // Cooperative cancellation: stop submitting; queued messages become
        // stale once the cancel sweep settles their tasks and are dropped on
        // session teardown.
        if ctx.cancel.is_canceled() {
            break;
        }
        // Collect a batch from the Pending queue.
        let batch = match ctx.broker.get_batch(
            ctx.ns.pending(),
            ctx.exec.max_batch + requeued,
            UNTIL_CLOSED,
        ) {
            Ok(b) => b,
            Err(_) => break,
        };
        if batch.is_empty() {
            continue;
        }
        let span = ctx
            .recorder
            .span(obs::EMGR, "submit_batch")
            .with_payload(batch.len());

        // Resolve every delivery against the workflow under one lock.
        let mut items: Vec<PendingItem> = {
            let wf = ctx.workflow.lock();
            batch
                .iter()
                .map(|d| {
                    let uid = messages::parse_pending(&d.message);
                    match wf.task(&uid) {
                        Some(t) => {
                            let mut unit = t.to_unit();
                            // Carry the causal trace from the Pending message
                            // onto the unit so it rides through the RTS.
                            if ctx.recorder.is_enabled() {
                                if let Some(mut trace) = d.message.trace() {
                                    trace.hop(obs::EMGR, hops::EMGR_DEQUEUE, ctx.recorder.now_ns());
                                    unit.trace = Some(trace);
                                }
                            }
                            PendingItem {
                                tag: d.tag,
                                uid,
                                state: Some(t.state()),
                                unit: Some(unit),
                                pool: pools.index_for(t.resource_pool.as_deref()),
                            }
                        }
                        None => PendingItem {
                            tag: d.tag,
                            uid,
                            state: None,
                            unit: None,
                            pool: 0,
                        },
                    }
                })
                .collect()
        };

        // Tag Scheduled tasks Submitting — one bulk sync round-trip. Tasks
        // whose sync is refused, tasks already past Submitting, and unknown
        // uids are stale: their messages are simply acknowledged (dropped).
        let to_tag: Vec<String> = items
            .iter()
            .filter(|i| i.state == Some(TaskState::Scheduled))
            .map(|i| i.uid.clone())
            .collect();
        let applied = ctx.sync_tasks(&to_tag, TaskState::Submitting);
        let mut ok = applied.into_iter();
        for item in &mut items {
            if item.state == Some(TaskState::Scheduled) && !ok.next().expect("one flag per request")
            {
                item.state = None; // refused: treat as stale
            }
        }

        // Translate tasks to units, grouped by resource pool. `Submitting`
        // covers both freshly tagged tasks and redeliveries after a failed
        // submit.
        let mut groups: Vec<PoolBatch> = pools.pools.iter().map(|_| PoolBatch::default()).collect();
        for item in items {
            if let Some(TaskState::Scheduled | TaskState::Submitting) = item.state {
                let group = &mut groups[item.pool];
                group.units.push(item.unit.expect("task found above"));
                group.submitted.push((item.tag, item.uid));
            }
        }

        let mut nacked = 0usize;
        // Pools whose pilot is not serving: their tasks were requeued.
        let mut recovering = Vec::new();
        for (idx, (slot, group)) in pools.pools.iter().zip(groups).enumerate() {
            if group.submitted.is_empty() {
                continue;
            }
            let guard = slot.slot.read();
            let (rts, pilot) = (&guard.0, guard.1);

            // If the pool's pilot is not serving, requeue its tasks and let
            // the Heartbeat re-acquire resources.
            if !serves(rts, pilot) {
                recovering.push(idx);
                nacked += group.submitted.len();
                // Nack highest tag first: each nack requeues at the ready
                // front, so descending-order nacks leave the front in
                // ascending tag order — redeliveries then arrive in original
                // order and later batches keep their maximum tag at the end.
                let mut tags: Vec<u64> = group.submitted.iter().map(|(tag, _)| *tag).collect();
                tags.sort_unstable();
                for tag in tags.into_iter().rev() {
                    let _ = ctx.broker.nack(ctx.ns.pending(), tag);
                }
                continue;
            }

            // Sync Submitted BEFORE handing units to the RTS: on a fast
            // backend the terminal callback can otherwise overtake this
            // transition and be rejected as an illegal Submitting → Executed
            // edge, silently dropping the completion. Tasks whose sync is
            // refused (e.g. canceled concurrently) are not submitted.
            let uids: Vec<String> = group.submitted.iter().map(|(_, uid)| uid.clone()).collect();
            let applied = ctx.sync_tasks(&uids, TaskState::Submitted);
            let mut to_submit: Vec<UnitDescription> = group
                .units
                .into_iter()
                .zip(applied)
                .filter_map(|(unit, ok)| ok.then_some(unit))
                .collect();
            if to_submit.is_empty() {
                continue;
            }
            // Stamp the submit hop on every traced unit at the handoff
            // boundary (one clock read for the whole batch).
            if ctx.recorder.is_enabled() {
                let now = ctx.recorder.now_ns();
                for unit in &mut to_submit {
                    if let Some(trace) = unit.trace.as_mut() {
                        trace.hop(obs::EMGR, hops::RTS_SUBMIT, now);
                    }
                }
            }
            // One bulk submission per pool (the RTS amortizes its DB
            // round-trips over the batch). On failure the RTS died
            // mid-batch: the tasks are Submitted, so the Heartbeat sweep
            // re-describes each of them exactly once.
            let _ = rts.submit_units(pilot, to_submit);
        }
        // Failpoint `core.emgr.before_settle`: the batch is half-settled —
        // tasks are Submitted and handed to the RTS, but the cumulative ack
        // below has not happened yet. Kill the primary pool's RTS and linger
        // here so the Heartbeat races recovery against this window; the
        // sweep must re-enqueue exactly the unsettled suffix.
        if let Some(action) = entk_fail::hit("core.emgr.before_settle") {
            let guard = pools.pools[0].slot.read();
            guard.0.kill();
            drop(guard);
            let linger = action.delay().unwrap_or(Duration::from_millis(150));
            std::thread::sleep(linger); // sleep-ok: failpoint
        }
        // The Emgr is the Pending queue's only consumer, so everything still
        // unacked in this batch (stale + submitted) settles with one
        // cumulative ack. Requeued (nacked) messages are no longer unacked
        // and are unaffected by the boundary. Redeliveries carry old
        // (smaller) tags and can land anywhere in the batch, so the boundary
        // is the batch's maximum tag, not its last delivery.
        if nacked < batch.len() {
            let boundary = batch.iter().map(|d| d.tag).max().expect("non-empty batch");
            let _ = ctx.broker.ack_multiple(ctx.ns.pending(), boundary);
        }
        ctx.charge_management(span);
        requeued = nacked;
        if !recovering.is_empty() {
            // The queue would hand the requeued tasks straight back: wait
            // until every such pool serves again (`recover` wakes the
            // signal once it installs the replacement), a message other
            // than the requeued ones is ready, or the run stands down. The
            // batch holds the Pending messages' simulator credits, and
            // recovery needs the clock to move, so it goes first. A newer
            // message holds credits too, and may be for a pool that
            // serves: it is fetched, and requeued or submitted, at once.
            drop(batch);
            ctx.wait_watching_pending(|| {
                !ctx.running.load(Ordering::Acquire)
                    || ctx.cancel.is_canceled()
                    || recovering.iter().all(|&idx| pools.pools[idx].serves())
                    || ctx
                        .broker
                        .depth(ctx.ns.pending())
                        .map_or(true, |ready| ready > nacked)
            });
        }
    }
}

/// Translate an RTS unit outcome into the attempt outcome Dequeue acts on.
fn attempt_outcome(outcome: Option<UnitOutcome>) -> AttemptOutcome {
    match outcome {
        Some(UnitOutcome::Done) => AttemptOutcome::Done,
        Some(UnitOutcome::Failed(r)) => AttemptOutcome::Failed(r),
        Some(UnitOutcome::Canceled) | None => AttemptOutcome::Canceled,
    }
}

/// Why a pool needs the Heartbeat's recovery.
enum Fault {
    /// The RTS announced the end of the slot's current pilot. The credit
    /// holds the simulator at the end's instant until the replacement
    /// pilot has been submitted.
    PilotEnded(Credit),
    /// The RTS's pilot-end stream disconnected: the RTS died.
    RtsDied,
}

fn callback_loop(ctx: Arc<Ctx>, slot: Arc<RtsSlot>, is_primary: bool) {
    while ctx.running.load(Ordering::Acquire) {
        let (rts, pilot) = {
            let guard = slot.slot.read();
            (Arc::clone(&guard.0), guard.1)
        };
        // Callbacks first: the RTS calls back the units that ended with a
        // pilot before it announces the end, so they settle (and use up
        // retry budget) before the recovery sweeps what is left.
        let callbacks_open = match rts.callbacks().try_recv() {
            Ok(cb) => {
                settle_callbacks(&ctx, &rts, cb);
                continue;
            }
            Err(TryRecvError::Empty) => true,
            Err(TryRecvError::Disconnected) => false,
        };
        let fault = match rts.pilot_ends().try_recv() {
            Ok(end) if end.pilot == pilot => Fault::PilotEnded(end.credit),
            // A pooled runtime outlives the sessions that lease it: the end
            // of any other pilot is not this run's to recover.
            Ok(_) => continue,
            Err(TryRecvError::Disconnected) => Fault::RtsDied,
            Err(TryRecvError::Empty) => {
                // Block until a callback or a pilot end is queued, the RTS
                // died (its pilot-end stream disconnects) or the run stopped
                // (`stopped` disconnects), then look again.
                let mut sel = Select::new();
                if callbacks_open {
                    sel.recv(rts.callbacks());
                }
                sel.recv(rts.pilot_ends());
                sel.recv(&ctx.stopped);
                sel.ready();
                continue;
            }
        };
        // The callbacks queued after the first look and before the end (or
        // the death) settle first: the recovery must see their verdicts.
        while let Ok(cb) = rts.callbacks().try_recv() {
            settle_callbacks(&ctx, &rts, cb);
        }
        // Recover once the run needs the pool again: a task that is retried
        // rejoins the pool as `Described`, which wakes the signal. The wait
        // needs no virtual progress, so the end's credit may be held.
        let pool_needed = || {
            let wf = ctx.workflow.lock();
            !wf.is_complete()
                && pool_tasks(&wf, &slot.name, is_primary).any(|t| !t.state().is_terminal())
        };
        let running = || ctx.running.load(Ordering::Acquire);
        ctx.cancel
            .signal()
            .wait_until(None, || !running() || pool_needed());
        if running() && pool_needed() {
            recover(&ctx, &slot, is_primary, fault);
        } else {
            // Nothing of the run needs the pool again: it is ending. A dead
            // RTS stays disconnected, so wait for the stop instead.
            drop(fault);
            let _ = ctx.stopped.recv();
        }
    }
}

/// Settle a batch of terminal callbacks, starting with `first`: every
/// callback is a completion. Coalesce whatever others are already waiting,
/// sync the whole batch `Executed` with one round-trip, then settle the
/// applied ones on this thread: Dequeue's verdicts, holding the callbacks'
/// simulator credits. A refused sync settles nothing.
fn settle_callbacks(ctx: &Ctx, rts: &RuntimeSystem, first: UnitCallback) {
    let mut cbs = vec![first];
    while cbs.len() < ctx.exec.max_batch {
        match rts.callbacks().try_recv() {
            Ok(c) => cbs.push(c),
            Err(_) => break,
        }
    }
    let span = ctx
        .recorder
        .span(obs::EMGR, "callback")
        .with_payload(cbs.len());
    let uids: Vec<String> = cbs.iter().map(|c| c.tag.clone()).collect();
    let applied = ctx.sync_tasks(&uids, TaskState::Executed);
    // Dequeue takes the attempts up at the callback's instant: both hops
    // share one clock read, on the typed trace.
    let now = ctx.recorder.is_enabled().then(|| ctx.recorder.now_ns());
    let mut credits = Vec::with_capacity(cbs.len());
    let mut outcomes = Vec::with_capacity(cbs.len());
    for (c, ok) in cbs.into_iter().zip(applied) {
        if !ok {
            continue;
        }
        let trace = now.and_then(|now| {
            let mut trace = c.trace?;
            trace.hop(obs::EMGR, hops::CALLBACK, now);
            trace.hop(obs::DEQ, hops::DEQUEUE, now);
            Some(trace)
        });
        credits.push(c.credit);
        outcomes.push((c.tag, attempt_outcome(c.outcome), trace));
    }
    wfprocessor::handle_outcomes(ctx, outcomes, &Reaction::holding(credits));
    ctx.charge_management(span);
}

/// Uids of tasks lost with a dead RTS incarnation of pool `pool_name`:
/// tasks routed to this pool whose state is `Submitted` — they were handed
/// to the dead RTS and their Pending-queue message has been (or is being)
/// settled, so the Heartbeat's Lost sweep is the only thing that re-drives
/// them. `Submitting` tasks are deliberately NOT swept: their Pending
/// message is still live (unacked in the Emgr's in-flight batch, or already
/// nacked back onto the queue by the pilot-ready check), so the queue
/// redelivers them to the next incarnation on its own — sweeping them too
/// would re-describe a task that the queue also re-drives, executing it
/// twice.
pub(crate) fn collect_sweep_uids(wf: &Workflow, pool_name: &str, is_primary: bool) -> Vec<String> {
    pool_tasks(wf, pool_name, is_primary)
        .filter(|t| t.state() == TaskState::Submitted)
        .map(|t| t.uid().to_string())
        .collect()
}

/// The tasks pool `pool_name` runs: those routed to it by name, plus the
/// untagged ones if it is the primary pool.
fn pool_tasks<'a>(
    wf: &'a Workflow,
    pool_name: &'a str,
    is_primary: bool,
) -> impl Iterator<Item = &'a Task> {
    wf.pipelines()
        .iter()
        .flat_map(|p| p.stages())
        .flat_map(|s| s.tasks())
        .filter(move |t| match &t.resource_pool {
            Some(pool) => pool == pool_name,
            None => is_primary,
        })
}

/// The Heartbeat's recovery of one pool (§II-B4): re-acquire a pilot on
/// the same RTS when its pilot ended, or tear a dead RTS down and start a
/// new one, then sweep the tasks lost with the old incarnation.
fn recover(ctx: &Ctx, slot: &RtsSlot, is_primary: bool, fault: Fault) {
    let restarts = slot.restarts.fetch_add(1, Ordering::SeqCst) + 1;
    ctx.recorder.record(
        obs::HEARTBEAT,
        "recovery_start",
        slot.name.clone(),
        format!("restart {restarts}/{}", slot.max_restarts),
    );
    if restarts > slot.max_restarts {
        ctx.recorder.record(
            obs::HEARTBEAT,
            "restart_budget_exhausted",
            slot.name.clone(),
            "",
        );
        ctx.fail_fatal(format!(
            "RTS for pool '{}' failed and restart budget ({}) is exhausted",
            slot.name, slot.max_restarts
        ));
        return;
    }

    // Re-acquire with the slot unlocked. Waiting for a pilot to turn Ready
    // is waiting for the simulator to step, and an Emgr holding a batch's
    // credits may be blocked on the read lock meanwhile; it finds the
    // broken incarnation and requeues.
    let rts = Arc::clone(&slot.slot.read().0);
    let replacement = match fault {
        Fault::PilotEnded(credit) if rts.is_alive() => {
            // Pilot gone (walltime/CI failure), RTS alive: re-acquire a
            // pilot on the same incarnation. The end's credit makes the
            // submission land at the instant the pilot ended; no wait may
            // hold it.
            let new_pilot = rts.submit_pilot(&slot.pilot_desc);
            drop(credit);
            rts.wait_pilot_ready(new_pilot, Duration::from_secs(30));
            ctx.recorder
                .record(obs::HEARTBEAT, "pilot_reacquired", slot.name.clone(), "");
            (rts, new_pilot)
        }
        _ => {
            // Full RTS failure: purge the dead incarnation and start a new
            // one (§II-B4).
            slot.archived.lock().extend(rts.records());
            let t0 = Instant::now();
            if let Some(stale) = slot.lease.lock().take() {
                // The dead incarnation was a pool lease: dropping it lets
                // the pool health-check discard and tear it down.
                drop(stale);
            } else {
                rts.teardown();
            }
            *slot.teardown_wall.lock() += t0.elapsed();
            let new_rts = Arc::new(RuntimeSystem::start(slot.rts_config.clone()));
            let new_pilot = new_rts.submit_pilot(&slot.pilot_desc);
            new_rts.wait_pilot_ready(new_pilot, Duration::from_secs(30));
            ctx.recorder
                .record(obs::HEARTBEAT, "rts_restarted", slot.name.clone(), "");
            (new_rts, new_pilot)
        }
    };
    // The lost tasks are re-driven at the new pilot's Ready instant: this
    // credit is the sweep's reaction.
    let hold = Reaction::holding(vec![replacement.0.hold()]);
    let mut guard = slot.slot.write();
    *guard = replacement;

    // Sweep: every task that was in flight on the dead incarnation is lost
    // and is re-executed without consuming retry budget. Only tasks routed
    // to *this* pool are swept — other pools' RTS instances are healthy.
    // The set is taken under the write lock, so the Emgr submits nothing to
    // the new incarnation before it is known.
    let lost: Vec<String> = {
        let wf = ctx.workflow.lock();
        collect_sweep_uids(&wf, &slot.name, is_primary)
    };
    ctx.recorder.record(
        obs::HEARTBEAT,
        "lost_swept",
        slot.name.clone(),
        lost.len().to_string(),
    );
    drop(guard);
    // An Emgr waiting for this pool to serve again may go on.
    ctx.wake();
    wfprocessor::handle_outcomes(
        ctx,
        lost.into_iter()
            .map(|uid| (uid, AttemptOutcome::Lost, None)),
        &hold,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::stage::Stage;
    use rp_rts::Executable;

    fn task(name: &str, pool: Option<&str>, state: TaskState) -> Task {
        let mut t = Task::new(name, Executable::Noop);
        if let Some(p) = pool {
            t = t.with_resource_pool(p);
        }
        t.force_state(state);
        t
    }

    /// Regression (batched settlement vs. Heartbeat sweep race): a task in
    /// `Submitting` still has a live Pending-queue message — its delivery is
    /// either unacked in the Emgr's in-flight batch or was nacked back by
    /// the pilot-ready check — so the queue re-drives it after recovery.
    /// Sweeping it as Lost too would produce a second Pending message and a
    /// duplicate execution. Only `Submitted` tasks (handed to the dead RTS,
    /// message settled by the cumulative ack) may be swept.
    #[test]
    fn sweep_collects_only_submitted_tasks_of_the_dead_pool() {
        let mut stage = Stage::new("s");
        for (name, pool, state) in [
            ("described", None, TaskState::Described),
            ("scheduled", None, TaskState::Scheduled),
            ("submitting", None, TaskState::Submitting),
            ("submitted-primary", None, TaskState::Submitted),
            ("submitted-gpu", Some("gpu"), TaskState::Submitted),
            ("submitting-gpu", Some("gpu"), TaskState::Submitting),
            ("done", None, TaskState::Done),
        ] {
            stage.add_task(task(name, pool, state));
        }
        let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
        let name_of = |uid: &String| wf.task(uid).unwrap().name().to_string();

        // Primary pool sweep: only the untagged Submitted task.
        let primary = collect_sweep_uids(&wf, "primary", true);
        assert_eq!(
            primary.iter().map(name_of).collect::<Vec<_>>(),
            ["submitted-primary"],
            "Submitting tasks must be left to queue redelivery"
        );

        // Named pool sweep: only the gpu-tagged Submitted task.
        let gpu = collect_sweep_uids(&wf, "gpu", false);
        assert_eq!(
            gpu.iter().map(name_of).collect::<Vec<_>>(),
            ["submitted-gpu"]
        );
    }
}
