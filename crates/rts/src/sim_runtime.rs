//! The simulated-backend runtime: PilotManager + UnitManager + Agent wired
//! to an [`hpc_sim`] infrastructure.
//!
//! Module topology follows RP (paper Fig. 3):
//!
//! * `submit_pilot` plays the **PilotManager**: it submits the pilot as a
//!   batch job through the (simulated) CI's job interface.
//! * `submit_units` plays the **UnitManager**: units are written to the
//!   [`DocDb`] and scheduled to the pilot's agent queue.
//! * A dispatcher thread plays the **Agent**: it pulls units from the DB
//!   queue, runs input staging through `stagers` sequential workers (RP's
//!   default is one), places and spawns tasks through the simulated
//!   launcher, and on completion performs output staging and emits
//!   callbacks.

use crate::api::{
    PilotDescription, PilotId, PilotState, RtsDown, UnitCallback, UnitDescription, UnitId,
    UnitOutcome, UnitState,
};
use crate::db::{DbConfig, DocDb};
use crate::profile::UnitRecord;
use crossbeam::channel::{unbounded, Receiver, Sender};
use entk_observe::{components, Recorder};
use hpc_sim::{
    JobDescription, JobId, Platform, SimCommander, SimConfig, SimEvent, SimHandle, SimTime,
    Simulation, StageId, StageUnit, TaskDesc, TaskId, TaskOutcome,
};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the simulated backend.
#[derive(Debug, Clone)]
pub struct SimRuntimeConfig {
    /// The CI to simulate.
    pub platform: Platform,
    /// RNG seed for the simulation.
    pub seed: u64,
    /// Number of staging workers (RP default: 1, i.e. sequential staging).
    pub stagers: usize,
    /// DB configuration.
    pub db: DbConfig,
    /// If set, pilot/unit state transitions enter the trace.
    pub recorder: Option<Recorder>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StagePhase {
    In,
    Out,
}

struct PilotEntry {
    job: JobId,
    state: PilotState,
}

struct UnitEntry {
    pilot: PilotId,
    desc: UnitDescription,
    record: UnitRecord,
    state: UnitState,
}

struct State {
    pilots: HashMap<PilotId, PilotEntry>,
    job_index: HashMap<JobId, PilotId>,
    units: HashMap<UnitId, UnitEntry>,
    task_index: HashMap<TaskId, UnitId>,
    stage_index: HashMap<StageId, (UnitId, StagePhase, f64)>,
    stage_queue: VecDeque<(UnitId, StageUnit, StagePhase)>,
    stage_in_flight: usize,
    next_pilot: u64,
    next_unit: u64,
    recorder: Recorder,
}

/// The simulated-backend RTS core.
pub struct SimRuntime {
    sim: Mutex<Option<SimHandle>>,
    commander: SimCommander,
    state: Arc<Mutex<State>>,
    pilot_cond: Arc<Condvar>,
    callbacks_rx: Receiver<UnitCallback>,
    db: Arc<DocDb>,
    alive: Arc<AtomicBool>,
    stagers: usize,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
    recorder: Recorder,
}

impl SimRuntime {
    /// Start the runtime: boots the simulation engine and the Agent
    /// dispatcher thread.
    pub fn start(config: SimRuntimeConfig) -> Self {
        let recorder = config.recorder.unwrap_or_else(Recorder::disabled);
        let mut sim_config = SimConfig::new(config.platform).with_seed(config.seed);
        if recorder.is_enabled() {
            sim_config = sim_config.with_recorder(recorder.clone());
        }
        let sim = Simulation::start(sim_config);
        let commander = sim.commander();
        let events = sim.events().clone();
        let (cb_tx, cb_rx) = unbounded();
        let state = Arc::new(Mutex::new(State {
            pilots: HashMap::new(),
            job_index: HashMap::new(),
            units: HashMap::new(),
            task_index: HashMap::new(),
            stage_index: HashMap::new(),
            stage_queue: VecDeque::new(),
            stage_in_flight: 0,
            next_pilot: 1,
            next_unit: 1,
            recorder: recorder.clone(),
        }));
        let db = Arc::new(DocDb::new(config.db));
        let alive = Arc::new(AtomicBool::new(true));
        let pilot_cond = Arc::new(Condvar::new());

        let dispatcher = {
            let state = Arc::clone(&state);
            let db = Arc::clone(&db);
            let alive = Arc::clone(&alive);
            let cond = Arc::clone(&pilot_cond);
            let commander = commander.clone();
            let stagers = config.stagers.max(1);
            std::thread::Builder::new()
                .name("rp-agent".into())
                .spawn(move || {
                    dispatcher_loop(events, state, db, cb_tx, alive, cond, commander, stagers)
                })
                .expect("spawn agent dispatcher")
        };

        SimRuntime {
            sim: Mutex::new(Some(sim)),
            commander,
            state,
            pilot_cond,
            callbacks_rx: cb_rx,
            db,
            alive,
            stagers: config.stagers.max(1),
            dispatcher: Mutex::new(Some(dispatcher)),
            recorder,
        }
    }

    /// The DB module (introspection: unit documents, op counts).
    pub fn db(&self) -> &DocDb {
        &self.db
    }

    /// Whether the RTS is responsive (false after `kill`/`teardown`).
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Callback stream (unit state transitions).
    pub fn callbacks(&self) -> &Receiver<UnitCallback> {
        &self.callbacks_rx
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.commander.now().as_secs_f64()
    }

    /// PilotManager: submit a pilot as a batch job on the CI.
    pub fn submit_pilot(&self, desc: &PilotDescription) -> PilotId {
        assert!(self.is_alive(), "RTS is down");
        // The lock spans the submission: the engine may emit JobActive and
        // JobReady before `submit_job` returns, and a dispatcher that handled
        // them before the job was indexed would drop them — the pilot would
        // never turn Ready. The dispatcher needs this lock, so it waits.
        let mut st = self.state.lock();
        let job = self.commander.submit_job(JobDescription {
            nodes: desc.nodes,
            walltime: hpc_sim::SimDuration::from_secs(desc.walltime_secs),
            bootstrap: hpc_sim::SimDuration::from_secs_f64(desc.bootstrap_secs),
        });
        // Failpoint `rts.pilot.job_submitted`: the submitter stalls between
        // the engine's reply and its own bookkeeping, which is when the
        // job's first events arrive.
        let _ = entk_fail::hit_sleep("rts.pilot.job_submitted");
        let id = PilotId(st.next_pilot);
        st.next_pilot += 1;
        st.pilots.insert(
            id,
            PilotEntry {
                job,
                state: PilotState::Queued,
            },
        );
        st.job_index.insert(job, id);
        drop(st);
        // Pilot registration round-trips through the DB like unit documents
        // do in RP; its latency is part of the bootstrap cost a warm pilot
        // pool amortizes away.
        self.db.insert_pilot(id.0);
        self.recorder.record(
            components::RTS,
            "pilot_submitted",
            format!("pilot.{}", id.0),
            format!("nodes={}", desc.nodes),
        );
        id
    }

    /// Block until the pilot is Ready (or terminal); true if Ready.
    pub fn wait_pilot_ready(&self, pilot: PilotId, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            match st.pilots.get(&pilot).map(|p| p.state) {
                Some(PilotState::Ready) => return true,
                Some(PilotState::Done) | None => return false,
                _ => {}
            }
            if !self.is_alive() {
                return false;
            }
            if self.pilot_cond.wait_until(&mut st, deadline).timed_out() {
                return matches!(
                    st.pilots.get(&pilot).map(|p| p.state),
                    Some(PilotState::Ready)
                );
            }
        }
    }

    /// Pilot state snapshot.
    pub fn pilot_state(&self, pilot: PilotId) -> Option<PilotState> {
        self.state.lock().pilots.get(&pilot).map(|p| p.state)
    }

    /// UnitManager: accept units, write them to the DB, schedule them to the
    /// pilot's agent. Returns unit ids in order.
    pub fn submit_units(
        &self,
        pilot: PilotId,
        descs: Vec<UnitDescription>,
    ) -> Result<Vec<UnitId>, RtsDown> {
        if !self.is_alive() {
            return Err(RtsDown);
        }
        // Failpoint `rts.submit.partial`: the UnitManager accepts only a
        // prefix of the batch and the RTS dies right after handing it over
        // to the DB — the caller sees the whole submission fail while a
        // prefix is already registered and queued, and nothing launched.
        let mut descs = descs;
        let mut die_after_submit = false;
        if let Some(action) = entk_fail::hit_sleep("rts.submit.partial") {
            descs.truncate(injected_prefix(&action, descs.len()));
            die_after_submit = true;
        }
        let mut ids = Vec::with_capacity(descs.len());
        // The span's histogram (span.rts.submit_units) is the agent spawn
        // throughput measure: batch size over batch duration.
        let span = self
            .recorder
            .span(components::RTS, "submit_units")
            .with_payload(descs.len().to_string());
        {
            let mut st = self.state.lock();
            let job = st.pilots.get(&pilot).map(|p| p.job);
            // Provisional stamp. The clock load may trail the instant the
            // engine applies its next command at (it stores nothing while it
            // sleeps toward a distant event), so a submission that reaches
            // the engine is restamped below with the instant of its first
            // command. One for an unknown pilot never does; it takes the
            // instant from a round trip.
            let now = match job {
                Some(_) => self.commander.now(),
                None => self.commander.sync(),
            }
            .as_secs_f64();
            // Pass 1: register every unit, then write the whole submission
            // to the DB as one bulk insert — a single round-trip mirrors
            // MongoDB bulk_write instead of one op per unit.
            let mut inserts: Vec<(UnitId, String, Option<String>)> =
                Vec::with_capacity(descs.len());
            let mut routes: Vec<(UnitId, Option<StageUnit>)> = Vec::with_capacity(descs.len());
            for desc in descs {
                let id = UnitId(st.next_unit);
                st.next_unit += 1;
                ids.push(id);
                inserts.push((
                    id,
                    desc.tag.clone(),
                    desc.trace.as_ref().map(|t| t.encode()),
                ));
                self.recorder
                    .record(components::RTS, "unit_submitted", desc.tag.clone(), "");
                self.recorder
                    .metrics()
                    .counter("rts.units_submitted")
                    .incr();
                let record = UnitRecord::submitted(id, desc.tag.clone(), now);
                let stage_in = desc.staging.stage_in.clone();
                let entry = UnitEntry {
                    pilot,
                    desc,
                    record,
                    state: UnitState::New,
                };
                st.units.insert(id, entry);
                routes.push((id, stage_in));
            }
            // Failpoint `rts.db.insert_units`: death mid bulk insert — only
            // a prefix of the documents reaches the store, nothing is
            // routed, and the RTS is gone when the call returns.
            if let Some(action) = entk_fail::hit_sleep("rts.db.insert_units") {
                inserts.truncate(injected_prefix(&action, inserts.len()));
                self.db.insert_units(pilot.0, inserts);
                drop(st);
                self.kill(); // joins the dispatcher; must not hold the lock
                return Err(RtsDown);
            }
            self.db.insert_units(pilot.0, inserts);
            // Pass 2: route each unit. Submit-path state transitions are
            // collected and persisted with one bulk update below, launches
            // sent to the engine as one command.
            let mut state_updates: Vec<(UnitId, UnitState)> = Vec::new();
            let mut launch_units: Vec<UnitId> = Vec::new();
            let mut launch_tasks: Vec<TaskDesc> = Vec::new();
            for (id, stage_in) in routes {
                match (job, stage_in) {
                    (None, _) => {
                        // Unknown pilot: the unit is immediately lost.
                        fail_unit_locked(&mut st, &self.db, id, UnitOutcome::Canceled, now, None);
                    }
                    (Some(_), Some(su)) if !su.is_empty() => {
                        if set_state_mem_locked(&mut st, id, UnitState::StagingInput, None) {
                            state_updates.push((id, UnitState::StagingInput));
                        }
                        st.stage_queue.push_back((id, su, StagePhase::In));
                    }
                    (Some(_), _) => {
                        launch_tasks.push(make_task_desc(&st.units[&id].desc));
                        if set_state_mem_locked(&mut st, id, UnitState::AgentQueued, None) {
                            state_updates.push((id, UnitState::AgentQueued));
                        }
                        launch_units.push(id);
                    }
                }
            }
            // Failpoint `rts.db.update_states`: death mid bulk state
            // update — every document was inserted but only a prefix
            // records its submit-path transition, and nothing launches.
            if let Some(action) = entk_fail::hit_sleep("rts.db.update_states") {
                let keep = injected_prefix(&action, state_updates.len());
                self.db.update_states(&state_updates[..keep]);
                drop(st);
                self.kill();
                return Err(RtsDown);
            }
            self.db.update_states(&state_updates);
            if die_after_submit {
                drop(st);
                self.kill();
                return Err(RtsDown);
            }
            let staged = dispatch_stagers_locked(&mut st, &self.commander, self.stagers);
            // The whole submission is one engine command. The lock spans it
            // and the index inserts: the engine may emit TaskStarted before
            // `launch_tasks` returns, and the dispatcher, which needs this
            // lock, must find the unit indexed (as in `submit_pilot`).
            let mut launched = None;
            if let (Some(job), false) = (job, launch_tasks.is_empty()) {
                let (tids, at) = self.commander.launch_tasks(job, launch_tasks);
                st.task_index.extend(tids.into_iter().zip(launch_units));
                launched = Some(at);
            }
            // Stamp the submission at the instant the engine applied its
            // first command, or a round trip's if it sent none.
            if job.is_some() {
                let at = staged
                    .or(launched)
                    .unwrap_or_else(|| self.commander.sync())
                    .as_secs_f64();
                if at != now {
                    for id in &ids {
                        if let Some(u) = st.units.get_mut(id) {
                            u.record.submitted_secs = at;
                        }
                    }
                }
            }
        }
        drop(span);
        Ok(ids)
    }

    /// Cancel one unit.
    pub fn cancel_unit(&self, unit: UnitId) {
        let st = self.state.lock();
        if let Some((tid, _)) = st.task_index.iter().find(|(_, u)| **u == unit) {
            self.commander.cancel_task(*tid);
        }
        // Units still in staging will be canceled when their stage finishes.
    }

    /// Cancel a pilot (tears down its units via JobEnded).
    pub fn cancel_pilot(&self, pilot: PilotId) {
        let job = self.state.lock().pilots.get(&pilot).map(|p| p.job);
        if let Some(job) = job {
            self.commander.cancel_job(job);
        }
    }

    /// Abrupt failure: the whole RTS dies, in-flight tasks are lost, no
    /// further callbacks are emitted. EnTK's Heartbeat observes
    /// `is_alive() == false` and restarts the RTS.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        if let Some(mut sim) = self.sim.lock().take() {
            sim.shutdown();
        }
        self.pilot_cond.notify_all();
        if let Some(d) = self.dispatcher.lock().take() {
            let _ = d.join();
        }
    }

    /// Graceful teardown: cancel pilots, stop the engine, join the
    /// dispatcher. Returns the wall time it took ("RTS Tear-Down Overhead").
    pub fn teardown(&self) -> Duration {
        let t0 = Instant::now();
        if self.is_alive() {
            let pilots: Vec<PilotId> = self.state.lock().pilots.keys().copied().collect();
            for p in pilots {
                self.cancel_pilot(p);
            }
            // Let cancellations drain through the engine before shutdown.
            self.commander.sync();
            self.alive.store(false, Ordering::Release);
            if let Some(mut sim) = self.sim.lock().take() {
                sim.shutdown();
            }
            self.pilot_cond.notify_all();
            if let Some(d) = self.dispatcher.lock().take() {
                let _ = d.join();
            }
        }
        t0.elapsed()
    }

    /// Snapshot of all unit records.
    pub fn records(&self) -> Vec<UnitRecord> {
        self.state
            .lock()
            .units
            .values()
            .map(|u| u.record.clone())
            .collect()
    }

    /// Every unit record, with the units that have ended forgotten: their
    /// entries and DB documents are dropped (the simulator forgets a task
    /// when it ends), so a runtime that goes back to a warm pool carries
    /// nothing of the session that leaves. Units still in flight stay, and
    /// are reported again by the next call.
    pub fn take_records(&self) -> Vec<UnitRecord> {
        let mut st = self.state.lock();
        let mut records = Vec::with_capacity(st.units.len());
        let mut ended = Vec::new();
        for (id, unit) in std::mem::take(&mut st.units) {
            if unit.state.is_terminal() {
                ended.push(id);
                records.push(unit.record);
            } else {
                records.push(unit.record.clone());
                st.units.insert(id, unit);
            }
        }
        drop(st);
        self.db.remove_units(&ended);
        records
    }

    /// Per-unit entries this runtime holds: units, their DB documents and
    /// the simulator's tasks. What a finished session must not leave behind.
    pub fn resident_units(&self) -> usize {
        let sim_tasks = if self.is_alive() {
            self.commander.live_tasks()
        } else {
            0
        };
        self.state.lock().units.len() + self.db.unit_docs() + sim_tasks
    }
}

impl Drop for SimRuntime {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// How much of a batch an injected [`entk_fail::InjectedAction`] lets
/// through: `Partial(n)` keeps the first `n` items (clamped), anything else
/// keeps half.
fn injected_prefix(action: &entk_fail::InjectedAction, len: usize) -> usize {
    match action {
        entk_fail::InjectedAction::Partial(n) => (*n as usize).min(len),
        _ => len / 2,
    }
}

fn make_task_desc(desc: &UnitDescription) -> TaskDesc {
    TaskDesc {
        cores: desc.cores,
        gpus: desc.gpus,
        duration: desc.executable.duration_model(),
        failure: desc.executable.failure_model(),
        skip_env_setup: matches!(desc.executable, crate::executable::Executable::Noop),
    }
}

/// Apply a unit state transition in memory only (entry state, recorder,
/// callback). Returns whether the transition applied (unit known and not
/// already terminal); the caller is responsible for persisting applied
/// transitions to the DB — individually or via one bulk `update_states`.
fn set_state_mem_locked(
    st: &mut State,
    unit: UnitId,
    state: UnitState,
    cb: Option<(&Sender<UnitCallback>, f64)>,
) -> bool {
    let rec = st.recorder.clone();
    if let Some(u) = st.units.get_mut(&unit) {
        if u.state.is_terminal() {
            return false;
        }
        u.state = state;
        if state == UnitState::Executing {
            // The agent_start hop is stamped adjacent to the unit_started
            // event so the aggregated hop timeline stays cross-checkable
            // against `OverheadReport::from_trace`.
            if let Some(trace) = u.desc.trace.as_mut() {
                trace.hop(
                    components::RTS,
                    entk_observe::hops::AGENT_START,
                    rec.now_ns(),
                );
            }
            rec.record(components::RTS, "unit_started", u.desc.tag.clone(), "");
            rec.metrics().counter("rts.units_started").incr();
        } else {
            rec.record(
                components::RTS,
                "unit_state",
                u.desc.tag.clone(),
                format!("{state:?}"),
            );
        }
        if let Some((tx, ts)) = cb {
            let _ = tx.send(UnitCallback {
                unit,
                tag: u.desc.tag.clone(),
                state,
                outcome: None,
                timestamp_secs: ts,
                trace: None,
            });
        }
        true
    } else {
        false
    }
}

fn set_state_locked(
    st: &mut State,
    db: &DocDb,
    unit: UnitId,
    state: UnitState,
    cb: Option<(&Sender<UnitCallback>, f64)>,
) {
    if set_state_mem_locked(st, unit, state, cb) {
        db.update_state(unit, state);
    }
}

fn fail_unit_locked(
    st: &mut State,
    db: &DocDb,
    unit: UnitId,
    outcome: UnitOutcome,
    at_secs: f64,
    cb: Option<&Sender<UnitCallback>>,
) {
    let rec = st.recorder.clone();
    let Some(u) = st.units.get_mut(&unit) else {
        return;
    };
    if u.state.is_terminal() {
        return;
    }
    let state = match &outcome {
        UnitOutcome::Done => UnitState::Done,
        UnitOutcome::Failed(_) => UnitState::Failed,
        UnitOutcome::Canceled => UnitState::Canceled,
    };
    u.state = state;
    u.record.ended_secs = Some(at_secs);
    u.record.outcome = Some(outcome.clone());
    // agent_end is stamped adjacent to the unit_ended event (same clock) and
    // the whole accumulated timeline rides back on the terminal callback.
    if let Some(trace) = u.desc.trace.as_mut() {
        trace.hop(components::RTS, entk_observe::hops::AGENT_END, rec.now_ns());
    }
    db.update_state(unit, state);
    rec.record(
        components::RTS,
        "unit_ended",
        u.desc.tag.clone(),
        format!("{state:?}"),
    );
    rec.metrics().counter("rts.units_ended").incr();
    if let Some(tx) = cb {
        let _ = tx.send(UnitCallback {
            unit,
            tag: u.desc.tag.clone(),
            state,
            outcome: Some(outcome),
            timestamp_secs: at_secs,
            trace: u.desc.trace.clone(),
        });
    }
}

/// Hand queued staging operations to free stagers. Returns the instant
/// the engine accepted the first one at, if any was sent.
fn dispatch_stagers_locked(
    st: &mut State,
    commander: &SimCommander,
    stagers: usize,
) -> Option<SimTime> {
    let mut first = None;
    while st.stage_in_flight < stagers {
        let Some((unit, su, phase)) = st.stage_queue.pop_front() else {
            return first;
        };
        // Skip staging for units that died while queued.
        if st.units.get(&unit).is_none_or(|u| u.state.is_terminal()) {
            continue;
        }
        let duration_est = 0.0; // filled at completion from event timestamps
        let (stage_id, at) = commander.stage(vec![su], 1);
        first.get_or_insert(at);
        st.stage_index.insert(stage_id, (unit, phase, duration_est));
        st.stage_in_flight += 1;
    }
    first
}

#[allow(clippy::too_many_arguments)]
fn dispatcher_loop(
    events: Receiver<SimEvent>,
    state: Arc<Mutex<State>>,
    db: Arc<DocDb>,
    cb_tx: Sender<UnitCallback>,
    alive: Arc<AtomicBool>,
    cond: Arc<Condvar>,
    commander: SimCommander,
    stagers: usize,
) {
    while let Ok(ev) = events.recv() {
        if !alive.load(Ordering::Acquire) {
            break;
        }
        let mut st = state.lock();
        match ev {
            SimEvent::JobActive { job, time: _ } => {
                if let Some(pid) = st.job_index.get(&job).copied() {
                    if let Some(p) = st.pilots.get_mut(&pid) {
                        if p.state == PilotState::Queued {
                            p.state = PilotState::Active;
                        }
                    }
                    st.recorder.record(
                        components::RTS,
                        "pilot_state",
                        format!("pilot.{}", pid.0),
                        "Active",
                    );
                    db.update_pilot_state(pid.0, "Active");
                    cond.notify_all();
                }
            }
            SimEvent::JobReady { job, time: _ } => {
                if let Some(pid) = st.job_index.get(&job).copied() {
                    if let Some(p) = st.pilots.get_mut(&pid) {
                        p.state = PilotState::Ready;
                    }
                    st.recorder.record(
                        components::RTS,
                        "pilot_state",
                        format!("pilot.{}", pid.0),
                        "Ready",
                    );
                    db.update_pilot_state(pid.0, "Ready");
                    cond.notify_all();
                }
            }
            SimEvent::JobEnded { job, time, .. } => {
                if let Some(pid) = st.job_index.get(&job).copied() {
                    if let Some(p) = st.pilots.get_mut(&pid) {
                        p.state = PilotState::Done;
                    }
                    st.recorder.record(
                        components::RTS,
                        "pilot_state",
                        format!("pilot.{}", pid.0),
                        "Done",
                    );
                    db.update_pilot_state(pid.0, "Done");
                    // Any unit of this pilot not yet terminal is lost. The
                    // sim also emits per-task Canceled events; this sweep
                    // catches units still in staging.
                    let lost: Vec<UnitId> = st
                        .units
                        .iter()
                        .filter(|(_, u)| u.pilot == pid && !u.state.is_terminal())
                        .map(|(id, _)| *id)
                        .collect();
                    for id in lost {
                        fail_unit_locked(
                            &mut st,
                            &db,
                            id,
                            UnitOutcome::Canceled,
                            time.as_secs_f64(),
                            Some(&cb_tx),
                        );
                    }
                    cond.notify_all();
                }
            }
            SimEvent::TaskStarted { task, time } => {
                if let Some(unit) = st.task_index.get(&task).copied() {
                    if let Some(u) = st.units.get_mut(&unit) {
                        u.record.started_secs = Some(time.as_secs_f64());
                    }
                    set_state_locked(
                        &mut st,
                        &db,
                        unit,
                        UnitState::Executing,
                        Some((&cb_tx, time.as_secs_f64())),
                    );
                }
            }
            SimEvent::TaskEnded {
                task,
                time,
                outcome,
                ..
            } => {
                if let Some(unit) = st.task_index.remove(&task) {
                    let ts = time.as_secs_f64();
                    match outcome {
                        TaskOutcome::Completed => {
                            let stage_out = st
                                .units
                                .get(&unit)
                                .and_then(|u| u.desc.staging.stage_out.clone());
                            match stage_out {
                                Some(su) if !su.is_empty() => {
                                    set_state_locked(
                                        &mut st,
                                        &db,
                                        unit,
                                        UnitState::StagingOutput,
                                        Some((&cb_tx, ts)),
                                    );
                                    st.stage_queue.push_back((unit, su, StagePhase::Out));
                                    dispatch_stagers_locked(&mut st, &commander, stagers);
                                }
                                _ => {
                                    fail_unit_locked(
                                        &mut st,
                                        &db,
                                        unit,
                                        UnitOutcome::Done,
                                        ts,
                                        Some(&cb_tx),
                                    );
                                }
                            }
                        }
                        TaskOutcome::Failed(reason) => {
                            fail_unit_locked(
                                &mut st,
                                &db,
                                unit,
                                UnitOutcome::Failed(reason),
                                ts,
                                Some(&cb_tx),
                            );
                        }
                        TaskOutcome::Canceled => {
                            fail_unit_locked(
                                &mut st,
                                &db,
                                unit,
                                UnitOutcome::Canceled,
                                ts,
                                Some(&cb_tx),
                            );
                        }
                    }
                }
            }
            SimEvent::StageEnded {
                stage,
                time,
                submitted_at,
            } => {
                if let Some((unit, phase, _)) = st.stage_index.remove(&stage) {
                    st.stage_in_flight = st.stage_in_flight.saturating_sub(1);
                    let ts = time.as_secs_f64();
                    let dur = (time - submitted_at).as_secs_f64();
                    match phase {
                        StagePhase::In => {
                            let (job, task_desc, dead) = {
                                match st.units.get_mut(&unit) {
                                    Some(u) if !u.state.is_terminal() => {
                                        u.record.stage_in_done_secs = Some(ts);
                                        u.record.stage_in_duration_secs = dur;
                                        let pid = u.pilot;
                                        let td = make_task_desc(&u.desc);
                                        let job = st.pilots.get(&pid).and_then(|p| {
                                            (p.state != PilotState::Done).then_some(p.job)
                                        });
                                        (job, Some(td), false)
                                    }
                                    _ => (None, None, true),
                                }
                            };
                            if dead {
                                // unit already terminal; nothing to do
                            } else if let (Some(job), Some(td)) = (job, task_desc) {
                                set_state_locked(
                                    &mut st,
                                    &db,
                                    unit,
                                    UnitState::AgentQueued,
                                    Some((&cb_tx, ts)),
                                );
                                let tid = commander.launch_task(job, td);
                                st.task_index.insert(tid, unit);
                            } else {
                                fail_unit_locked(
                                    &mut st,
                                    &db,
                                    unit,
                                    UnitOutcome::Canceled,
                                    ts,
                                    Some(&cb_tx),
                                );
                            }
                            dispatch_stagers_locked(&mut st, &commander, stagers);
                        }
                        StagePhase::Out => {
                            fail_unit_locked(
                                &mut st,
                                &db,
                                unit,
                                UnitOutcome::Done,
                                ts,
                                Some(&cb_tx),
                            );
                            dispatch_stagers_locked(&mut st, &commander, stagers);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executable::Executable;
    use hpc_sim::PlatformId;

    fn runtime() -> SimRuntime {
        SimRuntime::start(SimRuntimeConfig {
            platform: Platform::catalog(PlatformId::TestRig),
            seed: 3,
            stagers: 1,
            db: DbConfig::default(),
            recorder: None,
        })
    }

    /// A runtime whose engine counts the commands it applies.
    fn counting_runtime() -> (SimRuntime, Arc<entk_observe::Counter>) {
        let recorder = Recorder::new();
        let commands = recorder.metrics().counter("sim.commands");
        let rt = SimRuntime::start(SimRuntimeConfig {
            platform: Platform::catalog(PlatformId::TestRig),
            seed: 3,
            stagers: 1,
            db: DbConfig::default(),
            recorder: Some(recorder),
        });
        (rt, commands)
    }

    fn ready_pilot(rt: &SimRuntime) -> PilotId {
        let p = rt.submit_pilot(&PilotDescription::test_rig());
        assert!(rt.wait_pilot_ready(p, Duration::from_secs(5)));
        p
    }

    /// Drain callbacks until `n` units are terminal; returns tag → outcome.
    fn drain_until_terminal(rt: &SimRuntime, n: usize) -> HashMap<String, UnitOutcome> {
        let mut out = HashMap::new();
        while out.len() < n {
            let cb = rt
                .callbacks()
                .recv_timeout(Duration::from_secs(10))
                .expect("callback");
            if let Some(o) = cb.outcome {
                out.insert(cb.tag, o);
            }
        }
        out
    }

    #[test]
    fn pilot_becomes_ready() {
        let rt = runtime();
        let p = ready_pilot(&rt);
        assert_eq!(rt.pilot_state(p), Some(PilotState::Ready));
    }

    /// Regression (lost wake-up): the engine can emit JobActive/JobReady
    /// before `submit_job` returns; a dispatcher that handled them before
    /// the job was indexed dropped them and the pilot never turned Ready.
    /// A cold start makes the race likeliest, so repeat it often.
    #[test]
    fn cold_pilot_always_becomes_ready() {
        for i in 0..300 {
            let rts = crate::RuntimeSystem::start(crate::RtsConfig::sim(PlatformId::TestRig));
            let p = rts.submit_pilot(&PilotDescription::test_rig());
            assert!(
                rts.wait_pilot_ready(p, Duration::from_secs(2)),
                "cold start {i}: pilot never became ready"
            );
        }
    }

    /// The same race, forced: the submitter stalls right after the engine
    /// accepted the job, so JobActive and JobReady are on the event stream
    /// long before the job is indexed.
    #[test]
    fn pilot_events_that_beat_the_job_index_are_not_lost() {
        let _guard = entk_fail::scenario();
        entk_fail::arm_once(
            "rts.pilot.job_submitted",
            entk_fail::InjectedAction::Delay(50),
        );
        let rt = runtime();
        let p = rt.submit_pilot(&PilotDescription::test_rig());
        assert_eq!(entk_fail::fires("rts.pilot.job_submitted"), 1);
        assert!(rt.wait_pilot_ready(p, Duration::from_secs(2)));
    }

    /// A session that leaves takes its ended units with it: the unit table,
    /// the DB and the simulator hold nothing of them afterwards, and a
    /// runtime serving session after session never holds more than one
    /// session's units.
    #[test]
    fn take_records_leaves_nothing_of_ended_units() {
        const UNITS: usize = 16;
        let rt = runtime();
        let p = ready_pilot(&rt);
        for session in 0..20 {
            let descs = (0..UNITS)
                .map(|i| {
                    UnitDescription::new(format!("s{session}u{i}"), Executable::Sleep { secs: 1.0 })
                })
                .collect();
            rt.submit_units(p, descs).unwrap();
            assert!(
                rt.records().len() <= UNITS,
                "records outgrew the units in flight"
            );
            drain_until_terminal(&rt, UNITS);
            let records = rt.take_records();
            assert_eq!(records.len(), UNITS);
            assert!(records
                .iter()
                .all(|r| r.tag.starts_with(&format!("s{session}u"))
                    && r.outcome == Some(UnitOutcome::Done)));
            assert!(rt.records().is_empty());
            assert_eq!(rt.db().unit_docs(), 0);
            assert_eq!(rt.db().queued_for(p.0), 0);
            assert_eq!(rt.resident_units(), 0, "session {session} left residue");
        }
    }

    /// Units still in flight stay behind and are reported again.
    #[test]
    fn take_records_keeps_units_in_flight() {
        let rt = runtime();
        let p = ready_pilot(&rt);
        rt.submit_units(
            p,
            vec![
                UnitDescription::new("quick", Executable::Sleep { secs: 1.0 }),
                UnitDescription::new("slow", Executable::Sleep { secs: 1e6 }),
            ],
        )
        .unwrap();
        drain_until_terminal(&rt, 1);
        assert_eq!(rt.take_records().len(), 2);
        let left = rt.take_records();
        assert_eq!(left.len(), 1);
        assert_eq!((left[0].tag.as_str(), &left[0].outcome), ("slow", &None));
    }

    #[test]
    fn unit_executes_and_completes() {
        let rt = runtime();
        let p = ready_pilot(&rt);
        let units = rt
            .submit_units(
                p,
                vec![UnitDescription::new(
                    "u1",
                    Executable::Sleep { secs: 100.0 },
                )],
            )
            .unwrap();
        assert_eq!(units.len(), 1);
        let out = drain_until_terminal(&rt, 1);
        assert_eq!(out["u1"], UnitOutcome::Done);
        let recs = rt.records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        let exec = r.exec_secs().unwrap();
        assert!((exec - 100.0).abs() < 1e-6, "exec = {exec}");
    }

    #[test]
    fn staging_precedes_execution() {
        let rt = runtime();
        let p = ready_pilot(&rt);
        rt.submit_units(
            p,
            vec![
                UnitDescription::new("u1", Executable::Sleep { secs: 10.0 }).with_staging(
                    crate::api::StagingSpec::input(StageUnit::single_file(1_000_000_000)),
                ),
            ],
        )
        .unwrap();
        let out = drain_until_terminal(&rt, 1);
        assert_eq!(out["u1"], UnitOutcome::Done);
        let r = &rt.records()[0];
        assert!(r.stage_in_duration_secs > 0.0);
        assert!(r.stage_in_done_secs.unwrap() <= r.started_secs.unwrap());
    }

    #[test]
    fn sequential_stager_serializes_units() {
        let rt = runtime();
        let p = ready_pilot(&rt);
        // 1 GB per unit at 10 GB/s = 0.1 s staging each; 4 units with one
        // stager must take ≥ 0.4 s of staging before the last can start.
        let descs: Vec<UnitDescription> = (0..4)
            .map(|i| {
                UnitDescription::new(format!("u{i}"), Executable::Sleep { secs: 1.0 }).with_staging(
                    crate::api::StagingSpec::input(StageUnit::single_file(1_000_000_000)),
                )
            })
            .collect();
        rt.submit_units(p, descs).unwrap();
        drain_until_terminal(&rt, 4);
        let mut stage_done: Vec<f64> = rt
            .records()
            .iter()
            .map(|r| r.stage_in_done_secs.unwrap())
            .collect();
        stage_done.sort_by(f64::total_cmp);
        // Strictly increasing by ~0.1 s each: serialized.
        for w in stage_done.windows(2) {
            assert!(w[1] > w[0] + 0.05, "staging not serialized: {stage_done:?}");
        }
    }

    #[test]
    fn many_units_all_complete() {
        let rt = runtime();
        let p = ready_pilot(&rt);
        let descs: Vec<UnitDescription> = (0..64)
            .map(|i| UnitDescription::new(format!("u{i}"), Executable::Sleep { secs: 50.0 }))
            .collect();
        rt.submit_units(p, descs).unwrap();
        let out = drain_until_terminal(&rt, 64);
        assert!(out.values().all(|o| *o == UnitOutcome::Done));
        // TestRig has 32 cores; 64 1-core 50 s tasks run in two generations.
        let prof = crate::profile::RtsProfile::from_records(&rt.records());
        assert!(prof.exec_makespan_secs >= 100.0 - 1e-6);
        assert!(prof.exec_makespan_secs < 110.0);
    }

    #[test]
    fn pilot_walltime_cancels_units() {
        let rt = runtime();
        let p = rt.submit_pilot(&PilotDescription {
            platform: PlatformId::TestRig,
            nodes: 1,
            walltime_secs: 60,
            bootstrap_secs: 0.0,
        });
        assert!(rt.wait_pilot_ready(p, Duration::from_secs(5)));
        rt.submit_units(
            p,
            vec![UnitDescription::new(
                "long",
                Executable::Sleep { secs: 600.0 },
            )],
        )
        .unwrap();
        let out = drain_until_terminal(&rt, 1);
        assert_eq!(out["long"], UnitOutcome::Canceled);
        // The JobEnded event may trail the task's Canceled callback briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.pilot_state(p) != Some(PilotState::Done) {
            assert!(Instant::now() < deadline, "pilot never reached Done");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn kill_makes_rts_unresponsive() {
        let rt = runtime();
        let p = ready_pilot(&rt);
        rt.submit_units(
            p,
            vec![UnitDescription::new(
                "doomed",
                Executable::Sleep { secs: 1e6 },
            )],
        )
        .unwrap();
        assert!(rt.is_alive());
        rt.kill();
        assert!(!rt.is_alive());
        // The doomed unit never reaches a terminal state: it was lost.
        let recs = rt.records();
        assert!(recs[0].outcome.is_none());
    }

    #[test]
    fn teardown_is_idempotent_and_reports_time() {
        let rt = runtime();
        let _ = ready_pilot(&rt);
        let d1 = rt.teardown();
        let d2 = rt.teardown();
        assert!(d1 >= Duration::ZERO);
        assert!(d2 < d1 + Duration::from_millis(50));
        assert!(!rt.is_alive());
    }

    #[test]
    fn db_records_unit_history() {
        let rt = runtime();
        let p = ready_pilot(&rt);
        let ids = rt
            .submit_units(
                p,
                vec![UnitDescription::new("u1", Executable::Sleep { secs: 5.0 })],
            )
            .unwrap();
        drain_until_terminal(&rt, 1);
        let doc = rt.db().get(ids[0]).unwrap();
        assert_eq!(doc.state, UnitState::Done);
        assert!(doc.history.contains(&UnitState::Executing));
    }

    fn noop_units(n: usize) -> Vec<UnitDescription> {
        (0..n)
            .map(|i| UnitDescription::new(format!("u{i}"), Executable::Noop))
            .collect()
    }

    /// A submission costs one engine command whatever its size: no clock
    /// round trip, one launch for every unit.
    #[test]
    fn submission_is_one_engine_command() {
        const UNITS: usize = 256;
        let (rt, commands) = counting_runtime();
        let p = ready_pilot(&rt);
        let before = commands.get();
        let ids = rt.submit_units(p, noop_units(UNITS)).unwrap();
        assert_eq!(commands.get() - before, 1, "one launch command");
        assert_eq!(ids.len(), UNITS);
        let out = drain_until_terminal(&rt, UNITS);
        assert!(out.values().all(|o| *o == UnitOutcome::Done));
    }

    /// A unit is stamped at the instant its launch was applied, even when
    /// the submission wakes an engine that slept toward the pilot's
    /// walltime without publishing its clock: submission to start costs
    /// the same after a long idle as right after the pilot turned Ready.
    #[test]
    fn submission_is_stamped_at_the_launch_instant() {
        let rt = runtime();
        let p = ready_pilot(&rt);
        let submit_to_start = |tag: &str| {
            let unit = UnitDescription::new(tag, Executable::Noop);
            let id = rt.submit_units(p, vec![unit]).unwrap()[0];
            drain_until_terminal(&rt, 1);
            let r = rt.records().into_iter().find(|r| r.unit == id).unwrap();
            r.started_secs.unwrap() - r.submitted_secs
        };
        let fresh = submit_to_start("fresh");
        // 200 idle windows: 1000 virtual seconds in 100 ms of real time,
        // well inside the pilot's 7200 s walltime.
        std::thread::sleep(Duration::from_millis(100));
        let idle = submit_to_start("idle");
        assert!(
            (idle - fresh).abs() < 1e-9,
            "fresh {fresh}, after idle {idle}"
        );
    }

    #[test]
    fn failpoint_insert_units_dies_after_partial_bulk_insert() {
        let _guard = entk_fail::scenario();
        entk_fail::arm_once("rts.db.insert_units", entk_fail::InjectedAction::Partial(3));
        let (rt, commands) = counting_runtime();
        let p = ready_pilot(&rt);
        let before = commands.get();
        assert!(rt.submit_units(p, noop_units(8)).is_err());
        assert!(!rt.is_alive(), "the RTS died mid-insert");
        assert_eq!(commands.get(), before, "nothing launched");
        // Exactly the injected prefix reached the store; nothing was routed.
        assert_eq!(rt.db().queued_for(p.0), 3);
        assert!(rt.db().get(UnitId(3)).is_some());
        assert!(rt.db().get(UnitId(4)).is_none());
    }

    #[test]
    fn failpoint_update_states_dies_after_partial_bulk_update() {
        let _guard = entk_fail::scenario();
        entk_fail::arm_once(
            "rts.db.update_states",
            entk_fail::InjectedAction::Partial(2),
        );
        let (rt, commands) = counting_runtime();
        let p = ready_pilot(&rt);
        let before = commands.get();
        assert!(rt.submit_units(p, noop_units(4)).is_err());
        assert!(!rt.is_alive());
        assert_eq!(commands.get(), before, "nothing launched");
        // All four documents were inserted, but only the first two carry
        // their submit-path AgentQueued transition.
        for (i, expect_update) in [(1, true), (2, true), (3, false), (4, false)] {
            let doc = rt.db().get(UnitId(i)).expect("inserted");
            assert_eq!(
                doc.history.contains(&UnitState::AgentQueued),
                expect_update,
                "unit {i}"
            );
        }
    }

    #[test]
    fn failpoint_partial_submit_registers_only_the_prefix() {
        let _guard = entk_fail::scenario();
        entk_fail::arm_once("rts.submit.partial", entk_fail::InjectedAction::Partial(2));
        let (rt, commands) = counting_runtime();
        let p = ready_pilot(&rt);
        let before = commands.get();
        assert!(rt.submit_units(p, noop_units(6)).is_err());
        assert!(!rt.is_alive(), "the RTS died right after the handover");
        assert_eq!(rt.records().len(), 2, "only the accepted prefix exists");
        assert_eq!(rt.db().queued_for(p.0), 2, "the prefix is queued");
        assert_eq!(commands.get(), before, "nothing launched");
    }

    #[test]
    fn submit_to_unknown_pilot_cancels_units() {
        let rt = runtime();
        rt.submit_units(
            PilotId(999),
            vec![UnitDescription::new("ghost", Executable::Noop)],
        )
        .unwrap();
        let recs = rt.records();
        assert_eq!(recs[0].outcome, Some(UnitOutcome::Canceled));
    }
}
