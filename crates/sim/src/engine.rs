//! The simulation engine: a dedicated thread that owns the `World`,
//! accepts commands from real threads, and advances virtual time.
//!
//! Commands are applied at the current virtual instant whenever they
//! arrive, and the events they set off at that instant are stepped at once.
//! The clock advances on quiescence, not on a timer: every event the engine
//! sends carries a [`Credit`], and the engine steps to its next instant only
//! when no credit is alive, no command is queued, and at least `gap / PACE`
//! of real time has passed since the instant its previous step was allowed
//! (see [`Pacer`]). A
//! reaction to an event — the middleware's launch of the next stage, say —
//! sent while that event's credit is alive is therefore applied at the
//! event's instant, however long the reaction took in real time, and the
//! virtual timeline does not depend on host load. The pace gives idle
//! stretches (a pilot's walltime, a long task) a time scale: virtual time
//! runs at most `PACE` times faster than real time.
//!
//! A burst is best sent as one command: [`SimCommander::launch_tasks`] puts
//! a whole batch into the world at one instant for one round trip, however
//! large; separate commands land at one instant when a credit is held
//! across them ([`SimCommander::hold`]). Reading the clock is not a command
//! at all: the engine publishes `world.now` to a shared atomic before it
//! sends the events of an instant, so [`SimCommander::now`] is a load that
//! is never behind the time of an event already received. The replies of
//! `launch_tasks`, `stage` and `sync` carry the instant the engine applied
//! them at.

use crate::cluster::World;
use crate::events::SimEvent;
use crate::fs::StageUnit;
use crate::platform::Platform;
use crate::spec::{JobDescription, JobId, StageId, TaskDesc, TaskId};
use crate::time::{SimDuration, SimTime};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use entk_observe::{components, Counter, Gauge, Recorder};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual time runs at most this many times faster than real time: the
/// engine steps to an event `gap` ahead no sooner than `gap / PACE` of real
/// time after the instant its previous step was allowed (5 virtual seconds
/// per 500 µs). A step at the current instant counts: a pilot that turns
/// Ready gets the pace of its walltime from then, however long the clock
/// sat still before.
const PACE: u64 = 10_000;

/// The pace rule. A paced step is allowed once it is due and no credit is
/// alive; the next pace counts from that instant, `max(due, the moment the
/// engine found no credit alive)`, not from when the engine got round to
/// the step. So the engine's late wake-up and its own event sends overlap
/// the next pace instead of adding to it, and a reaction shorter than the
/// pace costs no real time at all. Virtual time still runs at most `PACE`
/// times faster than real time between allowed instants.
struct Pacer {
    /// The instant the previous step was allowed at.
    anchor: Instant,
    /// When the engine first found no credit alive since that step.
    free_since: Option<Instant>,
}

impl Pacer {
    fn new(now: Instant) -> Self {
        Pacer {
            anchor: now,
            free_since: None,
        }
    }

    /// A credit is alive: the next step waits for its release.
    fn held(&mut self) {
        self.free_since = None;
    }

    /// No credit is alive at `now`: when the step `gap` ahead is due.
    fn due(&mut self, gap: SimDuration, now: Instant) -> Instant {
        self.free_since.get_or_insert(now);
        self.anchor + pace(gap)
    }

    /// The step `due` returned was taken: the next pace counts from the
    /// instant it became allowed.
    fn stepped(&mut self, due: Instant) {
        let free = self.free_since.take().unwrap_or(due);
        self.anchor = due.max(free);
    }

    /// A step at the current instant: the pace restarts from `now`.
    fn restart(&mut self, now: Instant) {
        self.anchor = now;
        self.free_since = None;
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The computing infrastructure to simulate.
    pub platform: Platform,
    /// RNG seed: same seed + same command sequence = same trajectory.
    pub seed: u64,
    /// If set, the engine counts emitted events per family, tracks the
    /// virtual clock as a gauge, and records clock-checkpoint trace events.
    pub recorder: Option<Recorder>,
}

impl SimConfig {
    /// Config for a platform with defaults (seed 0, no recorder).
    pub fn new(platform: Platform) -> Self {
        SimConfig {
            platform,
            seed: 0,
            recorder: None,
        }
    }

    /// Builder: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: attach a trace recorder.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// The credits of one engine: how many are alive, and the doorbell that
/// wakes the engine when the last one goes. The count's release on drop
/// pairs with the engine's acquire in `any_alive`, so an engine that sees
/// no credit also sees everything their holders did before letting go. A
/// clone or a mint may be relaxed, as with `Arc`: it publishes nothing.
struct Credits {
    alive: AtomicUsize,
    doorbell: Sender<Command>,
}

impl Credits {
    fn mint(self: &Arc<Self>) -> Credit {
        self.alive.fetch_add(1, Ordering::Relaxed);
        Credit(Some(Arc::clone(self)))
    }

    fn any_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire) > 0
    }
}

/// A reaction credit. While any credit of an engine is alive, its virtual
/// clock stays at the current instant: every event carries one, and
/// whoever reacts to the event keeps it (or a clone) until the reaction
/// has reached the engine as a command, or has ended. Dropping the last
/// one lets the clock move on. `Credit::default()` belongs to no engine
/// and holds nothing back, and neither does a credit of a stopped engine.
///
/// Credits compare equal: they are no part of an event's identity.
#[derive(Default)]
pub struct Credit(Option<Arc<Credits>>);

impl Clone for Credit {
    fn clone(&self) -> Self {
        match &self.0 {
            Some(credits) => credits.mint(),
            None => Credit(None),
        }
    }
}

impl Drop for Credit {
    fn drop(&mut self) {
        if let Some(credits) = &self.0 {
            if credits.alive.fetch_sub(1, Ordering::AcqRel) == 1 {
                // The engine may be parked waiting for exactly this.
                let _ = credits.doorbell.send(Command::Released);
            }
        }
    }
}

impl PartialEq for Credit {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for Credit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "Credit"
        } else {
            "Credit(none)"
        })
    }
}

/// Engine-side observability: counters cached outside the hot loop, plus the
/// virtual-clock gauge and checkpoint trace events.
struct EngineObs {
    recorder: Recorder,
    /// Commands the engine applied (`sim.commands`; shutdown and credit
    /// releases not counted).
    commands: Arc<Counter>,
    ev_job: Arc<Counter>,
    ev_task: Arc<Counter>,
    ev_stage: Arc<Counter>,
    vclock_ms: Arc<Gauge>,
}

impl EngineObs {
    fn new(recorder: Recorder) -> Self {
        let m = recorder.metrics_arc();
        EngineObs {
            recorder,
            commands: m.counter("sim.commands"),
            ev_job: m.counter("sim.events.job"),
            ev_task: m.counter("sim.events.task"),
            ev_stage: m.counter("sim.events.stage"),
            vclock_ms: m.gauge("sim.vclock_ms"),
        }
    }

    fn count(&self, ev: &SimEvent) {
        match ev {
            SimEvent::JobActive { .. } | SimEvent::JobReady { .. } | SimEvent::JobEnded { .. } => {
                self.ev_job.incr()
            }
            SimEvent::TaskStarted { .. } | SimEvent::TaskEnded { .. } => self.ev_task.incr(),
            SimEvent::StageEnded { .. } => self.ev_stage.incr(),
        }
    }

    /// Record the virtual clock after it advanced: gauge always, trace event
    /// only when tracing is on (the payload format is not free).
    fn checkpoint(&self, now: SimTime) {
        let secs = now.as_secs_f64();
        self.vclock_ms.set((secs * 1000.0) as i64);
        if self.recorder.is_enabled() {
            self.recorder
                .record(components::SIM, "vclock", "", format!("{secs:.6}"));
        }
    }
}

enum Command {
    SubmitJob(JobDescription, Sender<JobId>),
    CancelJob(JobId),
    LaunchTasks(JobId, Vec<TaskDesc>, Sender<(Vec<TaskId>, SimTime)>),
    CancelTask(TaskId),
    Stage(Vec<StageUnit>, usize, Sender<(StageId, SimTime)>),
    Sync(Sender<SimTime>),
    QueryLiveTasks(Sender<usize>),
    /// The last credit was dropped: a doorbell, not a command.
    Released,
    Shutdown,
}

/// Cheap cloneable command injector (for multi-threaded runtimes).
#[derive(Clone)]
pub struct SimCommander {
    cmd_tx: Sender<Command>,
    /// `world.now` in microseconds, stored by the engine before it sends the
    /// events of that instant.
    clock: Arc<AtomicU64>,
    credits: Arc<Credits>,
}

impl SimCommander {
    /// Submit a pilot job to the batch queue; returns its id.
    pub fn submit_job(&self, desc: JobDescription) -> JobId {
        let (tx, rx) = bounded(1);
        self.cmd_tx
            .send(Command::SubmitJob(desc, tx))
            .expect("engine alive");
        rx.recv().expect("engine replies")
    }

    /// Cancel a job (normal pilot teardown); running tasks are lost.
    pub fn cancel_job(&self, id: JobId) {
        let _ = self.cmd_tx.send(Command::CancelJob(id));
    }

    /// Launch a task inside a job; returns its id immediately (the task may
    /// queue inside the pilot until cores are free). A batch of one.
    pub fn launch_task(&self, job: JobId, desc: TaskDesc) -> TaskId {
        self.launch_tasks(job, vec![desc]).0[0]
    }

    /// Launch a batch of tasks inside a job in one command: they enter the
    /// world in order at one virtual instant. Returns their ids in the
    /// order of `descs`, and that instant.
    pub fn launch_tasks(&self, job: JobId, descs: Vec<TaskDesc>) -> (Vec<TaskId>, SimTime) {
        let (tx, rx) = bounded(1);
        self.cmd_tx
            .send(Command::LaunchTasks(job, descs, tx))
            .expect("engine alive");
        rx.recv().expect("engine replies")
    }

    /// Cancel a task (queued or running).
    pub fn cancel_task(&self, id: TaskId) {
        let _ = self.cmd_tx.send(Command::CancelTask(id));
    }

    /// Submit a staging operation: `units` are distributed round-robin over
    /// `workers` sequential streams. Returns its id and the virtual instant
    /// the engine accepted it at.
    pub fn stage(&self, units: Vec<StageUnit>, workers: usize) -> (StageId, SimTime) {
        let (tx, rx) = bounded(1);
        self.cmd_tx
            .send(Command::Stage(units, workers, tx))
            .expect("engine alive");
        rx.recv().expect("engine replies")
    }

    /// A fresh credit: the clock stays where it is until it is dropped.
    /// It holds back steps from the moment it is taken, so it covers a
    /// reaction only if taken before the engine could have stepped past
    /// what is being reacted to — while another credit is alive, or at an
    /// instant whose next step is far off.
    pub fn hold(&self) -> Credit {
        self.credits.mint()
    }

    /// Current virtual time: a load, not a command. At least the time of
    /// every event already received from the engine.
    pub fn now(&self) -> SimTime {
        SimTime(self.clock.load(Ordering::Acquire))
    }

    /// Wait until the engine has applied every command sent before this
    /// call; returns the virtual instant it applied this one at. A stopped
    /// engine returns at once, with the last published clock.
    pub fn sync(&self) -> SimTime {
        let (tx, rx) = bounded(1);
        match self.cmd_tx.send(Command::Sync(tx)) {
            Ok(()) => rx.recv().unwrap_or_else(|_| self.now()),
            Err(_) => self.now(),
        }
    }

    /// Tasks that have not ended yet. The world forgets a task when it
    /// ends, so this is also everything it holds per task; a stopped engine
    /// holds nothing.
    pub fn live_tasks(&self) -> usize {
        let (tx, rx) = bounded(1);
        match self.cmd_tx.send(Command::QueryLiveTasks(tx)) {
            Ok(()) => rx.recv().unwrap_or(0),
            Err(_) => 0,
        }
    }
}

/// Handle to a running simulation: commander + event stream + lifecycle.
pub struct SimHandle {
    commander: SimCommander,
    events_rx: Receiver<SimEvent>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Entry point: build and start simulations.
pub struct Simulation;

impl Simulation {
    /// Start a simulation engine on its own thread.
    pub fn start(config: SimConfig) -> SimHandle {
        let (cmd_tx, cmd_rx) = unbounded::<Command>();
        let (event_tx, events_rx) = unbounded::<SimEvent>();
        let clock = Arc::new(AtomicU64::new(SimTime::ZERO.0));
        let credits = Arc::new(Credits {
            alive: AtomicUsize::new(0),
            doorbell: cmd_tx.clone(),
        });
        let engine = Engine {
            clock: Arc::clone(&clock),
            credits: Arc::clone(&credits),
            event_tx,
            obs: config.recorder.clone().map(EngineObs::new),
        };
        let thread = std::thread::Builder::new()
            .name(format!("hpc-sim-{}", config.platform.id.name()))
            .spawn(move || engine.run(config, cmd_rx))
            .expect("spawn sim engine");
        SimHandle {
            commander: SimCommander {
                cmd_tx,
                clock,
                credits,
            },
            events_rx,
            thread: Some(thread),
        }
    }
}

impl SimHandle {
    /// A cloneable command injector.
    pub fn commander(&self) -> SimCommander {
        self.commander.clone()
    }

    /// The event stream. Events carry virtual timestamps; they arrive in
    /// virtual-time order, each with a [`Credit`] that holds the clock
    /// until the event is dropped.
    pub fn events(&self) -> &Receiver<SimEvent> {
        &self.events_rx
    }

    /// Convenience passthroughs.
    pub fn submit_job(&self, desc: JobDescription) -> JobId {
        self.commander.submit_job(desc)
    }

    /// See [`SimCommander::cancel_job`].
    pub fn cancel_job(&self, id: JobId) {
        self.commander.cancel_job(id)
    }

    /// See [`SimCommander::launch_task`].
    pub fn launch_task(&self, job: JobId, desc: TaskDesc) -> TaskId {
        self.commander.launch_task(job, desc)
    }

    /// See [`SimCommander::launch_tasks`].
    pub fn launch_tasks(&self, job: JobId, descs: Vec<TaskDesc>) -> (Vec<TaskId>, SimTime) {
        self.commander.launch_tasks(job, descs)
    }

    /// See [`SimCommander::cancel_task`].
    pub fn cancel_task(&self, id: TaskId) {
        self.commander.cancel_task(id)
    }

    /// See [`SimCommander::stage`].
    pub fn stage(&self, units: Vec<StageUnit>, workers: usize) -> (StageId, SimTime) {
        self.commander.stage(units, workers)
    }

    /// See [`SimCommander::hold`].
    pub fn hold(&self) -> Credit {
        self.commander.hold()
    }

    /// See [`SimCommander::now`].
    pub fn now(&self) -> SimTime {
        self.commander.now()
    }

    /// See [`SimCommander::sync`].
    pub fn sync(&self) -> SimTime {
        self.commander.sync()
    }

    /// Stop the engine and join its thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        let _ = self.commander.cmd_tx.send(Command::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SimHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn apply(world: &mut World, cmd: Command, obs: Option<&EngineObs>) -> bool {
    // Counted before any reply goes out: a caller holding its reply sees
    // its command counted.
    if let (Some(obs), false) = (obs, matches!(cmd, Command::Shutdown | Command::Released)) {
        obs.commands.incr();
    }
    match cmd {
        Command::SubmitJob(desc, reply) => {
            let id = world.submit_job(desc);
            let _ = reply.send(id);
        }
        Command::CancelJob(id) => world.cancel_job(id),
        Command::LaunchTasks(job, descs, reply) => {
            let ids = descs
                .into_iter()
                .map(|desc| world.launch_task(job, desc))
                .collect();
            let _ = reply.send((ids, world.now));
        }
        Command::CancelTask(id) => world.cancel_task(id),
        Command::Stage(units, workers, reply) => {
            let id = world.stage(units, workers);
            let _ = reply.send((id, world.now));
        }
        Command::Sync(reply) => {
            let _ = reply.send(world.now);
        }
        Command::QueryLiveTasks(reply) => {
            let _ = reply.send(world.live_tasks());
        }
        Command::Released => {}
        Command::Shutdown => return false,
    }
    true
}

/// Real time the engine waits before stepping `gap` ahead.
fn pace(gap: SimDuration) -> Duration {
    // SimDuration counts microseconds: `gap / PACE` in nanoseconds.
    Duration::from_nanos(gap.0.saturating_mul(1_000) / PACE)
}

/// The engine thread's state besides the world.
struct Engine {
    clock: Arc<AtomicU64>,
    credits: Arc<Credits>,
    event_tx: Sender<SimEvent>,
    obs: Option<EngineObs>,
}

impl Engine {
    /// Publish the clock, then send the events of this instant, each with a
    /// credit: a thread that received an event reads a clock at least as
    /// late as the event, and the clock stays there until it drops it.
    fn drain_outbox(&self, world: &mut World) {
        self.clock.store(world.now.0, Ordering::Release);
        for mut ev in world.outbox.drain(..) {
            if let Some(obs) = &self.obs {
                obs.count(&ev);
            }
            *ev.credit_mut() = self.credits.mint();
            // Receiver may be gone (subscriber exited); the failed send
            // hands the event back and drops it, credit and all.
            let _ = self.event_tx.send(ev);
        }
    }

    fn run(self, config: SimConfig, cmd_rx: Receiver<Command>) {
        let obs = self.obs.as_ref();
        let mut world = World::new(config.platform, config.seed);
        let mut pacer = Pacer::new(Instant::now());
        'outer: loop {
            // 1. Apply every queued command at the current virtual instant.
            loop {
                match cmd_rx.try_recv() {
                    Ok(cmd) => {
                        if !apply(&mut world, cmd, obs) {
                            break 'outer;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break 'outer,
                }
            }
            self.drain_outbox(&mut world);

            // 2. Events at the current instant, which only the commands
            // just applied can have set off, are stepped at once: the clock
            // does not move. It moves to the next instant once nobody is
            // reacting and the pace allows; until then the engine waits for
            // a command, or for the last credit's doorbell.
            let deadline = match world.next_event_time() {
                Some(next) if next == world.now => {
                    self.step_to(&mut world, next);
                    pacer.restart(Instant::now());
                    continue;
                }
                Some(next) if !self.credits.any_alive() => {
                    let now = Instant::now();
                    let due = pacer.due(next.saturating_since(world.now), now);
                    if now >= due {
                        pacer.stepped(due);
                        self.step_to(&mut world, next);
                        if let Some(obs) = obs {
                            obs.checkpoint(world.now);
                        }
                        continue;
                    }
                    Some(due)
                }
                _ => {
                    pacer.held();
                    None
                }
            };
            let arrived = match deadline {
                None => cmd_rx.recv().ok(),
                Some(due) => {
                    match cmd_rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                        Ok(cmd) => Some(cmd),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => None,
                    }
                }
            };
            if !arrived.is_some_and(|cmd| apply(&mut world, cmd, obs)) {
                break 'outer;
            }
        }
        self.drain_outbox(&mut world);
    }

    /// Process every event at `next`, cascades that land at the same
    /// instant included, and send what they emitted.
    fn step_to(&self, world: &mut World, next: SimTime) {
        while world.next_event_time() == Some(next) {
            world.step();
        }
        self.drain_outbox(world);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformId;
    use crate::spec::TaskOutcome;

    fn start_testrig() -> SimHandle {
        Simulation::start(SimConfig::new(Platform::catalog(PlatformId::TestRig)).with_seed(1))
    }

    /// A one-node job that boots for 120 s: tasks launched before it turns
    /// Ready all start at that instant, however late in real time they
    /// arrive within the boot (the pace needs 12 ms to get there), so a
    /// replay sees the same trajectory.
    fn booting_job(h: &SimHandle) -> JobId {
        h.submit_job(JobDescription {
            bootstrap: SimDuration::from_secs(120),
            ..JobDescription::small()
        })
    }

    /// Collect TaskEnded events (discarding others) until `n` tasks ended.
    fn collect_task_ends(
        h: &SimHandle,
        n: usize,
    ) -> std::collections::HashMap<TaskId, (SimTime, TaskOutcome)> {
        let mut ends = std::collections::HashMap::new();
        while ends.len() < n {
            let ev = h
                .events()
                .recv_timeout(Duration::from_secs(10))
                .expect("event within 10s wall time");
            if let SimEvent::TaskEnded {
                task,
                time,
                outcome,
                ..
            } = ev
            {
                ends.insert(task, (time, outcome));
            }
        }
        ends
    }

    fn wait_task_end(h: &SimHandle, task: TaskId) -> (SimTime, TaskOutcome) {
        collect_task_ends(h, 1)
            .remove(&task)
            .expect("requested task is the only outstanding one")
    }

    /// Microseconds after `t0`.
    fn at(t0: Instant, us: u64) -> Instant {
        t0 + Duration::from_micros(us)
    }

    /// Two virtual seconds: 200 µs of pace.
    fn two_secs() -> SimDuration {
        SimDuration::from_secs(2)
    }

    #[test]
    fn a_late_step_leaves_the_next_due_one_pace_after_the_last() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(t0);
        // The credits are back before the step is due.
        assert_eq!(pacer.due(two_secs(), at(t0, 50)), at(t0, 200));
        // The engine's timed wait overshoots by 200 µs.
        let due = pacer.due(two_secs(), at(t0, 400));
        assert_eq!(due, at(t0, 200));
        pacer.stepped(due);
        assert_eq!(pacer.due(two_secs(), at(t0, 600)), at(t0, 400));
    }

    #[test]
    fn credits_back_after_due_start_the_next_pace_from_their_return() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(t0);
        pacer.held();
        // The last credit returns 300 µs after the step was due.
        let due = pacer.due(two_secs(), at(t0, 500));
        assert_eq!(due, at(t0, 200));
        pacer.stepped(due);
        pacer.held();
        assert_eq!(pacer.due(two_secs(), at(t0, 900)), at(t0, 700));
    }

    #[test]
    fn a_step_at_the_current_instant_restarts_the_pace_from_now() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(t0);
        assert_eq!(pacer.due(two_secs(), at(t0, 50)), at(t0, 200));
        pacer.restart(at(t0, 1_000));
        assert_eq!(pacer.due(two_secs(), at(t0, 1_100)), at(t0, 1_200));
    }

    #[test]
    fn end_to_end_task_execution_in_virtual_time() {
        let h = start_testrig();
        let credit = h.hold();
        let job = h.submit_job(JobDescription::small());
        let task = h.launch_task(job, TaskDesc::fixed_secs(600));
        drop(credit);
        let wall = std::time::Instant::now();
        let (t_end, outcome) = wait_task_end(&h, task);
        assert_eq!(outcome, TaskOutcome::Completed);
        assert_eq!(t_end, SimTime::from_secs_f64(600.0));
        // 600 virtual seconds must cost far less than 2 wall seconds.
        assert!(wall.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn burst_submissions_share_a_virtual_instant() {
        let h = start_testrig();
        let credit = h.hold();
        let job = h.submit_job(JobDescription::small()); // 8 cores
        let mut tasks = vec![];
        for _ in 0..8 {
            tasks.push(h.launch_task(job, TaskDesc::fixed_secs(100)));
        }
        drop(credit);
        let ends = collect_task_ends(&h, 8);
        for t in &tasks {
            assert_eq!(ends[t].0, SimTime::from_secs_f64(100.0));
        }
    }

    #[test]
    fn reaction_chains_preserve_order() {
        // Submit a task, and when it completes submit another: the second
        // must start no earlier than the first ended.
        let h = start_testrig();
        let job = h.submit_job(JobDescription::small());
        let t1 = h.launch_task(job, TaskDesc::fixed_secs(10));
        let (end1, _) = wait_task_end(&h, t1);
        let t2 = h.launch_task(job, TaskDesc::fixed_secs(10));
        let (end2, _) = wait_task_end(&h, t2);
        assert!(end2 >= end1 + SimDuration::from_secs(10));
        use crate::time::SimDuration;
    }

    #[test]
    fn now_reflects_progress() {
        let h = start_testrig();
        assert_eq!(h.now(), SimTime::ZERO);
        let job = h.submit_job(JobDescription::small());
        let t = h.launch_task(job, TaskDesc::fixed_secs(42));
        wait_task_end(&h, t);
        assert!(h.now() >= SimTime::from_secs_f64(42.0));
    }

    #[test]
    fn shutdown_closes_event_stream() {
        let mut h = start_testrig();
        h.shutdown();
        assert!(h.events().recv().is_err());
        h.shutdown(); // idempotent
    }

    #[test]
    fn staging_event_arrives() {
        let h = start_testrig();
        let (s, _) = h.stage(vec![StageUnit::single_file(1_000_000)], 1);
        let ev = h
            .events()
            .recv_timeout(Duration::from_secs(5))
            .expect("stage event");
        match ev {
            SimEvent::StageEnded { stage, .. } => assert_eq!(stage, s),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn recorder_counts_events_and_checkpoints_virtual_clock() {
        let recorder = Recorder::new();
        let h = Simulation::start(
            SimConfig::new(Platform::catalog(PlatformId::TestRig))
                .with_seed(1)
                .with_recorder(recorder.clone()),
        );
        let job = h.submit_job(JobDescription::small());
        let t = h.launch_task(job, TaskDesc::fixed_secs(600));
        wait_task_end(&h, t);
        // The TaskEnded event is sent just before the clock checkpoint; a
        // command round-trip synchronizes with the engine loop so the
        // checkpoint is visible below.
        h.sync();
        let m = recorder.metrics();
        // JobActive + JobReady at least; TaskStarted + TaskEnded.
        assert!(m.counter("sim.events.job").get() >= 2);
        assert_eq!(m.counter("sim.events.task").get(), 2);
        // The clock advanced through the 600 s task, so the gauge and at
        // least one vclock checkpoint event must reflect it.
        assert!(m.gauge("sim.vclock_ms").get() >= 600_000);
        let checkpoints: Vec<f64> = recorder
            .snapshot()
            .iter()
            .filter(|e| e.component == entk_observe::components::SIM && e.kind == "vclock")
            .map(|e| e.payload.parse::<f64>().unwrap())
            .collect();
        assert!(!checkpoints.is_empty());
        assert!(checkpoints.iter().any(|&s| s >= 600.0));
        // Checkpoints are recorded in monotone virtual-time order.
        assert!(checkpoints.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let run = || {
            let h = Simulation::start(
                SimConfig::new(Platform::catalog(PlatformId::TestRig)).with_seed(99),
            );
            let job = h.submit_job(JobDescription::small());
            let mut ids = vec![];
            for _ in 0..20 {
                ids.push(
                    h.launch_task(
                        job,
                        TaskDesc::fixed_secs(50)
                            .with_failure(crate::spec::FailureModel::Random { prob: 0.5 }),
                    ),
                );
            }
            let ends = collect_task_ends(&h, 20);
            ids.iter()
                .map(|t| ends[t].1.is_success())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Every event the engine sent, in order, until `n` tasks ended, with
    /// `submitted_at` cleared (when a launch reached a booting job depends
    /// on real time, the trajectory does not) and each credit released, so
    /// the kept events do not hold the clock.
    fn events_until_ends(h: &SimHandle, n: usize) -> Vec<SimEvent> {
        let mut events = Vec::new();
        let mut ended = 0;
        while ended < n {
            let mut ev = h
                .events()
                .recv_timeout(Duration::from_secs(10))
                .expect("event within 10s wall time");
            if let SimEvent::TaskEnded { submitted_at, .. } = &mut ev {
                *submitted_at = SimTime::ZERO;
                ended += 1;
            }
            drop(std::mem::take(ev.credit_mut()));
            events.push(ev);
        }
        events
    }

    /// Tasks of distinct durations and a coin-flip failure model: the
    /// trajectory has many instants and draws from the RNG.
    fn mixed_tasks(n: u64) -> Vec<TaskDesc> {
        (1..=n)
            .map(|i| {
                TaskDesc::fixed_secs(10 * i)
                    .with_failure(crate::spec::FailureModel::Random { prob: 0.5 })
            })
            .collect()
    }

    #[test]
    fn now_is_never_behind_a_received_event() {
        let h = start_testrig();
        let job = h.submit_job(JobDescription::small()); // 8 cores
        h.launch_tasks(job, mixed_tasks(24));
        let mut ended = 0;
        while ended < 24 {
            let ev = h
                .events()
                .recv_timeout(Duration::from_secs(10))
                .expect("event within 10s wall time");
            // A load, no round trip: the clock was stored before the send.
            assert!(h.now() >= ev.time(), "clock behind {ev:?}");
            ended += usize::from(matches!(ev, SimEvent::TaskEnded { .. }));
        }
    }

    /// A launch into a pilot that has idled for a while is applied at the
    /// pilot's last instant, and its reply says which.
    #[test]
    fn launch_reply_carries_the_instant_the_tasks_were_stamped_at() {
        let h = start_testrig();
        // Walltime 3600 s, so the pace keeps the clock at the pilot's
        // Ready instant for 360 ms of real time.
        let job = h.submit_job(JobDescription::small());
        std::thread::sleep(Duration::from_millis(100));
        let (ids, at) = h.launch_tasks(job, vec![TaskDesc::fixed_secs(10); 2]);
        let ends = collect_task_ends(&h, 2);
        for id in &ids {
            assert_eq!(ends[id].0, at + SimDuration::from_secs(10));
        }
    }

    #[test]
    fn launch_tasks_returns_ids_in_order_and_replays_exactly() {
        let run = || {
            let h = Simulation::start(
                SimConfig::new(Platform::catalog(PlatformId::TestRig)).with_seed(7),
            );
            let job = booting_job(&h);
            let (ids, _) = h.launch_tasks(job, mixed_tasks(20));
            assert!(
                ids.windows(2).all(|w| w[1].0 == w[0].0 + 1),
                "ids out of submission order: {ids:?}"
            );
            (ids, events_until_ends(&h, 20))
        };
        let (ids_a, events_a) = run();
        let (ids_b, events_b) = run();
        assert_eq!(ids_a, ids_b);
        assert_eq!(events_a, events_b);
    }

    #[test]
    fn launch_task_is_a_batch_of_one() {
        let run = |batch: bool| {
            let recorder = Recorder::new();
            let h = Simulation::start(
                SimConfig::new(Platform::catalog(PlatformId::TestRig))
                    .with_seed(5)
                    .with_recorder(recorder.clone()),
            );
            let job = booting_job(&h);
            let commands = recorder.metrics().counter("sim.commands");
            let before = commands.get();
            let desc = mixed_tasks(1).remove(0);
            let id = if batch {
                h.launch_tasks(job, vec![desc]).0[0]
            } else {
                h.launch_task(job, desc)
            };
            assert_eq!(commands.get() - before, 1, "one command per launch");
            (id, events_until_ends(&h, 1))
        };
        assert_eq!(run(false), run(true));
    }

    /// Drain events until `task` ends, keeping that event (and its
    /// credit) alive.
    fn hold_task_end(h: &SimHandle, task: TaskId) -> SimEvent {
        loop {
            let ev = h
                .events()
                .recv_timeout(Duration::from_secs(10))
                .expect("event within 10s wall time");
            if matches!(ev, SimEvent::TaskEnded { task: t, .. } if t == task) {
                return ev;
            }
        }
    }

    #[test]
    fn clock_does_not_pass_an_event_while_a_credit_is_alive() {
        let h = start_testrig();
        let job = h.submit_job(JobDescription::small());
        let credit = h.hold();
        // Ends a virtual second after its launch: the pace alone would
        // step there in a tenth of a millisecond.
        let task = h.launch_task(job, TaskDesc::fixed_secs(1));
        let before = h.now();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(h.now(), before, "the clock moved under a live credit");
        let ended = std::iter::from_fn(|| h.events().try_recv().ok())
            .any(|ev| matches!(ev, SimEvent::TaskEnded { task: t, .. } if t == task));
        assert!(!ended, "an event past a live credit was sent");
        drop(credit);
        let (end, _) = wait_task_end(&h, task);
        assert_eq!(end, before + SimDuration::from_secs(1));
    }

    #[test]
    fn a_late_reaction_under_its_event_credit_lands_at_that_instant() {
        let h = start_testrig();
        let job = h.submit_job(JobDescription::small());
        let credit = h.hold();
        let first = h.launch_task(job, TaskDesc::fixed_secs(1));
        // Ends a second after `first`: 0.1 ms of pace away.
        let other = h.launch_task(job, TaskDesc::fixed_secs(2));
        drop(credit);
        let ended = hold_task_end(&h, first);
        std::thread::sleep(Duration::from_millis(50));
        let (_, at) = h.launch_tasks(job, vec![TaskDesc::fixed_secs(1)]);
        assert_eq!(at, ended.time(), "the reaction was applied late");
        drop(ended);
        let (other_end, _) = wait_task_end(&h, other);
        assert!(other_end > at);
    }
}
