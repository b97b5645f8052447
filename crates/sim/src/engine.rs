//! The simulation engine: a dedicated thread that owns the `World`,
//! accepts commands from real threads, and advances virtual time.
//!
//! Commands are stamped with the current virtual time on arrival. The engine
//! only advances the clock when the command channel has stayed quiet for a
//! small real-time *grace window*, so bursts of submissions from the runtime
//! system land "at the same virtual instant" as they would on a real machine
//! where submission latency is negligible compared to task durations.
//!
//! A burst is best sent as one command: [`SimCommander::launch_tasks`] puts
//! a whole batch into the world at one instant for one round trip, however
//! large. Reading the clock is not a command at all: the engine publishes
//! `world.now` to a shared atomic before it sends the events of an instant,
//! so [`SimCommander::now`] is a load that neither queues behind other
//! commands nor restarts the grace window, and is never behind the time of
//! an event already received. It can trail the instant the next command is
//! applied at: an engine sleeping toward a distant event credits the quiet
//! windows only when a command wakes it. The replies of `launch_tasks`,
//! `stage` and `sync` carry the instant the engine applied them at.

use crate::cluster::World;
use crate::events::SimEvent;
use crate::fs::StageUnit;
use crate::platform::Platform;
use crate::spec::{JobDescription, JobId, StageId, TaskDesc, TaskId};
use crate::time::{SimDuration, SimTime};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use entk_observe::{components, Counter, Gauge, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The computing infrastructure to simulate.
    pub platform: Platform,
    /// RNG seed: same seed + same command sequence = same trajectory.
    pub seed: u64,
    /// How long the command channel must stay quiet before virtual time may
    /// advance past pending events.
    pub grace: Duration,
    /// Largest idle jump of virtual time per grace window. Bounding the
    /// jump keeps the virtual clock from leapfrogging in-flight real-time
    /// reactions of the middleware above (e.g. racing a pilot's walltime
    /// expiry against task submission). With the defaults (5 s per 500 µs)
    /// virtual time advances at most 10,000× real time while idle. The
    /// engine does not tick through a long idle stretch: after
    /// `ATTENTIVE_WINDOWS` quiet windows it sleeps until a command arrives or
    /// the rate-limited clock would have reached the next event, and credits
    /// the quiet windows that passed in one step.
    pub max_idle_jump: SimDuration,
    /// If set, the engine counts emitted events per family, tracks the
    /// virtual clock as a gauge, and records clock-checkpoint trace events.
    pub recorder: Option<Recorder>,
}

impl SimConfig {
    /// Config for a platform with defaults (seed 0, 500 µs grace).
    pub fn new(platform: Platform) -> Self {
        SimConfig {
            platform,
            seed: 0,
            grace: Duration::from_micros(500),
            max_idle_jump: SimDuration::from_secs(5),
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

/// Engine-side observability: counters cached outside the hot loop, plus the
/// virtual-clock gauge and checkpoint trace events.
struct EngineObs {
    recorder: Recorder,
    /// Commands the engine applied (`sim.commands`; shutdown not counted).
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
    Shutdown,
}

/// Cheap cloneable command injector (for multi-threaded runtimes).
#[derive(Clone)]
pub struct SimCommander {
    cmd_tx: Sender<Command>,
    /// `world.now` in microseconds, stored by the engine before it sends the
    /// events of that instant.
    clock: Arc<AtomicU64>,
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

    /// Current virtual time: a load, not a command. At least the time of
    /// every event already received from the engine. While the engine
    /// sleeps toward a distant event it stores nothing, so this may trail
    /// the instant its next command is applied at; the replies of
    /// [`launch_tasks`](Self::launch_tasks), [`stage`](Self::stage) and
    /// [`sync`](Self::sync) carry that instant.
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
        let engine_clock = Arc::clone(&clock);
        let thread = std::thread::Builder::new()
            .name(format!("hpc-sim-{}", config.platform.id.name()))
            .spawn(move || engine_loop(config, cmd_rx, event_tx, engine_clock))
            .expect("spawn sim engine");
        SimHandle {
            commander: SimCommander { cmd_tx, clock },
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
    /// virtual-time order.
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
    if let (Some(obs), false) = (obs, matches!(cmd, Command::Shutdown)) {
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
        Command::Shutdown => return false,
    }
    true
}

/// Publish the clock, then send the events of this instant: a thread that
/// received an event reads a clock at least as late as the event.
fn drain_outbox(
    world: &mut World,
    clock: &AtomicU64,
    event_tx: &Sender<SimEvent>,
    obs: Option<&EngineObs>,
) {
    clock.store(world.now.0, Ordering::Release);
    for ev in world.outbox.drain(..) {
        if let Some(obs) = obs {
            obs.count(&ev);
        }
        // Receiver may be gone (subscriber exited); that's fine.
        let _ = event_tx.send(ev);
    }
}

/// Quiet windows an engine with a distant next event still ticks through
/// one at a time before it sleeps the rest of the distance in one go. While
/// the middleware may be reacting to the last events, the virtual clock
/// advances once per wake-up of this thread — so a starved host slows it
/// down with everything else, and virtual durations measured across a
/// reaction do not grow with the load. After this many windows without a
/// command or an event nobody is reacting any more.
const ATTENTIVE_WINDOWS: u64 = 64;

fn engine_loop(
    config: SimConfig,
    cmd_rx: Receiver<Command>,
    event_tx: Sender<SimEvent>,
    clock: Arc<AtomicU64>,
) {
    let obs = config.recorder.map(EngineObs::new);
    let obs = obs.as_ref();
    let mut world = World::new(config.platform, config.seed);
    // Consecutive quiet windows since the last command or event.
    let mut quiet_streak = 0u64;
    'outer: loop {
        // 1. Drain every queued command at the current virtual instant.
        loop {
            match cmd_rx.try_recv() {
                Ok(cmd) => {
                    if !apply(&mut world, cmd, obs) {
                        break 'outer;
                    }
                    quiet_streak = 0;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
        drain_outbox(&mut world, &clock, &event_tx, obs);

        // 2. Advance virtual time only after the grace window stays quiet:
        // one window per `max_idle_jump` of distance to the next event.
        let arrived = match world.next_event_time() {
            // Nothing to simulate: park until a command arrives.
            None => match cmd_rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => break 'outer,
            },
            Some(next) => {
                let jump = config.max_idle_jump.0.max(1);
                let windows = next.saturating_since(world.now).0.div_ceil(jump).max(1);
                let waited = if quiet_streak < ATTENTIVE_WINDOWS {
                    1
                } else {
                    windows
                };
                let quiet_since = Instant::now();
                let wait = config.grace * u32::try_from(waited).unwrap_or(u32::MAX);
                let arrived = match cmd_rx.recv_timeout(wait) {
                    Ok(cmd) => Some(cmd),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break 'outer,
                };
                // Windows that stayed quiet. A command in hand is stamped
                // before the event: it is credited the windows that passed
                // while it was still on its way, never the last one.
                let quiet = match &arrived {
                    Some(_) => {
                        let grace_ns = config.grace.as_nanos().max(1);
                        ((quiet_since.elapsed().as_nanos() / grace_ns) as u64).min(waited - 1)
                    }
                    None => waited,
                };
                if quiet == windows {
                    // Process the full batch at the next timestamp, plus any
                    // cascades that land at the same instant.
                    while world.next_event_time() == Some(next) {
                        world.step();
                    }
                    drain_outbox(&mut world, &clock, &event_tx, obs);
                    quiet_streak = 0;
                } else {
                    world.now += SimDuration(quiet * jump);
                    clock.store(world.now.0, Ordering::Release);
                    quiet_streak += quiet;
                }
                if let (true, Some(obs)) = (quiet > 0, obs) {
                    obs.checkpoint(world.now);
                }
                arrived
            }
        };
        if let Some(cmd) = arrived {
            if !apply(&mut world, cmd, obs) {
                break 'outer;
            }
            drain_outbox(&mut world, &clock, &event_tx, obs);
            quiet_streak = 0;
        }
    }
    drain_outbox(&mut world, &clock, &event_tx, obs);
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
    /// arrive within the boot (the clock needs 24 grace windows to get
    /// there), so a replay sees the same trajectory.
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

    #[test]
    fn end_to_end_task_execution_in_virtual_time() {
        let h = start_testrig();
        let job = h.submit_job(JobDescription::small());
        let task = h.launch_task(job, TaskDesc::fixed_secs(600));
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
        let job = h.submit_job(JobDescription::small()); // 8 cores
        let mut tasks = vec![];
        for _ in 0..8 {
            tasks.push(h.launch_task(job, TaskDesc::fixed_secs(100)));
        }
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
    /// `submitted_at` cleared: when a launch reached a booting job depends
    /// on real time, the trajectory does not.
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

    /// After the attentive windows the engine sleeps toward the job's
    /// walltime without storing the clock; a launch that wakes it is
    /// applied further on, and its reply says where.
    #[test]
    fn launch_reply_carries_the_instant_the_tasks_were_stamped_at() {
        let h = start_testrig();
        // Walltime 3600 s; 200 idle windows are 1000 virtual seconds in
        // 100 ms of real time.
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
}
