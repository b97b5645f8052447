//! The simulation world: batch queue, jobs (pilots), in-pilot task runtime,
//! filesystem — plus the internal event heap that drives virtual time.
//!
//! `World` is single-threaded by design: the engine thread owns it and
//! feeds it commands (stamped at the current virtual time) and due events.
//! Observable [`SimEvent`]s accumulate in an outbox the engine drains to its
//! subscribers.

use crate::engine::Credit;
use crate::events::SimEvent;
use crate::fs::{FsModel, StageUnit};
use crate::ids::IdMap;
use crate::platform::Platform;
use crate::spec::{
    FailureModel, JobDescription, JobEndReason, JobId, StageId, TaskDesc, TaskId, TaskOutcome,
};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Internal events on the virtual-time heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Ev {
    /// Re-examine the batch queue (a job may now be eligible/startable).
    TryStartJobs,
    /// Pilot agent bootstrap finished.
    JobBootstrapped(JobId),
    /// Job walltime expired.
    JobWalltime(JobId),
    /// Launcher finished spawning the task; execution begins.
    TaskSpawned(TaskId),
    /// Task attempt reached a terminal outcome (the epoch invalidates stale
    /// completion events when an overload re-evaluation schedules a failure).
    TaskFinish(TaskId, u32, TaskOutcome),
    /// A staging operation completed.
    StageDone(StageId),
    /// A node of a running job crashed (CI-level fault injection).
    NodeFailure(JobId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Pending,
    Active, // nodes allocated, bootstrapping
    Ready,  // accepting tasks
    Ended,
}

struct Job {
    desc: JobDescription,
    phase: JobPhase,
    eligible_at: SimTime,
    free_cores: u64,
    free_gpus: u64,
    total_cores: u64,
    total_gpus: u64,
    launcher_free_at: SimTime,
    queued: VecDeque<TaskId>,
    running: Vec<TaskId>,
}

/// A task leaves [`World::tasks`] when it ends, so there is no terminal
/// phase: events that still name it find nothing and are stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskPhase {
    Queued,
    Launching, // cores allocated, launcher/env-setup in progress
    Running,
}

struct Task {
    job: JobId,
    desc: TaskDesc,
    phase: TaskPhase,
    submitted_at: SimTime,
    started_at: Option<SimTime>,
    io_registered: bool,
    /// Scheduled end of the current attempt (completion or failure).
    planned_end: SimTime,
    /// Generation counter for TaskFinish events: bumping it invalidates a
    /// previously scheduled finish.
    epoch: u32,
    /// Highest overload probability this attempt has been evaluated at.
    eval_p: f64,
    /// Whether a failure has already been scheduled for this attempt.
    doomed: bool,
}

/// The complete simulated CI state.
pub(crate) struct World {
    pub(crate) now: SimTime,
    platform: Platform,
    rng: StdRng,
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, EvBox)>>,
    pub(crate) outbox: Vec<SimEvent>,

    free_nodes: u32,
    batch_queue: VecDeque<JobId>,
    jobs: IdMap<JobId, Job>,
    tasks: IdMap<TaskId, Task>,
    fs: FsModel,

    next_job: u64,
    next_task: u64,
    next_stage: u64,
    stage_submitted: IdMap<StageId, SimTime>,
}

/// Wrapper to give `Ev` a total order for the heap (order among same-time
/// events is by sequence number; the Ev itself never decides order).
#[derive(Debug, Clone, PartialEq, Eq)]
struct EvBox(Ev);

impl PartialOrd for EvBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvBox {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl World {
    pub(crate) fn new(platform: Platform, seed: u64) -> Self {
        let free_nodes = platform.nodes;
        let fs = FsModel::new(platform.fs.clone());
        World {
            now: SimTime::ZERO,
            platform,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            heap: BinaryHeap::new(),
            outbox: Vec::new(),
            free_nodes,
            batch_queue: VecDeque::new(),
            jobs: IdMap::default(),
            tasks: IdMap::default(),
            fs,
            next_job: 1,
            next_task: 1,
            next_stage: 1,
            stage_submitted: IdMap::default(),
        }
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, EvBox(ev))));
    }

    fn schedule_in(&mut self, delay: SimDuration, ev: Ev) {
        let at = self.now + delay;
        self.schedule(at, ev);
    }

    /// Time of the earliest pending event, if any.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pop and handle the earliest event, advancing the clock to it.
    pub(crate) fn step(&mut self) -> bool {
        let Some(Reverse((t, _, EvBox(ev)))) = self.heap.pop() else {
            return false;
        };
        debug_assert!(t >= self.now);
        self.now = t;
        self.handle(ev);
        true
    }

    // ------------------------------------------------------------------
    // Commands (stamped at self.now by the engine)
    // ------------------------------------------------------------------

    pub(crate) fn submit_job(&mut self, desc: JobDescription) -> JobId {
        assert!(desc.nodes > 0, "job must request at least one node");
        assert!(
            desc.nodes <= self.platform.nodes,
            "job requests {} nodes but {} has {}",
            desc.nodes,
            self.platform.id.name(),
            self.platform.nodes
        );
        let id = JobId(self.next_job);
        self.next_job += 1;
        let total_cores = desc.nodes as u64 * self.platform.cores_per_node as u64;
        let total_gpus = desc.nodes as u64 * self.platform.gpus_per_node as u64;
        let eligible_at = self.now + self.platform.queue_wait;
        self.jobs.insert(
            id,
            Job {
                desc,
                phase: JobPhase::Pending,
                eligible_at,
                free_cores: total_cores,
                free_gpus: total_gpus,
                total_cores,
                total_gpus,
                launcher_free_at: SimTime::ZERO,
                queued: VecDeque::new(),
                running: Vec::new(),
            },
        );
        self.batch_queue.push_back(id);
        self.schedule(eligible_at, Ev::TryStartJobs);
        id
    }

    pub(crate) fn cancel_job(&mut self, id: JobId) {
        self.end_job(id, JobEndReason::Canceled);
    }

    pub(crate) fn launch_task(&mut self, job_id: JobId, desc: TaskDesc) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        let submitted_at = self.now;
        self.tasks.insert(
            id,
            Task {
                job: job_id,
                desc,
                phase: TaskPhase::Queued,
                submitted_at,
                started_at: None,
                io_registered: false,
                planned_end: SimTime::ZERO,
                epoch: 0,
                eval_p: 0.0,
                doomed: false,
            },
        );
        match self.jobs.get_mut(&job_id) {
            Some(job) if job.phase != JobPhase::Ended => {
                job.queued.push_back(id);
                if job.phase == JobPhase::Ready {
                    self.try_schedule_tasks(job_id);
                }
            }
            _ => {
                // Unknown or already-ended job: the task is immediately lost.
                self.finish_task(id, TaskOutcome::Canceled);
            }
        }
        id
    }

    pub(crate) fn cancel_task(&mut self, id: TaskId) {
        let Some(task) = self.tasks.get(&id) else {
            return; // already ended
        };
        let job = task.job;
        match task.phase {
            TaskPhase::Queued => {
                if let Some(j) = self.jobs.get_mut(&job) {
                    j.queued.retain(|t| *t != id);
                }
                self.finish_task(id, TaskOutcome::Canceled);
            }
            TaskPhase::Launching | TaskPhase::Running => {
                // Free resources now; the stale TaskFinish/TaskSpawned event
                // will find the task gone and be ignored.
                self.release_task_resources(id);
                self.finish_task(id, TaskOutcome::Canceled);
                self.try_schedule_tasks(job);
            }
        }
    }

    pub(crate) fn stage(&mut self, units: Vec<StageUnit>, workers: usize) -> StageId {
        let id = StageId(self.next_stage);
        self.next_stage += 1;
        let workers = workers.max(1);
        // Units are processed round-robin by `workers` parallel streams, each
        // stream sequential (RP's default is a single stager). Completion is
        // the makespan across streams.
        let mut stream_busy = vec![SimDuration::ZERO; workers];
        for (i, unit) in units.iter().enumerate() {
            stream_busy[i % workers] += self.fs.stage_duration(unit);
        }
        let makespan = stream_busy.into_iter().max().unwrap_or(SimDuration::ZERO);
        self.schedule_in(makespan, Ev::StageDone(id));
        // Remember submission time via the event payload: encode in outbox
        // when done. We stash it in a map-free way: schedule carries id; we
        // need submitted_at at emission, so store it.
        self.stage_submitted.insert(id, self.now);
        id
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::TryStartJobs => self.try_start_jobs(),
            Ev::JobBootstrapped(id) => self.job_bootstrapped(id),
            Ev::JobWalltime(id) => self.end_job(id, JobEndReason::WalltimeExpired),
            Ev::TaskSpawned(id) => self.task_spawned(id),
            Ev::TaskFinish(id, epoch, outcome) => self.task_finished(id, epoch, outcome),
            Ev::NodeFailure(id) => self.node_failure(id),
            Ev::StageDone(id) => {
                let submitted_at = self
                    .stage_submitted
                    .remove(&id)
                    .expect("stage submission time recorded");
                self.outbox.push(SimEvent::StageEnded {
                    stage: id,
                    time: self.now,
                    submitted_at,
                    credit: Credit::default(),
                });
            }
        }
    }

    /// Batch scheduler: start queued jobs according to the platform policy —
    /// strict FIFO (queue head blocks) or first-fit backfill.
    fn try_start_jobs(&mut self) {
        match self.platform.batch_policy {
            crate::platform::BatchPolicy::Fifo => loop {
                let Some(&head) = self.batch_queue.front() else {
                    return;
                };
                let job = self.jobs.get(&head).expect("queued job exists");
                if job.phase != JobPhase::Pending {
                    self.batch_queue.pop_front();
                    continue;
                }
                if job.eligible_at > self.now {
                    let at = job.eligible_at;
                    self.schedule(at, Ev::TryStartJobs);
                    return;
                }
                if job.desc.nodes > self.free_nodes {
                    return; // head-of-line blocks
                }
                self.batch_queue.pop_front();
                self.start_job(head);
            },
            crate::platform::BatchPolicy::Backfill => {
                let queued: Vec<JobId> = self.batch_queue.iter().copied().collect();
                let mut started = Vec::new();
                for id in queued {
                    let job = self.jobs.get(&id).expect("queued job exists");
                    if job.phase != JobPhase::Pending {
                        started.push(id); // stale entry, drop from queue
                        continue;
                    }
                    if job.eligible_at > self.now {
                        let at = job.eligible_at;
                        self.schedule(at, Ev::TryStartJobs);
                        continue;
                    }
                    if job.desc.nodes > self.free_nodes {
                        continue; // skipped, smaller jobs behind may fit
                    }
                    started.push(id);
                    self.start_job(id);
                }
                self.batch_queue.retain(|j| !started.contains(j));
            }
        }
    }

    /// Allocate nodes to a Pending job and schedule its lifecycle events.
    fn start_job(&mut self, id: JobId) {
        let job = self.jobs.get(&id).expect("job exists");
        debug_assert_eq!(job.phase, JobPhase::Pending);
        debug_assert!(job.desc.nodes <= self.free_nodes);
        self.free_nodes -= job.desc.nodes;
        let bootstrap = job.desc.bootstrap;
        let walltime = job.desc.walltime;
        let job = self.jobs.get_mut(&id).expect("job exists");
        job.phase = JobPhase::Active;
        self.outbox.push(SimEvent::JobActive {
            job: id,
            time: self.now,
            credit: Credit::default(),
        });
        self.schedule_in(bootstrap, Ev::JobBootstrapped(id));
        self.schedule_in(walltime, Ev::JobWalltime(id));
        self.schedule_node_failure(id);
    }

    /// Draw the next node-crash time for a job from an exponential with
    /// rate `nodes / mtbf` (more nodes, more frequent crashes).
    fn schedule_node_failure(&mut self, id: JobId) {
        let Some(mtbf) = self.platform.faults.node_mtbf else {
            return;
        };
        let Some(job) = self.jobs.get(&id) else {
            return;
        };
        let rate_scale = mtbf.as_secs_f64() / job.desc.nodes.max(1) as f64;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let wait = -u.ln() * rate_scale;
        self.schedule_in(SimDuration::from_secs_f64(wait), Ev::NodeFailure(id));
    }

    /// A node crashed: either the pilot dies with it (agent node) or one
    /// running task is lost, surfacing as a failed task — "CI-level failures
    /// are reported to EnTK indirectly, either as failed pilots or failed
    /// tasks" (§II-B4).
    fn node_failure(&mut self, id: JobId) {
        let Some(job) = self.jobs.get(&id) else {
            return;
        };
        if !matches!(job.phase, JobPhase::Active | JobPhase::Ready) {
            return; // stale event after the job ended
        }
        if self.rng.gen::<f64>() < self.platform.faults.pilot_kill_prob {
            self.end_job(id, JobEndReason::Failed);
            return;
        }
        // Kill one random running task, if any.
        if !job.running.is_empty() {
            let victim = job.running[self.rng.gen_range(0..job.running.len())];
            self.release_task_resources(victim);
            self.finish_task(victim, TaskOutcome::Failed("node failure".to_string()));
            self.try_schedule_tasks(id);
        }
        self.schedule_node_failure(id);
    }

    fn job_bootstrapped(&mut self, id: JobId) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if job.phase != JobPhase::Active {
            return; // canceled during bootstrap
        }
        job.phase = JobPhase::Ready;
        job.launcher_free_at = self.now;
        self.outbox.push(SimEvent::JobReady {
            job: id,
            time: self.now,
            credit: Credit::default(),
        });
        self.try_schedule_tasks(id);
    }

    fn end_job(&mut self, id: JobId, reason: JobEndReason) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        match job.phase {
            JobPhase::Ended => return,
            JobPhase::Pending => {
                job.phase = JobPhase::Ended;
                self.batch_queue.retain(|j| *j != id);
                let lost: Vec<TaskId> = job.queued.drain(..).collect();
                for t in &lost {
                    self.finish_task(*t, TaskOutcome::Canceled);
                }
                self.outbox.push(SimEvent::JobEnded {
                    job: id,
                    time: self.now,
                    reason,
                    lost_tasks: lost,
                    credit: Credit::default(),
                });
                return;
            }
            JobPhase::Active | JobPhase::Ready => {}
        }
        job.phase = JobPhase::Ended;
        let nodes = job.desc.nodes;
        let mut lost: Vec<TaskId> = job.queued.drain(..).collect();
        lost.append(&mut job.running);
        for t in lost.clone() {
            self.release_task_resources(t);
            self.finish_task(t, TaskOutcome::Canceled);
        }
        self.free_nodes += nodes;
        self.outbox.push(SimEvent::JobEnded {
            job: id,
            time: self.now,
            reason,
            lost_tasks: lost,
            credit: Credit::default(),
        });
        self.schedule(self.now, Ev::TryStartJobs);
    }

    /// The Agent scheduler: place queued tasks onto free cores, serializing
    /// spawns through the launcher.
    fn try_schedule_tasks(&mut self, job_id: JobId) {
        loop {
            let Some(job) = self.jobs.get(&job_id) else {
                return;
            };
            if job.phase != JobPhase::Ready {
                return;
            }
            let Some(&tid) = job.queued.front() else {
                return;
            };
            let task = &self.tasks[&tid];
            let (cores, gpus) = (task.desc.cores as u64, task.desc.gpus as u64);
            if cores > job.total_cores || gpus > job.total_gpus {
                // Can never fit this pilot: fail instead of deadlocking.
                let job = self.jobs.get_mut(&job_id).expect("job exists");
                job.queued.pop_front();
                self.finish_task(
                    tid,
                    TaskOutcome::Failed(format!(
                        "task needs {cores} cores/{gpus} gpus; pilot has {}/{}",
                        self.jobs[&job_id].total_cores, self.jobs[&job_id].total_gpus
                    )),
                );
                continue;
            }
            if cores > job.free_cores || gpus > job.free_gpus {
                return; // FIFO within the pilot; wait for running tasks
            }
            let placement = self
                .platform
                .launcher
                .placement_per_node
                .scale(job.desc.nodes as f64);
            let spawn = self.platform.launcher.spawn_overhead;
            let env = if task.desc.skip_env_setup {
                SimDuration::ZERO
            } else {
                self.platform.launcher.env_setup
            };
            let job = self.jobs.get_mut(&job_id).expect("job exists");
            job.queued.pop_front();
            job.free_cores -= cores;
            job.free_gpus -= gpus;
            job.running.push(tid);
            // Launcher serializes placement+spawn; env setup runs on the
            // task's own nodes, off the launcher's critical path.
            let launch_at = job.launcher_free_at.max(self.now);
            let launcher_done = launch_at + placement + spawn;
            job.launcher_free_at = launcher_done;
            let exec_start = launcher_done + env;
            let task = self.tasks.get_mut(&tid).expect("task exists");
            task.phase = TaskPhase::Launching;
            self.schedule(exec_start, Ev::TaskSpawned(tid));
        }
    }

    fn task_spawned(&mut self, id: TaskId) {
        let Some(task) = self.tasks.get_mut(&id) else {
            return;
        };
        if task.phase != TaskPhase::Launching {
            return; // canceled while launching
        }
        task.phase = TaskPhase::Running;
        task.started_at = Some(self.now);
        let duration = task.desc.duration;
        let failure = task.desc.failure;
        self.outbox.push(SimEvent::TaskStarted {
            task: id,
            time: self.now,
            credit: Credit::default(),
        });
        let run_for = duration.sample(&mut self.rng);
        // Schedule the optimistic completion; failure models may preempt it
        // by bumping the attempt epoch.
        {
            let task = self.tasks.get_mut(&id).expect("task exists");
            task.planned_end = self.now + run_for;
            let (end, epoch) = (task.planned_end, task.epoch);
            self.schedule(end, Ev::TaskFinish(id, epoch, TaskOutcome::Completed));
        }
        match failure {
            FailureModel::None => {}
            FailureModel::Random { prob } => {
                if self.rng.gen::<f64>() < prob {
                    self.doom_task(id, "executable crashed");
                }
            }
            FailureModel::IoOverload { demand_bps } => {
                self.fs.register_demand(demand_bps);
                let task = self.tasks.get_mut(&id).expect("task exists");
                task.io_registered = true;
                // Aggregate demand just rose: every running I/O-heavy task
                // (this one included) is re-exposed to the overload hazard.
                self.reevaluate_io_hazard();
            }
        }
    }

    /// Apply the overload hazard to every running I/O-heavy task: each task
    /// accumulates failure probability up to the *highest* demand level it
    /// has run under; on a demand increase it is re-drawn against the
    /// incremental probability only.
    fn reevaluate_io_hazard(&mut self) {
        let p_now = self.fs.overload_failure_prob();
        if p_now <= 0.0 {
            return;
        }
        let mut candidates: Vec<TaskId> = self
            .tasks
            .iter()
            .filter(|(_, t)| t.phase == TaskPhase::Running && t.io_registered && !t.doomed)
            .map(|(id, _)| *id)
            .collect();
        // Draw in id order: `tasks` iterates in bucket order, which wraps
        // around the table and depends on its capacity, and the draws must
        // not.
        candidates.sort_unstable();
        for id in candidates {
            let eval_p = self.tasks[&id].eval_p;
            // Incremental hazard: P(fail now | survived eval at eval_p).
            let delta = ((p_now - eval_p) / (1.0 - eval_p).max(1e-9)).clamp(0.0, 1.0);
            if let Some(t) = self.tasks.get_mut(&id) {
                t.eval_p = t.eval_p.max(p_now);
            }
            if delta > 0.0 && self.rng.gen::<f64>() < delta {
                self.doom_task(id, "shared filesystem overload");
            }
        }
    }

    /// Replace a running task's scheduled completion with a failure partway
    /// through its remaining runtime.
    fn doom_task(&mut self, id: TaskId, reason: &str) {
        let frac: f64 = self.rng.gen_range(0.2..0.8);
        let Some(task) = self.tasks.get_mut(&id) else {
            return;
        };
        if task.phase != TaskPhase::Running || task.doomed {
            return;
        }
        task.doomed = true;
        task.epoch += 1;
        let remaining = task.planned_end.saturating_since(self.now);
        let fail_at = remaining.scale(frac);
        let epoch = task.epoch;
        self.schedule_in(
            fail_at,
            Ev::TaskFinish(id, epoch, TaskOutcome::Failed(reason.to_string())),
        );
    }

    fn task_finished(&mut self, id: TaskId, epoch: u32, outcome: TaskOutcome) {
        let Some(task) = self.tasks.get(&id) else {
            return;
        };
        if task.phase != TaskPhase::Running || task.epoch != epoch {
            return; // stale event (canceled, job ended, or superseded)
        }
        let job_id = task.job;
        self.release_task_resources(id);
        self.finish_task(id, outcome);
        self.try_schedule_tasks(job_id);
    }

    /// Return a Launching/Running task's cores/gpus/io-demand to its job.
    fn release_task_resources(&mut self, id: TaskId) {
        let Some(task) = self.tasks.get_mut(&id) else {
            return;
        };
        if !matches!(task.phase, TaskPhase::Launching | TaskPhase::Running) {
            return;
        }
        if task.io_registered {
            self.fs.unregister_demand(task.desc.failure.io_demand());
            task.io_registered = false;
        }
        let (cores, gpus, job_id) = (task.desc.cores as u64, task.desc.gpus as u64, task.job);
        if let Some(job) = self.jobs.get_mut(&job_id) {
            if job.phase != JobPhase::Ended {
                job.free_cores += cores;
                job.free_gpus += gpus;
            }
            job.running.retain(|t| *t != id);
        }
    }

    /// End a task: forget it and emit its TaskEnded event. The world keeps
    /// live tasks only, so its memory follows the load, not the history.
    fn finish_task(&mut self, id: TaskId, outcome: TaskOutcome) {
        let Some(task) = self.tasks.remove(&id) else {
            return; // already ended
        };
        self.outbox.push(SimEvent::TaskEnded {
            task: id,
            time: self.now,
            outcome,
            submitted_at: task.submitted_at,
            started_at: task.started_at,
            credit: Credit::default(),
        });
    }

    /// Tasks that have not ended yet (queued, launching or running).
    pub(crate) fn live_tasks(&self) -> usize {
        self.tasks.len()
    }

    // ------------------------------------------------------------------
    // Introspection for tests
    // ------------------------------------------------------------------

    /// Free nodes on the machine (not allocated to jobs).
    #[cfg(test)]
    pub(crate) fn free_nodes(&self) -> u32 {
        self.free_nodes
    }

    /// Sum of cores currently allocated to Launching/Running tasks of a job.
    #[cfg(test)]
    pub(crate) fn job_cores_in_use(&self, id: JobId) -> Option<u64> {
        self.jobs.get(&id).map(|j| j.total_cores - j.free_cores)
    }

    /// Current filesystem I/O demand (bytes/s).
    #[cfg(test)]
    pub(crate) fn fs_demand(&self) -> f64 {
        self.fs.current_demand()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformId;

    fn world() -> World {
        World::new(Platform::catalog(PlatformId::TestRig), 42)
    }

    /// Run the world until no events remain, returning all emitted events.
    fn run_to_quiescence(w: &mut World) -> Vec<SimEvent> {
        let mut events = Vec::new();
        while w.step() {
            events.append(&mut w.outbox);
        }
        events.append(&mut w.outbox);
        events
    }

    fn ready_job(w: &mut World, nodes: u32) -> JobId {
        let job = w.submit_job(JobDescription {
            nodes,
            walltime: SimDuration::from_secs(7200),
            bootstrap: SimDuration::ZERO,
        });
        // Drive job to Ready.
        while w.jobs[&job].phase != JobPhase::Ready {
            assert!(w.step(), "job never became ready");
        }
        w.outbox.clear();
        job
    }

    #[test]
    fn job_lifecycle_to_ready() {
        let mut w = world();
        let job = w.submit_job(JobDescription {
            nodes: 2,
            walltime: SimDuration::from_secs(100),
            bootstrap: SimDuration::from_secs(5),
        });
        let events = run_to_quiescence(&mut w);
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| match e {
                SimEvent::JobActive { .. } => "active",
                SimEvent::JobReady { .. } => "ready",
                SimEvent::JobEnded { .. } => "ended",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["active", "ready", "ended"]);
        // Walltime fires at t=100, bootstrap at t=5.
        assert_eq!(events[1].time(), SimTime::from_secs_f64(5.0));
        assert_eq!(events[2].time(), SimTime::from_secs_f64(100.0));
        let SimEvent::JobEnded { reason, .. } = &events[2] else {
            panic!()
        };
        assert_eq!(*reason, JobEndReason::WalltimeExpired);
        assert_eq!(w.free_nodes(), 4);
        let _ = job;
    }

    #[test]
    fn fifo_batch_queue_blocks_head_of_line() {
        let mut w = world(); // 4 nodes
        let j1 = w.submit_job(JobDescription {
            nodes: 3,
            walltime: SimDuration::from_secs(50),
            bootstrap: SimDuration::ZERO,
        });
        let j2 = w.submit_job(JobDescription {
            nodes: 3,
            walltime: SimDuration::from_secs(50),
            bootstrap: SimDuration::ZERO,
        });
        let events = run_to_quiescence(&mut w);
        let actives: Vec<(JobId, SimTime)> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::JobActive { job, time, .. } => Some((*job, *time)),
                _ => None,
            })
            .collect();
        assert_eq!(actives.len(), 2);
        assert_eq!(actives[0], (j1, SimTime::ZERO));
        // j2 starts only when j1's walltime frees its nodes.
        assert_eq!(actives[1], (j2, SimTime::from_secs_f64(50.0)));
    }

    #[test]
    fn node_failures_kill_tasks_or_pilots() {
        let mut platform = Platform::catalog(PlatformId::TestRig);
        platform.faults.node_mtbf = Some(SimDuration::from_secs(2_000));
        platform.faults.pilot_kill_prob = 0.0; // tasks only, in this test
        let mut w = World::new(platform, 11);
        let job = w.submit_job(JobDescription {
            nodes: 4,
            walltime: SimDuration::from_secs(100_000),
            bootstrap: SimDuration::ZERO,
        });
        while w.jobs[&job].phase != JobPhase::Ready {
            assert!(w.step());
        }
        w.outbox.clear();
        for _ in 0..16 {
            w.launch_task(job, TaskDesc::fixed_secs(5_000).with_cores(2));
        }
        let events = run_to_quiescence(&mut w);
        let node_failures = events
            .iter()
            .filter(|e| {
                matches!(e, SimEvent::TaskEnded { outcome: TaskOutcome::Failed(r), .. }
                    if r == "node failure")
            })
            .count();
        // 4 nodes at MTBF 2,000 s over ≥5,000 s of runtime: crashes are all
        // but certain with this seed.
        assert!(node_failures > 0, "expected node-failure task deaths");
        // Every task still reached a terminal state exactly once.
        let ends = events
            .iter()
            .filter(|e| matches!(e, SimEvent::TaskEnded { .. }))
            .count();
        assert_eq!(ends, 16);
    }

    #[test]
    fn pilot_killing_node_failure_ends_job() {
        let mut platform = Platform::catalog(PlatformId::TestRig);
        platform.faults.node_mtbf = Some(SimDuration::from_secs(500));
        platform.faults.pilot_kill_prob = 1.0; // first crash kills the pilot
        let mut w = World::new(platform, 13);
        let job = w.submit_job(JobDescription {
            nodes: 4,
            walltime: SimDuration::from_secs(1_000_000),
            bootstrap: SimDuration::ZERO,
        });
        let events = run_to_quiescence(&mut w);
        let ended = events
            .iter()
            .find_map(|e| match e {
                SimEvent::JobEnded { job: j, reason, .. } if *j == job => Some(*reason),
                _ => None,
            })
            .expect("job must end");
        assert_eq!(ended, JobEndReason::Failed);
        let _ = job;
    }

    #[test]
    fn backfill_lets_small_jobs_jump_blocked_head() {
        let mut platform = Platform::catalog(PlatformId::TestRig); // 4 nodes
        platform.batch_policy = crate::platform::BatchPolicy::Backfill;
        let mut w = World::new(platform, 1);
        let _running = w.submit_job(JobDescription {
            nodes: 3,
            walltime: SimDuration::from_secs(100),
            bootstrap: SimDuration::ZERO,
        });
        let big = w.submit_job(JobDescription {
            nodes: 4,
            walltime: SimDuration::from_secs(10),
            bootstrap: SimDuration::ZERO,
        });
        let small = w.submit_job(JobDescription {
            nodes: 1,
            walltime: SimDuration::from_secs(10),
            bootstrap: SimDuration::ZERO,
        });
        let events = run_to_quiescence(&mut w);
        let actives: Vec<(JobId, SimTime)> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::JobActive { job, time, .. } => Some((*job, *time)),
                _ => None,
            })
            .collect();
        // The small job backfills at t=0 despite the blocked 4-node job.
        assert!(actives.contains(&(small, SimTime::ZERO)), "{actives:?}");
        // The big job starts only after everything else freed its nodes.
        let big_start = actives.iter().find(|(j, _)| *j == big).unwrap().1;
        assert_eq!(big_start, SimTime::from_secs_f64(100.0));
    }

    #[test]
    fn task_runs_for_its_duration() {
        let mut w = world();
        let job = ready_job(&mut w, 1);
        let t = w.launch_task(job, TaskDesc::fixed_secs(600));
        let events = run_to_quiescence(&mut w);
        let end = events
            .iter()
            .find_map(|e| match e {
                SimEvent::TaskEnded {
                    task,
                    time,
                    outcome,
                    started_at,
                    ..
                } if *task == t => Some((*time, outcome.clone(), *started_at)),
                _ => None,
            })
            .expect("task ended");
        assert_eq!(end.1, TaskOutcome::Completed);
        let started = end.2.expect("task started");
        assert_eq!(end.0 - started, SimDuration::from_secs(600));
    }

    #[test]
    fn cores_never_oversubscribed_tasks_queue() {
        let mut w = world();
        let job = ready_job(&mut w, 1); // 8 cores
                                        // 4 tasks × 4 cores: only two fit at a time.
        let mut ids = vec![];
        for _ in 0..4 {
            ids.push(w.launch_task(job, TaskDesc::fixed_secs(100).with_cores(4)));
        }
        assert_eq!(w.job_cores_in_use(job), Some(8));
        let events = run_to_quiescence(&mut w);
        let starts: Vec<SimTime> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::TaskStarted { time, .. } => Some(*time),
                _ => None,
            })
            .collect();
        assert_eq!(starts.len(), 4);
        // Two start at t=0, the other two only after the first finish (t=100).
        assert!(starts[1] < SimTime::from_secs_f64(100.0));
        assert!(starts[2] >= SimTime::from_secs_f64(100.0));
        assert_eq!(w.job_cores_in_use(job), Some(0));
    }

    #[test]
    fn oversized_task_fails_fast_instead_of_deadlocking() {
        let mut w = world();
        let job = ready_job(&mut w, 1); // 8 cores
        let t = w.launch_task(job, TaskDesc::fixed_secs(10).with_cores(64));
        let t2 = w.launch_task(job, TaskDesc::fixed_secs(10));
        let events = run_to_quiescence(&mut w);
        let mut saw_fail = false;
        let mut saw_ok = false;
        for e in events {
            if let SimEvent::TaskEnded { task, outcome, .. } = e {
                if task == t {
                    assert!(matches!(outcome, TaskOutcome::Failed(_)));
                    saw_fail = true;
                } else if task == t2 {
                    assert_eq!(outcome, TaskOutcome::Completed);
                    saw_ok = true;
                }
            }
        }
        assert!(saw_fail && saw_ok);
    }

    #[test]
    fn launch_to_dead_job_is_canceled() {
        let mut w = world();
        let job = ready_job(&mut w, 1);
        w.cancel_job(job);
        w.outbox.clear();
        let t = w.launch_task(job, TaskDesc::fixed_secs(10));
        assert!(w.outbox.iter().any(|e| matches!(
            e,
            SimEvent::TaskEnded {
                task,
                outcome: TaskOutcome::Canceled,
                ..
            } if *task == t
        )));
    }

    #[test]
    fn job_end_loses_running_tasks() {
        let mut w = world();
        let job = w.submit_job(JobDescription {
            nodes: 1,
            walltime: SimDuration::from_secs(50),
            bootstrap: SimDuration::ZERO,
        });
        while w.jobs[&job].phase != JobPhase::Ready {
            assert!(w.step());
        }
        let t = w.launch_task(job, TaskDesc::fixed_secs(600));
        let events = run_to_quiescence(&mut w);
        let ended = events
            .iter()
            .find_map(|e| match e {
                SimEvent::JobEnded {
                    reason, lost_tasks, ..
                } => Some((reason, lost_tasks.clone())),
                _ => None,
            })
            .expect("job ended");
        assert_eq!(*ended.0, JobEndReason::WalltimeExpired);
        assert_eq!(ended.1, vec![t]);
        // The task also got its own Canceled terminal event.
        assert!(events.iter().any(|e| matches!(
            e,
            SimEvent::TaskEnded {
                task,
                outcome: TaskOutcome::Canceled,
                ..
            } if *task == t
        )));
        // And no spurious Completed event later.
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, SimEvent::TaskEnded { task, .. } if *task == t))
                .count(),
            1
        );
    }

    #[test]
    fn cancel_running_task_frees_cores() {
        let mut w = world();
        let job = ready_job(&mut w, 1);
        let t = w.launch_task(job, TaskDesc::fixed_secs(600).with_cores(8));
        let t2 = w.launch_task(job, TaskDesc::fixed_secs(10).with_cores(8));
        // Step until t is running.
        while w.tasks[&t].phase != TaskPhase::Running {
            assert!(w.step());
        }
        w.cancel_task(t);
        let events = run_to_quiescence(&mut w);
        assert!(events.iter().any(|e| matches!(
            e,
            SimEvent::TaskEnded {
                task,
                outcome: TaskOutcome::Completed,
                ..
            } if *task == t2
        )));
    }

    #[test]
    fn random_failure_model_fails_sometimes() {
        let mut w = world();
        let job = ready_job(&mut w, 4);
        let mut ids = vec![];
        for _ in 0..100 {
            ids.push(w.launch_task(
                job,
                TaskDesc::fixed_secs(10).with_failure(FailureModel::Random { prob: 0.5 }),
            ));
        }
        let events = run_to_quiescence(&mut w);
        let failed = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    SimEvent::TaskEnded {
                        outcome: TaskOutcome::Failed(_),
                        ..
                    }
                )
            })
            .count();
        assert!((20..=80).contains(&failed), "failed = {failed}");
    }

    /// The overload hazard draws from the RNG once per running I/O-heavy
    /// task. Two worlds on one seed must doom the same tasks, whatever
    /// order their task tables iterate in.
    #[test]
    fn io_overload_dooms_the_same_tasks_on_the_same_seed() {
        let doomed = || {
            let mut w = World::new(Platform::catalog(PlatformId::Titan), 5);
            let job = ready_job(&mut w, 64);
            for _ in 0..64 {
                w.launch_task(
                    job,
                    TaskDesc::fixed_secs(100)
                        .with_failure(FailureModel::IoOverload { demand_bps: 2e9 }),
                );
            }
            let mut failed: Vec<(TaskId, SimTime)> = run_to_quiescence(&mut w)
                .into_iter()
                .filter_map(|e| match e {
                    SimEvent::TaskEnded {
                        task,
                        time,
                        outcome: TaskOutcome::Failed(_),
                        ..
                    } => Some((task, time)),
                    _ => None,
                })
                .collect();
            failed.sort_unstable();
            failed
        };
        let first = doomed();
        assert!(!first.is_empty(), "the filesystem was never overloaded");
        for _ in 0..4 {
            assert_eq!(doomed(), first);
        }
    }

    #[test]
    fn io_demand_registers_and_clears() {
        let mut w = world();
        let job = ready_job(&mut w, 4);
        let t = w.launch_task(
            job,
            TaskDesc::fixed_secs(100).with_failure(FailureModel::IoOverload { demand_bps: 2e9 }),
        );
        while w.tasks[&t].phase != TaskPhase::Running {
            assert!(w.step());
        }
        assert_eq!(w.fs_demand(), 2e9);
        run_to_quiescence(&mut w);
        assert_eq!(w.fs_demand(), 0.0);
    }

    #[test]
    fn staging_duration_linear_in_units() {
        let mut w = world();
        let s1 = w.stage(vec![StageUnit::weak_scaling_unit(); 10], 1);
        let events = run_to_quiescence(&mut w);
        let d1 = events
            .iter()
            .find_map(|e| match e {
                SimEvent::StageEnded {
                    stage,
                    time,
                    submitted_at,
                    ..
                } if *stage == s1 => Some(*time - *submitted_at),
                _ => None,
            })
            .unwrap();
        let mut w2 = world();
        let s2 = w2.stage(vec![StageUnit::weak_scaling_unit(); 20], 1);
        let events2 = run_to_quiescence(&mut w2);
        let d2 = events2
            .iter()
            .find_map(|e| match e {
                SimEvent::StageEnded {
                    stage,
                    time,
                    submitted_at,
                    ..
                } if *stage == s2 => Some(*time - *submitted_at),
                _ => None,
            })
            .unwrap();
        assert_eq!(d2.0, d1.0 * 2, "staging must be linear with one worker");
    }

    #[test]
    fn staging_parallel_workers_divide_makespan() {
        let mut w = world();
        let s = w.stage(vec![StageUnit::single_file(1_000_000_000); 4], 4);
        let events = run_to_quiescence(&mut w);
        let d4 = events
            .iter()
            .find_map(|e| match e {
                SimEvent::StageEnded {
                    stage,
                    time,
                    submitted_at,
                    ..
                } if *stage == s => Some(*time - *submitted_at),
                _ => None,
            })
            .unwrap();
        let one = FsModel::new(Platform::catalog(PlatformId::TestRig).fs)
            .stage_duration(&StageUnit::single_file(1_000_000_000));
        assert_eq!(d4, one, "4 units over 4 workers take one unit's time");
    }

    #[test]
    fn launcher_serializes_spawns() {
        let mut platform = Platform::catalog(PlatformId::TestRig);
        platform.launcher.spawn_overhead = SimDuration::from_secs(1);
        let mut w = World::new(platform, 7);
        let job = w.submit_job(JobDescription::small());
        while w.jobs[&job].phase != JobPhase::Ready {
            assert!(w.step());
        }
        w.outbox.clear();
        for _ in 0..4 {
            w.launch_task(job, TaskDesc::fixed_secs(10));
        }
        let events = run_to_quiescence(&mut w);
        let starts: Vec<SimTime> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::TaskStarted { time, .. } => Some(*time),
                _ => None,
            })
            .collect();
        assert_eq!(starts.len(), 4);
        for (i, s) in starts.iter().enumerate() {
            assert_eq!(*s, SimTime::from_secs_f64((i + 1) as f64));
        }
    }
}
