//! The AppManager: EnTK's master component.
//!
//! "Users describe an application via the API, instantiate the AppManager
//! component with information about the available CIs and then pass the
//! application description to AppManager for execution. AppManager holds
//! these descriptions and, upon initialization, creates all the queues,
//! spawns the Synchronizer, and instantiates the WFProcessor and
//! ExecManager." (§II-B3)

use crate::cancel::CancelToken;
use crate::execmanager::{self, ExecManagerConfig, RtsPools, RtsSlot};
use crate::messages::{QueueNamespace, Reaction};
use crate::overheads::{OverheadReport, PythonEmulation};
use crate::states::TaskState;
use crate::statestore::StateStore;
use crate::synchronizer;
use crate::wfprocessor;
use crate::workflow::Workflow;
use crate::{EntkError, EntkResult};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use entk_mq::{Broker, BrokerConfig, QueueConfig};
use entk_observe::{components, Recorder, Span};
use hpc_sim::{Platform, PlatformId};
use parking_lot::Mutex;
use rp_rts::{
    BackendConfig, LocalConfig, PilotDescription, PilotLease, RtsConfig, RtsProfile, UnitRecord,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which execution backend the resource description targets.
#[derive(Debug, Clone)]
pub enum ResourceBackend {
    /// A simulated CI from the platform catalogue (all timing experiments).
    Sim {
        /// The machine.
        platform: PlatformId,
    },
    /// A simulated CI with a custom profile.
    SimCustom {
        /// The profile.
        platform: Platform,
    },
    /// The local machine: real compute on a thread pool.
    Local {
        /// Worker threads.
        workers: usize,
        /// Real seconds per nominal second for time-based executables.
        time_scale: f64,
    },
}

/// Description of the resources to acquire — what the user gives AppManager
/// about "the available CIs".
#[derive(Debug, Clone)]
pub struct ResourceDescription {
    /// Pool name tasks can target via [`crate::Task::with_resource_pool`].
    pub name: String,
    /// Backend / CI selection.
    pub backend: ResourceBackend,
    /// Nodes for the pilot.
    pub nodes: u32,
    /// Pilot walltime, seconds.
    pub walltime_secs: u64,
    /// Pilot agent bootstrap time, seconds.
    pub bootstrap_secs: f64,
    /// RTS staging workers.
    pub stagers: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Per-operation latency of the RTS's remote DB (MongoDB stand-in).
    pub db_op_latency: Duration,
}

impl ResourceDescription {
    /// A pilot of `nodes` nodes on a simulated CI.
    pub fn sim(platform: PlatformId, nodes: u32, walltime_secs: u64) -> Self {
        ResourceDescription {
            name: "default".into(),
            backend: ResourceBackend::Sim { platform },
            nodes,
            walltime_secs,
            bootstrap_secs: 0.0,
            stagers: 1,
            seed: 0,
            db_op_latency: Duration::ZERO,
        }
    }

    /// The local machine with `workers` concurrent slots.
    pub fn local(workers: usize) -> Self {
        ResourceDescription {
            name: "default".into(),
            backend: ResourceBackend::Local {
                workers,
                time_scale: 0.0,
            },
            nodes: 1,
            walltime_secs: u64::MAX / 4,
            bootstrap_secs: 0.0,
            stagers: 1,
            seed: 0,
            db_op_latency: Duration::ZERO,
        }
    }

    /// Builder: pool name (multi-resource executions).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builder: simulation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: staging workers.
    pub fn with_stagers(mut self, stagers: usize) -> Self {
        self.stagers = stagers;
        self
    }

    /// Builder: remote-DB per-operation latency.
    pub fn with_db_latency(mut self, latency: Duration) -> Self {
        self.db_op_latency = latency;
        self
    }

    /// The RTS configuration this description resolves to. Public so a
    /// service hosting many AppManagers can build a matching warm
    /// [`rp_rts::PilotPool`] whose leases are interchangeable with cold
    /// acquisition.
    pub fn rts_config(&self, recorder: &Recorder) -> RtsConfig {
        let backend = match &self.backend {
            ResourceBackend::Sim { platform } => BackendConfig::Sim {
                platform: *platform,
            },
            ResourceBackend::SimCustom { platform } => BackendConfig::SimCustom {
                platform: platform.clone(),
            },
            ResourceBackend::Local {
                workers,
                time_scale,
            } => BackendConfig::Local(LocalConfig {
                workers: *workers,
                time_scale: *time_scale,
                recorder: None,
            }),
        };
        RtsConfig {
            backend,
            stagers: self.stagers,
            db: rp_rts::db::DbConfig {
                op_latency: self.db_op_latency,
                ..Default::default()
            },
            seed: self.seed,
            recorder: recorder.is_enabled().then(|| recorder.clone()),
        }
    }

    /// The pilot description this description resolves to (see
    /// [`ResourceDescription::rts_config`]).
    pub fn pilot_desc(&self) -> PilotDescription {
        let platform = match &self.backend {
            ResourceBackend::Sim { platform } => *platform,
            ResourceBackend::SimCustom { platform } => platform.id,
            ResourceBackend::Local { .. } => PlatformId::TestRig,
        };
        PilotDescription {
            platform,
            nodes: self.nodes,
            walltime_secs: self.walltime_secs,
            bootstrap_secs: self.bootstrap_secs,
        }
    }

    /// Total concurrent task slots this resource provides (for the
    /// interpreter-emulation strain model).
    pub fn total_cores(&self) -> usize {
        match &self.backend {
            ResourceBackend::Sim { platform } => {
                let p = Platform::catalog(*platform);
                self.nodes as usize * p.cores_per_node as usize
            }
            ResourceBackend::SimCustom { platform } => {
                self.nodes as usize * platform.cores_per_node as usize
            }
            ResourceBackend::Local { workers, .. } => *workers,
        }
    }
}

/// How the toolkit paces task submission — the paper's future-work
/// "adaptive execution strategies to enable optimal resource utilization"
/// (§VI), motivated by Fig. 10: on Titan, forward simulations are best
/// executed with at most 24 concurrent tasks because higher concurrency
/// overloads the shared filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionStrategy {
    /// Submit everything as soon as it is schedulable (EnTK's default).
    Eager,
    /// Never allow more than this many tasks in flight.
    FixedConcurrency(usize),
    /// AIMD throttling: start at `initial` concurrent tasks, halve the cap
    /// on every failed attempt (down to `min`), add one back per success.
    AdaptiveConcurrency {
        /// Starting (and maximum) cap.
        initial: usize,
        /// Floor the cap never drops below.
        min: usize,
    },
}

impl ExecutionStrategy {
    fn initial_cap(self) -> usize {
        match self {
            ExecutionStrategy::Eager => usize::MAX,
            ExecutionStrategy::FixedConcurrency(n) => n.max(1),
            ExecutionStrategy::AdaptiveConcurrency { initial, .. } => initial.max(1),
        }
    }
}

/// AppManager configuration.
#[derive(Debug, Clone)]
pub struct AppManagerConfig {
    /// Resource description (required).
    pub resource: ResourceDescription,
    /// Default task resubmission budget (`None` = unlimited).
    pub default_task_retries: Option<u32>,
    /// How many times the RTS/pilot may be restarted (§II-B4: "users can
    /// configure the number of times a RTS is restarted").
    pub max_rts_restarts: u32,
    /// State journal path (enables recovery across runs).
    pub journal_path: Option<PathBuf>,
    /// Wall-clock limit for one `run` call.
    pub run_timeout: Duration,
    /// Report paper-scale overheads next to measured ones.
    pub python_emulation: Option<PythonEmulation>,
    /// Fault injection: kill the RTS abruptly once, this long after the run
    /// starts (exercises the Heartbeat's tear-down-and-restart path).
    pub chaos_rts_kill_after: Option<Duration>,
    /// Task submission pacing.
    pub execution_strategy: ExecutionStrategy,
    /// Additional named resources; tasks select them with
    /// [`crate::Task::with_resource_pool`].
    pub extra_resources: Vec<ResourceDescription>,
    /// Trace recorder shared across every layer of the run. `None` means
    /// tracing is off unless a trace path (below or `ENTK_TRACE`) turns it
    /// on.
    pub recorder: Option<Recorder>,
    /// Export the trace at the end of the run: `<path>.prof.jsonl`,
    /// `<path>.chrome.json` and `<path>.report.txt`. Falls back to the
    /// `ENTK_TRACE` environment variable when unset. Setting either implies
    /// an enabled recorder.
    pub trace_path: Option<PathBuf>,
    /// Cooperative cancellation token. Cloning the config shares the token,
    /// so a handle cloned before `run` can cancel the running workflow.
    pub cancel_token: CancelToken,
    /// ExecManager tuning: the maximum batch size used by every component
    /// loop. Components move tasks through the queues, the Synchronizer and
    /// into the RTS in bulk — one broker operation and one sync apply per
    /// batch; `max_batch: 1` is the paper's per-task data path.
    pub exec_manager: ExecManagerConfig,
    /// Wire-side trace hops stamped before the run started (gateway receive,
    /// parse, admission, journal append). Every per-task timeline is seeded
    /// from this base so CriticalPath covers the full wire-to-sync path.
    pub wire_trace: Option<entk_observe::TraceCtx>,
    /// Settled-timeline sink: every task's final hop timeline is offered to
    /// this store (tail sampling decides retention). `None` = no capture.
    pub trace_store: Option<Arc<entk_observe::TraceStore>>,
}

impl AppManagerConfig {
    /// Defaults around a resource description.
    pub fn new(resource: ResourceDescription) -> Self {
        AppManagerConfig {
            resource,
            default_task_retries: Some(3),
            max_rts_restarts: 3,
            journal_path: None,
            run_timeout: Duration::from_secs(600),
            python_emulation: None,
            chaos_rts_kill_after: None,
            execution_strategy: ExecutionStrategy::Eager,
            extra_resources: Vec::new(),
            recorder: None,
            trace_path: None,
            cancel_token: CancelToken::new(),
            exec_manager: ExecManagerConfig::default(),
            wire_trace: None,
            trace_store: None,
        }
    }

    /// Builder: ExecManager batch tuning.
    pub fn with_exec_manager(mut self, cfg: ExecManagerConfig) -> Self {
        self.exec_manager = cfg;
        self
    }

    /// Builder: share an externally held cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel_token = token;
        self
    }

    /// Builder: attach a trace recorder (cross-layer tracing).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builder: export the trace to `<path>.prof.jsonl` / `<path>.chrome.json`
    /// / `<path>.report.txt` when the run ends.
    pub fn with_trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Builder: task retry budget.
    pub fn with_task_retries(mut self, retries: Option<u32>) -> Self {
        self.default_task_retries = retries;
        self
    }

    /// Builder: state journal.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Builder: python-emulation reporting.
    pub fn with_python_emulation(mut self, em: PythonEmulation) -> Self {
        self.python_emulation = Some(em);
        self
    }

    /// Builder: wall-clock run limit.
    pub fn with_run_timeout(mut self, timeout: Duration) -> Self {
        self.run_timeout = timeout;
        self
    }

    /// Builder: RTS restart budget.
    pub fn with_max_rts_restarts(mut self, n: u32) -> Self {
        self.max_rts_restarts = n;
        self
    }

    /// Builder: fault injection — kill the RTS once after `delay`.
    pub fn with_chaos_rts_kill(mut self, delay: Duration) -> Self {
        self.chaos_rts_kill_after = Some(delay);
        self
    }

    /// Builder: execution strategy.
    pub fn with_execution_strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.execution_strategy = strategy;
        self
    }

    /// Builder: add a named resource pool.
    pub fn with_extra_resource(mut self, resource: ResourceDescription) -> Self {
        self.extra_resources.push(resource);
        self
    }

    /// Builder: seed every per-task timeline with wire-side hops (see
    /// [`AppManagerConfig::wire_trace`]).
    pub fn with_wire_trace(mut self, trace: entk_observe::TraceCtx) -> Self {
        self.wire_trace = Some(trace);
        self
    }

    /// Builder: offer settled task timelines to a shared trace store.
    pub fn with_trace_store(mut self, store: Arc<entk_observe::TraceStore>) -> Self {
        self.trace_store = Some(store);
        self
    }
}

/// Shared context for all EnTK components.
pub(crate) struct Ctx {
    /// The message broker (the communication infrastructure of §II-C).
    pub broker: Broker,
    /// Session-scoped queue names. The root namespace for standalone runs;
    /// a per-session prefix when many AppManagers share one broker.
    pub ns: QueueNamespace,
    /// Cooperative cancellation flag (see [`CancelToken`]): components stop
    /// scheduling/submitting new work once set.
    pub cancel: CancelToken,
    /// The application's global state — AppManager is the only stateful
    /// component; everyone else references objects by uid.
    pub workflow: Mutex<Workflow>,
    /// EnTK Management Overhead so far, in nanoseconds: the summed
    /// durations of the component processing spans (see
    /// [`Ctx::charge_management`]).
    pub management_ns: AtomicU64,
    /// Transitions the Synchronizer applied (the `transition` events).
    pub transitions: AtomicU64,
    /// The live per-state transition counters (`task.state.<state>`),
    /// indexed by `TaskState as usize`, resolved once per run; `None` when
    /// untraced.
    pub state_counters: Option<[Arc<entk_observe::Counter>; TaskState::ALL.len()]>,
    /// Successful task attempts (the `attempt_done` events).
    pub attempts_done: AtomicU64,
    /// Failed, canceled and lost task attempts (the `attempt_failed`
    /// events).
    pub attempts_failed: AtomicU64,
    /// Cross-layer trace recorder (disabled = no-op for events/spans).
    pub recorder: Recorder,
    /// Transactional state journal.
    pub store: Option<StateStore>,
    /// Global run flag; components exit when cleared (see [`Ctx::stop`]).
    pub running: AtomicBool,
    /// The stop channel's only sender; nothing is ever sent. [`Ctx::stop`]
    /// drops it, which disconnects `stopped`.
    stop_tx: Mutex<Option<Sender<()>>>,
    /// Disconnects when the run stops: what the chaos timer and (through
    /// `Select`, next to the RTS's callback and pilot-end streams) the RTS
    /// Callback block on.
    pub stopped: Receiver<()>,
    /// Default task retry budget.
    pub default_retries: Option<u32>,
    /// Fatal error raised by a component (stops the run).
    pub fatal: Mutex<Option<String>>,
    /// Tasks currently in flight (Scheduling → Executed); maintained by the
    /// Synchronizer, read by Enqueue's throttle.
    pub in_flight: std::sync::atomic::AtomicUsize,
    /// Current concurrency cap (see [`ExecutionStrategy`]).
    pub concurrency_cap: std::sync::atomic::AtomicUsize,
    /// The configured strategy (Dequeue adapts the cap when AIMD).
    pub strategy: ExecutionStrategy,
    /// ExecManager batch tuning, also used by the WFProcessor loops.
    pub exec: ExecManagerConfig,
    /// Per-stage residency aggregate over completed per-task hop timelines;
    /// Dequeue folds each settled attempt's `TraceCtx` in, the final
    /// [`RunReport`] carries the result.
    pub critical_path: Mutex<entk_observe::CriticalPath>,
    /// Wire-side hops every per-task timeline is seeded from (see
    /// [`AppManagerConfig::wire_trace`]).
    pub base_trace: Option<entk_observe::TraceCtx>,
    /// Settled-timeline sink (tail sampling; see
    /// [`AppManagerConfig::trace_store`]).
    pub trace_store: Option<Arc<entk_observe::TraceStore>>,
    /// Simulator credits (DESIGN.md, hpc-sim) parked for Enqueue's next
    /// pass by the transitions that wake it; see [`Ctx::park`].
    parked: Mutex<Reaction>,
    /// Set while the Emgr waits for a pool to serve again; Enqueue then
    /// wakes the signal after each Pending publish (see
    /// [`Ctx::published_pending`]).
    pending_watched: AtomicBool,
}

impl Ctx {
    #[allow(clippy::too_many_arguments)]
    fn new(
        broker: Broker,
        ns: QueueNamespace,
        cancel: CancelToken,
        workflow: Workflow,
        store: Option<StateStore>,
        default_retries: Option<u32>,
        strategy: ExecutionStrategy,
        recorder: Recorder,
        exec: ExecManagerConfig,
        base_trace: Option<entk_observe::TraceCtx>,
        trace_store: Option<Arc<entk_observe::TraceStore>>,
    ) -> Arc<Self> {
        let (stop_tx, stopped) = bounded(0);
        Arc::new(Ctx {
            broker,
            ns,
            cancel,
            workflow: Mutex::new(workflow),
            management_ns: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            state_counters: recorder.is_enabled().then(|| {
                let metrics = recorder.metrics();
                TaskState::ALL.map(|s| metrics.counter(&format!("task.state.{}", s.name())))
            }),
            attempts_done: AtomicU64::new(0),
            attempts_failed: AtomicU64::new(0),
            recorder,
            store,
            running: AtomicBool::new(true),
            stop_tx: Mutex::new(Some(stop_tx)),
            stopped,
            default_retries,
            fatal: Mutex::new(None),
            in_flight: std::sync::atomic::AtomicUsize::new(0),
            concurrency_cap: std::sync::atomic::AtomicUsize::new(strategy.initial_cap()),
            strategy,
            exec: ExecManagerConfig {
                max_batch: exec.max_batch.max(1),
            },
            critical_path: Mutex::new(entk_observe::CriticalPath::new()),
            base_trace,
            trace_store,
            parked: Mutex::default(),
            pending_watched: AtomicBool::new(false),
        })
    }

    /// Test-only context: no component threads.
    #[cfg(test)]
    pub(crate) fn for_tests(workflow: Workflow) -> Arc<Self> {
        Self::for_tests_with_retries(workflow, None)
    }

    /// Test-only context with an explicit retry budget.
    #[cfg(test)]
    pub(crate) fn for_tests_with_retries(workflow: Workflow, retries: Option<u32>) -> Arc<Self> {
        let broker = Broker::new();
        let ns = QueueNamespace::root();
        declare_queues(&broker, &ns).expect("fresh broker");
        Ctx::new(
            broker,
            ns,
            CancelToken::new(),
            workflow,
            None,
            retries,
            ExecutionStrategy::Eager,
            Recorder::disabled(),
            ExecManagerConfig::default(),
            None,
            None,
        )
    }

    /// Close a component processing span and charge its duration to the
    /// run's EnTK Management Overhead.
    pub(crate) fn charge_management(&self, span: Span) {
        let ns = span.finish().as_nanos() as u64;
        self.management_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Journal one applied transition (no-op without a state store).
    pub(crate) fn journal(&self, kind: &str, uid: &str, name: &str, state: &str) {
        if let Some(store) = &self.store {
            let _ = store.record(kind, uid, name, state);
        }
    }

    /// Request the same transition for a batch of tasks through the
    /// Synchronizer (arrows 6–7): the batch is applied under one workflow
    /// lock on the calling thread, and the i-th flag reports the i-th uid.
    /// Returns one applied-flag per task. It parks no credits: only
    /// Dequeue's verdicts (and the cancel sweep) wake Enqueue.
    pub(crate) fn sync_tasks(&self, uids: &[String], state: TaskState) -> Vec<bool> {
        if uids.is_empty() {
            return Vec::new();
        }
        synchronizer::apply_batch(self, uids, state, &Reaction::default())
    }

    /// Wake whoever parks on the run's signal (the AppManager's wait loop,
    /// Enqueue). The Synchronizer calls it when a transition changed what
    /// they wait for; `CancelToken::cancel` notifies the same signal.
    pub(crate) fn wake(&self) {
        self.cancel.signal().notify();
    }

    /// Wait on the run's signal until `ready` holds, woken also by every
    /// Pending publish (the Emgr, while a pool it requeued for does not
    /// serve). A Pending message holds simulator credits until the Emgr
    /// takes it, and a pool's replacement pilot boots only while none is
    /// alive.
    pub(crate) fn wait_watching_pending(&self, ready: impl FnMut() -> bool) {
        self.pending_watched.store(true, Ordering::SeqCst);
        self.cancel.signal().wait_until(None, ready);
        self.pending_watched.store(false, Ordering::SeqCst);
    }

    /// Enqueue published to the Pending queue: wake the Emgr if it is
    /// waiting in [`Ctx::wait_watching_pending`]. The flag is read after
    /// the publish and set before the Emgr reads the queue's depth, so the
    /// Emgr either sees the message or is woken.
    pub(crate) fn published_pending(&self) {
        if self.pending_watched.load(Ordering::SeqCst) {
            self.wake();
        }
    }

    /// Park credits for Enqueue's next pass. The transition that wakes
    /// Enqueue parks what it reacts to under the workflow lock, in its own
    /// critical section.
    pub(crate) fn park(&self, reaction: Reaction) {
        self.parked.lock().absorb(reaction);
    }

    /// What is parked, taken (Enqueue, under the workflow lock).
    pub(crate) fn take_parked(&self) -> Reaction {
        std::mem::take(&mut *self.parked.lock())
    }

    /// Stop the run: clear the run flag and wake everything parked on the
    /// signal or on `stopped`. Threads blocked inside a queue wake when
    /// tear-down closes the session's queues.
    pub(crate) fn stop(&self) {
        self.running.store(false, Ordering::Release);
        self.stop_tx.lock().take();
        // A stopped Enqueue takes nothing; whatever is parked would hold
        // the simulator's clock for as long as this context lives.
        self.take_parked();
        self.wake();
    }

    /// Record a fatal condition and stop the run.
    pub(crate) fn fail_fatal(&self, reason: String) {
        *self.fatal.lock() = Some(reason);
        self.stop();
    }
}

fn declare_queues(broker: &Broker, ns: &QueueNamespace) -> EntkResult<()> {
    for name in ns.all() {
        broker.declare_queue(name, QueueConfig::default())?;
    }
    Ok(())
}

/// How a run attaches to shared, service-owned infrastructure instead of
/// building its own.
///
/// The default attachment (`SessionAttachment::default()`) reproduces the
/// standalone behavior: the AppManager creates a private broker under the
/// root queue namespace and acquires (and finally tears down) its own RTS.
/// A service hosting many concurrent workflows instead passes a shared
/// broker, a per-session [`QueueNamespace`], and a leased warm pilot; the
/// AppManager then deletes only its session's queues on exit and returns the
/// pilot to the pool instead of tearing it down.
#[derive(Default)]
pub struct SessionAttachment {
    /// Shared broker to attach to; `None` ⇒ create a private one.
    pub broker: Option<Broker>,
    /// Queue namespace for this session.
    pub namespace: QueueNamespace,
    /// Warm pilot lease backing the primary resource pool; `None` ⇒ cold
    /// acquisition.
    pub lease: Option<PilotLease>,
}

impl SessionAttachment {
    /// Attach to a shared broker under a session namespace.
    pub fn shared(broker: Broker, namespace: QueueNamespace) -> Self {
        SessionAttachment {
            broker: Some(broker),
            namespace,
            lease: None,
        }
    }

    /// Builder: back the primary pool with a leased warm pilot.
    pub fn with_lease(mut self, lease: PilotLease) -> Self {
        self.lease = Some(lease);
        self
    }
}

/// Result of one `run` call.
#[derive(Debug)]
pub struct RunReport {
    /// Measured overhead decomposition (real Rust implementation).
    pub overheads: OverheadReport,
    /// Paper-scale overheads (measured + interpreter emulation), when
    /// configured.
    pub emulated: Option<OverheadReport>,
    /// Aggregate RTS profile across incarnations (virtual seconds on the
    /// simulated backend).
    pub rts_profile: RtsProfile,
    /// Per-unit timelines across all pools and incarnations — the raw data
    /// behind the profile, kept for postmortem analysis (§II-B4: "failures
    /// are logged and reported to the user ... for live or postmortem
    /// analysis"). Ordered by submission instant, then unit id.
    pub unit_records: Vec<UnitRecord>,
    /// RTS/pilot restarts performed.
    pub rts_restarts: u32,
    /// Total wall time of the run.
    pub wall_secs: f64,
    /// Final workflow snapshot.
    pub workflow: Workflow,
    /// Whether every pipeline finished Done.
    pub succeeded: bool,
    /// Whether the run ended because it was canceled via [`CancelToken`].
    pub canceled: bool,
    /// The run's trace recorder (disabled when tracing was off); exposes the
    /// full event stream, metrics, and exporters. When the recorder is the
    /// run's own, [`OverheadReport::from_trace`] over its snapshot
    /// re-derives [`RunReport::overheads`].
    pub recorder: Recorder,
    /// Per-stage residency decomposition aggregated from the per-task
    /// `TraceCtx` hop timelines (empty when tracing was off), derived from
    /// the tasks themselves instead of the global event stream.
    pub critical_path: entk_observe::CriticalPath,
}

impl RunReport {
    /// Write the per-task timeline as CSV (one row per attempt record) for
    /// postmortem analysis: tag, submit/stage/start/end timestamps on the
    /// backend timeline and the outcome.
    pub fn write_task_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "tag,submitted_s,stage_in_done_s,stage_in_duration_s,started_s,ended_s,outcome"
        )?;
        let opt = |v: Option<f64>| v.map(|x| format!("{x:.6}")).unwrap_or_default();
        for r in &self.unit_records {
            let outcome = match &r.outcome {
                Some(rp_rts::UnitOutcome::Done) => "done".to_string(),
                Some(rp_rts::UnitOutcome::Failed(e)) => {
                    format!("failed:{}", e.replace([',', '\n'], " "))
                }
                Some(rp_rts::UnitOutcome::Canceled) => "canceled".to_string(),
                None => String::new(),
            };
            writeln!(
                f,
                "{},{:.6},{},{:.6},{},{},{outcome}",
                r.tag.replace(',', " "),
                r.submitted_secs,
                opt(r.stage_in_done_secs),
                r.stage_in_duration_secs,
                opt(r.started_secs),
                opt(r.ended_secs),
            )?;
        }
        Ok(())
    }
}

/// EnTK's master component and user entry point.
pub struct AppManager {
    config: AppManagerConfig,
}

impl AppManager {
    /// Create an AppManager for a resource.
    pub fn new(config: AppManagerConfig) -> Self {
        AppManager { config }
    }

    /// Check every task's resource-pool tag against the configured pools.
    fn validate_pools(&self, workflow: &Workflow) -> EntkResult<()> {
        let mut names: Vec<&str> = vec![self.config.resource.name.as_str()];
        for r in &self.config.extra_resources {
            if names.contains(&r.name.as_str()) {
                return Err(EntkError::InvalidResource(format!(
                    "duplicate resource pool name '{}'",
                    r.name
                )));
            }
            names.push(r.name.as_str());
        }
        for p in workflow.pipelines() {
            for s in p.stages() {
                for t in s.tasks() {
                    if let Some(pool) = &t.resource_pool {
                        if !names.contains(&pool.as_str()) {
                            return Err(EntkError::InvalidResource(format!(
                                "task {} targets unknown resource pool '{pool}'",
                                t.uid()
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolve the trace export prefix: explicit config wins, then the
    /// `ENTK_TRACE` environment variable. Successive runs in one process
    /// sharing an env prefix get `.2`, `.3`, … suffixes so they don't
    /// overwrite each other.
    fn trace_prefix(&self) -> Option<PathBuf> {
        static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let prefix = self
            .config
            .trace_path
            .clone()
            .or_else(|| std::env::var_os("ENTK_TRACE").map(PathBuf::from))?;
        let n = RUNS.fetch_add(1, Ordering::Relaxed);
        if n == 0 || self.config.trace_path.is_some() {
            Some(prefix)
        } else {
            let mut s = prefix.into_os_string();
            s.push(format!(".{}", n + 1));
            Some(PathBuf::from(s))
        }
    }

    /// Request cooperative cancellation of the current (or next) run. The
    /// run settles in-flight tasks to `Canceled` and returns promptly.
    pub fn cancel(&self) {
        self.config.cancel_token.cancel();
    }

    /// A clone of the run's cancellation token, for cancelling from another
    /// thread while `run` blocks.
    pub fn cancel_token(&self) -> CancelToken {
        self.config.cancel_token.clone()
    }

    /// Execute an application to completion on privately owned
    /// infrastructure (own broker, cold-acquired RTS).
    pub fn run(&mut self, workflow: Workflow) -> EntkResult<RunReport> {
        self.run_attached(workflow, SessionAttachment::default())
    }

    /// Execute an application to completion, optionally attached to shared
    /// infrastructure (see [`SessionAttachment`]).
    pub fn run_attached(
        &mut self,
        mut workflow: Workflow,
        attachment: SessionAttachment,
    ) -> EntkResult<RunReport> {
        let SessionAttachment {
            broker: external_broker,
            namespace: ns,
            lease,
        } = attachment;
        let run_start = Instant::now();
        let trace_prefix = self.trace_prefix();
        let recorder = match &self.config.recorder {
            Some(r) => r.clone(),
            None if trace_prefix.is_some() => Recorder::new(),
            None => Recorder::disabled(),
        };
        recorder.record(components::AMGR, "run_start", "", "");

        // ---- Setup phase (measured as EnTK Setup Overhead) -------------
        let setup_span = recorder.span(components::AMGR, "setup");
        workflow.validate()?;
        self.validate_pools(&workflow)?;

        // Recovery: skip tasks recorded Done in a previous attempt's journal.
        if let Some(path) = &self.config.journal_path {
            let completed = StateStore::completed_task_names(path)?;
            if !completed.is_empty() {
                recover_completed(&mut workflow, &completed);
            }
        }

        let shared_broker = external_broker.is_some();
        let broker = match external_broker {
            Some(b) => b,
            None => Broker::with_config(BrokerConfig {
                recorder: recorder.is_enabled().then(|| recorder.clone()),
                ..Default::default()
            })?,
        };
        declare_queues(&broker, &ns)?;
        let store = match &self.config.journal_path {
            Some(p) => Some(StateStore::open(p)?),
            None => None,
        };
        let total_tasks_initial = workflow.task_count();
        let ctx = Ctx::new(
            broker,
            ns,
            self.config.cancel_token.clone(),
            workflow,
            store,
            self.config.default_task_retries,
            self.config.execution_strategy,
            recorder.clone(),
            self.config.exec_manager.clone(),
            self.config.wire_trace.clone(),
            self.config.trace_store.clone(),
        );

        let setup = setup_span.finish();

        // ---- Rmgr: acquire resources (one RTS + pilot per pool) ---------
        let rmgr_span = recorder.span(components::AMGR, "rmgr_acquire");
        let mut slots = Vec::with_capacity(1 + self.config.extra_resources.len());
        let leased = lease.is_some();
        let mut lease = lease;
        for resource in
            std::iter::once(&self.config.resource).chain(self.config.extra_resources.iter())
        {
            // A warm lease (if any) backs the primary pool only; extra pools
            // always acquire cold.
            let slot = match lease.take() {
                Some(lease) => RtsSlot::leased(
                    resource.name.clone(),
                    resource.rts_config(&recorder),
                    resource.pilot_desc(),
                    self.config.max_rts_restarts,
                    lease,
                ),
                None => RtsSlot::acquire(
                    resource.name.clone(),
                    resource.rts_config(&recorder),
                    resource.pilot_desc(),
                    self.config.max_rts_restarts,
                ),
            };
            slots.push(Arc::new(slot));
        }
        let pools = Arc::new(RtsPools { pools: slots });
        let rmgr_wall = rmgr_span.finish();

        // Hold each simulator's clock at its pilot's Ready instant until
        // Enqueue's first pass reaches the engine: the pass takes these
        // credits with the schedulable set and its Pending messages carry
        // them to the Emgr.
        ctx.park(Reaction::holding(
            pools.pools.iter().map(|slot| slot.hold()).collect(),
        ));
        let mut handles = vec![
            wfprocessor::spawn_enqueue(Arc::clone(&ctx)),
            execmanager::spawn_emgr(Arc::clone(&ctx), Arc::clone(&pools)),
        ];
        handles.extend(execmanager::spawn_callbacks(&ctx, &pools));

        // Fault injection: one abrupt RTS death (the primary pool's),
        // §II-B4's failure scenario.
        if let Some(delay) = self.config.chaos_rts_kill_after {
            let slot = Arc::clone(&pools.pools[0]);
            let ctx_chaos = Arc::clone(&ctx);
            handles.push(
                std::thread::Builder::new()
                    .name("entk-chaos".into())
                    .spawn(move || {
                        // Timed out = the run is still going after `delay`.
                        if ctx_chaos.stopped.recv_timeout(delay) == Err(RecvTimeoutError::Timeout) {
                            slot.slot.read().0.kill();
                        }
                    })
                    .expect("spawn chaos thread"),
            );
        }

        // ---- Main wait loop --------------------------------------------
        let deadline = run_start + self.config.run_timeout;
        let mut timed_out = false;
        let mut canceled = false;
        loop {
            if ctx.workflow.lock().is_complete() {
                break;
            }
            if !ctx.running.load(Ordering::Acquire) {
                break; // a component raised a fatal error
            }
            if !canceled && ctx.cancel.is_canceled() {
                // Cooperative cancellation: settle every non-terminal task
                // to Canceled. Components already observe the token and stop
                // scheduling/submitting, so nothing re-enters the pipeline;
                // the settle logic completes stages and pipelines and the
                // is_complete check above ends the run.
                canceled = true;
                recorder.record(components::AMGR, "cancel_requested", "", "");
                cancel_workflow(&ctx);
            }
            if Instant::now() > deadline {
                timed_out = true;
                break;
            }
            // Until one of the conditions above changes: a sync that
            // settles a stage notifies, `Ctx::stop` and
            // `CancelToken::cancel` when they are called.
            ctx.cancel.signal().wait_until(Some(deadline), || {
                ctx.workflow.lock().is_complete()
                    || !ctx.running.load(Ordering::Acquire)
                    || (!canceled && ctx.cancel.is_canceled())
            });
        }

        // ---- Tear-down (measured as EnTK Tear-Down Overhead) ------------
        let teardown_span = recorder.span(components::AMGR, "teardown");
        // Wake every component instead of outwaiting it: `stop` covers the
        // signal and the stop channel, deleting a queue covers whoever is
        // blocked fetching from it (the fetch fails with `BrokerClosed`, on
        // which every loop breaks). A shared broker belongs to the service
        // and keeps serving other sessions, so only this session's queues
        // go; a private one closes once the components are joined.
        ctx.stop();
        for name in ctx.ns.all() {
            let _ = ctx.broker.delete_queue(name);
        }
        for h in handles {
            let _ = h.join();
        }
        if !shared_broker {
            ctx.broker.close();
        }
        let mut records = Vec::new();
        let mut rts_teardown = Duration::ZERO;
        for slot in &pools.pools {
            records.extend(slot.take_records());
            rts_teardown += slot.final_teardown();
        }
        if leased {
            // A leased RTS may still hold stragglers of an earlier, canceled
            // session that ended since; keep only this workflow's units (task
            // uid == unit tag, and uids are process-global unique).
            let wf = ctx.workflow.lock();
            records.retain(|r| wf.task(&r.tag).is_some());
        }
        // Wall time summed across pools and incarnations; back-dated
        // duration event rather than a live span.
        recorder.record_duration(components::AMGR, "rts_teardown", "", "", rts_teardown);
        let teardown = teardown_span.finish();
        recorder.record(components::AMGR, "run_end", "", "");

        // ---- Report ------------------------------------------------------
        // Export before the error checks so failed runs still leave a trace
        // behind for postmortem analysis.
        if let Some(prefix) = &trace_prefix {
            let with_ext = |ext: &str| {
                let mut s = prefix.clone().into_os_string();
                s.push(ext);
                PathBuf::from(s)
            };
            recorder
                .export_prof(with_ext(".prof.jsonl"))
                .map_err(EntkError::Trace)?;
            recorder
                .export_chrome(with_ext(".chrome.json"))
                .map_err(EntkError::Trace)?;
            std::fs::write(with_ext(".report.txt"), recorder.report()).map_err(EntkError::Trace)?;
        }
        let fatal = ctx.fatal.lock().clone();
        if let Some(reason) = fatal {
            return Err(EntkError::InvalidResource(reason));
        }
        if timed_out {
            return Err(EntkError::Timeout);
        }

        // A wide stage is submitted at one instant: the unit id breaks the
        // tie, so the order does not depend on how the RTS stored them.
        records.sort_by(|a, b| {
            a.submitted_secs
                .total_cmp(&b.submitted_secs)
                .then(a.unit.cmp(&b.unit))
        });
        let rts_profile = RtsProfile::from_records(&records);
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        // Seconds from whole nanoseconds, the way `OverheadReport::from_trace`
        // converts the same spans, so that the two agree exactly.
        let secs = |d: Duration| d.as_nanos() as f64 / 1e9;
        let overheads = OverheadReport {
            entk_setup_secs: secs(setup),
            entk_management_secs: secs(Duration::from_nanos(count(&ctx.management_ns))),
            entk_teardown_secs: secs(teardown),
            // RTS overhead: real client-side acquisition plus the virtual
            // submission→first-start span on the CI.
            rts_overhead_secs: rmgr_wall.as_secs_f64() + rts_profile.submit_to_first_start_secs,
            rts_teardown_secs: secs(rts_teardown),
            data_staging_secs: rts_profile.staging_total_secs,
            task_execution_secs: rts_profile.exec_makespan_secs,
            tasks_done: count(&ctx.attempts_done),
            failed_attempts: count(&ctx.attempts_failed),
            transitions: count(&ctx.transitions),
        };
        let emulated = self.config.python_emulation.as_ref().map(|em| {
            let total_tasks = total_tasks_initial.max(1);
            let concurrent = total_tasks.min(self.config.resource.total_cores());
            em.emulate(&overheads, total_tasks, concurrent)
        });

        // Every component is joined: the run's workflow is moved out, not
        // copied.
        let final_workflow = std::mem::take(&mut *ctx.workflow.lock());
        let succeeded = final_workflow
            .pipelines()
            .iter()
            .all(|p| p.state() == crate::states::PipelineState::Done);
        let critical_path = std::mem::take(&mut *ctx.critical_path.lock());
        Ok(RunReport {
            overheads,
            recorder,
            critical_path,
            emulated,
            rts_profile,
            unit_records: records,
            rts_restarts: pools
                .pools
                .iter()
                .map(|s| s.restarts.load(Ordering::SeqCst))
                .sum(),
            wall_secs: run_start.elapsed().as_secs_f64(),
            workflow: final_workflow,
            succeeded,
            canceled,
        })
    }
}

/// Settle every non-terminal task to `Canceled` under the workflow lock's
/// transition machinery. Terminal tasks keep their states; the stage/pipeline
/// settle logic derives Canceled stages and pipelines, completing the run.
fn cancel_workflow(ctx: &Ctx) {
    let uids: Vec<String> = {
        let wf = ctx.workflow.lock();
        wf.pipelines()
            .iter()
            .flat_map(|p| p.stages())
            .flat_map(|s| s.tasks())
            .filter(|t| !t.state().is_terminal())
            .map(|t| t.uid().to_string())
            .collect()
    };
    for uid in uids {
        // May legitimately fail if the task reached a terminal state since
        // the snapshot above.
        let _ = synchronizer::apply_task(ctx, &uid, TaskState::Canceled);
    }
}

/// Mark journal-recovered tasks Done and settle fully-recovered stages and
/// pipelines so they are not re-executed.
pub(crate) fn recover_completed(
    workflow: &mut Workflow,
    completed: &std::collections::HashSet<String>,
) {
    for p in workflow.pipelines_mut() {
        let mut all_stages_done = true;
        let mut advance_to = 0usize;
        let stage_count = p.stages().len();
        for (si, stage) in p.stages_mut().iter_mut().enumerate() {
            let mut all_done = true;
            for t in stage.tasks_mut() {
                if completed.contains(&t.name) {
                    t.force_state(TaskState::Done);
                } else {
                    all_done = false;
                }
            }
            if all_done {
                stage.force_state(crate::states::StageState::Done);
                if advance_to == si {
                    advance_to = si + 1;
                }
            } else {
                all_stages_done = false;
            }
        }
        // Skip fully recovered leading stages.
        for _ in 0..advance_to.min(stage_count.saturating_sub(1)) {
            p.advance_stage();
        }
        if all_stages_done {
            // Everything already done: pipeline completes immediately.
            if advance_to >= stage_count {
                p.force_state(crate::states::PipelineState::Done);
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
    use rp_rts::Executable;

    #[test]
    fn resource_description_cores() {
        let r = ResourceDescription::sim(PlatformId::Titan, 256, 3600);
        assert_eq!(r.total_cores(), 256 * 16);
        let r = ResourceDescription::local(8);
        assert_eq!(r.total_cores(), 8);
    }

    #[test]
    fn config_builders() {
        let cfg = AppManagerConfig::new(ResourceDescription::local(2))
            .with_task_retries(None)
            .with_max_rts_restarts(7)
            .with_run_timeout(Duration::from_secs(5));
        assert_eq!(cfg.default_task_retries, None);
        assert_eq!(cfg.max_rts_restarts, 7);
        assert_eq!(cfg.run_timeout, Duration::from_secs(5));
    }

    fn wf(names: &[&str]) -> Workflow {
        let mut stage = Stage::new("s");
        for n in names {
            stage.add_task(Task::new(*n, Executable::Noop));
        }
        Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage))
    }

    #[test]
    fn recovery_marks_done_and_settles() {
        let mut workflow = wf(&["a", "b"]);
        let completed: std::collections::HashSet<String> =
            ["a", "b"].iter().map(|s| s.to_string()).collect();
        recover_completed(&mut workflow, &completed);
        assert!(workflow.is_complete());
        assert_eq!(workflow.count_in(TaskState::Done), 2);
    }

    #[test]
    fn partial_recovery_leaves_rest_schedulable() {
        let mut workflow = wf(&["a", "b"]);
        let completed: std::collections::HashSet<String> =
            ["a"].iter().map(|s| s.to_string()).collect();
        recover_completed(&mut workflow, &completed);
        assert!(!workflow.is_complete());
        let sched = workflow.schedulable_tasks();
        assert_eq!(sched.len(), 1);
        assert_eq!(workflow.task(&sched[0]).unwrap().name, "b");
    }

    #[test]
    fn recovery_skips_leading_done_stages() {
        let mut workflow = Workflow::new().with_pipeline(
            Pipeline::new("p")
                .with_stage(Stage::new("s0").with_task(Task::new("a", Executable::Noop)))
                .with_stage(Stage::new("s1").with_task(Task::new("b", Executable::Noop))),
        );
        let completed: std::collections::HashSet<String> =
            ["a"].iter().map(|s| s.to_string()).collect();
        recover_completed(&mut workflow, &completed);
        assert_eq!(workflow.pipelines()[0].current_stage(), 1);
        let sched = workflow.schedulable_tasks();
        assert_eq!(workflow.task(&sched[0]).unwrap().name, "b");
    }

    /// Two threads of one component (the RTS Callbacks of a multi-pool run)
    /// sync concurrently; each must get back its own batch's flags, in
    /// request order, every time. Thread 0 asks for
    /// `[x, y]` and thread 1 for `[y, x]`, where `y` is still `Described`
    /// and so refused `Scheduled`: answers that crossed batches or came
    /// back reversed would read `[false, true]` for thread 0.
    #[test]
    fn concurrent_syncs_of_one_component_each_get_their_own_flags() {
        const ROUNDS: usize = 200;
        let names: Vec<String> = (0..4 * ROUNDS).map(|i| format!("t{i}")).collect();
        let workflow = wf(&names.iter().map(String::as_str).collect::<Vec<_>>());
        let uids = workflow.schedulable_tasks();
        let ctx = Ctx::for_tests(workflow);
        let threads: Vec<_> = uids
            .chunks(2 * ROUNDS)
            .enumerate()
            .map(|(t, mine)| {
                let (ctx, mine) = (Arc::clone(&ctx), mine.to_vec());
                std::thread::spawn(move || {
                    for pair in mine.chunks(2) {
                        let scheduling = ctx.sync_tasks(&pair[..1], TaskState::Scheduling);
                        assert_eq!(scheduling, [true]);
                        let mut batch = pair.to_vec();
                        if t == 1 {
                            batch.reverse();
                        }
                        let scheduled = ctx.sync_tasks(&batch, TaskState::Scheduled);
                        assert_eq!(scheduled, [t == 0, t == 1], "thread {t}, batch {batch:?}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("every batch got its own flags");
        }
        let wf = ctx.workflow.lock();
        assert_eq!(wf.count_in(TaskState::Scheduled), 2 * ROUNDS);
        assert_eq!(wf.count_in(TaskState::Described), 2 * ROUNDS);
        // Per pair: one Scheduling and one of its two Scheduled requests.
        assert_eq!(ctx.transitions.load(Ordering::Relaxed), 4 * ROUNDS as u64);
    }

    /// A `post_exec` hook runs on the thread whose sync settles its stage
    /// (here the RTS Callback's, which applies Dequeue's verdicts). One
    /// that panics fails the run at once: the run returns an error well
    /// inside its timeout instead of waiting for a stage that can no longer
    /// advance.
    #[test]
    fn a_panicking_post_exec_hook_fails_the_run_instead_of_stranding_it() {
        let stage = Stage::new("s0")
            .with_task(Task::new("a", Executable::Noop))
            .with_post_exec(|_| panic!("post_exec hook fails"));
        let workflow = Workflow::new().with_pipeline(
            Pipeline::new("p")
                .with_stage(stage)
                .with_stage(Stage::new("s1").with_task(Task::new("b", Executable::Noop))),
        );
        let timeout = Duration::from_secs(60);
        let mut amgr = AppManager::new(
            AppManagerConfig::new(ResourceDescription::local(1)).with_run_timeout(timeout),
        );
        let started = Instant::now();
        let err = amgr
            .run(workflow)
            .expect_err("the run must fail on the hook");
        assert!(
            matches!(&err, EntkError::InvalidResource(reason) if reason.contains("post_exec")),
            "{err}"
        );
        assert!(started.elapsed() < timeout / 4, "{:?}", started.elapsed());
    }

    #[test]
    fn end_to_end_local_backend() {
        use std::sync::atomic::AtomicUsize;
        let counter = Arc::new(AtomicUsize::new(0));
        let mut stage = Stage::new("compute");
        for i in 0..6 {
            let c = Arc::clone(&counter);
            stage.add_task(Task::new(
                format!("c{i}"),
                Executable::compute(1.0, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            ));
        }
        let workflow = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(stage));
        let mut amgr = AppManager::new(
            AppManagerConfig::new(ResourceDescription::local(3))
                .with_run_timeout(Duration::from_secs(30)),
        );
        let report = amgr.run(workflow).expect("run succeeds");
        assert!(report.succeeded);
        assert_eq!(counter.load(Ordering::SeqCst), 6);
        assert_eq!(report.overheads.tasks_done, 6);
        assert_eq!(report.rts_restarts, 0);
        assert!(report.overheads.entk_setup_secs > 0.0);
    }

    #[test]
    fn end_to_end_batch_of_one() {
        // A batch limit of 1 is the paper's per-task data path; the run
        // must behave identically.
        let workflow = wf(&["a", "b", "c", "d"]);
        let mut amgr = AppManager::new(
            AppManagerConfig::new(ResourceDescription::local(2))
                .with_exec_manager(ExecManagerConfig { max_batch: 1 })
                .with_run_timeout(Duration::from_secs(30)),
        );
        let report = amgr.run(workflow).expect("run succeeds");
        assert!(report.succeeded);
        assert_eq!(report.overheads.tasks_done, 4);
    }

    #[test]
    fn batched_path_is_the_default() {
        let cfg = AppManagerConfig::new(ResourceDescription::local(1)).exec_manager;
        assert_eq!(cfg.max_batch, 256);
    }

    #[test]
    fn end_to_end_sim_backend_two_stages() {
        let workflow = Workflow::new().with_pipeline(
            Pipeline::new("p")
                .with_stage(
                    Stage::new("s0")
                        .with_task(Task::new("t0", Executable::Sleep { secs: 100.0 }))
                        .with_task(Task::new("t1", Executable::Sleep { secs: 100.0 })),
                )
                .with_stage(
                    Stage::new("s1").with_task(Task::new("t2", Executable::Sleep { secs: 50.0 })),
                ),
        );
        let mut amgr = AppManager::new(
            AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 2, 7200))
                .with_run_timeout(Duration::from_secs(60)),
        );
        let report = amgr.run(workflow).expect("run succeeds");
        assert!(report.succeeded);
        assert_eq!(report.overheads.tasks_done, 3);
        // Virtual execution spans both stages: ≥150 virtual seconds.
        assert!(
            report.rts_profile.exec_makespan_secs >= 150.0,
            "makespan {}",
            report.rts_profile.exec_makespan_secs
        );
        // ...but takes far less wall time.
        assert!(report.wall_secs < 30.0);
    }
}
