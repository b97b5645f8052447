//! Every call the benchmark makes into the program goes through this file:
//! it is the only one that names `entk_*`, `rp_rts` or `hpc_sim`, so the
//! signatures the frozen benchmark pins can be read in one place. The
//! wrappers take and return plain values, use the program's defaults, and
//! stay off the APIs the ROADMAP marks for deletion (`with_batched`,
//! `with_shards`, `Profiler`, `ObserveServer::start*`).
//!
//! Settings that are not defaults, and why:
//! * pilot walltime 10^9 s, so virtual walltime expiry never races a run;
//! * `with_run_timeout`, so a stalled rep ends as a failed operation inside
//!   the driver's time limit instead of hanging it;
//! * `with_max_pending` on the burst workload only: the default bound of 32
//!   would refuse a 512-workflow burst.

use entk_core::workflow::uniform_workflow;
use entk_core::{
    AppManager, AppManagerConfig, Executable, ResourceDescription, Task, TaskState, Workflow,
};
use entk_gateway::Gateway;
use entk_mq::{Broker, BrokerConfig, Message, QueueConfig};
use entk_observe::{Recorder, TraceCtx, TraceStore, TraceStoreConfig};
use entk_service::{
    EnsembleService, ExecSpec, PipelineSpec, ServiceClient, ServiceConfig, ServiceJournal,
    ServiceRecord, StageSpec, SubmissionId, TaskSpec, WorkflowSpec,
};
use hpc_sim::{
    JobDescription, JobId, Platform, PlatformId, SimConfig, SimDuration, SimEvent, SimHandle,
    Simulation, TaskDesc,
};
use rp_rts::db::{DbConfig, DocDb};
use rp_rts::{
    PilotDescription, PilotId, PilotPool, PilotPoolConfig, RtsConfig, RuntimeSystem,
    UnitDescription, UnitId, UnitState,
};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The program's JSON reader, for `BENCHMARK.json` and ledger files.
pub use entk_observe::json::{parse as parse_json, Json};

const PILOT_WALLTIME_SECS: u64 = 1_000_000_000;

/// TestRig has 4 nodes; a standalone run takes all of them.
const ENSEMBLE_NODES: u32 = 4;

/// Nodes per pooled service pilot, as `gateway_smoke` sizes them.
const SERVICE_NODES: u32 = 2;

fn resource(nodes: u32, seed: u64) -> ResourceDescription {
    ResourceDescription::sim(PlatformId::TestRig, nodes, PILOT_WALLTIME_SECS).with_seed(seed)
}

// ---- the program's own tracing, switched on for the traced pass only ------

/// The program's recorder plus a trace store that keeps every timeline.
#[derive(Clone)]
pub struct Tracing {
    recorder: Recorder,
}

/// Mean residency of one hop, as the program reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct HopMean {
    /// `<from>-<to>` in the program's hop names.
    pub hop: String,
    pub mean_ms: f64,
    pub count: u64,
}

impl Tracing {
    pub fn on() -> Self {
        Tracing {
            recorder: Recorder::new(),
        }
    }

    fn store_config() -> TraceStoreConfig {
        TraceStoreConfig {
            sample_permille: 1000,
            ..TraceStoreConfig::default()
        }
    }

    /// Per-hop mean residency over every settled task timeline, read from
    /// the `trace.stage.<from>-><to>` histograms the trace store feeds.
    pub fn hop_means(&self) -> Vec<HopMean> {
        self.recorder
            .metrics()
            .histograms()
            .into_iter()
            .filter_map(|(name, snap)| {
                let stage = name.strip_prefix("trace.stage.")?;
                Some(HopMean {
                    hop: stage.replace("->", "-"),
                    mean_ms: snap.mean_ns as f64 / 1e6,
                    count: snap.count,
                })
            })
            .collect()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.recorder.metrics().counter(name).get()
    }

    pub fn histogram_count(&self, name: &str) -> u64 {
        self.recorder.metrics().histogram(name).count()
    }
}

// ---- entk-core: standalone ensemble runs ----------------------------------

/// `pipelines` × `stages` × `tasks` sleep tasks, validated; `secs(p, s)` is
/// the virtual run time of the tasks of one stage.
pub fn build_workflow(
    pipelines: usize,
    stages: usize,
    tasks: usize,
    secs: &dyn Fn(usize, usize) -> f64,
) -> Result<Workflow, String> {
    let wf = uniform_workflow(pipelines, stages, tasks, |p, s, t| {
        Task::new(
            format!("p{p}.s{s}.t{t}"),
            Executable::Sleep { secs: secs(p, s) },
        )
    });
    wf.validate().map_err(|e| e.to_string())?;
    Ok(wf)
}

/// What one `AppManager::run` left behind, for the correctness gate.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    pub succeeded: bool,
    /// Tasks `Done` in the final workflow snapshot.
    pub tasks_done: u64,
    /// Tasks that needed more than one attempt.
    pub reattempted: u64,
    /// Units the RTS executed; equals the task count when each ran once.
    pub units_executed: u64,
    /// `RunReport.overheads.entk_management_secs`, program-reported.
    pub mgmt_overhead_s: f64,
}

/// `AppManager::new` + `run` on a cold, privately owned simulated TestRig.
pub fn run_workflow(
    workflow: Workflow,
    seed: u64,
    timeout: Duration,
    tracing: Option<&Tracing>,
) -> Result<RunSummary, String> {
    let mut cfg = AppManagerConfig::new(resource(ENSEMBLE_NODES, seed)).with_run_timeout(timeout);
    if let Some(t) = tracing {
        cfg = cfg
            .with_recorder(t.recorder.clone())
            .with_trace_store(Arc::new(TraceStore::new(Tracing::store_config())));
    }
    let report = AppManager::new(cfg)
        .run(workflow)
        .map_err(|e| e.to_string())?;
    let tasks = || {
        report
            .workflow
            .pipelines()
            .iter()
            .flat_map(|p| p.stages())
            .flat_map(|s| s.tasks())
    };
    Ok(RunSummary {
        succeeded: report.succeeded,
        tasks_done: tasks().filter(|t| t.state() == TaskState::Done).count() as u64,
        reattempted: tasks().filter(|t| t.attempts() > 1).count() as u64,
        units_executed: report.unit_records.len() as u64,
        mgmt_overhead_s: report.overheads.entk_management_secs,
    })
}

// ---- entk-service: specs, the service, its journal ------------------------

/// The wire-serializable workflow description, named so callers need not
/// import the service crate.
pub type Spec = WorkflowSpec;

/// A wire-serializable spec of `pipelines` × `stages` × `tasks` sleep tasks.
pub fn spec(
    label: &str,
    (pipelines, stages, tasks): (usize, usize, usize),
    secs: &dyn Fn(usize, usize) -> f64,
) -> WorkflowSpec {
    let mut wf = WorkflowSpec::new();
    for p in 0..pipelines {
        let mut pipeline = PipelineSpec::new(format!("{label}-p{p}"));
        for s in 0..stages {
            let mut stage = StageSpec::new(format!("{label}-p{p}s{s}"));
            for t in 0..tasks {
                stage = stage.with_task(TaskSpec::new(
                    format!("{label}-p{p}s{s}t{t}"),
                    ExecSpec::Sleep { secs: secs(p, s) },
                ));
            }
            pipeline = pipeline.with_stage(stage);
        }
        wf = wf.with_pipeline(pipeline);
    }
    wf
}

pub fn spec_to_json(spec: &WorkflowSpec) -> String {
    spec.to_json()
}

pub fn spec_from_json(json: &str) -> Result<WorkflowSpec, String> {
    WorkflowSpec::from_json(json).map_err(|e| e.0)
}

/// Materialize a spec into a workflow; returns its task count.
pub fn spec_build(spec: &WorkflowSpec) -> Result<usize, String> {
    spec.build().map(|wf| wf.task_count()).map_err(|e| e.0)
}

/// How a service is started; everything not named here is a default.
#[derive(Clone, Copy, Default)]
pub struct ServiceOptions<'a> {
    pub journal_dir: Option<&'a Path>,
    pub max_pending: Option<usize>,
    pub tracing: Option<&'a Tracing>,
    pub seed: u64,
}

fn service_config(opts: ServiceOptions) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(resource(SERVICE_NODES, opts.seed));
    if let Some(dir) = opts.journal_dir {
        cfg = cfg.with_journal_dir(dir);
    }
    if let Some(n) = opts.max_pending {
        cfg = cfg.with_max_pending(n);
    }
    if let Some(t) = opts.tracing {
        cfg = cfg
            .with_recorder(t.recorder.clone())
            .with_traces(Tracing::store_config());
    }
    cfg
}

pub struct Service(EnsembleService);

/// Lifetime counters of a service, from `ServiceStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
}

impl Service {
    pub fn start(opts: ServiceOptions) -> Service {
        Service(EnsembleService::start(service_config(opts)))
    }

    /// `EnsembleService::recover` from the journal directory in `opts`.
    pub fn recover(opts: ServiceOptions) -> Result<Service, String> {
        EnsembleService::recover(service_config(opts))
            .map(Service)
            .map_err(|e| e.to_string())
    }

    pub fn client(&self) -> Client {
        Client(self.0.client())
    }

    /// Front the service with a real TCP gateway on an ephemeral port. With
    /// tracing on, the gateway stamps the wire hops into the service's store.
    pub fn gateway(&self, traced: bool) -> std::io::Result<Wire> {
        let addr: SocketAddr = ([127, 0, 0, 1], 0).into();
        let gateway = if traced {
            Gateway::start_with_traces(
                addr,
                self.0.client(),
                self.0.recorder(),
                self.0.trace_store(),
            )
        } else {
            Gateway::start(addr, self.0.client(), self.0.recorder())
        };
        gateway.map(Wire)
    }

    /// The SIGKILL-equivalent stop.
    pub fn kill(self) {
        self.0.kill();
    }

    /// Graceful drain; returns the final counters.
    pub fn shutdown(self) -> Totals {
        let stats = self.0.shutdown();
        Totals {
            submitted: stats.submitted,
            completed: stats.completed,
            failed: stats.failed,
        }
    }
}

pub struct Wire(Gateway);

impl Wire {
    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    pub fn stop(self) {
        self.0.stop();
    }
}

#[derive(Clone)]
pub struct Client(ServiceClient);

/// A settled submission, as `ServiceClient::wait` hands it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Settled {
    pub success: bool,
    /// Present when the run's report survived (not a recovered summary).
    pub mgmt_overhead_s: Option<f64>,
}

impl Client {
    /// `submit_spec`: admission, journal append, fair-share push.
    pub fn submit(&self, tenant: &str, spec: WorkflowSpec) -> Result<u64, String> {
        self.0
            .submit_spec(tenant, spec, None)
            .map(|id| id.0)
            .map_err(|e| e.to_string())
    }

    pub fn wait(&self, id: u64, timeout: Duration) -> Option<Settled> {
        let result = self.0.wait(SubmissionId(id), timeout)?;
        Some(Settled {
            success: result.outcome.is_success(),
            mgmt_overhead_s: result
                .outcome
                .report()
                .map(|r| r.overheads.entk_management_secs),
        })
    }
}

/// `wire::parse_submit` on a POST body; returns the spec's task count.
pub fn parse_submit(body: &str) -> Result<usize, String> {
    entk_gateway::wire::parse_submit(body).map(|b| b.spec.task_count())
}

pub struct SubJournal(ServiceJournal);

impl SubJournal {
    pub fn open(path: &Path) -> Result<SubJournal, String> {
        ServiceJournal::open(path)
            .map(SubJournal)
            .map_err(|e| e.to_string())
    }

    /// Append (and flush) one `Submitted` record.
    pub fn append_submitted(&self, id: u64, tenant: &str, spec_json: &str) -> Result<(), String> {
        self.0
            .append(&ServiceRecord::Submitted {
                id,
                tenant: tenant.to_string(),
                weight: 0,
                spec_json: spec_json.to_string(),
            })
            .map_err(|e| e.to_string())
    }

    /// `ServiceJournal::scan`; returns how many submissions it replayed.
    pub fn scan(path: &Path) -> Result<usize, String> {
        ServiceJournal::scan(path)
            .map(|replay| replay.subs.len())
            .map_err(|e| e.to_string())
    }
}

// ---- entk-observe: the trace context codec --------------------------------

pub fn trace_ctx(hops: usize) -> TraceCtx {
    let mut ctx = TraceCtx::new("task.0000.0001");
    for i in 0..hops {
        ctx.hop("bench", "hop", 1_000_000 * i as u64);
    }
    ctx
}

/// `TraceCtx::encode` + `decode`; returns the hop count that came back.
pub fn trace_roundtrip(ctx: &TraceCtx) -> usize {
    TraceCtx::decode(&ctx.encode()).map_or(0, |c| c.hops.len())
}

// ---- entk-mq --------------------------------------------------------------

pub struct Mq(Broker);

impl Mq {
    /// A broker with default configuration; durable when `journal` is set.
    pub fn open(journal: Option<&Path>) -> Result<Mq, String> {
        Broker::with_config(Self::config(journal))
            .map(Mq)
            .map_err(|e| e.to_string())
    }

    /// `Broker::recover_with_config` over the segments at `journal`.
    pub fn recover(journal: &Path) -> Result<Mq, String> {
        Broker::recover_with_config(Self::config(Some(journal)))
            .map(Mq)
            .map_err(|e| e.to_string())
    }

    fn config(journal: Option<&Path>) -> BrokerConfig {
        BrokerConfig {
            journal_path: journal.map(Path::to_path_buf),
            ..BrokerConfig::default()
        }
    }

    pub fn shards(&self) -> usize {
        self.0.shard_count()
    }

    pub fn declare(&self, queue: &str, durable: bool) -> Result<(), String> {
        let cfg = if durable {
            QueueConfig::durable()
        } else {
            QueueConfig::default()
        };
        self.0.declare_queue(queue, cfg).map_err(|e| e.to_string())
    }

    /// Publish `n` messages of `payload` bytes in one `publish_batch`.
    pub fn publish_batch(&self, queue: &str, n: usize, payload: &[u8], persistent: bool) -> bool {
        let messages = (0..n)
            .map(|_| {
                if persistent {
                    Message::persistent(payload)
                } else {
                    Message::new(payload)
                }
            })
            .collect();
        self.0.publish_batch(queue, messages).is_ok()
    }

    /// `get_batch` up to `max`; returns how many came and the highest tag.
    pub fn get_batch(&self, queue: &str, max: usize, timeout: Duration) -> (usize, u64) {
        let got = self.0.get_batch(queue, max, timeout).unwrap_or_default();
        (got.len(), got.iter().map(|d| d.tag).max().unwrap_or(0))
    }

    pub fn ack_up_to(&self, queue: &str, tag: u64) -> usize {
        self.0.ack_multiple(queue, tag).unwrap_or(0)
    }

    /// Block in `get_timeout`; returns when a message arrived.
    pub fn get_blocking(&self, queue: &str, timeout: Duration) -> Option<Instant> {
        let delivery = self.0.get_timeout(queue, timeout).ok()??;
        let woke = Instant::now();
        self.0.ack(queue, delivery.tag).ok()?;
        Some(woke)
    }

    pub fn depth(&self, queue: &str) -> usize {
        self.0.depth(queue).unwrap_or(0)
    }

    pub fn close(self) {
        self.0.close();
    }
}

// ---- rp-rts ---------------------------------------------------------------

pub struct Db(DocDb);

impl Db {
    pub fn open() -> Db {
        Db(DocDb::new(DbConfig::default()))
    }

    /// `insert_units` of `n` documents with ids from `first`.
    pub fn insert(&self, first: u64, n: u64) {
        let units = (first..first + n)
            .map(|i| (UnitId(i), format!("task.{i:08}"), None))
            .collect();
        self.0.insert_units(0, units);
    }

    /// `pull_units`; returns how many ids came.
    pub fn pull(&self, max: usize) -> usize {
        self.0.pull_units(0, max).len()
    }

    /// `update_states` of `n` documents with ids from `first`.
    pub fn update(&self, first: u64, n: u64) {
        let updates: Vec<_> = (first..first + n)
            .map(|i| (UnitId(i), UnitState::Executing))
            .collect();
        self.0.update_states(&updates);
    }
}

fn pilot(nodes: u32) -> PilotDescription {
    PilotDescription {
        platform: PlatformId::TestRig,
        nodes,
        walltime_secs: PILOT_WALLTIME_SECS,
        bootstrap_secs: 0.0,
    }
}

pub struct Rts {
    rts: RuntimeSystem,
    pilot: Option<PilotId>,
}

impl Rts {
    pub fn start(seed: u64) -> Rts {
        Rts {
            rts: RuntimeSystem::start(RtsConfig::sim(PlatformId::TestRig).with_seed(seed)),
            pilot: None,
        }
    }

    /// `submit_pilot` + `wait_pilot_ready`.
    pub fn boot_pilot(&mut self, timeout: Duration) -> bool {
        let id = self.rts.submit_pilot(&pilot(ENSEMBLE_NODES));
        self.pilot = Some(id);
        self.rts.wait_pilot_ready(id, timeout)
    }

    /// `submit_units` of `n` sleep units, then drain callbacks until the
    /// last terminal one; returns how many ended `Done`.
    pub fn run_units(&self, n: usize, secs: f64, timeout: Duration) -> usize {
        let Some(pilot) = self.pilot else { return 0 };
        let descs = (0..n)
            .map(|i| UnitDescription::new(format!("unit.{i:06}"), Executable::Sleep { secs }))
            .collect();
        if self.rts.submit_units(pilot, descs).is_err() {
            return 0;
        }
        let deadline = Instant::now() + timeout;
        let (mut terminal, mut done) = (0, 0);
        while terminal < n {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(cb) = self.rts.callbacks().recv_timeout(left) else {
                break;
            };
            if cb.state.is_terminal() {
                terminal += 1;
                done += usize::from(cb.state == UnitState::Done);
            }
        }
        done
    }

    pub fn teardown(self) {
        self.rts.teardown();
    }
}

pub struct Pool(PilotPool);

impl Pool {
    /// A pool with one warm pilot.
    pub fn warm(seed: u64) -> Pool {
        let pool = PilotPool::new(PilotPoolConfig {
            rts: RtsConfig::sim(PlatformId::TestRig).with_seed(seed),
            pilot: pilot(SERVICE_NODES),
            capacity: 1,
        });
        pool.prewarm(1);
        Pool(pool)
    }

    /// `lease` + release; returns whether the lease was warm.
    pub fn lease_release(&self) -> bool {
        let lease = self.0.lease();
        let warm = lease.was_warm();
        lease.release();
        warm
    }

    pub fn drain(self) {
        self.0.drain();
    }
}

// ---- hpc-sim --------------------------------------------------------------

pub struct Sim {
    handle: SimHandle,
    job: JobId,
}

impl Sim {
    /// Start a TestRig simulation and wait until a 4-node job is ready.
    pub fn start(seed: u64, timeout: Duration) -> Option<Sim> {
        let handle = Simulation::start(
            SimConfig::new(Platform::catalog(PlatformId::TestRig)).with_seed(seed),
        );
        let job = handle.submit_job(JobDescription {
            nodes: ENSEMBLE_NODES,
            walltime: SimDuration::from_secs(PILOT_WALLTIME_SECS),
            bootstrap: SimDuration::ZERO,
        });
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match handle.events().recv_timeout(left).ok()? {
                SimEvent::JobReady { job: j, .. } if j == job => break,
                _ => {}
            }
        }
        Some(Sim { handle, job })
    }

    /// Launch `n` tasks of `secs` virtual seconds through a `SimCommander`
    /// and drain events until the last one ended; returns how many
    /// completed.
    pub fn run_tasks(&self, n: usize, secs: u64, timeout: Duration) -> usize {
        let commander = self.handle.commander();
        for _ in 0..n {
            commander.launch_task(self.job, TaskDesc::fixed_secs(secs));
        }
        let deadline = Instant::now() + timeout;
        let (mut ended, mut ok) = (0, 0);
        while ended < n {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.handle.events().recv_timeout(left) {
                Ok(SimEvent::TaskEnded { outcome, .. }) => {
                    ended += 1;
                    ok += usize::from(outcome.is_success());
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        ok
    }
}
