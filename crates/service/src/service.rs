//! The long-lived ensemble service.
//!
//! An [`EnsembleService`] owns one shared `entk-mq` broker and a warm
//! [`PilotPool`], and executes workflow submissions from many tenants
//! concurrently. Each accepted submission runs on its own session-scoped
//! AppManager attached to the shared infrastructure: a per-session
//! [`QueueNamespace`] keeps its queues disjoint from every other session on
//! the broker, and a [`PilotLease`](rp_rts::PilotLease) hands it a
//! bootstrapped runtime that returns to the pool afterwards instead of being
//! torn down.
//!
//! Threading model: every client call (admission, status, cancel, stats)
//! runs on the caller's thread under the one state mutex; `max_active`
//! worker threads pull dispatched submissions from the shared fair-share
//! queue under the same mutex. Nothing polls: idle workers park on the
//! `work_ready` condvar until a submission is admitted, and clients in
//! [`ServiceClient::wait`] and the drain in [`EnsembleService::shutdown`]
//! park on the `settled` condvar until a submission settles.

use crate::admission::AdmissionPolicy;
use crate::fairshare::FairShare;
use crate::journal::{self, ServiceJournal, ServiceRecord, SettledState};
use crate::protocol::{
    ServiceStats, SessionInfo, SubmissionId, SubmissionOutcome, SubmissionResult, SubmissionStatus,
    SubmitError,
};
use crate::spec::WorkflowSpec;
use entk_control::{ControlObservation, PoolPrescaler, PrescalerConfig};
use entk_core::{
    AppManager, AppManagerConfig, CancelToken, QueueNamespace, ResourceDescription, RunReport,
    SessionAttachment, Workflow,
};
use entk_mq::{Broker, BrokerConfig, MqResult};
use entk_observe::export::json_escape;
use entk_observe::{
    components, hops, CriticalPath, DecisionRing, ObserveConfig, ObserveServer, QueueSample,
    Recorder, Sampler, SloConfig, SloTracker, TraceCtx, TraceStore, TraceStoreConfig, Watchdog,
    WatchdogConfig, WatchdogInput,
};
use parking_lot::{Condvar, Mutex};
use rp_rts::{PilotPool, PilotPoolConfig};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The watchdog scans at this multiple of the sampler interval, so a dead
/// main sampler is observable as a flat tick counter across several scans.
const WATCHDOG_INTERVAL_FACTOR: u32 = 4;

/// Flight-recorder capacity (alerts + actuations kept for `/debug/decisions`).
const DECISION_RING_CAPACITY: usize = 256;

/// Service-journal filename inside the journal directory.
const SERVICE_JOURNAL_FILE: &str = "service.journal";

/// Per-submission AppManager state-journal filename (task-level recovery
/// keys; survives a crash so a re-driven submission skips Done tasks).
fn task_journal_file(id: SubmissionId) -> String {
    format!("sub-{:05}.tasks.log", id.0)
}

/// Service configuration.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Resource every submission runs on; also determines the pooled pilot
    /// shape. Give it a generous walltime — pooled pilots keep consuming
    /// walltime while idle between leases.
    pub resource: ResourceDescription,
    /// Pilots to bootstrap at startup (also the pool's warm capacity).
    pub warm_pilots: usize,
    /// Concurrent submissions in flight (worker thread count).
    pub max_active: usize,
    /// Pending-queue bound; submissions beyond it are rejected with a
    /// retry-after hint.
    pub max_pending: usize,
    /// Fair-share weight for tenants whose submissions carry none.
    pub default_weight: u32,
    /// Per-run wall-clock timeout (`None` = AppManager default).
    pub run_timeout: Option<Duration>,
    /// Per-task retry budget passed to every run.
    pub task_retries: Option<u32>,
    /// RTS restart budget passed to every run.
    pub max_rts_restarts: u32,
    /// Recorder for service events and metrics; `None` = metrics-only
    /// (disabled recorder) — unless the telemetry listener is enabled, in
    /// which case a live recorder is created automatically.
    pub recorder: Option<Recorder>,
    /// Telemetry plane: exposition listener + background sampler. The
    /// default is fully off, so embedding the service costs nothing extra.
    pub observe: ObserveConfig,
    /// Service-level objectives. When set, an [`SloTracker`] publishes
    /// `slo.*` burn-rate gauges and breach counters on every sampler tick,
    /// and the watchdog keys off the declared targets. Implies a live
    /// recorder and background sampler even without a listener.
    pub slo: Option<SloConfig>,
    /// Size the warm pilot pool from demand with the [`PoolPrescaler`],
    /// starting from `warm_pilots`. Implies a live recorder and sampler.
    pub adaptive: bool,
    /// Durability directory. When set, the service keeps a workflow journal
    /// (`service.journal`) and one task-level state journal per durable
    /// submission (`sub-NNNNN.tasks.log`), both inside this directory — the
    /// state [`EnsembleService::recover`] rebuilds from. The shared broker
    /// keeps no journal: run queues are not durable.
    /// [`EnsembleService::start`] begins a fresh epoch (existing journal
    /// files are removed); use `recover` to resume a previous one.
    pub journal_dir: Option<PathBuf>,
    /// Settled-timeline capture policy: tail-sampled per-task timelines
    /// queryable on `GET /v1/traces/<id>`. `None` (the default) disables
    /// capture entirely — `offer` degenerates to one boolean test.
    pub traces: Option<TraceStoreConfig>,
}

impl ServiceConfig {
    /// Defaults: 2 warm pilots, 4 active, 32 pending, equal weights.
    pub fn new(resource: ResourceDescription) -> Self {
        ServiceConfig {
            resource,
            warm_pilots: 2,
            max_active: 4,
            max_pending: 32,
            default_weight: 1,
            run_timeout: None,
            task_retries: None,
            max_rts_restarts: 1,
            recorder: None,
            observe: ObserveConfig::default(),
            slo: None,
            adaptive: false,
            journal_dir: None,
            traces: None,
        }
    }

    /// Builder: enable the durability journal in `dir`.
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Builder: warm pilot count.
    pub fn with_warm_pilots(mut self, n: usize) -> Self {
        self.warm_pilots = n;
        self
    }

    /// Builder: concurrent submissions.
    pub fn with_max_active(mut self, n: usize) -> Self {
        self.max_active = n.max(1);
        self
    }

    /// Builder: pending-queue bound.
    pub fn with_max_pending(mut self, n: usize) -> Self {
        self.max_pending = n;
        self
    }

    /// Builder: per-run timeout.
    pub fn with_run_timeout(mut self, t: Duration) -> Self {
        self.run_timeout = Some(t);
        self
    }

    /// Builder: per-task retry budget.
    pub fn with_task_retries(mut self, retries: Option<u32>) -> Self {
        self.task_retries = retries;
        self
    }

    /// Builder: recorder for traces/metrics.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builder: full telemetry-plane configuration.
    pub fn with_observe(mut self, observe: ObserveConfig) -> Self {
        self.observe = observe;
        self
    }

    /// Builder: enable the exposition listener on `addr` (port 0 binds an
    /// ephemeral port; see [`EnsembleService::observe_addr`]).
    pub fn with_listen_addr(mut self, addr: SocketAddr) -> Self {
        self.observe.listen_addr = Some(addr);
        self
    }

    /// Builder: declare service-level objectives.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Builder: enable/disable demand-driven pool sizing.
    pub fn with_adaptive_control(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Builder: enable settled-timeline capture with the given tail-sampling
    /// policy (see [`TraceStoreConfig`]).
    pub fn with_traces(mut self, cfg: TraceStoreConfig) -> Self {
        self.traces = Some(cfg);
        self
    }
}

/// Internal lifecycle phase of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Failed,
    Canceled,
}

struct Submission {
    tenant: String,
    /// Present while queued; taken by the worker at dispatch.
    workflow: Option<Box<Workflow>>,
    cancel: CancelToken,
    phase: Phase,
    submitted_at: Instant,
    /// Present once terminal, until the client takes it.
    result: Option<SubmissionResult>,
    /// The wire spec's JSON, for durable (journaled) submissions only.
    spec_json: Option<String>,
    /// Wire-side trace (gateway hops + the service's admission/journal
    /// hops); taken by the worker at dispatch and handed to the run so
    /// every per-task timeline is seeded from it.
    trace: Option<TraceCtx>,
}

#[derive(Default)]
struct Totals {
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    canceled: u64,
}

struct State {
    queue: FairShare<SubmissionId>,
    subs: HashMap<SubmissionId, Submission>,
    active: usize,
    draining: bool,
    stop_workers: bool,
    admission: AdmissionPolicy,
    totals: Totals,
    next_id: u64,
}

/// The telemetry-loop state: SLO tracker, watchdog and pool prescaler.
/// Always present (cheap); only the samplers drive it.
struct ControlPlane {
    ring: Arc<DecisionRing>,
    slo: Option<SloTracker>,
    watchdog: Mutex<Watchdog>,
    /// Demand-driven pool sizing; `Some` when `adaptive` is on.
    prescaler: Option<Mutex<PoolPrescaler>>,
    /// Monotone main-sampler tick count, watched for DeadSampler.
    sampler_ticks: AtomicU64,
    /// In-flight background prewarm spawned by a pool grow (a pilot
    /// bootstrap takes far longer than a sampler period, so it must not run
    /// on the sampler thread). Joined at shutdown, before the pool drains.
    prewarmer: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

struct Inner {
    state: Mutex<State>,
    /// Workers park here; notified on admission and on stop.
    work_ready: Condvar,
    /// Clients waiting for a result and the drain park here; notified
    /// whenever a submission settles.
    settled: Condvar,
    recorder: Recorder,
    pool: PilotPool,
    broker: Broker,
    config: ServiceConfig,
    /// Per-stage residency aggregated across every finished run's traced
    /// tasks (served on `/statusz`).
    critical_path: Mutex<CriticalPath>,
    /// Tail-sampled settled timelines (`GET /v1/traces`); the disabled
    /// store when [`ServiceConfig::traces`] is unset.
    trace_store: Arc<TraceStore>,
    /// Last non-empty per-queue stats snapshot, kept so `/statusz` after a
    /// short run still shows the queues the service just ran (marked
    /// `"queues_stale":true`) instead of an empty list.
    queues_seen: Mutex<Vec<(String, u64, u64)>>,
    ctl: ControlPlane,
    started_at: Instant,
    /// The durability journal (`None` when `journal_dir` is unset).
    journal: Option<ServiceJournal>,
    /// Set by [`EnsembleService::kill`]: a SIGKILL-equivalent stop freezes
    /// the journal so the teardown path cannot settle records a real crash
    /// would never have written.
    journal_frozen: AtomicBool,
}

impl Inner {
    fn gauge_sync(&self, st: &State) {
        let m = self.recorder.metrics();
        m.gauge("service.queue_depth").set(st.queue.len() as i64);
        m.gauge("service.active_sessions").set(st.active as i64);
    }

    fn tenant_counter(&self, what: &str, tenant: &str) {
        self.recorder
            .metrics()
            .counter(&format!("service.{what}.{tenant}"))
            .incr();
    }

    /// Append a record to the durability journal, if one is open and not
    /// frozen. Errors are surfaced as a counter, not propagated: a failed
    /// `Settled` append degrades recovery precision (the sub re-drives,
    /// task-level dedup still holds) but must not fail the run.
    /// `Submitted` appends go through [`admit`] instead, where failure
    /// rejects the submission.
    fn journal_append(&self, rec: &ServiceRecord) -> MqResult<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        if self.journal_frozen.load(Ordering::Acquire) {
            return Ok(());
        }
        let outcome = journal.append(rec);
        let m = self.recorder.metrics();
        match &outcome {
            Ok(()) => m.counter("service.journal.records").incr(),
            Err(_) => m.counter("service.journal.errors").incr(),
        }
        outcome
    }
}

/// Cloneable client handle. Every call runs on the caller's thread under
/// the service's state mutex; a handle that outlives its service keeps
/// answering reads and refuses submissions as draining.
#[derive(Clone)]
pub struct ServiceClient {
    inner: Arc<Inner>,
}

impl ServiceClient {
    /// Submit a workflow for a tenant. Returns the submission handle, or an
    /// admission/drain rejection. In-process submissions may carry closures
    /// and are therefore NOT journaled; use [`ServiceClient::submit_spec`]
    /// for durable submissions.
    pub fn submit(
        &self,
        tenant: impl Into<String>,
        workflow: Workflow,
    ) -> Result<SubmissionId, SubmitError> {
        admit(
            &self.inner,
            tenant.into(),
            Box::new(workflow),
            None,
            None,
            None,
        )
    }

    /// Submit a wire-serializable workflow spec for a tenant — the durable
    /// path used by the gateway. The spec is journaled before admission
    /// completes, so a crash after a successful reply re-drives the
    /// submission exactly-once on [`EnsembleService::recover`]. `weight`
    /// optionally overrides the tenant's fair-share weight.
    pub fn submit_spec(
        &self,
        tenant: impl Into<String>,
        spec: WorkflowSpec,
        weight: Option<u32>,
    ) -> Result<SubmissionId, SubmitError> {
        self.submit_spec_traced(tenant, spec, weight, None)
    }

    /// [`ServiceClient::submit_spec`] with a wire-side trace context: the
    /// gateway's `wire_recv`/`parsed` hops ride in, the service stamps its
    /// admission and journal hops onto them, and every task of the run gets
    /// a timeline seeded from the result (queryable on `/v1/traces`).
    pub fn submit_spec_traced(
        &self,
        tenant: impl Into<String>,
        spec: WorkflowSpec,
        weight: Option<u32>,
        trace: Option<TraceCtx>,
    ) -> Result<SubmissionId, SubmitError> {
        let workflow = spec
            .build()
            .map_err(|e| SubmitError::Invalid(e.0.clone()))?;
        workflow
            .validate()
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        admit(
            &self.inner,
            tenant.into(),
            Box::new(workflow),
            Some(&spec),
            weight,
            trace,
        )
    }

    /// List every known submission (queued, running, and settled-but-not-
    /// taken), id-ordered.
    pub fn list(&self) -> Vec<SessionInfo> {
        list_sessions(&self.inner)
    }

    /// Lifecycle state of a submission (`None` if unknown).
    pub fn status(&self, id: SubmissionId) -> Option<SubmissionStatus> {
        let st = self.inner.state.lock();
        st.subs.get(&id).map(|sub| status_of(&st, id, sub))
    }

    /// Take a terminal submission's result. At-most-once: a second call for
    /// the same id returns `None`.
    pub fn take_result(&self, id: SubmissionId) -> Option<SubmissionResult> {
        self.inner.state.lock().subs.get_mut(&id)?.result.take()
    }

    /// Cooperatively cancel a queued or running submission. Returns whether
    /// cancellation was initiated.
    pub fn cancel(&self, id: SubmissionId) -> bool {
        cancel_submission(&self.inner, id)
    }

    /// Sample the service counters.
    pub fn stats(&self) -> ServiceStats {
        let st = self.inner.state.lock();
        stats_snapshot(&self.inner, &st)
    }

    /// Block until the submission settles and take its result, or time out.
    pub fn wait(&self, id: SubmissionId, timeout: Duration) -> Option<SubmissionResult> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            // Unknown id will never produce a result.
            if let Some(r) = st.subs.get_mut(&id)?.result.take() {
                return Some(r);
            }
            if self.inner.settled.wait_until(&mut st, deadline).timed_out() {
                return st.subs.get_mut(&id)?.result.take();
            }
        }
    }
}

/// A running multi-tenant ensemble service. See the module docs.
pub struct EnsembleService {
    inner: Arc<Inner>,
    /// Emptied by `stop_threads`, which makes it the stopped marker.
    workers: Vec<JoinHandle<()>>,
    observe: Option<ObserveServer>,
    sampler: Option<Sampler>,
    watchdog_sampler: Option<Sampler>,
}

/// Pre-populated state carried into [`EnsembleService`] startup by the
/// recovery path. Empty for a fresh start.
#[derive(Default)]
struct Prefill {
    /// Submissions to restore (settled ones carry a `Recovered` result;
    /// unsettled ones carry a re-materialized workflow).
    subs: Vec<(SubmissionId, Submission)>,
    /// Fair-share pushes for the unsettled subset, in id order.
    queued: Vec<(String, SubmissionId)>,
    /// Journal-replayed per-tenant weight overrides.
    weights: Vec<(String, u32)>,
    /// Restored lifetime counters.
    totals: Totals,
    /// `max journaled id + 1` (0 = fresh start).
    next_id: u64,
}

impl EnsembleService {
    /// Start the service: boot the shared broker, prewarm the pilot pool,
    /// and spawn the worker threads. With a
    /// [`ServiceConfig::journal_dir`], this begins a *fresh* durability
    /// epoch — stale journal files from a previous process are removed; use
    /// [`EnsembleService::recover`] to resume one instead.
    pub fn start(config: ServiceConfig) -> Self {
        if let Some(dir) = &config.journal_dir {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::remove_file(dir.join(SERVICE_JOURNAL_FILE));
            if let Ok(entries) = std::fs::read_dir(dir) {
                for e in entries.flatten() {
                    if e.file_name().to_string_lossy().ends_with(".tasks.log") {
                        let _ = std::fs::remove_file(e.path());
                    }
                }
            }
        }
        Self::launch(config, Prefill::default()).expect("start fresh service epoch")
    }

    /// Rebuild a crashed service from its durability directory: replay the
    /// workflow journal, restore settled submissions as terminal
    /// ([`SubmissionOutcome::Recovered`] summaries — the full reports died
    /// with the process), and re-queue every unsettled submission under its
    /// original id on a fresh broker (run queues are not durable, so a dead
    /// session leaves nothing behind to purge). Re-driven submissions reuse
    /// their per-submission task journal, so tasks that settled before the
    /// crash are skipped: completion is exactly-once at task granularity.
    ///
    /// Recovery is idempotent — if it fails partway (e.g. via the
    /// `service.recover.*` failpoints) nothing was consumed and it can
    /// simply be called again.
    pub fn recover(config: ServiceConfig) -> MqResult<Self> {
        let dir = config
            .journal_dir
            .clone()
            .expect("EnsembleService::recover requires with_journal_dir");
        let replay = ServiceJournal::scan(dir.join(SERVICE_JOURNAL_FILE))?;
        let mut prefill = Prefill {
            next_id: replay.next_id,
            ..Default::default()
        };
        let (mut restored_settled, mut requeued) = (0u64, 0u64);
        for sub in replay.subs {
            let id = SubmissionId(sub.id);
            if sub.weight > 0 {
                prefill.weights.push((sub.tenant.clone(), sub.weight));
            }
            prefill.totals.submitted += 1;
            match sub.settled {
                Some(info) => {
                    let phase = match info.state {
                        SettledState::Done => {
                            prefill.totals.completed += 1;
                            Phase::Done
                        }
                        SettledState::Failed => {
                            prefill.totals.failed += 1;
                            Phase::Failed
                        }
                        SettledState::Canceled => {
                            prefill.totals.canceled += 1;
                            Phase::Canceled
                        }
                    };
                    restored_settled += 1;
                    prefill.subs.push((
                        id,
                        Submission {
                            tenant: sub.tenant.clone(),
                            workflow: None,
                            cancel: CancelToken::new(),
                            phase,
                            submitted_at: Instant::now(),
                            result: Some(SubmissionResult {
                                id,
                                tenant: sub.tenant,
                                outcome: SubmissionOutcome::Recovered(info),
                                turnaround: Duration::from_millis(info.turnaround_ms),
                                warm_pilot: None,
                            }),
                            spec_json: Some(sub.spec_json),
                            trace: None,
                        },
                    ));
                }
                None => {
                    let spec = journal::replay_spec(&sub)?;
                    let workflow = spec.build().map_err(|e| {
                        entk_mq::MqError::CorruptJournal(format!("sub {}: {e}", sub.id))
                    })?;
                    requeued += 1;
                    prefill.queued.push((sub.tenant.clone(), id));
                    prefill.subs.push((
                        id,
                        Submission {
                            tenant: sub.tenant,
                            workflow: Some(Box::new(workflow)),
                            cancel: CancelToken::new(),
                            phase: Phase::Queued,
                            submitted_at: Instant::now(),
                            result: None,
                            spec_json: Some(sub.spec_json),
                            trace: None,
                        },
                    ));
                }
            }
        }
        let svc = Self::launch(config, prefill)?;
        let m = svc.inner.recorder.metrics();
        m.counter("service.recover.settled").add(restored_settled);
        m.counter("service.recover.requeued").add(requeued);
        svc.inner.recorder.record(
            components::SERVICE,
            "service_recover",
            "",
            format!("settled={restored_settled} requeued={requeued}"),
        );
        Ok(svc)
    }

    /// Shared startup path behind [`EnsembleService::start`] and
    /// [`EnsembleService::recover`].
    fn launch(config: ServiceConfig, prefill: Prefill) -> MqResult<Self> {
        // A configured listener, declared SLO, or adaptive control implies
        // live telemetry: auto-enable a recorder so there is something to
        // scrape (and for the control loop to read).
        let telemetry_wanted =
            config.observe.listen_addr.is_some() || config.slo.is_some() || config.adaptive;
        let recorder = config.recorder.clone().unwrap_or_else(|| {
            if telemetry_wanted {
                Recorder::new()
            } else {
                Recorder::disabled()
            }
        });
        let broker = if recorder.is_enabled() {
            // A recorder-backed broker runs its own depth sampler feeding
            // the `mq.queue.<name>.depth` / `.unacked` gauges.
            Broker::with_config(BrokerConfig {
                recorder: Some(recorder.clone()),
                depth_sample_interval: Some(config.observe.sample_interval),
                ..Default::default()
            })?
        } else {
            Broker::new()
        };
        let journal = match &config.journal_dir {
            Some(dir) => Some(ServiceJournal::open(dir.join(SERVICE_JOURNAL_FILE))?),
            None => None,
        };
        if recorder.is_enabled() {
            // Surface failpoint trips as `fail.<name>.trips` counters.
            entk_fail::set_metrics_sink(recorder.metrics_arc());
        }
        let pool = PilotPool::new(PilotPoolConfig {
            rts: config.resource.rts_config(&recorder),
            pilot: config.resource.pilot_desc(),
            capacity: config.warm_pilots.max(1),
        });
        recorder.record(components::SERVICE, "service_start", "", "");
        let prewarm_span = recorder.span(components::SERVICE, "pool_prewarm");
        pool.prewarm(config.warm_pilots);
        drop(prewarm_span);

        // Control plane: flight recorder, optional SLO tracker, watchdog,
        // and (when adaptive) the pool prescaler.
        let ring = Arc::new(DecisionRing::new(DECISION_RING_CAPACITY));
        let metrics = recorder.metrics_arc();
        let slo = config
            .slo
            .clone()
            .map(|slo| SloTracker::new(slo, Arc::clone(&metrics)));
        let watchdog = Mutex::new(Watchdog::new(
            WatchdogConfig::default(),
            Arc::clone(&metrics),
            Arc::clone(&ring),
        ));
        let prescaler = config.adaptive.then(|| {
            Mutex::new(PoolPrescaler::new(PrescalerConfig {
                min_capacity: 1,
                max_capacity: (config.warm_pilots.max(1) * 4).max(8),
                ..Default::default()
            }))
        });
        if recorder.is_enabled() {
            // Pre-register the control series so a scrape before the first
            // actuation already exposes the full set.
            metrics
                .gauge("control.pool_capacity")
                .set(config.warm_pilots.max(1) as i64);
            metrics.counter("control.actuations");
        }
        let ctl = ControlPlane {
            ring,
            slo,
            watchdog,
            prescaler,
            sampler_ticks: AtomicU64::new(0),
            prewarmer: parking_lot::Mutex::new(None),
        };

        let mut queue = FairShare::new(config.default_weight, []);
        for (tenant, weight) in &prefill.weights {
            queue.set_weight(tenant, *weight);
        }
        let mut subs = HashMap::new();
        for (id, sub) in prefill.subs {
            subs.insert(id, sub);
        }
        for (tenant, id) in &prefill.queued {
            queue.push(tenant, *id);
        }
        let trace_store = Arc::new(
            config
                .traces
                .clone()
                .map(TraceStore::new)
                .unwrap_or_else(TraceStore::disabled),
        );
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue,
                subs,
                active: 0,
                draining: false,
                stop_workers: false,
                admission: AdmissionPolicy::new(config.max_pending),
                totals: prefill.totals,
                next_id: prefill.next_id.max(1),
            }),
            work_ready: Condvar::new(),
            settled: Condvar::new(),
            recorder,
            pool,
            broker,
            config,
            critical_path: Mutex::new(CriticalPath::new()),
            trace_store,
            queues_seen: Mutex::new(Vec::new()),
            ctl,
            started_at: Instant::now(),
            journal,
            journal_frozen: AtomicBool::new(false),
        });

        let workers = (0..inner.config.max_active.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("entk-svc-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();

        // Telemetry plane: exposition listener + pool/DB/control sampler +
        // watchdog scanner, only when asked for. (Queue-depth gauges are
        // sampled by the broker itself.) An SLO declaration or adaptive
        // control needs the samplers even without a listener.
        let observe = inner.config.observe.listen_addr.map(|addr| {
            let statusz_inner = Arc::clone(&inner);
            let statusz: entk_observe::StatuszFn = Arc::new(move || statusz_json(&statusz_inner));
            let ring = Arc::clone(&inner.ctl.ring);
            let decisions: entk_observe::StatuszFn = Arc::new(move || ring.to_json());
            let store = Arc::clone(&inner.trace_store);
            let traces: entk_observe::Handler = Arc::new(move |req| store.serve("/v1/traces", req));
            ObserveServer::start(
                addr,
                inner.recorder.metrics_arc(),
                statusz,
                vec![("/debug/decisions".to_string(), decisions)],
                vec![("/v1/traces".to_string(), traces)],
            )
            .expect("bind telemetry listener")
        });
        let run_samplers = observe.is_some() || telemetry_wanted;
        let sampler = run_samplers.then(|| {
            let inner = Arc::clone(&inner);
            Sampler::start(inner.config.observe.sample_interval, move || {
                sampler_tick(&inner)
            })
        });
        let watchdog_sampler = run_samplers.then(|| {
            let inner = Arc::clone(&inner);
            let interval = inner.config.observe.sample_interval * WATCHDOG_INTERVAL_FACTOR;
            Sampler::start(interval, move || watchdog_scan(&inner))
        });

        Ok(EnsembleService {
            inner,
            workers,
            observe,
            sampler,
            watchdog_sampler,
        })
    }

    /// Bound address of the telemetry listener (`None` when disabled).
    pub fn observe_addr(&self) -> Option<SocketAddr> {
        self.observe.as_ref().map(ObserveServer::local_addr)
    }

    /// A new client handle (cheap; clone freely across tenant threads).
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Idle warm pilots right now.
    pub fn warm_pilots(&self) -> usize {
        self.inner.pool.warm_count()
    }

    /// The control plane's flight recorder (alerts + actuations).
    pub fn decisions(&self) -> Arc<DecisionRing> {
        Arc::clone(&self.inner.ctl.ring)
    }

    /// Current pilot-pool capacity target (moved live by the prescaler).
    pub fn pool_capacity(&self) -> usize {
        self.inner.pool.capacity()
    }

    /// The service's recorder (for embedders — e.g. the gateway — that want
    /// to publish their own metrics alongside the service's).
    pub fn recorder(&self) -> Recorder {
        self.inner.recorder.clone()
    }

    /// The service's settled-timeline store (the disabled store unless
    /// [`ServiceConfig::traces`] was set). Embedders — e.g. the gateway —
    /// mount their own `/v1/traces` routes on it.
    pub fn trace_store(&self) -> Arc<TraceStore> {
        Arc::clone(&self.inner.trace_store)
    }

    /// SIGKILL-equivalent stop, for crash/recovery testing: freeze the
    /// durability journal so teardown writes no `Settled` records a real
    /// crash would never have produced, then abort everything in flight. The
    /// on-disk journal state afterwards is exactly what a process kill at
    /// this instant would have left; follow with
    /// [`EnsembleService::recover`] on the same journal directory.
    pub fn kill(self) {
        self.inner.journal_frozen.store(true, Ordering::Release);
        drop(self); // Drop runs abort_all + stop_threads with a frozen journal.
    }

    /// Graceful drain shutdown: stop admitting, run the queue dry, join all
    /// threads, tear down the pool and broker. Returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        {
            let mut st = self.inner.state.lock();
            st.draining = true;
            while !(st.queue.is_empty() && st.active == 0) {
                self.inner.settled.wait(&mut st);
            }
        }
        let stats = self.stop_threads();
        self.inner
            .recorder
            .record(components::SERVICE, "service_stop", "", "");
        stats
    }

    /// Abort shutdown: cancel everything in flight, then stop as in
    /// [`EnsembleService::shutdown`].
    pub fn shutdown_now(mut self) -> ServiceStats {
        self.abort_all();
        self.stop_threads()
    }

    fn abort_all(&self) {
        let mut st = self.inner.state.lock();
        st.draining = true;
        while let Some((_, id)) = st.queue.pop() {
            if let Some(sub) = st.subs.get_mut(&id) {
                settle_canceled_before_run(sub, id);
                if sub.spec_json.is_some() {
                    let _ = self.inner.journal_append(&canceled_record(sub, id));
                }
                st.totals.canceled += 1;
            }
        }
        for sub in st.subs.values() {
            if sub.phase == Phase::Running {
                sub.cancel.cancel();
            }
        }
        self.inner.gauge_sync(&st);
        drop(st);
        self.inner.settled.notify_all();
    }

    /// Join the workers, drain the pool, close the broker.
    fn stop_threads(&mut self) -> ServiceStats {
        // Stop the telemetry plane first: a final sampler tick runs on stop,
        // and the listener must not outlive the broker it reports on.
        self.watchdog_sampler.take();
        self.sampler.take();
        self.observe.take();
        if self.inner.recorder.is_enabled() {
            entk_fail::clear_metrics_sink();
        }
        {
            let mut st = self.inner.state.lock();
            st.draining = true;
            st.stop_workers = true;
        }
        self.inner.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let stats = {
            let st = self.inner.state.lock();
            stats_snapshot(&self.inner, &st)
        };
        // A grow actuation may still be booting pilots; let it finish so the
        // drain below tears down everything it produced.
        if let Some(h) = self.inner.ctl.prewarmer.lock().take() {
            let _ = h.join();
        }
        self.inner.pool.drain();
        // Any session queues a failed run left behind die with the broker.
        self.inner.broker.close();
        stats
    }
}

impl Drop for EnsembleService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.abort_all();
            self.stop_threads();
        }
    }
}

fn stats_snapshot(inner: &Inner, st: &State) -> ServiceStats {
    ServiceStats {
        pending: st.queue.len(),
        active: st.active,
        submitted: st.totals.submitted,
        rejected: st.totals.rejected,
        completed: st.totals.completed,
        failed: st.totals.failed,
        canceled: st.totals.canceled,
        warm_pilots: inner.pool.warm_count(),
        pool: inner.pool.stats(),
        resident_units: inner.pool.resident_units(),
    }
}

fn phase_str(phase: Phase) -> &'static str {
    match phase {
        Phase::Queued => "queued",
        Phase::Running => "running",
        Phase::Done => "done",
        Phase::Failed => "failed",
        Phase::Canceled => "canceled",
    }
}

/// Flight-recorder snapshot served on `GET /statusz`: per-tenant session
/// states, pilot-pool occupancy and lifetime counters, per-queue
/// depth/unacked, failpoint trip counts, and the aggregated critical path.
/// Hand-rolled JSON (no serde in the tree); every dynamic string goes
/// through [`json_escape`].
fn statusz_json(inner: &Inner) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    let _ = write!(
        out,
        "\"healthy\":true,\"uptime_secs\":{:.3}",
        inner.started_at.elapsed().as_secs_f64()
    );
    {
        let st = inner.state.lock();
        let _ = write!(
            out,
            ",\"draining\":{},\"queued\":{},\"active\":{}",
            st.draining,
            st.queue.len(),
            st.active
        );
        let _ = write!(
            out,
            ",\"totals\":{{\"submitted\":{},\"rejected\":{},\"completed\":{},\"failed\":{},\"canceled\":{}}}",
            st.totals.submitted,
            st.totals.rejected,
            st.totals.completed,
            st.totals.failed,
            st.totals.canceled
        );
        out.push_str(",\"sessions\":[");
        let mut ids: Vec<_> = st.subs.keys().copied().collect();
        ids.sort();
        for (i, id) in ids.iter().enumerate() {
            let sub = &st.subs[id];
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":\"{}\",\"tenant\":\"{}\",\"state\":\"{}\",\"age_secs\":{:.3}}}",
                json_escape(&id.to_string()),
                json_escape(&sub.tenant),
                phase_str(sub.phase),
                sub.submitted_at.elapsed().as_secs_f64()
            );
        }
        out.push(']');
    }
    // Per-queue stats. Session queues are deleted when their run ends, so a
    // scrape after a short burst would report `[]` — misleading right after
    // the service demonstrably ran work. Retain the last non-empty snapshot
    // and serve it marked stale instead.
    let live: Vec<(String, u64, u64)> = inner
        .broker
        .queue_names()
        .into_iter()
        .filter_map(|name| {
            inner
                .broker
                .queue_stats(&name)
                .ok()
                .map(|qs| (name, qs.depth as u64, qs.unacked as u64))
        })
        .collect();
    let (rows, stale) = {
        let mut seen = inner.queues_seen.lock();
        if live.is_empty() {
            (seen.clone(), !seen.is_empty())
        } else {
            *seen = live.clone();
            (live, false)
        }
    };
    let _ = write!(out, ",\"queues_stale\":{stale},\"queues\":[");
    for (i, (name, depth, unacked)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"depth\":{},\"unacked\":{}}}",
            json_escape(name),
            depth,
            unacked
        );
    }
    out.push(']');
    let ps = inner.pool.stats();
    let _ = write!(
        out,
        ",\"pool\":{{\"warm\":{},\"cold_boots\":{},\"warm_hits\":{},\"returned\":{},\"discarded\":{}}}",
        inner.pool.warm_count(),
        ps.cold_boots,
        ps.warm_hits,
        ps.returned,
        ps.discarded
    );
    // Host/topology facts: benchmark artifacts join on these to normalize
    // results across machines.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = write!(
        out,
        ",\"host\":{{\"cores\":{},\"broker_shards\":{}}}",
        cores,
        inner.broker.shard_count()
    );
    // Trace query plane occupancy.
    {
        let (offered, kept, resident) = inner.trace_store.stats();
        let _ = write!(
            out,
            ",\"traces\":{{\"enabled\":{},\"offered\":{},\"kept\":{},\"resident\":{}}}",
            inner.trace_store.is_enabled(),
            offered,
            kept,
            resident
        );
    }
    // Control plane: declared SLO + live burn, recent alerts, the flight
    // recorder's tail of actuations, and the current knob positions.
    match &inner.ctl.slo {
        Some(tracker) => {
            let cfg = tracker.config();
            let burn = tracker.last();
            let _ = write!(
                out,
                ",\"slo\":{{\"target_p50_ms\":{},\"target_p99_ms\":{},\"target_queue_wait_ms\":{},\
                 \"p50_burn\":{},\"p99_burn\":{},\"queue_wait_burn\":{},\"breaching\":{}}}",
                cfg.p50_turnaround.as_millis(),
                cfg.p99_turnaround.as_millis(),
                cfg.queue_wait_budget.as_millis(),
                burn.p50_permille,
                burn.p99_permille,
                burn.queue_wait_permille,
                burn.any_breach()
            );
        }
        None => out.push_str(",\"slo\":null"),
    }
    let _ = write!(
        out,
        ",\"alerts\":{}",
        DecisionRing::json_array(&inner.ctl.ring.recent("alert", 16))
    );
    let _ = write!(
        out,
        ",\"decisions\":{{\"total\":{},\"recent\":{}}}",
        inner.ctl.ring.total(),
        DecisionRing::json_array(&inner.ctl.ring.recent("actuation", 16))
    );
    let _ = write!(
        out,
        ",\"control\":{{\"adaptive\":{},\"pool_capacity\":{}}}",
        inner.config.adaptive,
        inner.pool.capacity()
    );
    out.push_str(",\"failpoints\":[");
    for (i, (name, hits, fires)) in entk_fail::snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"hits\":{},\"trips\":{}}}",
            json_escape(name),
            hits,
            fires
        );
    }
    out.push(']');
    {
        let cp = inner.critical_path.lock();
        let _ = write!(
            out,
            ",\"critical_path\":{{\"tasks\":{},\"total_secs\":{:.6},\"stages\":[",
            cp.tasks(),
            cp.total_ns() as f64 / 1e9
        );
        for (i, s) in cp.stages().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"count\":{},\"total_secs\":{:.6},\"mean_secs\":{:.6}}}",
                json_escape(&s.stage),
                s.count,
                s.total_secs(),
                s.mean_secs()
            );
        }
        out.push_str("]}");
    }
    out.push('}');
    out
}

/// Settle a submission that was canceled while still queued.
fn settle_canceled_before_run(sub: &mut Submission, id: SubmissionId) {
    sub.phase = Phase::Canceled;
    sub.workflow = None;
    sub.result = Some(SubmissionResult {
        id,
        tenant: sub.tenant.clone(),
        outcome: SubmissionOutcome::Canceled(None),
        turnaround: sub.submitted_at.elapsed(),
        warm_pilot: None,
    });
}

/// Terminal journal record for a canceled-before-run submission.
fn canceled_record(sub: &Submission, id: SubmissionId) -> ServiceRecord {
    ServiceRecord::Settled {
        id: id.0,
        state: SettledState::Canceled,
        tasks_done: 0,
        tasks_failed: 0,
        turnaround_ms: sub.submitted_at.elapsed().as_millis() as u64,
    }
}

/// CriticalPath stage label for queue wait: the span a ready task sits in
/// the Pending queue before the execution manager dequeues it.
const QUEUE_WAIT_STAGE: &str = "enqueue->emgr_dequeue";

/// One main-sampler tick: refresh the pool/DB gauges, publish SLO burn
/// rates, and (when adaptive) let the prescaler resize the pool.
fn sampler_tick(inner: &Arc<Inner>) {
    let m = inner.recorder.metrics();
    m.gauge("rts.pool.warm").set(inner.pool.warm_count() as i64);
    let ps = inner.pool.stats();
    m.gauge("rts.pool.cold_boots").set(ps.cold_boots as i64);
    m.gauge("rts.pool.warm_hits").set(ps.warm_hits as i64);
    m.gauge("rts.pool.returned").set(ps.returned as i64);
    m.gauge("rts.pool.discarded").set(ps.discarded as i64);
    let (round_trips, documents) = inner.pool.db_stats();
    m.gauge("rts.db.round_trips").set(round_trips as i64);
    m.gauge("rts.db.documents").set(documents as i64);
    m.gauge("rts.pool.resident_units")
        .set(inner.pool.resident_units() as i64);
    m.gauge("mq.broker.shards")
        .set(inner.broker.shard_count() as i64);
    inner.ctl.sampler_ticks.fetch_add(1, Ordering::Relaxed);

    if let Some(tracker) = &inner.ctl.slo {
        // Mean queue-wait residency from the critical path decomposition.
        let queue_wait_mean_ns = {
            let cp = inner.critical_path.lock();
            cp.stages()
                .iter()
                .find(|s| s.stage == QUEUE_WAIT_STAGE)
                .filter(|s| s.count > 0)
                .map(|s| s.total_ns / s.count)
                .unwrap_or(0)
        };
        tracker.tick(
            &m.histogram("service.turnaround").snapshot(),
            queue_wait_mean_ns,
        );
    }
    m.gauge("control.pool_capacity")
        .set(inner.pool.capacity() as i64);
    let Some(prescaler) = &inner.ctl.prescaler else {
        return;
    };
    let (queued, active) = {
        let st = inner.state.lock();
        (st.queue.len() as i64, st.active as i64)
    };
    let obs = ControlObservation {
        queued,
        active,
        max_active: inner.config.max_active as i64,
        warm_pilots: inner.pool.warm_count() as i64,
        pool_capacity: inner.pool.capacity() as i64,
    };
    let Some((n, evidence)) = prescaler.lock().tick(&obs) else {
        return;
    };
    let old = inner.pool.capacity();
    inner.pool.set_capacity(n);
    if n > old {
        // Boot only the deficit — capacity minus pilots already allocated
        // (idle or leased out) — and do it off-thread: a pilot bootstrap
        // takes far longer than a sampler period and must not stall the tick
        // loop (that would trip the dead-sampler watchdog, and rightly so).
        let active = inner.state.lock().active;
        let deficit = n.saturating_sub(active + inner.pool.warm_count());
        if deficit > 0 {
            let mut slot = inner.ctl.prewarmer.lock();
            let busy = slot.as_ref().map(|h| !h.is_finished()).unwrap_or(false);
            if !busy {
                if let Some(h) = slot.take() {
                    let _ = h.join();
                }
                let pool = inner.pool.clone();
                *slot = Some(
                    std::thread::Builder::new()
                        .name("entk-svc-prewarm".into())
                        .spawn(move || pool.prewarm(deficit))
                        .expect("spawn prewarm thread"),
                );
            }
        }
    }
    m.gauge("control.pool_capacity").set(n as i64);
    m.counter("control.actuations").incr();
    m.counter("control.prescaler.actuations").incr();
    let action = format!("capacity {old}->{n}");
    inner
        .ctl
        .ring
        .record("actuation", "prescaler", "pilot_pool", &action, &evidence);
    inner.recorder.record(
        components::SERVICE,
        "control_actuation",
        "pilot_pool",
        action,
    );
}

/// One watchdog scan: fold live queue/pool/submission state into the typed
/// anomaly detectors (alerts land on metrics + the decision ring).
fn watchdog_scan(inner: &Arc<Inner>) {
    let m = inner.recorder.metrics();
    let turnaround_p99_ns = m.histogram("service.turnaround").snapshot().p99_ns;
    let (queued, active) = {
        let st = inner.state.lock();
        let active: Vec<(String, Duration)> = st
            .subs
            .iter()
            .filter(|(_, sub)| sub.phase == Phase::Running)
            .map(|(id, sub)| (id.to_string(), sub.submitted_at.elapsed()))
            .collect();
        (st.queue.len() as i64, active)
    };
    let queues = inner
        .broker
        .queue_names()
        .into_iter()
        .filter_map(|name| {
            inner.broker.queue_stats(&name).ok().map(|qs| QueueSample {
                name,
                depth: qs.depth as u64,
                delivered: qs.delivered,
            })
        })
        .collect();
    let input = WatchdogInput {
        turnaround_p99_ns,
        active,
        queues,
        sampler_ticks: inner.ctl.sampler_ticks.load(Ordering::Relaxed),
        warm_pilots: inner.pool.warm_count() as i64,
        queued,
    };
    inner.ctl.watchdog.lock().scan(&input);
}

/// Lifecycle state of one submission, as clients see it.
fn status_of(st: &State, id: SubmissionId, sub: &Submission) -> SubmissionStatus {
    match sub.phase {
        Phase::Queued => SubmissionStatus::Queued {
            ahead: st.queue.position_of(&sub.tenant, &id).unwrap_or(0),
        },
        Phase::Running => SubmissionStatus::Running,
        Phase::Done => SubmissionStatus::Done,
        Phase::Failed => SubmissionStatus::Failed,
        Phase::Canceled => SubmissionStatus::Canceled,
    }
}

/// Id-ordered snapshot of every known submission.
fn list_sessions(inner: &Inner) -> Vec<SessionInfo> {
    let st = inner.state.lock();
    let mut ids: Vec<_> = st.subs.keys().copied().collect();
    ids.sort();
    ids.into_iter()
        .map(|id| {
            let sub = &st.subs[&id];
            SessionInfo {
                id,
                tenant: sub.tenant.clone(),
                status: status_of(&st, id, sub),
                age_secs: sub.submitted_at.elapsed().as_secs_f64(),
                durable: sub.spec_json.is_some(),
            }
        })
        .collect()
}

/// Stamp the shed hop on a refused wire trace and offer the truncated
/// timeline to the store (shed timelines are always kept: refusals under
/// pressure are exactly what a postmortem wants to see).
fn offer_shed(inner: &Inner, trace: Option<TraceCtx>) {
    let Some(mut trace) = trace else { return };
    trace.hop(components::SERVICE, hops::SHED, inner.recorder.now_ns());
    inner
        .trace_store
        .offer(&trace, "shed", Some(inner.recorder.metrics()));
}

fn admit(
    inner: &Inner,
    tenant: String,
    workflow: Box<Workflow>,
    spec: Option<&WorkflowSpec>,
    weight: Option<u32>,
    mut trace: Option<TraceCtx>,
) -> Result<SubmissionId, SubmitError> {
    let mut st = inner.state.lock();
    if st.draining {
        offer_shed(inner, trace);
        return Err(SubmitError::Draining);
    }
    if let Err(retry_after) = st
        .admission
        .admit(st.queue.len(), inner.config.max_active.max(1))
    {
        st.totals.rejected += 1;
        inner.tenant_counter("rejected", &tenant);
        inner
            .recorder
            .record(components::SERVICE, "submit_rejected", "", tenant.clone());
        offer_shed(inner, trace);
        return Err(SubmitError::Saturated { retry_after });
    }
    if let Some(trace) = trace.as_mut() {
        trace.hop(components::SERVICE, hops::ADMITTED, inner.recorder.now_ns());
    }
    let id = SubmissionId(st.next_id);
    // Durable submissions journal their spec BEFORE any state mutation:
    // crash-before-append semantics mean a failed append rejects the
    // submission outright — the client knows to retry, and recovery can
    // never replay a half-admitted entry.
    let spec_json = match spec {
        Some(spec) => {
            let json = spec.to_json();
            if let Err(e) = inner.journal_append(&ServiceRecord::Submitted {
                id: id.0,
                tenant: tenant.clone(),
                weight: weight.unwrap_or(0),
                spec_json: json.clone(),
            }) {
                inner
                    .recorder
                    .record(components::SERVICE, "submit_journal_refused", "", &tenant);
                return Err(SubmitError::Journal(e.to_string()));
            }
            // The durable submission record is safely appended (a no-op
            // append when durability is off still admits the submission).
            if let Some(trace) = trace.as_mut() {
                trace.hop(
                    components::SERVICE,
                    hops::JOURNAL_APPENDED,
                    inner.recorder.now_ns(),
                );
            }
            Some(json)
        }
        None => None,
    };
    st.next_id += 1;
    if let Some(w) = weight {
        st.queue.set_weight(&tenant, w);
    }
    st.subs.insert(
        id,
        Submission {
            tenant: tenant.clone(),
            workflow: Some(workflow),
            cancel: CancelToken::new(),
            phase: Phase::Queued,
            submitted_at: Instant::now(),
            result: None,
            spec_json,
            trace,
        },
    );
    st.queue.push(&tenant, id);
    st.totals.submitted += 1;
    inner.tenant_counter("submitted", &tenant);
    inner
        .recorder
        .record(components::SERVICE, "submitted", id.to_string(), tenant);
    inner.gauge_sync(&st);
    drop(st);
    inner.work_ready.notify_one();
    Ok(id)
}

fn cancel_submission(inner: &Inner, id: SubmissionId) -> bool {
    let mut st = inner.state.lock();
    let Some(sub) = st.subs.get(&id) else {
        return false;
    };
    match sub.phase {
        Phase::Queued => {
            let tenant = sub.tenant.clone();
            st.queue.remove(&tenant, &id);
            let sub = st.subs.get_mut(&id).expect("checked above");
            settle_canceled_before_run(sub, id);
            if sub.spec_json.is_some() {
                let _ = inner.journal_append(&canceled_record(sub, id));
            }
            st.totals.canceled += 1;
            inner.tenant_counter("canceled", &tenant);
            inner
                .recorder
                .record(components::SERVICE, "canceled_queued", id.to_string(), "");
            inner.gauge_sync(&st);
            drop(st);
            inner.settled.notify_all();
            true
        }
        Phase::Running => {
            sub.cancel.cancel();
            inner
                .recorder
                .record(components::SERVICE, "cancel_requested", id.to_string(), "");
            true
        }
        _ => false,
    }
}

/// One dispatched unit of work, extracted from `State` under the lock.
struct Job {
    id: SubmissionId,
    tenant: String,
    workflow: Box<Workflow>,
    cancel: CancelToken,
    submitted_at: Instant,
    /// Whether this submission is journaled (spec-backed): durable jobs get
    /// a per-submission task journal.
    durable: bool,
    /// Wire-side trace base; seeds every per-task timeline of the run.
    trace: Option<TraceCtx>,
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let Some(job) = next_job(inner) else {
            return;
        };
        finish(inner, execute(inner, job));
    }
}

fn next_job(inner: &Arc<Inner>) -> Option<Job> {
    let mut st = inner.state.lock();
    loop {
        if st.stop_workers {
            return None;
        }
        if let Some((tenant, id)) = st.queue.pop() {
            let sub = st.subs.get_mut(&id).expect("queued ids have entries");
            if sub.phase != Phase::Queued {
                continue; // settled while queued (e.g. canceled); skip
            }
            sub.phase = Phase::Running;
            let job = Job {
                id,
                tenant,
                workflow: sub.workflow.take().expect("queued submission keeps wf"),
                cancel: sub.cancel.clone(),
                submitted_at: sub.submitted_at,
                durable: sub.spec_json.is_some(),
                trace: sub.trace.take(),
            };
            st.active += 1;
            inner.gauge_sync(&st);
            return Some(job);
        }
        inner.work_ready.wait(&mut st);
    }
}

/// What `execute` hands to `finish`.
struct Executed {
    phase: Phase,
    result: SubmissionResult,
    /// The submission's distributed trace id (when it arrived with one),
    /// attached to the turnaround sample as its exemplar.
    trace_id: Option<String>,
    /// Whether the submission is journaled.
    durable: bool,
}

/// Run one submission on a leased pilot under its session namespace.
fn execute(inner: &Arc<Inner>, job: Job) -> Executed {
    let Job {
        id,
        tenant,
        workflow,
        cancel,
        submitted_at,
        durable,
        trace,
    } = job;
    let ns = QueueNamespace::session(format!("s{:05}", id.0));
    let prefix = ns.prefix();
    inner
        .recorder
        .record(components::SERVICE, "run_start", id.to_string(), &tenant);

    let lease = inner.pool.lease();
    let warm = lease.was_warm();
    let cfg = &inner.config;
    let mut amgr_cfg = AppManagerConfig::new(cfg.resource.clone())
        .with_cancel_token(cancel)
        .with_task_retries(cfg.task_retries)
        .with_max_rts_restarts(cfg.max_rts_restarts);
    if let Some(t) = cfg.run_timeout {
        amgr_cfg = amgr_cfg.with_run_timeout(t);
    }
    if durable {
        if let Some(dir) = &cfg.journal_dir {
            // Task-level recovery keys: a re-driven submission reopens this
            // journal and skips tasks that already settled Done by name.
            amgr_cfg = amgr_cfg.with_journal(dir.join(task_journal_file(id)));
        }
    }
    if inner.recorder.is_enabled() {
        amgr_cfg = amgr_cfg.with_recorder(inner.recorder.clone());
    }
    let trace_id = trace.as_ref().and_then(|t| t.trace_id.clone());
    if let Some(trace) = trace {
        amgr_cfg = amgr_cfg.with_wire_trace(trace);
    }
    if inner.trace_store.is_enabled() {
        amgr_cfg = amgr_cfg.with_trace_store(Arc::clone(&inner.trace_store));
    }
    let attachment = SessionAttachment::shared(inner.broker.clone(), ns).with_lease(lease);
    let outcome = AppManager::new(amgr_cfg).run_attached(*workflow, attachment);
    // Error paths inside run_attached can abort before queue deletion;
    // sweep this session's namespace so nothing leaks onto the shared broker.
    let _ = inner.broker.delete_matching(&prefix);

    let turnaround = submitted_at.elapsed();
    let (phase, outcome) = classify(outcome);
    Executed {
        phase,
        result: SubmissionResult {
            id,
            tenant,
            outcome,
            turnaround,
            warm_pilot: Some(warm),
        },
        trace_id,
        durable,
    }
}

fn classify(outcome: entk_core::EntkResult<RunReport>) -> (Phase, SubmissionOutcome) {
    match outcome {
        Ok(rep) if rep.canceled => (
            Phase::Canceled,
            SubmissionOutcome::Canceled(Some(Box::new(rep))),
        ),
        Ok(rep) if rep.succeeded => (Phase::Done, SubmissionOutcome::Completed(Box::new(rep))),
        Ok(rep) => (Phase::Failed, SubmissionOutcome::Failed(Box::new(rep))),
        Err(e) => (Phase::Failed, SubmissionOutcome::Error(e)),
    }
}

fn finish(inner: &Arc<Inner>, executed: Executed) {
    let Executed {
        phase,
        result,
        trace_id,
        durable,
    } = executed;
    let id = result.id;
    let tenant = result.tenant.clone();
    let turnaround = result.turnaround;
    let metrics = inner.recorder.metrics();
    // Wire-traced submissions link the turnaround sample back to their
    // retrievable trace: the `/metrics` bucket the sample lands in carries
    // the trace id as an OpenMetrics exemplar.
    match &trace_id {
        Some(tid) => metrics
            .histogram("service.turnaround")
            .record_ns_with_exemplar(turnaround.as_nanos() as u64, tid),
        None => metrics.histogram("service.turnaround").record(turnaround),
    }
    // Task-level settlement counts for the journal's terminal record (an
    // Error outcome has no report; zeros are honest there).
    let (tasks_done, tasks_failed) = result
        .outcome
        .report()
        .map(|rep| {
            (
                rep.workflow.count_in(entk_core::TaskState::Done) as u64,
                rep.workflow.count_in(entk_core::TaskState::Failed) as u64,
            )
        })
        .unwrap_or((0, 0));
    // Fold the run's per-task timelines into the service-wide residency
    // decomposition served on /statusz.
    if let Some(rep) = result.outcome.report() {
        if rep.critical_path.tasks() > 0 {
            inner.critical_path.lock().merge(&rep.critical_path);
        }
    }
    if durable {
        // The settlement watermark: once this lands, recovery restores the
        // submission as terminal instead of re-driving it. It is appended
        // before the result becomes visible, so a client that has seen a
        // result can count on the append having been made. A failed append
        // means one extra (task-deduplicated) re-drive after a crash —
        // degraded precision, not lost work — so it must not fail the run.
        let _ = inner.journal_append(&ServiceRecord::Settled {
            id: id.0,
            state: match phase {
                Phase::Done => SettledState::Done,
                Phase::Canceled => SettledState::Canceled,
                _ => SettledState::Failed,
            },
            tasks_done,
            tasks_failed,
            turnaround_ms: turnaround.as_millis() as u64,
        });
    }
    let mut st = inner.state.lock();
    st.active -= 1;
    st.admission.observe(turnaround);
    let what = match phase {
        Phase::Done => {
            st.totals.completed += 1;
            "completed"
        }
        Phase::Canceled => {
            st.totals.canceled += 1;
            "canceled"
        }
        _ => {
            st.totals.failed += 1;
            "failed"
        }
    };
    if let Some(sub) = st.subs.get_mut(&id) {
        sub.phase = phase;
        sub.result = Some(result);
    }
    inner.tenant_counter(what, &tenant);
    inner
        .recorder
        .record(components::SERVICE, "run_end", id.to_string(), what);
    inner.gauge_sync(&st);
    drop(st);
    inner.settled.notify_all();
}
