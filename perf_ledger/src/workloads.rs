//! The four workloads: input generation from the seed, the load generator,
//! and the correctness gate of each.
//!
//! Every workload is a stream of *requests*, one workflow each, and every
//! request yields the same three client-observed numbers: how long the
//! hand-over call blocked the caller (`submit`), how long until the terminal
//! result was in hand (`turnaround`), and whether every task ended `Done`
//! exactly once. A request that is refused, errors, times out or settles
//! wrongly is a failed operation. The load generator is this process, with at
//! most [`CLIENTS`] threads whatever the core count.

use crate::host;
use crate::http;
use crate::spans::Spans;
use crate::stats::{p50, stage_secs, Class, Mix, Rng};
use crate::surface::{self, Service, ServiceOptions, Tracing, Wire};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client threads (connections) of the closed loop, fixed so that a bigger
/// host does not silently offer more load.
pub const CLIENTS: usize = 2;

/// A rep, or a request, still unfinished after this long has failed. The
/// sizing probe saw 30 s stalls; they are to be reported, not waited out.
const OP_TIMEOUT: Duration = Duration::from_secs(100);

/// Client poll period while waiting for a terminal result.
const POLL: Duration = Duration::from_millis(2);

/// Warm-up workflows run by every service set-up before anything is timed.
const WARMUPS: u64 = 4;

const BURST: usize = 512;
const TENANTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EnsembleWide,
    EnsembleDeep,
    GatewayClosed,
    RecoverBurst,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EnsembleWide,
        Workload::EnsembleDeep,
        Workload::GatewayClosed,
        Workload::RecoverBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnsembleWide => "ensemble_wide",
            Workload::EnsembleDeep => "ensemble_deep",
            Workload::GatewayClosed => "gateway_closed",
            Workload::RecoverBurst => "recover_burst",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one pass over a workload measured. Per-rep vectors are parallel.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall of every set-up performed, seconds.
    pub setup_s: Vec<f64>,
    /// Measured wall of every rep, seconds.
    pub rep_wall_s: Vec<f64>,
    /// Tasks and workflows that settled correctly in each rep.
    pub rep_tasks: Vec<u64>,
    pub rep_workflows: Vec<u64>,
    /// Per request, milliseconds.
    pub submit_ms: Vec<f64>,
    pub turnaround_ms: Vec<f64>,
    /// Process CPU time spent inside the measured phases, seconds.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) when the first rep — or the window — had
    /// finished, MiB. The program keeps memory between reps, so the peak at
    /// the end of a run would grow with the number of reps that fit.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Program-reported `entk_management_secs` of the runs whose report the
    /// benchmark could read.
    pub mgmt_overhead_s: Vec<f64>,
    /// `kill()` returned → last workflow settled, per rep (`recover_burst`).
    pub resettle_s: Vec<f64>,
    /// Warm-up workflows the set-ups ran through the same service; they are
    /// in the program's counters, so per-workflow ratios must count them.
    pub warmups: u64,
    /// Why operations failed, for the report.
    pub failures: Vec<String>,
}

impl Pass {
    fn rep_done(&mut self) {
        if self.rep_wall_s.len() == 1 {
            self.peak_rss_mb = host::peak_rss_mb();
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }
}

/// Everything a pass needs besides its workload.
pub struct Env<'a> {
    pub seed: u64,
    /// Keep starting reps (or keep the window open) for this long.
    pub budget: Duration,
    /// Reps to run even if the budget is already spent.
    pub min_reps: u64,
    /// How many times a set-up is performed (and timed) before the instance
    /// that is kept; `setup_s` is the median over all of them.
    pub setups: usize,
    pub work_dir: &'a Path,
    pub tracing: Option<&'a Tracing>,
    pub spans: &'a Spans,
}

pub fn run(workload: Workload, env: &Env) -> Pass {
    match workload {
        Workload::EnsembleWide => ensemble((1, 1, 32_768), env),
        Workload::EnsembleDeep => ensemble((4, 1_024, 2), env),
        Workload::GatewayClosed => gateway_closed(env),
        Workload::RecoverBurst => recover_burst(env),
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Seeded per-stage task durations of a `pipelines` × `stages` workflow.
fn secs_table(rng: &mut Rng, pipelines: usize, stages: usize) -> Vec<f64> {
    (0..pipelines * stages).map(|_| stage_secs(rng)).collect()
}

// ---- ensemble_wide / ensemble_deep ----------------------------------------

/// In-process `AppManager::run`, one workflow per rep. The hand-over call is
/// the whole blocking run, so `submit` equals `turnaround` here.
fn ensemble((pipelines, stages, tasks): (usize, usize, usize), env: &Env) -> Pass {
    let total = (pipelines * stages * tasks) as u64;
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut rep = 0;
    while rep < env.min_reps || started.elapsed() < env.budget {
        let rep_span = env.spans.begin("rep", None, rep);
        // Set-up is building the workflow from the seed. It takes
        // milliseconds, so it is done `setups` times per rep for a median
        // that a cold core or a migration does not decide.
        let secs = secs_table(&mut Rng::new(env.seed, rep), pipelines, stages);
        let mut workflow = Err("no set-up ran".to_string());
        env.spans.within("build", rep_span.id(), rep, || {
            for _ in 0..env.setups.max(1) {
                let t_setup = Instant::now();
                workflow =
                    surface::build_workflow(pipelines, stages, tasks, &|p, s| secs[p * stages + s]);
                pass.setup_s.push(t_setup.elapsed().as_secs_f64());
            }
        });

        pass.attempted += 1;
        let cpu = host::cpu_seconds();
        let t_run = Instant::now();
        let outcome = env.spans.within("amgr_run", rep_span.id(), rep, || {
            surface::run_workflow(
                workflow?,
                env.seed.wrapping_add(rep),
                OP_TIMEOUT,
                env.tracing,
            )
        });
        let wall_ms = ms(t_run);
        pass.cpu_s += host::cpu_seconds() - cpu;
        env.spans.end(rep_span);

        let verdict = outcome.and_then(|run| {
            let exactly_once = run.succeeded
                && run.tasks_done == total
                && run.reattempted == 0
                && run.units_executed == total;
            exactly_once
                .then_some(run.mgmt_overhead_s)
                .ok_or(format!("rep {rep} settled wrongly: {run:?}"))
        });
        pass.rep_wall_s.push(wall_ms / 1e3);
        pass.rep_done();
        pass.submit_ms.push(wall_ms);
        pass.turnaround_ms.push(wall_ms);
        match verdict {
            Ok(mgmt) => {
                pass.rep_tasks.push(total);
                pass.rep_workflows.push(1);
                pass.mgmt_overhead_s.push(mgmt);
            }
            Err(why) => {
                pass.rep_tasks.push(0);
                pass.rep_workflows.push(0);
                pass.fail(why);
            }
        }
        rep += 1;
    }
    pass
}

// ---- service set-up shared by gateway_closed and recover_burst ------------

/// A spec of one class, stage durations drawn from `rng`.
pub fn class_spec(label: &str, class: Class, rng: &mut Rng) -> surface::Spec {
    let (pipelines, stages, _) = class.shape();
    let secs = secs_table(rng, pipelines, stages);
    surface::spec(label, class.shape(), &|p, s| secs[p * stages + s])
}

/// Everything before the measured phase of a service workload: a durable
/// service on a fresh journal directory (pilot prewarm is part of its
/// start), then [`WARMUPS`] small workflows submitted in-process and waited
/// for, which fault in the code paths and leave the pilot pool warm.
pub fn start_service(opts: ServiceOptions) -> Result<Service, String> {
    if let Some(dir) = opts.journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let service = Service::start(opts);
    let client = service.client();
    let mut rng = Rng::new(opts.seed, u64::MAX);
    let ids: Result<Vec<u64>, String> = (0..WARMUPS)
        .map(|i| {
            client.submit(
                "warmup",
                class_spec(&format!("wu{i}"), Class::Small, &mut rng),
            )
        })
        .collect();
    for id in ids? {
        match client.wait(id, OP_TIMEOUT) {
            Some(settled) if settled.success => {}
            other => return Err(format!("warm-up workflow {id} did not complete: {other:?}")),
        }
    }
    Ok(service)
}

/// The service's own counters must agree with what the clients saw.
fn check_totals(pass: &mut Pass, service: Service, workflows: u64) {
    pass.attempted += 1;
    let totals = service.shutdown();
    let expected = workflows + WARMUPS;
    if totals.submitted != expected || totals.completed != expected || totals.failed != 0 {
        pass.fail(format!(
            "service counters disagree: expected {expected} submitted and completed, got {totals:?}"
        ));
    }
}

// ---- gateway_closed -------------------------------------------------------

/// Closed loop: each of [`CLIENTS`] threads POSTs a workflow over real TCP,
/// polls its status every [`POLL`] until the terminal result body is in
/// hand, then sends the next. Closed because an ensemble client submits and
/// waits; a slow service therefore receives less load, which is why
/// throughput and latency are both reported.
fn gateway_closed(env: &Env) -> Pass {
    let mut pass = Pass::default();
    let dir = env.work_dir.join("gateway");
    let opts = ServiceOptions {
        journal_dir: Some(&dir),
        max_pending: None,
        tracing: env.tracing,
        seed: env.seed,
    };
    let mut stack: Option<(Service, Wire)> = None;
    for _ in 0..env.setups.max(1) {
        if let Some((service, wire)) = stack.take() {
            wire.stop();
            service.shutdown();
        }
        let t_setup = Instant::now();
        let started = start_service(opts).and_then(|service| {
            let wire = service
                .gateway(env.tracing.is_some())
                .map_err(|e| e.to_string())?;
            Ok((service, wire))
        });
        pass.setup_s.push(t_setup.elapsed().as_secs_f64());
        match started {
            Ok(s) => {
                stack = Some(s);
                pass.warmups = WARMUPS;
            }
            Err(why) => {
                pass.attempted += 1;
                pass.fail(format!("set-up failed: {why}"));
                return pass;
            }
        }
    }
    let (service, wire) = stack.expect("at least one set-up ran");
    let addr = wire.addr();

    let window = env.spans.begin("window", None, 0);
    let cpu = host::cpu_seconds();
    let t_window = Instant::now();
    let close_at = t_window + env.budget;
    let per_client: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| scope.spawn(move || client_loop(c, addr, close_at, window.id(), env)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t_window.elapsed().as_secs_f64();
    pass.cpu_s += host::cpu_seconds() - cpu;
    env.spans.end(window);

    let (mut tasks, mut workflows, mut requests) = (0, 0, 0);
    for log in per_client {
        requests += log.requests;
        pass.attempted += log.requests;
        tasks += log.tasks;
        workflows += log.submit_ms.len() as u64;
        pass.submit_ms.extend(log.submit_ms);
        pass.turnaround_ms.extend(log.turnaround_ms);
        for why in log.failures {
            pass.fail(why);
        }
    }
    pass.rep_wall_s.push(wall);
    pass.rep_done();
    pass.rep_tasks.push(tasks);
    pass.rep_workflows.push(workflows);
    wire.stop();
    check_totals(&mut pass, service, requests);
    pass
}

#[derive(Default)]
struct ClientLog {
    requests: u64,
    tasks: u64,
    submit_ms: Vec<f64>,
    turnaround_ms: Vec<f64>,
    failures: Vec<String>,
}

fn client_loop(
    client: u64,
    addr: SocketAddr,
    close_at: Instant,
    window: Option<u32>,
    env: &Env,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut mix = Mix::new(env.seed, client);
    let mut rng = Rng::new(env.seed, 1_000 + client);
    while Instant::now() < close_at {
        let class = mix.next().expect("the mix is endless");
        let label = format!("c{client}w{}", log.requests);
        let body = format!(
            "{{\"tenant\":\"tenant-{client}\",\"workflow\":{}}}",
            surface::spec_to_json(&class_spec(&label, class, &mut rng))
        );
        let request = client << 32 | log.requests;
        log.requests += 1;
        match wire_request(addr, &body, class, window, request, env.spans) {
            Ok((submit_ms, turnaround_ms)) => {
                log.tasks += class.tasks();
                log.submit_ms.push(submit_ms);
                log.turnaround_ms.push(turnaround_ms);
            }
            Err(why) => log.failures.push(format!("{label}: {why}")),
        }
    }
    log
}

/// One request: first byte of the POST written → 202 read (`submit`) →
/// terminal result body read (`turnaround`), both in milliseconds.
pub fn wire_request(
    addr: SocketAddr,
    body: &str,
    class: Class,
    window: Option<u32>,
    request: u64,
    spans: &Spans,
) -> Result<(f64, f64), String> {
    let span = spans.begin("request", window, request);
    let outcome = (|| {
        let t0 = Instant::now();
        let post = spans.begin("post", span.id(), request);
        let reply = http::exchange(
            addr,
            "POST",
            "/v1/workflows",
            Some(body),
            spans,
            post.id(),
            request,
        );
        spans.end(post);
        let submit_ms = ms(t0);
        let (status, payload) = reply.map_err(|e| format!("POST failed: {e}"))?;
        if status != 202 {
            return Err(format!("POST answered {status}: {payload}"));
        }
        let id = http::json_field(&payload, "id").ok_or("202 body without id")?;
        let path = format!("/v1/workflows/{id}");
        loop {
            spans.within("poll_sleep", span.id(), request, || {
                std::thread::sleep(POLL)
            });
            let poll = spans.begin("poll", span.id(), request);
            let reply = http::exchange(addr, "GET", &path, None, spans, poll.id(), request);
            spans.end(poll);
            let (status, payload) = reply.map_err(|e| format!("GET failed: {e}"))?;
            if status != 200 {
                return Err(format!("GET answered {status}: {payload}"));
            }
            match http::json_field(&payload, "state") {
                Some("queued" | "running") => {}
                Some("done") => {
                    let turnaround_ms = ms(t0);
                    let tasks_done = http::json_field(&payload, "tasks_done");
                    let complete = http::json_field(&payload, "success") == Some("true")
                        && tasks_done == Some(class.tasks().to_string().as_str());
                    return complete
                        .then_some((submit_ms, turnaround_ms))
                        .ok_or(format!("settled wrongly: {payload}"));
                }
                _ => return Err(format!("did not complete: {payload}")),
            }
            if t0.elapsed() > OP_TIMEOUT {
                return Err("no terminal result before the timeout".into());
            }
        }
    })();
    spans.end(span);
    outcome
}

// ---- recover_burst --------------------------------------------------------

/// Per rep: a burst of [`BURST`] small workflows from [`TENANTS`] tenants
/// into a durable service, `kill()`, `recover()`, then wait until every one
/// has settled exactly once. The rep's wall runs from the first submit to
/// the last settle, so it holds admission at saturation, the kill, the
/// journal scan and replay, and the re-driven runs.
fn recover_burst(env: &Env) -> Pass {
    let mut pass = Pass::default();
    let dir: PathBuf = env.work_dir.join("recover");
    let opts = ServiceOptions {
        journal_dir: Some(&dir),
        max_pending: Some(2 * BURST),
        tracing: env.tracing,
        seed: env.seed,
    };
    let started = Instant::now();
    let mut rep = 0;
    while rep < env.min_reps || started.elapsed() < env.budget {
        let rep_span = env.spans.begin("rep", None, rep);
        let t_setup = Instant::now();
        let service = env
            .spans
            .within("setup", rep_span.id(), rep, || start_service(opts));
        pass.setup_s.push(t_setup.elapsed().as_secs_f64());
        let service = match service {
            Ok(s) => s,
            Err(why) => {
                pass.attempted += 1;
                pass.fail(format!("rep {rep} set-up failed: {why}"));
                break;
            }
        };
        pass.warmups += WARMUPS;

        // Exactly BURST / TENANTS workflows per tenant, in seeded order.
        let mut rng = Rng::new(env.seed, rep);
        let mut tenants: Vec<usize> = (0..BURST).map(|i| i % TENANTS).collect();
        rng.shuffle(&mut tenants);
        let specs: Vec<surface::Spec> = (0..BURST)
            .map(|i| class_spec(&format!("r{rep}b{i}"), Class::Small, &mut rng))
            .collect();

        let cpu = host::cpu_seconds();
        let t_rep = Instant::now();
        let client = service.client();
        let burst = env.spans.begin("submit_burst", rep_span.id(), rep);
        let mut inflight: Vec<(u64, Instant)> = Vec::with_capacity(BURST);
        let mut call_ms = Vec::with_capacity(BURST);
        for (spec, tenant) in specs.into_iter().zip(&tenants) {
            pass.attempted += 1;
            let t0 = Instant::now();
            match client.submit(&format!("tenant-{tenant}"), spec) {
                Ok(id) => {
                    call_ms.push(ms(t0));
                    inflight.push((id, t0));
                }
                Err(why) => pass.fail(format!("rep {rep}: submit refused: {why}")),
            }
        }
        // One submit sample per rep, the median call of its burst. A call
        // takes ~20 µs while the workers already run the first workflows on
        // the same two cores: the burst's mean is twice its median and its
        // tail is the scheduler's, so neither repeats from run to run.
        pass.submit_ms.push(p50(&call_ms));
        env.spans.end(burst);
        drop(client);
        env.spans
            .within("kill", rep_span.id(), rep, || service.kill());

        let t_kill = Instant::now();
        let recovered = env
            .spans
            .within("recover", rep_span.id(), rep, || Service::recover(opts));
        let recovered = match recovered {
            Ok(s) => s,
            Err(why) => {
                for _ in &inflight {
                    pass.fail(format!("rep {rep}: recover failed: {why}"));
                }
                break;
            }
        };
        let client = recovered.client();
        let wait = env.spans.begin("resettle_wait", rep_span.id(), rep);
        let deadline = t_kill + OP_TIMEOUT;
        let mut settled = 0;
        for (id, t0) in &inflight {
            let left = deadline.saturating_duration_since(Instant::now());
            match client.wait(*id, left) {
                Some(s) if s.success => {
                    settled += 1;
                    pass.turnaround_ms.push(ms(*t0));
                    pass.mgmt_overhead_s.extend(s.mgmt_overhead_s);
                }
                other => pass.fail(format!(
                    "rep {rep}: workflow {id} after recovery: {other:?}"
                )),
            }
        }
        env.spans.end(wait);
        pass.resettle_s.push(t_kill.elapsed().as_secs_f64());
        pass.rep_wall_s.push(t_rep.elapsed().as_secs_f64());
        pass.rep_done();
        pass.cpu_s += host::cpu_seconds() - cpu;
        pass.rep_workflows.push(settled);
        pass.rep_tasks.push(settled * Class::Small.tasks());
        drop(client);
        // Exactly once: the recovered service's lifetime counters include
        // what settled before the kill, and nothing may be counted twice.
        check_totals(&mut pass, recovered, BURST as u64);
        env.spans.end(rep_span);
        rep += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    pass
}
