//! Service throughput: warm-pilot reuse vs cold-start AppManager runs.
//!
//! The paper's Fig. 7 shows pilot bootstrap / RTS setup dominating EnTK
//! overhead for short workflows. The `entk-service` warm pilot pool pays
//! that cost once; this benchmark quantifies the win for short (≤8-task)
//! workflows and emits `BENCH_service.json`:
//!
//! * `cold`: each workflow on a private AppManager — broker boot, RTS
//!   acquisition, pilot submission (with its remote-DB round trips), RTS
//!   teardown, every time.
//! * `warm`: the same workflows through a prewarmed [`EnsembleService`] —
//!   shared broker, leased pilots, zero per-workflow bootstrap/teardown.
//!
//! * `idle`: process CPU milliseconds per wall second of a default service
//!   (2 warm pilots, 4 workers) that receives no submissions — the
//!   ROADMAP's "idle service CPU ≈ 0", gated at [`IDLE_CPU_GATE_MS_PER_S`].
//!
//! Usage: `service_throughput [--quick] [--workflows N] [--burst N]
//! [--tasks N] [--db-ms N] [--out PATH]`

use entk_bench::{argv, flag_num, flag_value, has_flag};
use entk_core::{
    AppManager, AppManagerConfig, Executable, Pipeline, ResourceDescription, Stage, Task, Workflow,
};
use entk_service::{EnsembleService, ServiceConfig};
use hpc_sim::PlatformId;
use std::io::Write;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(300);

/// How long the idle service is observed.
const IDLE_WINDOW: Duration = Duration::from_secs(2);

/// An idle service may burn at most this much CPU per wall second: every
/// thread it owns parks on an event, so only the kernel's own bookkeeping
/// (one `USER_HZ` tick over the window) is tolerated.
const IDLE_CPU_GATE_MS_PER_S: f64 = 5.0;

/// User plus system CPU time of this process (all threads), milliseconds,
/// from `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI the toolchain
/// targets, so one tick is 10 ms; 0 where `/proc` is unavailable.
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10.0
}

/// CPU milliseconds per wall second of a default service left alone for
/// [`IDLE_WINDOW`].
fn idle_cpu_ms_per_s(db_ms: u64) -> f64 {
    let service = EnsembleService::start(ServiceConfig::new(resource(1_000_000_000, db_ms)));
    let (cpu0, t0) = (process_cpu_ms(), Instant::now());
    std::thread::sleep(IDLE_WINDOW);
    let rate = (process_cpu_ms() - cpu0) / t0.elapsed().as_secs_f64();
    service.shutdown();
    rate
}

/// Short workflow: 1 pipeline × 1 stage × `tasks` sleep tasks.
fn short_workflow(label: &str, tasks: usize) -> Workflow {
    let mut stage = Stage::new(format!("{label}-s"));
    for t in 0..tasks {
        stage.add_task(Task::new(
            format!("{label}-t{t}"),
            Executable::Sleep { secs: 20.0 },
        ));
    }
    Workflow::new().with_pipeline(Pipeline::new(format!("{label}-p")).with_stage(stage))
}

/// The benchmark resource: simulated TestRig with remote-DB latency and a
/// realistic pilot bootstrap time — the costs a warm pool amortizes.
fn resource(walltime_secs: u64, db_ms: u64) -> ResourceDescription {
    let mut r = ResourceDescription::sim(PlatformId::TestRig, 2, walltime_secs)
        .with_db_latency(Duration::from_millis(db_ms));
    // Pilot queue-wait + agent bootstrap: ~30 min is at the low end of what
    // real HPC batch queues charge; only cold acquisitions pay it.
    r.bootstrap_secs = 1800.0;
    r
}

fn quantile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

struct Summary {
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    per_min: f64,
}

fn summarize(samples_ms: &[f64]) -> Summary {
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean_ms = sorted.iter().sum::<f64>() / sorted.len().max(1) as f64;
    Summary {
        mean_ms,
        p50_ms: quantile(&sorted, 0.50),
        p99_ms: quantile(&sorted, 0.99),
        per_min: if mean_ms > 0.0 {
            60_000.0 / mean_ms
        } else {
            0.0
        },
    }
}

fn run_cold(label: &str, tasks: usize, db_ms: u64) -> Duration {
    let wf = short_workflow(label, tasks);
    let start = Instant::now();
    let mut amgr =
        AppManager::new(AppManagerConfig::new(resource(7200, db_ms)).with_run_timeout(TIMEOUT));
    let report = amgr.run(wf).expect("cold run completes");
    assert!(report.succeeded, "cold run {label} failed");
    start.elapsed()
}

fn main() {
    let args = argv();
    let quick = has_flag(&args, "--quick");
    let n_seq = flag_num(&args, "--workflows", if quick { 4usize } else { 12 });
    let n_burst = flag_num(&args, "--burst", if quick { 8usize } else { 24 });
    let tasks = flag_num(&args, "--tasks", 8usize);
    let db_ms = flag_num(&args, "--db-ms", 5u64);
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_service.json".into());

    println!(
        "# service_throughput: {n_seq} sequential + {n_burst} burst workflows, \
         {tasks} tasks each, db latency {db_ms} ms"
    );

    // ---- Cold: private AppManager per workflow -------------------------
    run_cold("coldwarmup", tasks, db_ms); // untimed first-touch
    let cold_ms: Vec<f64> = (0..n_seq)
        .map(|i| run_cold(&format!("cold{i}"), tasks, db_ms).as_secs_f64() * 1000.0)
        .collect();
    let cold = summarize(&cold_ms);
    println!(
        "cold : mean {:8.1} ms   p50 {:8.1} ms   p99 {:8.1} ms   {:6.1} wf/min",
        cold.mean_ms, cold.p50_ms, cold.p99_ms, cold.per_min
    );

    // ---- Warm: prewarmed service, leased pilots ------------------------
    // Pooled pilots idle between leases; give them effectively unlimited
    // walltime.
    let service = EnsembleService::start(
        ServiceConfig::new(resource(1_000_000_000, db_ms))
            .with_warm_pilots(4)
            .with_max_active(4)
            .with_max_pending(256)
            .with_run_timeout(TIMEOUT),
    );
    let client = service.client();

    // Per-workflow turnaround, sequential so queueing time is zero.
    let mut warm_ms = Vec::new();
    let mut warm_hits = 0usize;
    for i in 0..n_seq {
        let id = client
            .submit("bench", short_workflow(&format!("warm{i}"), tasks))
            .expect("admitted");
        let result = client.wait(id, TIMEOUT).expect("warm run completes");
        assert!(result.outcome.is_success(), "warm run {i} failed");
        if result.warm_pilot == Some(true) {
            warm_hits += 1;
        }
        warm_ms.push(result.turnaround.as_secs_f64() * 1000.0);
    }
    let warm = summarize(&warm_ms);
    println!(
        "warm : mean {:8.1} ms   p50 {:8.1} ms   p99 {:8.1} ms   {:6.1} wf/min   \
         ({warm_hits}/{n_seq} leases warm)",
        warm.mean_ms, warm.p50_ms, warm.p99_ms, warm.per_min
    );

    // Concurrent burst: service throughput with 4 workers sharing the pool.
    let burst_start = Instant::now();
    let ids: Vec<_> = (0..n_burst)
        .map(|i| {
            client
                .submit(
                    format!("tenant-{}", i % 4),
                    short_workflow(&format!("burst{i}"), tasks),
                )
                .expect("admitted")
        })
        .collect();
    for id in &ids {
        let result = client.wait(*id, TIMEOUT).expect("burst run completes");
        assert!(result.outcome.is_success());
    }
    let burst_wall = burst_start.elapsed();
    let burst_per_min = n_burst as f64 / (burst_wall.as_secs_f64() / 60.0);
    println!(
        "burst: {n_burst} workflows in {:.2} s  =>  {burst_per_min:.1} wf/min",
        burst_wall.as_secs_f64()
    );

    let stats = service.shutdown();
    let speedup_p50 = cold.p50_ms / warm.p50_ms.max(1e-9);
    let speedup_mean = cold.mean_ms / warm.mean_ms.max(1e-9);
    println!(
        "warm-pilot speedup: p50 {speedup_p50:.2}x   mean {speedup_mean:.2}x   pool {:?}",
        stats.pool
    );

    let idle_ms_per_s = idle_cpu_ms_per_s(db_ms);
    println!(
        "idle : {idle_ms_per_s:.1} CPU ms per wall second over {:.0} s \
         (gate {IDLE_CPU_GATE_MS_PER_S} ms/s)",
        IDLE_WINDOW.as_secs_f64()
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        concat!(
            "{{\n",
            "  \"host\": {{\"cores\": {}, \"broker_shards\": {}}},\n",
            "  \"workflows_sequential\": {},\n",
            "  \"workflows_burst\": {},\n",
            "  \"tasks_per_workflow\": {},\n",
            "  \"db_op_latency_ms\": {},\n",
            "  \"cold\": {{\"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"workflows_per_min\": {:.3}}},\n",
            "  \"warm\": {{\"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"workflows_per_min\": {:.3}}},\n",
            "  \"burst\": {{\"workflows\": {}, \"wall_s\": {:.3}, \"workflows_per_min\": {:.3}}},\n",
            "  \"speedup_p50\": {:.3},\n",
            "  \"speedup_mean\": {:.3},\n",
            "  \"warm_lease_hits\": {},\n",
            "  \"pool\": {{\"cold_boots\": {}, \"warm_hits\": {}, \"returned\": {}, \"discarded\": {}}},\n",
            "  \"idle\": {{\"warm_pilots\": 2, \"workers\": 4, \"window_s\": {:.1}, \"cpu_ms_per_s\": {:.2}, \"gate_ms_per_s\": {:.1}}}\n",
            "}}\n"
        ),
        cores,
        cores.min(8),
        n_seq,
        n_burst,
        tasks,
        db_ms,
        cold.mean_ms,
        cold.p50_ms,
        cold.p99_ms,
        cold.per_min,
        warm.mean_ms,
        warm.p50_ms,
        warm.p99_ms,
        warm.per_min,
        n_burst,
        burst_wall.as_secs_f64(),
        burst_per_min,
        speedup_p50,
        speedup_mean,
        warm_hits,
        stats.pool.cold_boots,
        stats.pool.warm_hits,
        stats.pool.returned,
        stats.pool.discarded,
        IDLE_WINDOW.as_secs_f64(),
        idle_ms_per_s,
        IDLE_CPU_GATE_MS_PER_S,
    );
    let mut f = std::fs::File::create(&out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output");
    println!("wrote {out}");

    assert!(
        speedup_p50 >= 2.0,
        "warm-pilot reuse must cut p50 turnaround >=2x for short workflows \
         (got {speedup_p50:.2}x)"
    );
    assert!(
        idle_ms_per_s <= IDLE_CPU_GATE_MS_PER_S,
        "an idle service must park, not poll: {idle_ms_per_s:.1} CPU ms/s \
         exceeds the {IDLE_CPU_GATE_MS_PER_S} ms/s gate"
    );
}
