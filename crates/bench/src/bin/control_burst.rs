//! Control burst: demand-driven pool sizing vs a static warm-pilot sweep
//! under bursty multi-tenant load.
//!
//! The closed telemetry loop's proof point: the same burst workload is run
//! against a grid of static warm-pilot counts and once with the pool
//! prescaler enabled, starting from the *smallest* static footprint (one
//! warm pilot). Each scenario reports p50/p99 turnaround and pilot-seconds —
//! the integral of allocated pilots (warm + leased) over the scenario's wall
//! clock, i.e. what the resource provider would bill. The claim under test:
//! the prescaler matches or beats the best static config on p99 turnaround
//! without hand-picking it in advance, at an equal-or-lower pilot-seconds
//! cost than the static configs it beats.
//!
//! Emits `BENCH_control.json` and exits nonzero if the adaptive p99 regresses
//! more than `--gate-pct` (default 10%) past the best static config.
//!
//! Usage: `control_burst [--quick] [--bursts N] [--tenants N] [--wf N]
//! [--tasks N] [--gap-ms N] [--gate-pct N] [--out PATH]`

use entk_bench::{argv, flag_num, flag_value, has_flag};
use entk_core::{Executable, Pipeline, ResourceDescription, Stage, Task, Workflow};
use entk_observe::{ObserveConfig, SloConfig};
use entk_service::{EnsembleService, ServiceClient, ServiceConfig, SubmitError};
use hpc_sim::PlatformId;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(300);

/// Pilot-cost sampling cadence.
const COST_SAMPLE: Duration = Duration::from_millis(5);

fn workflow(label: &str, tasks: usize) -> Workflow {
    let mut stage = Stage::new(format!("{label}-s"));
    for t in 0..tasks {
        stage.add_task(Task::new(
            format!("{label}-t{t}"),
            Executable::Sleep { secs: 20.0 },
        ));
    }
    Workflow::new().with_pipeline(Pipeline::new(format!("{label}-p")).with_stage(stage))
}

/// Simulated TestRig with remote-DB latency and a real pilot bootstrap cost:
/// the things pool capacity actually trades against.
fn resource() -> ResourceDescription {
    let mut r = ResourceDescription::sim(PlatformId::TestRig, 2, 1_000_000_000)
        .with_db_latency(Duration::from_millis(5));
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

#[derive(Clone, Copy)]
struct Load {
    bursts: usize,
    tenants: usize,
    wf_per_tenant: usize,
    tasks: usize,
    gap: Duration,
}

struct Scenario {
    label: String,
    warm: usize,
    adaptive: bool,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    wall_s: f64,
    pilot_seconds: f64,
    shed_retries: usize,
    decisions: u64,
}

/// Submit with saturation retry (admission answers `Saturated` with a
/// retry-after; a well-behaved client backs off and resubmits).
fn submit_retry(
    client: &ServiceClient,
    tenant: &str,
    wf: Workflow,
) -> (entk_service::SubmissionId, usize) {
    let mut retries = 0usize;
    loop {
        match client.submit(tenant, wf.clone()) {
            Ok(id) => return (id, retries),
            Err(SubmitError::Saturated { retry_after }) => {
                retries += 1;
                std::thread::sleep(retry_after.min(Duration::from_millis(50)));
            }
            Err(e) => panic!("submit failed: {e:?}"),
        }
    }
}

fn run_scenario(label: &str, warm: usize, adaptive: bool, load: Load) -> Scenario {
    // Every scenario runs with the same SLO/telemetry plane (recorder,
    // samplers, watchdog) so the comparison isolates the control policy,
    // not the cost of observation; only `adaptive` turns the prescaler on.
    let cfg = ServiceConfig::new(resource())
        .with_warm_pilots(warm)
        .with_max_active(4)
        .with_max_pending(256)
        .with_run_timeout(TIMEOUT)
        .with_observe(ObserveConfig::default().with_sample_interval(Duration::from_millis(5)))
        .with_slo(
            SloConfig::default()
                .with_p50_turnaround(Duration::from_millis(500))
                .with_p99_turnaround(Duration::from_secs(2))
                .with_queue_wait_budget(Duration::from_millis(250)),
        )
        .with_adaptive_control(adaptive);
    let service = EnsembleService::start(cfg);
    let client = service.client();

    // Pilot-seconds: sample allocated pilots (idle warm + leased-by-active)
    // on a fixed cadence and integrate over the scenario wall clock.
    let stop = Arc::new(AtomicBool::new(false));
    let cost_thread = {
        let stop = Arc::clone(&stop);
        let client = client.clone();
        std::thread::spawn(move || {
            let mut acc = 0.0f64;
            let mut last = Instant::now();
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(COST_SAMPLE);
                let now = Instant::now();
                let s = client.stats();
                acc += (s.active + s.warm_pilots) as f64 * (now - last).as_secs_f64();
                last = now;
            }
            acc
        })
    };

    // Untimed warmup burst (same shape as a measured one): lets static pools
    // pay first-touch costs and the prescaler find its operating point
    // before measurement.
    let mut ids = Vec::new();
    for t in 0..load.tenants {
        for w in 0..load.wf_per_tenant {
            let wf = workflow(&format!("{label}-wu{t}x{w}"), load.tasks);
            ids.push(submit_retry(&client, &format!("t{t}"), wf).0);
        }
    }
    for id in ids {
        assert!(client
            .wait(id, TIMEOUT)
            .expect("warmup settles")
            .outcome
            .is_success());
    }

    let mut turnarounds_ms = Vec::new();
    let mut shed_retries = 0usize;
    let start = Instant::now();
    for burst in 0..load.bursts {
        let mut ids = Vec::new();
        for t in 0..load.tenants {
            for w in 0..load.wf_per_tenant {
                let wf = workflow(&format!("{label}-b{burst}t{t}w{w}"), load.tasks);
                let (id, retries) = submit_retry(&client, &format!("t{t}"), wf);
                shed_retries += retries;
                ids.push(id);
            }
        }
        for id in ids {
            let result = client.wait(id, TIMEOUT).expect("burst run settles");
            assert!(result.outcome.is_success(), "run failed in {label}");
            turnarounds_ms.push(result.turnaround.as_secs_f64() * 1000.0);
        }
        if burst + 1 < load.bursts {
            std::thread::sleep(load.gap);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    let pilot_seconds = cost_thread.join().expect("cost sampler joins");
    let ring = service.decisions();
    let decisions = ring.total();
    if has_flag(&argv(), "--decisions") {
        for d in ring.snapshot() {
            println!(
                "  [{}] {} {} {} {}: {}",
                d.seq, d.class, d.kind, d.subject, d.action, d.evidence
            );
        }
    }
    service.shutdown();

    turnarounds_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean_ms = turnarounds_ms.iter().sum::<f64>() / turnarounds_ms.len().max(1) as f64;
    let s = Scenario {
        label: label.to_string(),
        warm,
        adaptive,
        mean_ms,
        p50_ms: quantile(&turnarounds_ms, 0.50),
        p99_ms: quantile(&turnarounds_ms, 0.99),
        wall_s,
        pilot_seconds,
        shed_retries,
        decisions,
    };
    println!(
        "{:<10} warm={} mean {:8.1} ms  p50 {:8.1} ms  p99 {:8.1} ms  \
         pilot-s {:7.2}  wall {:6.2} s  retries {}  decisions {}",
        s.label,
        s.warm,
        s.mean_ms,
        s.p50_ms,
        s.p99_ms,
        s.pilot_seconds,
        s.wall_s,
        s.shed_retries,
        s.decisions
    );
    s
}

fn scenario_json(s: &Scenario) -> String {
    format!(
        "{{\"label\": \"{}\", \"warm_pilots\": {}, \"adaptive\": {}, \
         \"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"wall_s\": {:.3}, \
         \"pilot_seconds\": {:.3}, \"shed_retries\": {}, \"decisions\": {}}}",
        s.label,
        s.warm,
        s.adaptive,
        s.mean_ms,
        s.p50_ms,
        s.p99_ms,
        s.wall_s,
        s.pilot_seconds,
        s.shed_retries,
        s.decisions
    )
}

fn main() {
    let args = argv();
    let quick = has_flag(&args, "--quick");
    let load = Load {
        bursts: flag_num(&args, "--bursts", if quick { 3usize } else { 5 }),
        tenants: flag_num(&args, "--tenants", if quick { 2usize } else { 3 }),
        wf_per_tenant: flag_num(&args, "--wf", if quick { 3usize } else { 4 }),
        tasks: flag_num(&args, "--tasks", 8usize),
        gap: Duration::from_millis(flag_num(&args, "--gap-ms", 150u64)),
    };
    let gate_pct = flag_num(&args, "--gate-pct", 10.0f64);
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_control.json".into());

    println!(
        "# control_burst: {} bursts x {} tenants x {} wf x {} tasks, gap {:?}",
        load.bursts, load.tenants, load.wf_per_tenant, load.tasks, load.gap
    );

    // Static sweep: every warm-pilot count someone might hand-pick.
    let grid: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let statics: Vec<Scenario> = grid
        .iter()
        .map(|&warm| run_scenario(&format!("static-w{warm}"), warm, false, load))
        .collect();
    // Adaptive starts from the smallest static footprint and must find its
    // own operating point.
    let adaptive = run_scenario("adaptive", 1, true, load);

    let best = statics
        .iter()
        .min_by(|a, b| a.p99_ms.partial_cmp(&b.p99_ms).unwrap())
        .expect("nonempty sweep");
    let ratio = adaptive.p99_ms / best.p99_ms.max(1e-9);
    let beaten_or_matched = statics
        .iter()
        .filter(|s| adaptive.p99_ms <= s.p99_ms * (1.0 + gate_pct / 100.0))
        .count();
    println!(
        "best static: {} (p99 {:.1} ms, pilot-s {:.2}); adaptive p99 {:.1} ms, pilot-s {:.2} \
         => ratio {:.3} ({} of {} static configs matched/beaten within {:.0}%)",
        best.label,
        best.p99_ms,
        best.pilot_seconds,
        adaptive.p99_ms,
        adaptive.pilot_seconds,
        ratio,
        beaten_or_matched,
        statics.len(),
        gate_pct
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"host\": {{\"cores\": {}, \"broker_shards\": {}}},\n  \"quick\": {},\n  \
         \"load\": {{\"bursts\": {}, \"tenants\": {}, \"wf_per_tenant\": {}, \"tasks\": {}, \
         \"gap_ms\": {}}},\n  \"static\": [\n",
        cores,
        cores.min(8),
        quick,
        load.bursts,
        load.tenants,
        load.wf_per_tenant,
        load.tasks,
        load.gap.as_millis()
    );
    for (i, s) in statics.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            scenario_json(s),
            if i + 1 < statics.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"best_static\": {},\n  \"adaptive\": {},\n  \
         \"adaptive_vs_best_static_p99\": {:.4},\n  \"gate_pct\": {:.1}\n}}\n",
        scenario_json(best),
        scenario_json(&adaptive),
        ratio,
        gate_pct
    );
    let mut f = std::fs::File::create(&out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output");
    println!("wrote {out}");

    if ratio > 1.0 + gate_pct / 100.0 {
        eprintln!(
            "GATE FAILED: adaptive p99 {:.1} ms regresses more than {:.0}% past best static {:.1} ms",
            adaptive.p99_ms, gate_pct, best.p99_ms
        );
        std::process::exit(1);
    }
    println!("control burst passed");
}
