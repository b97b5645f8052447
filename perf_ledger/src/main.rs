//! `perf_ledger`: the repository's frozen, layer-attributed yardstick.
//!
//! ```text
//! perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf_ledger [--seed <n>] [--seconds <s>] [--repeat <N>] [--out <file>] [--check]
//! perf_ledger compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload and ends with one line of JSON;
//! it is what `BENCHMARK.json` names. `--trace 0` measures the end-to-end
//! metrics with the program's tracing off. `--trace 1` is the traced run: a
//! short untraced pass, the same pass with the program's recorder and trace
//! store on and the benchmark's own spans recorded, then the per-layer
//! probes; it prints the per-layer metrics and never an end-to-end one.
//!
//! The second form runs every workload, each run in a child process so that
//! peak memory and CPU time belong to one workload, and writes a ledger file
//! that `compare` reads. See README.md beside this file.

mod compare;
mod host;
mod http;
mod probes;
mod spans;
mod stats;
mod surface;
mod workloads;

use compare::Contract;
use spans::Spans;
use stats::{p50, percentile, tail, tail_quantile};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use surface::{HopMean, Tracing};
use workloads::{Env, Pass, Workload, CLIENTS};

/// Share of `--seconds` each of the two short passes of a traced run gets;
/// the probes take about as long again.
const TRACED_PASS_SHARE: f64 = 0.2;

/// Reps of an untraced run even when a stalled rep has used up `--seconds`:
/// a median needs them, and a 30 s stall must not be the only sample.
const MIN_REPS: u64 = 3;

/// Set-ups per untraced service run, so `setup_s` is a median.
const SETUPS: usize = 5;

const TASK_HOPS: [&str; 7] = [
    "enqueue-emgr_dequeue",
    "emgr_dequeue-rts_submit",
    "rts_submit-agent_start",
    "agent_start-agent_end",
    "agent_end-callback",
    "callback-dequeue",
    "dequeue-synced",
];

const WIRE_HOPS: [&str; 4] = [
    "wire_recv-parsed",
    "parsed-admitted",
    "admitted-journal_appended",
    "journal_appended-enqueue",
];

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn number<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}: cannot read \"{v}\"")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        _ if flag(&args, "--workload").is_some() => single_run(&args),
        _ => ledger(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("perf_ledger: {why}");
            ExitCode::from(2)
        }
    }
}

/// Scratch space inside the build's target directory: journals while a run
/// lasts, `trace-<workload>.jsonl` and `ledger.json` afterwards.
fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("perf_ledger")))
        .unwrap_or_else(|| PathBuf::from("target/perf_ledger"))
}

/// With one core the load generator and the program take turns on it and
/// the numbers describe the scheduler, so the run is refused.
fn refuse_single_core() -> Result<(), String> {
    if host::nproc() < CLIENTS {
        return Err(format!(
            "refusing to run on {} core(s): the load generator alone uses {CLIENTS} threads",
            host::nproc()
        ));
    }
    Ok(())
}

/// The host header, with the shard count a default broker resolves to here.
fn header(work_dir: &Path, seed: u64) -> Result<String, String> {
    let shards = surface::Mq::open(None).map(|mq| mq.shards())?;
    Ok(host::header(work_dir, shards, seed, CLIENTS))
}

// ---- one run of one workload ----------------------------------------------

fn single_run(args: &[String]) -> Result<bool, String> {
    let name = flag(args, "--workload").unwrap_or_default();
    let workload = Workload::parse(name).ok_or(format!("unknown workload \"{name}\""))?;
    let seed: u64 = number(args, "--seed", 1)?;
    let seconds: f64 = number(args, "--seconds", 20.0)?;
    let traced = number(args, "--trace", 0u8)? == 1;
    refuse_single_core()?;

    let out_dir = output_dir();
    let work_dir = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    println!(
        "# perf_ledger workload={} trace={} seconds={seconds} {}",
        workload.name(),
        u8::from(traced),
        header(&work_dir, seed)?
    );

    let env = |budget: f64, min_reps, setups, tracing, spans| Env {
        seed,
        budget: Duration::from_secs_f64(budget),
        min_reps,
        setups,
        work_dir: &work_dir,
        tracing,
        spans,
    };
    let no_spans = Spans::new(false);
    // What the run measured: metrics, operations attempted and failed, why.
    let (metrics, attempted, failed, failures) = if traced {
        let budget = seconds * TRACED_PASS_SHARE;
        let plain = workloads::run(workload, &env(budget, 1, 1, None, &no_spans));
        let tracing = Tracing::on();
        let spans = Spans::new(true);
        let with = workloads::run(workload, &env(budget, 1, 1, Some(&tracing), &spans));
        let trace_file = out_dir.join(format!("trace-{}.jsonl", workload.name()));
        spans
            .write_jsonl(&trace_file)
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        print_pass("untraced pass", &plain);
        print_pass("traced pass", &with);
        print_spans(&spans, &trace_file);
        let readings = probes::run_all(seed, &work_dir);
        let failures = [
            &plain.failures[..],
            &with.failures[..],
            &readings.failures[..],
        ]
        .concat();
        (
            per_layer(&plain, &with, &tracing, &readings),
            plain.attempted + with.attempted,
            plain.failed + with.failed + readings.failures.len() as u64,
            failures,
        )
    } else {
        let pass = workloads::run(workload, &env(seconds, MIN_REPS, SETUPS, None, &no_spans));
        print_pass("untraced pass", &pass);
        println!("stall_reps: {}", stall_reps(&pass.rep_wall_s));
        (
            end_to_end(&pass),
            pass.attempted,
            pass.failed,
            pass.failures,
        )
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for why in failures.iter().take(20) {
        println!("FAILED: {why}");
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    Ok(correct)
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reps that took more than three times the median rep: stalls are counted
/// and shown, never retried away.
fn stall_reps(rep_wall_s: &[f64]) -> usize {
    let limit = 3.0 * p50(rep_wall_s);
    rep_wall_s.iter().filter(|w| **w > limit).count()
}

/// Units settled per second in the median rep: the reciprocal of the median
/// wall per unit, so a rep that settled nothing sorts as the slowest.
fn per_rep_rate(counts: &[u64], walls: &[f64]) -> f64 {
    let wall_per_unit: Vec<f64> = counts
        .iter()
        .zip(walls)
        .map(|(n, wall)| wall / *n as f64)
        .collect();
    1.0 / p50(&wall_per_unit)
}

/// The end-to-end metrics, all taken with the program's tracing off. Every
/// workload reports every one of them; README.md says what each means on
/// each workload.
fn end_to_end(pass: &Pass) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", p50(&pass.setup_s)),
        metric(
            "tasks_per_s",
            "1/s",
            per_rep_rate(&pass.rep_tasks, &pass.rep_wall_s),
        ),
        metric(
            "workflows_per_s",
            "1/s",
            per_rep_rate(&pass.rep_workflows, &pass.rep_wall_s),
        ),
        metric("turnaround_p50_ms", "ms", p50(&pass.turnaround_ms)),
        metric("turnaround_p95_ms", "ms", tail(&pass.turnaround_ms)),
        metric("submit_p50_ms", "ms", p50(&pass.submit_ms)),
        metric("submit_p95_ms", "ms", tail(&pass.submit_ms)),
        metric("peak_rss_mb", "MiB", pass.peak_rss_mb),
    ]
}

/// The per-layer metrics of a traced run: the probes' readings, the
/// program-reported hop residencies and per-layer work counts of the traced
/// pass, and what the tracing itself cost.
fn per_layer(
    plain: &Pass,
    traced: &Pass,
    tracing: &Tracing,
    readings: &probes::Readings,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = readings
        .values
        .iter()
        .map(|(name, unit, value)| metric(*name, unit, *value))
        .collect();

    let plain_rate = per_rep_rate(&plain.rep_tasks, &plain.rep_wall_s);
    let traced_rate = per_rep_rate(&traced.rep_tasks, &traced.rep_wall_s);
    out.push(metric(
        "observe.trace_overhead_pct",
        "%",
        (plain_rate / traced_rate - 1.0) * 100.0,
    ));
    let mgmt = if traced.mgmt_overhead_s.is_empty() {
        // Results taken over the wire carry no report; read the same small
        // workflow's overhead off the in-process probe instead.
        readings.small_mgmt_overhead_s.unwrap_or(0.0)
    } else {
        p50(&traced.mgmt_overhead_s)
    };
    out.push(metric("core.mgmt_overhead_s", "s", mgmt));
    // Process CPU per 1 000 settled tasks of the untraced pass: polling loops
    // burn it, and the paper runs EnTK on a shared login node.
    let plain_tasks: u64 = plain.rep_tasks.iter().sum();
    out.push(metric(
        "host.cpu_s_per_ktask",
        "s",
        plain.cpu_s * 1e3 / plain_tasks as f64,
    ));
    let walls = [&plain.rep_wall_s[..], &traced.rep_wall_s[..]].concat();
    out.push(metric("stall_reps", "count", stall_reps(&walls) as f64));

    // Hops: the task hops come from the workload's own traced pass; the wire
    // hops too when it took them, else from the wire probe.
    let own = tracing.hop_means();
    let find = |hops: &[HopMean], hop: &str| hops.iter().find(|h| h.hop == hop).map(|h| h.mean_ms);
    let mut hop_sum = 0.0;
    println!("{:<28} {:>12} {:>10}", "hop", "mean_ms", "timelines");
    for hop in TASK_HOPS.iter().chain(&WIRE_HOPS) {
        let mean = find(&own, hop).or_else(|| find(&readings.wire_hops, hop));
        hop_sum += find(&own, hop).unwrap_or(0.0);
        let count = own.iter().find(|h| h.hop == *hop).map_or(0, |h| h.count);
        println!("{hop:<28} {:>12.4} {count:>10}", mean.unwrap_or(0.0));
        out.push(metric(
            format!("hop.{hop}.mean_ms"),
            "ms",
            mean.unwrap_or(0.0),
        ));
    }
    out.push(metric(
        "hop.untraced_gap_ms",
        "ms",
        p50(&traced.turnaround_ms) - hop_sum,
    ));

    // Work each layer did per settled unit of the traced pass, from the
    // program's own counters: what a workload exercises and what it bypasses.
    let workflows = (traced.rep_workflows.iter().sum::<u64>() + traced.warmups).max(1) as f64;
    let tasks = (traced.rep_tasks.iter().sum::<u64>()
        + traced.warmups * stats::Class::Small.tasks())
    .max(1) as f64;
    let per = |count: u64, denominator: f64| count as f64 / denominator;
    out.push(metric(
        "work.mq_deliveries_per_task",
        "count",
        per(tracing.histogram_count("mq.publish_to_deliver"), tasks),
    ));
    out.push(metric(
        "work.rts_units_per_task",
        "count",
        per(tracing.counter("rts.units_submitted"), tasks),
    ));
    out.push(metric(
        "work.sim_events_per_task",
        "count",
        per(tracing.counter("sim.events.task"), tasks),
    ));
    out.push(metric(
        "work.gateway_requests_per_workflow",
        "count",
        per(tracing.counter("gateway.requests"), workflows),
    ));
    out.push(metric(
        "work.journal_records_per_workflow",
        "count",
        per(tracing.counter("service.journal.records"), workflows),
    ));
    out
}

fn print_pass(label: &str, pass: &Pass) {
    let walls: Vec<String> = pass.rep_wall_s.iter().map(|w| format!("{w:.3}")).collect();
    println!("{label}: rep_wall_s = [{}]", walls.join(", "));
    let setups: Vec<String> = pass.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("{label}: setup_s = [{}]", setups.join(", "));
    let n = pass.turnaround_ms.len();
    println!(
        "{label}: {n} requests, tail percentile p{:.0}, slowest turnaround {:.1} ms, {} failed of {} operations",
        tail_quantile(n) * 100.0,
        percentile(&pass.turnaround_ms, 1.0),
        pass.failed,
        pass.attempted
    );
    if !pass.resettle_s.is_empty() {
        println!("{label}: resettle_s median {:.3}", p50(&pass.resettle_s));
    }
}

fn print_spans(spans: &Spans, file: &Path) {
    println!(
        "{:<16} {:>8} {:>14}   (benchmark spans, written to {})",
        "span",
        "count",
        "self_ms",
        file.display()
    );
    for (name, (count, self_ns)) in spans::self_times(&spans.finished()) {
        println!("{name:<16} {count:>8} {:>14.3}", self_ns as f64 / 1e6);
    }
}

// ---- every workload, one child process per run ----------------------------

fn ledger(args: &[String]) -> Result<bool, String> {
    let seed: u64 = number(args, "--seed", 1)?;
    let seconds: f64 = number(args, "--seconds", 20.0)?;
    let repeat: usize = number(args, "--repeat", 1)?;
    let check = args.iter().any(|a| a == "--check");
    let out_dir = output_dir();
    let out_file = flag(args, "--out").map_or(out_dir.join("ledger.json"), PathBuf::from);
    refuse_single_core()?;
    let contract = if check { Some(Contract::load()?) } else { None };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut ok = true;
    let mut runs = Vec::new();
    // Untraced runs first, `repeat` of each; then one traced run of each.
    let plan = (0..repeat)
        .flat_map(|_| Workload::ALL.map(|w| (w, 0)))
        .chain(Workload::ALL.map(|w| (w, 1)));
    for (workload, trace) in plan {
        let child = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", &trace.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().unwrap_or_default();
        ok &= child.status.success();
        if let Some(contract) = &contract {
            for why in check_run(contract, trace == 1, result) {
                println!("CHECK {}: {why}", workload.name());
                ok = false;
            }
        }
        if surface::parse_json(result).is_err() {
            return Err(format!("{} printed no result", workload.name()));
        }
        runs.push(format!(
            "{{\"workload\":\"{}\",\"trace\":{trace},\"seed\":{seed},\"result\":{result}}}",
            workload.name()
        ));
    }
    if let Some(contract) = &contract {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        if contract.workloads != names {
            println!(
                "CHECK: BENCHMARK.json lists workloads {:?}, the benchmark runs {names:?}",
                contract.workloads
            );
            ok = false;
        }
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let host = header(&out_dir, seed)?
        .replace('\\', "\\\\")
        .replace('"', "\\\"");
    std::fs::write(
        &out_file,
        format!(
            "{{\"host\":\"{host}\",\"runs\":[\n{}\n]}}\n",
            runs.join(",\n")
        ),
    )
    .map_err(|e| format!("{}: {e}", out_file.display()))?;
    println!("wrote {}", out_file.display());
    Ok(ok)
}

/// `--check`: the names and units a run printed against `BENCHMARK.json`.
fn check_run(contract: &Contract, traced: bool, result: &str) -> Vec<String> {
    let Ok(doc) = surface::parse_json(result) else {
        return vec!["no result line".into()];
    };
    let Some(surface::Json::Obj(metrics)) = doc.get("metrics") else {
        return vec!["result without metrics".into()];
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(surface::Json::as_str)
                .unwrap_or_default();
            (name.clone(), unit.to_string())
        })
        .collect();
    contract.mismatches(traced, &printed)
}

fn compare_files(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("usage: perf_ledger compare <a.json> <b.json>".into());
    };
    let read = |path: &String| -> Result<Vec<compare::Run>, String> {
        let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_ledger(&source).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare::compare(&Contract::load()?, &read(a)?, &read(b)?))
}
