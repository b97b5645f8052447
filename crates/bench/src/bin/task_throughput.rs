//! Task throughput: the per-task data path (a batch of one) vs batches.
//!
//! The paper's Fig. 6 prototype moves every task through the broker with one
//! publish/get/ack per message; §IV-A attributes most of EnTK's management
//! overhead to these per-task round-trips. The batched path amortizes them:
//! `publish_batch`/`get_batch`/cumulative acks on the broker, one sync
//! round-trip per batch between components, and bulk RTS submission with
//! bulk DB writes. This benchmark quantifies the win at three levels and
//! emits `BENCH_batching.json`:
//!
//! * `scales`: broker-level throughput (Fig. 6 prototype, 4 producers ×
//!   4 consumers × 4 queues, 512 B payloads) per-task vs batched at
//!   10³/10⁴/10⁵ tasks;
//! * `sweep`: throughput as a function of batch size at the largest scale;
//! * `e2e`: a full AppManager run (Fig. 7 style) with the trace recorder
//!   attached, comparing the management-overhead decomposition of a batch
//!   limit of 1 (the per-task path) against the default limit, both through
//!   the same code;
//! * `wide_scaling`: untraced 1×1×N runs at N = 8 192 and 32 768 (plus
//!   131 072 outside `--quick`). Settlement is O(1) per transition, so each
//!   4× step in N must cost at most 6× the wall time (linear is 4×; a
//!   quadratic settle reads well above 10×).
//!
//! Usage: `task_throughput [--quick] [--batch N] [--e2e-tasks N] [--out PATH]`

use entk_bench::{argv, flag_num, flag_value, has_flag};
use entk_core::{
    AppManager, AppManagerConfig, ExecManagerConfig, OverheadReport, Recorder, ResourceDescription,
};
use entk_mq::proto::{run_prototype, PrototypeConfig};
use entk_observe::{TraceStore, TraceStoreConfig};
use hpc_sim::PlatformId;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(300);
// The (1, 1, 1) point of the paper's Fig. 6 sweep: one producer, one queue,
// one consumer. Even producer/consumer distributions scale the absolute
// numbers; the per-task vs batched ratio is about the per-message broker
// cost, which this point measures without oversubscription artifacts.
const PRODUCERS: usize = 1;
const CONSUMERS: usize = 1;
const QUEUES: usize = 1;
const PAYLOAD: usize = 512;

/// Fig. 6 prototype throughput at the given scale and batch size. Runs take
/// milliseconds to a few hundred milliseconds, where scheduler and allocator
/// noise dominates a single sample — report the best of `reps` runs.
fn broker_tps(tasks: usize, batch_size: usize, reps: usize) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let report = run_prototype(&PrototypeConfig {
                tasks,
                producers: PRODUCERS,
                consumers: CONSUMERS,
                queues: QUEUES,
                payload_bytes: PAYLOAD,
                batch_size,
                memory_sample_interval: None,
                ..Default::default()
            });
            assert_eq!(report.tasks, tasks);
            report.tasks_per_sec
        })
        .fold(0.0, f64::max)
}

/// Durable multi-producer throughput at a given shard count: 4 producers ×
/// 8 consumers over 8 durable queues with persistent messages and the
/// journal on disk. This is the configuration where one shard serializes
/// every append on a single journal mutex — the bottleneck the sharded
/// broker removes. Best of `reps` runs; each run journals into a fresh
/// directory that is removed afterwards.
fn sharded_durable_tps(tasks: usize, shards: usize, reps: usize) -> f64 {
    (0..reps.max(1))
        .map(|rep| {
            let dir = std::env::temp_dir().join(format!(
                "entk-bench-shards-{}-{shards}-{rep}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).expect("create bench journal dir");
            let report = run_prototype(&PrototypeConfig {
                tasks,
                producers: 4,
                consumers: 8,
                queues: 8,
                payload_bytes: PAYLOAD,
                batch_size: 256,
                memory_sample_interval: None,
                broker_shards: shards,
                durable_journal: Some(dir.join("broker.journal")),
            });
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(report.tasks, tasks);
            report.tasks_per_sec
        })
        .fold(0.0, f64::max)
}

struct E2e {
    management_secs: f64,
    trace_management_secs: f64,
    wall_secs: f64,
    /// Median task turnaround (submitted → ended, virtual seconds).
    p50_turnaround_secs: f64,
    /// 99th-percentile task turnaround — the straggler tail. A stale
    /// empty-pull backoff or a lost-task sweep gap shows up here long
    /// before it moves the mean.
    p99_turnaround_secs: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// One AppManager run of `tasks` concurrent sleep tasks on the simulated
/// TestRig with the trace recorder attached, under the batch limit
/// `max_batch` (1 is the per-task path), optionally offering every settled
/// timeline to a [`TraceStore`] (the tail-sampling overhead the trace gate
/// below measures). Returns the run report's management overhead and the
/// one re-derived from the run's own trace, plus the task-turnaround
/// distribution from the unit records.
fn run_e2e(tasks: usize, max_batch: usize, traces: Option<TraceStoreConfig>) -> E2e {
    let wf = entk_apps::synthetic::sleep_workflow(1, 1, tasks, 1.0);
    let start = Instant::now();
    let mut cfg = AppManagerConfig::new(ResourceDescription::sim(PlatformId::TestRig, 4, 4 * 3600))
        .with_exec_manager(ExecManagerConfig { max_batch })
        .with_recorder(Recorder::new())
        .with_run_timeout(TIMEOUT);
    if let Some(traces) = traces {
        cfg = cfg.with_trace_store(Arc::new(TraceStore::new(traces)));
    }
    let mut amgr = AppManager::new(cfg);
    let report = amgr.run(wf).expect("e2e run completes");
    let wall_secs = start.elapsed().as_secs_f64();
    assert!(report.succeeded, "e2e run (max_batch={max_batch}) failed");
    assert_eq!(report.overheads.tasks_done as usize, tasks);
    let mut turnarounds: Vec<f64> = report
        .unit_records
        .iter()
        .filter_map(|r| r.ended_secs.map(|end| end - r.submitted_secs))
        .collect();
    turnarounds.sort_by(f64::total_cmp);
    E2e {
        management_secs: report.overheads.entk_management_secs,
        trace_management_secs: OverheadReport::from_trace(&report.recorder.snapshot())
            .entk_management_secs,
        wall_secs,
        p50_turnaround_secs: percentile(&turnarounds, 0.50),
        p99_turnaround_secs: percentile(&turnarounds, 0.99),
    }
}

/// Wall seconds of one untraced 1×1×`tasks` AppManager run of 1 s sleep
/// tasks, workflow construction excluded. Best of `reps`.
fn wide_wall(tasks: usize, reps: usize) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let wf = entk_apps::synthetic::sleep_workflow(1, 1, tasks, 1.0);
            let cfg = AppManagerConfig::new(ResourceDescription::sim(
                PlatformId::TestRig,
                4,
                1_000_000_000,
            ))
            .with_run_timeout(TIMEOUT);
            let start = Instant::now();
            let report = AppManager::new(cfg).run(wf).expect("wide run completes");
            assert!(report.succeeded, "wide run of {tasks} tasks failed");
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Largest wall(4N) / wall(N) the wide-scaling gate accepts.
const WIDE_RATIO_GATE: f64 = 6.0;

fn main() {
    let args = argv();
    let quick = has_flag(&args, "--quick");
    let batch = flag_num(&args, "--batch", 256usize).max(2);
    let e2e_tasks = flag_num(&args, "--e2e-tasks", if quick { 512usize } else { 2048 });
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_batching.json".into());

    let scales: &[usize] = if quick {
        &[1_000, 10_000, 50_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    // The sweep runs past the old 512 ceiling: the single-lock broker used
    // to regress at 512 once every producer funneled its whole batch through
    // one journal/queue mutex. The sharded broker must hold the curve
    // flat-or-rising through 2048 (gated below).
    let sweep_sizes: &[usize] = if quick {
        &[1, 32, 256, 1024, 2048]
    } else {
        &[1, 8, 32, 128, 256, 512, 1024, 2048]
    };

    println!(
        "# task_throughput: ({PRODUCERS}, {CONSUMERS}, {QUEUES}) prototype, {PAYLOAD} B payloads, \
         batch size {batch}"
    );

    // ---- Broker scaling: per-task vs batched ---------------------------
    broker_tps(1_000, batch, 1); // untimed warmup
    println!(
        "{:<10} {:>16} {:>16} {:>10}",
        "tasks", "per-task t/s", "batched t/s", "speedup"
    );
    let mut scale_rows = Vec::new();
    let mut largest_speedup = 0.0f64;
    let last_scale = *scales.last().expect("at least one scale");
    for &tasks in scales {
        // The headline ratio comes from the largest scale; buy it extra
        // repetitions to push scheduler noise out of both sides.
        let reps = if tasks == last_scale { 5 } else { 3 };
        let per_task_tps = broker_tps(tasks, 1, reps);
        let batched_tps = broker_tps(tasks, batch, reps);
        let speedup = batched_tps / per_task_tps.max(1e-9);
        println!("{tasks:<10} {per_task_tps:>16.0} {batched_tps:>16.0} {speedup:>9.2}x");
        scale_rows.push(format!(
            "    {{\"tasks\": {tasks}, \"per_task_tps\": {per_task_tps:.1}, \
             \"batched_tps\": {batched_tps:.1}, \"speedup\": {speedup:.3}}}"
        ));
        largest_speedup = speedup; // scales ascend; last one is the largest
    }

    // ---- Batch-size sweep at the largest scale -------------------------
    let sweep_tasks = last_scale;
    println!("\n# batch-size sweep at {sweep_tasks} tasks");
    println!("{:<10} {:>16}", "batch", "tasks/s");
    let mut sweep_rows = Vec::new();
    let mut sweep_points: Vec<(usize, f64)> = Vec::new();
    for &b in sweep_sizes {
        let tps = broker_tps(sweep_tasks, b, 3);
        println!("{b:<10} {tps:>16.0}");
        sweep_rows.push(format!("    {{\"batch\": {b}, \"tps\": {tps:.1}}}"));
        sweep_points.push((b, tps));
    }

    // ---- Shard scaling on the durable multi-producer point -------------
    // 4 producers × 8 consumers × 8 durable queues, persistent messages,
    // batch 256. With one shard every producer serializes on one journal;
    // with four shards the 8 queues hash across four independent journal
    // segments.
    let shard_tasks = if quick { 20_000 } else { 100_000 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\n# durable shard scaling at {shard_tasks} tasks (4 producers, 8 queues, {cores} cores)"
    );
    println!("{:<10} {:>16}", "shards", "tasks/s");
    let shard_reps = if quick { 3 } else { 5 };
    let one_shard_tps = sharded_durable_tps(shard_tasks, 1, shard_reps);
    println!("{:<10} {one_shard_tps:>16.0}", 1);
    let four_shard_tps = sharded_durable_tps(shard_tasks, 4, shard_reps);
    println!("{:<10} {four_shard_tps:>16.0}", 4);
    let shard_speedup = four_shard_tps / one_shard_tps.max(1e-9);
    println!("shard speedup (4 vs 1): {shard_speedup:.2}x");

    // ---- End-to-end: Fig. 7 management-overhead decomposition ----------
    println!("\n# e2e AppManager: {e2e_tasks} tasks, batch of one vs default batch limit");
    let default_batch = ExecManagerConfig::default().max_batch;
    let per_task = run_e2e(e2e_tasks, 1, None);
    let batched = run_e2e(e2e_tasks, default_batch, None);
    let mgmt_speedup = per_task.management_secs / batched.management_secs.max(1e-9);
    let trace_speedup = per_task.trace_management_secs / batched.trace_management_secs.max(1e-9);
    println!(
        "per-task: management {:8.4} s   trace-derived {:8.4} s   wall {:6.2} s",
        per_task.management_secs, per_task.trace_management_secs, per_task.wall_secs
    );
    println!(
        "batched : management {:8.4} s   trace-derived {:8.4} s   wall {:6.2} s",
        batched.management_secs, batched.trace_management_secs, batched.wall_secs
    );
    println!(
        "management overhead reduction: {mgmt_speedup:.2}x (trace-derived {trace_speedup:.2}x)"
    );
    println!(
        "batched turnaround: p50 {:.2} s   p99 {:.2} s (virtual)",
        batched.p50_turnaround_secs, batched.p99_turnaround_secs
    );

    // ---- Trace-capture overhead: 1% tail sampling vs disabled ----------
    // The tentpole claim: trace capture at the production sampling rate is
    // free to within measurement noise. Best-of-reps walls on identical
    // batched runs, one side offering every settled timeline to a
    // TraceStore at 1% tail sampling, the other with capture disabled.
    println!("\n# trace-capture overhead: batched e2e, 1% tail sampling vs disabled");
    let trace_reps = 3;
    let best_wall = |traces: Option<TraceStoreConfig>| -> f64 {
        (0..trace_reps)
            .map(|_| run_e2e(e2e_tasks, default_batch, traces.clone()).wall_secs)
            .fold(f64::INFINITY, f64::min)
    };
    let wall_plain = best_wall(None);
    let wall_traced = best_wall(Some(TraceStoreConfig {
        sample_permille: 10,
        ..TraceStoreConfig::default()
    }));
    let tps_plain = e2e_tasks as f64 / wall_plain.max(1e-9);
    let tps_traced = e2e_tasks as f64 / wall_traced.max(1e-9);
    let trace_overhead_pct = (wall_traced / wall_plain.max(1e-9) - 1.0) * 100.0;
    println!(
        "disabled: {tps_plain:8.0} t/s   1% sampled: {tps_traced:8.0} t/s   \
         overhead {trace_overhead_pct:+.2}%"
    );

    // ---- Wide scaling: one stage of N tasks ----------------------------
    let wide_sizes: &[usize] = if quick {
        &[8_192, 32_768]
    } else {
        &[8_192, 32_768, 131_072]
    };
    println!("\n# wide scaling: untraced 1x1xN AppManager runs");
    println!("{:<10} {:>12} {:>12}", "tasks", "wall s", "x prev");
    let mut wide_points: Vec<(usize, f64)> = Vec::new();
    for &n in wide_sizes {
        // Small points are sub-second: best of 2 damps scheduler noise.
        let wall = wide_wall(n, if n < 100_000 { 2 } else { 1 });
        let ratio = wide_points.last().map(|&(_, prev)| wall / prev.max(1e-9));
        println!(
            "{n:<10} {wall:>12.3} {:>12}",
            ratio.map_or("-".into(), |r| format!("{r:.2}"))
        );
        wide_points.push((n, wall));
    }
    let wide_max_ratio = wide_points
        .windows(2)
        .map(|w| w[1].1 / w[0].1.max(1e-9))
        .fold(0.0, f64::max);
    let wide_rows: Vec<String> = wide_points
        .iter()
        .map(|(n, w)| format!("    {{\"tasks\": {n}, \"wall_secs\": {w:.3}}}"))
        .collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"host\": {{\"cores\": {}, \"broker_shards\": {}}},\n",
            "  \"producers\": {}, \"consumers\": {}, \"queues\": {}, \"payload_bytes\": {},\n",
            "  \"batch_size\": {},\n",
            "  \"scales\": [\n{}\n  ],\n",
            "  \"sweep\": {{\"tasks\": {}, \"points\": [\n{}\n  ]}},\n",
            "  \"shard_scaling\": {{\"tasks\": {}, \"producers\": 4, \"consumers\": 8, \
             \"queues\": 8, \"batch\": 256, \"durable\": true, \"cores\": {}, \
             \"one_shard_tps\": {:.1}, \"four_shard_tps\": {:.1}, \"speedup\": {:.3}}},\n",
            "  \"e2e\": {{\n",
            "    \"tasks\": {},\n",
            "    \"per_task\": {{\"management_secs\": {:.4}, \"trace_management_secs\": {:.4}, \"wall_secs\": {:.3}}},\n",
            "    \"batched\": {{\"management_secs\": {:.4}, \"trace_management_secs\": {:.4}, \"wall_secs\": {:.3}, \"p50_turnaround_secs\": {:.3}, \"p99_turnaround_secs\": {:.3}}},\n",
            "    \"management_speedup\": {:.3},\n",
            "    \"trace_management_speedup\": {:.3}\n",
            "  }},\n",
            "  \"trace_overhead\": {{\"sample_permille\": 10, \"tps_disabled\": {:.1}, \
             \"tps_sampled\": {:.1}, \"overhead_pct\": {:.3}}},\n",
            "  \"wide_scaling\": {{\"shape\": \"1x1xN\", \"points\": [\n{}\n  ], \
             \"max_ratio_per_4x\": {:.3}, \"gate\": {:.1}}},\n",
            "  \"largest_scale_speedup\": {:.3}\n",
            "}}\n"
        ),
        cores,
        cores.min(8),
        PRODUCERS,
        CONSUMERS,
        QUEUES,
        PAYLOAD,
        batch,
        scale_rows.join(",\n"),
        sweep_tasks,
        sweep_rows.join(",\n"),
        shard_tasks,
        cores,
        one_shard_tps,
        four_shard_tps,
        shard_speedup,
        e2e_tasks,
        per_task.management_secs,
        per_task.trace_management_secs,
        per_task.wall_secs,
        batched.management_secs,
        batched.trace_management_secs,
        batched.wall_secs,
        batched.p50_turnaround_secs,
        batched.p99_turnaround_secs,
        mgmt_speedup,
        trace_speedup,
        tps_plain,
        tps_traced,
        trace_overhead_pct,
        wide_rows.join(",\n"),
        wide_max_ratio,
        WIDE_RATIO_GATE,
        largest_speedup,
    );
    let mut f = std::fs::File::create(&out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output");
    println!("wrote {out}");

    // Batch-sweep regression gate: past batch 256 the curve must be
    // monotone-or-flat — no point may fall more than 5% below its
    // predecessor. This is the gate that catches the batch-512 cliff the
    // single-lock broker used to hit (all producers convoying on one
    // journal mutex once batches got large enough to hold it for the whole
    // append run).
    for pair in sweep_points.windows(2) {
        let ((prev_b, prev_tps), (b, tps)) = (pair[0], pair[1]);
        if prev_b < 256 {
            continue;
        }
        assert!(
            tps >= 0.95 * prev_tps,
            "batch sweep regressed past 256: batch {b} ran {tps:.0} t/s, \
             more than 5% below batch {prev_b} at {prev_tps:.0} t/s"
        );
    }

    // Shard-scaling gate: on the durable multi-producer point, four shards
    // must clear 3x one shard — but parallel speedup needs parallel
    // hardware, so the 3x bar only applies to a full run on a machine with
    // at least 4 cores. Quick mode and starved runners (shared CI cores,
    // single-core containers) get a loss-guard instead: sharding must not
    // tank throughput even when it cannot help.
    let shard_floor = if quick || cores < 4 { 0.7 } else { 3.0 };
    assert!(
        shard_speedup >= shard_floor,
        "4-shard durable broker must be >={shard_floor}x the 1-shard throughput \
         (got {shard_speedup:.2}x: {four_shard_tps:.0} vs {one_shard_tps:.0} t/s)"
    );

    // Quick mode is a CI trajectory smoke at reduced scale on shared
    // runners; the full run must meet the 3x bar at 100k tasks.
    let tps_floor = if quick { 2.0 } else { 3.0 };
    assert!(
        largest_speedup >= tps_floor,
        "batched broker path must be >={tps_floor}x faster than per-task at {sweep_tasks} tasks \
         (got {largest_speedup:.2}x)"
    );
    assert!(
        mgmt_speedup > 1.0,
        "batched path must reduce e2e management overhead \
         (per-task {:.4} s vs batched {:.4} s)",
        per_task.management_secs,
        batched.management_secs
    );
    // Trace-overhead gate: capture at the production 1% sampling rate must
    // cost under 3% of batched e2e throughput. Best-of-reps walls damp
    // scheduler noise; the small absolute slack keeps sub-second quick runs
    // from flaking on timer granularity without loosening the full-scale
    // bar.
    assert!(
        wall_traced <= wall_plain * 1.03 + 0.05,
        "1% trace sampling costs more than 3% of batched e2e throughput \
         ({tps_traced:.0} vs {tps_plain:.0} t/s, {trace_overhead_pct:+.2}%)"
    );
    // Linearity gate: a 4x wider stage may cost at most 6x the wall time.
    assert!(
        wide_max_ratio <= WIDE_RATIO_GATE,
        "1x1xN wall time grows superlinearly: {wide_max_ratio:.2}x per 4x tasks \
         (gate {WIDE_RATIO_GATE}x, linear 4x): {wide_points:?}"
    );
    // Tail-latency guard: under FIFO queueing of uniform tasks the
    // turnaround distribution is roughly linear, so the straggler tail must
    // stay within a small multiple of the median. A stale empty-pull
    // backoff window (or any last-task settlement gap) blows p99 out long
    // before it moves the mean.
    assert!(
        batched.p99_turnaround_secs <= 3.0 * batched.p50_turnaround_secs + 5.0,
        "p99 task turnaround ({:.2} s) is a straggler tail far beyond the median ({:.2} s)",
        batched.p99_turnaround_secs,
        batched.p50_turnaround_secs
    );
}
