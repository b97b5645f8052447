//! Per-layer probes: one layer at a time, timed from here around calls into
//! its public functions, on the inputs the workloads generate. Each value is
//! the median of a few batches. They run in the traced pass of every
//! workload, so every run reports every layer; the README says which
//! end-to-end metric on which workload each is expected to move.

use crate::http;
use crate::spans::Spans;
use crate::stats::{median, Class, Mix, Rng};
use crate::surface::{
    self, Db, HopMean, Mq, Pool, Rts, Service, ServiceOptions, Sim, SubJournal, Tracing,
};
use crate::workloads::{class_spec, start_service, wire_request};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);
const PAYLOAD: [u8; 512] = [7; 512];
const BATCH: usize = 256;

/// Workflows in flight when the recovery probe kills its service.
const RECOVER_INFLIGHT: usize = 128;

/// Sequential small workflows sent by each wire probe.
const WIRE_REQUESTS: u64 = 16;

/// A probe's reading: metric name, unit, value.
pub type Reading = (&'static str, &'static str, f64);

type Probe<T = f64> = Result<T, String>;

/// Run `batches` batches that each take `N` readings at once; returns the
/// median of each reading.
fn medians_of<const N: usize>(
    batches: usize,
    batch: impl FnMut() -> Probe<[f64; N]>,
) -> Probe<[f64; N]> {
    let rows: Vec<[f64; N]> = std::iter::repeat_with(batch)
        .take(batches)
        .collect::<Result<_, _>>()?;
    Ok(std::array::from_fn(|i| {
        median(&rows.iter().map(|row| row[i]).collect::<Vec<_>>())
    }))
}

fn median_of(batches: usize, mut batch: impl FnMut() -> Probe) -> Probe {
    medians_of(batches, || Ok([batch()?])).map(|[value]| value)
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn ensure(ok: bool, what: &str) -> Probe<()> {
    ok.then_some(()).ok_or_else(|| what.to_string())
}

/// Everything the probes report. A probe that fails its own output check
/// reads 0 and adds a line to `failures`.
pub struct Readings {
    pub values: Vec<Reading>,
    /// Wire hops (`wire_recv` … `enqueue`) from the traced wire probe.
    pub wire_hops: Vec<HopMean>,
    /// Program-reported management overhead of one small workflow, from the
    /// reports of the in-process wire probe.
    pub small_mgmt_overhead_s: Option<f64>,
    pub failures: Vec<String>,
}

pub fn run_all(seed: u64, work_dir: &Path) -> Readings {
    let mut out = Readings {
        values: Vec::new(),
        wire_hops: Vec::new(),
        small_mgmt_overhead_s: None,
        failures: Vec::new(),
    };
    let dir = work_dir.join("probes");
    let _ = std::fs::create_dir_all(&dir);
    codecs(seed, &mut out);
    journal(seed, &dir, &mut out);
    mq(&dir, &mut out);
    rts(seed, &mut out);
    sim(seed, &mut out);
    core(seed, &mut out);
    wire(seed, &dir, &mut out);
    recovery(seed, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

impl Readings {
    /// Record the readings one measurement produced, or 0 for each of them
    /// and one failure line if it failed.
    fn put_all<const N: usize>(
        &mut self,
        names: [(&'static str, &'static str); N],
        values: Probe<[f64; N]>,
    ) {
        if let Err(why) = &values {
            self.failures.push(format!("{}: {why}", names[0].0));
        }
        let values = values.unwrap_or([0.0; N]);
        for ((name, unit), value) in names.into_iter().zip(values) {
            self.values.push((name, unit, value));
        }
    }

    fn put(&mut self, name: &'static str, unit: &'static str, value: Probe) {
        self.put_all([(name, unit)], value.map(|v| [v]));
    }
}

/// One block of the service mix — 8 small and 2 large — as labelled specs.
fn mix_block(seed: u64) -> Vec<surface::Spec> {
    let mut rng = Rng::new(seed, 7);
    Mix::new(seed, 7)
        .take(10)
        .enumerate()
        .map(|(i, class)| class_spec(&format!("probe{i}"), class, &mut rng))
        .collect()
}

// ---- entk-gateway / entk-service / entk-observe codecs ---------------------

fn codecs(seed: u64, out: &mut Readings) {
    const ROUNDS: usize = 20;
    let specs = mix_block(seed);
    let jsons: Vec<String> = specs.iter().map(surface::spec_to_json).collect();
    let bodies: Vec<String> = jsons
        .iter()
        .map(|j| format!("{{\"tenant\":\"probe\",\"workflow\":{j}}}"))
        .collect();
    let per_call_us = |t: Instant| secs(t) * 1e6 / (ROUNDS * specs.len()) as f64;

    out.put(
        "gateway.parse_submit_us",
        "us",
        median_of(5, || {
            let t = Instant::now();
            for body in bodies.iter().cycle().take(ROUNDS * bodies.len()) {
                black_box(surface::parse_submit(black_box(body))?);
            }
            Ok(per_call_us(t))
        }),
    );
    out.put(
        "service.spec_from_json_us",
        "us",
        median_of(5, || {
            let t = Instant::now();
            for json in jsons.iter().cycle().take(ROUNDS * jsons.len()) {
                black_box(surface::spec_from_json(black_box(json))?);
            }
            Ok(per_call_us(t))
        }),
    );
    out.put(
        "service.spec_to_json_us",
        "us",
        median_of(5, || {
            let t = Instant::now();
            for spec in specs.iter().cycle().take(ROUNDS * specs.len()) {
                black_box(surface::spec_to_json(black_box(spec)));
            }
            Ok(per_call_us(t))
        }),
    );
    out.put(
        "service.spec_build_us",
        "us",
        median_of(5, || {
            let t = Instant::now();
            for spec in specs.iter().cycle().take(ROUNDS * specs.len()) {
                black_box(surface::spec_build(black_box(spec))?);
            }
            Ok(per_call_us(t))
        }),
    );

    const TRIPS: usize = 10_000;
    let ctx = surface::trace_ctx(8);
    out.put(
        "observe.trace_codec_ns",
        "ns",
        median_of(5, || {
            let t = Instant::now();
            for _ in 0..TRIPS {
                ensure(
                    surface::trace_roundtrip(black_box(&ctx)) == 8,
                    "hops lost in the round trip",
                )?;
            }
            Ok(secs(t) * 1e9 / TRIPS as f64)
        }),
    );
}

// ---- entk-service journal --------------------------------------------------

fn journal(seed: u64, dir: &Path, out: &mut Readings) {
    const RECORDS: u64 = 512;
    let path = dir.join("probe-service.journal");
    let spec_json = surface::spec_to_json(&class_spec("j", Class::Small, &mut Rng::new(seed, 8)));
    out.put_all(
        [
            ("service.journal_append_us", "us"),
            ("service.journal_scan_ms", "ms"),
        ],
        medians_of(5, || {
            let _ = std::fs::remove_file(&path);
            let journal = SubJournal::open(&path)?;
            let t = Instant::now();
            for id in 1..=RECORDS {
                journal.append_submitted(id, "probe", &spec_json)?;
            }
            let per_append_us = secs(t) * 1e6 / RECORDS as f64;
            drop(journal);
            let t = Instant::now();
            let replayed = SubJournal::scan(&path)?;
            let scan_ms = secs(t) * 1e3;
            ensure(replayed == RECORDS as usize, "scan lost submissions")?;
            Ok([per_append_us, scan_ms])
        }),
    );
}

// ---- entk-mq ---------------------------------------------------------------

/// `cycles` × (publish_batch → get_batch → ack_multiple) on one thread;
/// returns messages per second.
fn mq_cycles(mq: &Mq, queue: &str, cycles: usize, batch: usize, persistent: bool) -> Probe {
    let t = Instant::now();
    for _ in 0..cycles {
        ensure(
            mq.publish_batch(queue, batch, &PAYLOAD, persistent),
            "publish failed",
        )?;
        let (got, tag) = mq.get_batch(queue, batch, TIMEOUT);
        ensure(got == batch, "short batch")?;
        ensure(mq.ack_up_to(queue, tag) == batch, "short ack")?;
    }
    Ok((cycles * batch) as f64 / secs(t))
}

fn mq(dir: &Path, out: &mut Readings) {
    out.put_all(
        [
            ("mq.cycle_batch256_mps", "1/s"),
            ("mq.cycle_batch1_mps", "1/s"),
            ("mq.wakeup_us", "us"),
        ],
        Mq::open(None).and_then(|mq| {
            mq.declare("probe", false)?;
            let batched = median_of(5, || mq_cycles(&mq, "probe", 64, BATCH, false));
            let single = median_of(5, || mq_cycles(&mq, "probe", 4096, 1, false));
            let wakeup = mq_wakeup(&mq);
            mq.close();
            Ok([batched?, single?, wakeup?])
        }),
    );

    let journal = dir.join("mq").join("broker.journal");
    let fresh = || -> Probe<Mq> {
        let _ = std::fs::remove_dir_all(dir.join("mq"));
        std::fs::create_dir_all(dir.join("mq")).map_err(|e| e.to_string())?;
        let mq = Mq::open(Some(&journal))?;
        mq.declare("probe", true)?;
        Ok(mq)
    };
    out.put(
        "mq.durable_cycle_batch256_mps",
        "1/s",
        fresh().and_then(|mq| {
            let rate = median_of(5, || mq_cycles(&mq, "probe", 64, BATCH, true));
            mq.close();
            rate
        }),
    );

    // Broker recovery over `n` journaled messages, the first half acked.
    // It is quadratic in `n` today — 100 k messages take about 21 s — so the
    // probe journals 16 384 and reports the growth from 8 192 next to it:
    // 2.0 is linear.
    const JOURNALED: usize = 64 * BATCH;
    let recover = |n: usize| -> Probe {
        let mq = fresh()?;
        for _ in 0..n / BATCH {
            ensure(
                mq.publish_batch("probe", BATCH, &PAYLOAD, true),
                "publish failed",
            )?;
        }
        for _ in 0..n / BATCH / 2 {
            let (got, tag) = mq.get_batch("probe", BATCH, TIMEOUT);
            ensure(
                got == BATCH && mq.ack_up_to("probe", tag) == BATCH,
                "short ack",
            )?;
        }
        mq.close();
        let t = Instant::now();
        let recovered = Mq::recover(&journal)?;
        let ms = secs(t) * 1e3;
        let depth = recovered.depth("probe");
        recovered.close();
        ensure(
            depth == n / 2,
            &format!("recovered {depth} of {} messages", n / 2),
        )?;
        Ok(ms)
    };
    out.put_all(
        [
            ("mq.recover_ms", "ms"),
            ("mq.recover_scaling_ratio", "ratio"),
        ],
        median_of(3, || recover(JOURNALED)).and_then(|full| {
            let half = median_of(3, || recover(JOURNALED / 2))?;
            Ok([full, full / half])
        }),
    );
}

/// Publish on this thread → a `get_timeout` blocked on another returns.
fn mq_wakeup(mq: &Mq) -> Probe {
    const WAKEUPS: usize = 50;
    mq.declare("wakeup", false)?;
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (woke_tx, woke_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..WAKEUPS {
                if ready_tx.send(()).is_err() {
                    return;
                }
                let woke = mq.get_blocking("wakeup", TIMEOUT);
                if woke_tx.send(woke).is_err() {
                    return;
                }
            }
        });
        let mut samples = Vec::with_capacity(WAKEUPS);
        for _ in 0..WAKEUPS {
            ready_rx.recv().map_err(|e| e.to_string())?;
            // Give the consumer time to block; it announced itself just
            // before calling `get_timeout`.
            std::thread::sleep(Duration::from_micros(300));
            let published = Instant::now();
            ensure(
                mq.publish_batch("wakeup", 1, &PAYLOAD, false),
                "publish failed",
            )?;
            let woke = woke_rx
                .recv()
                .map_err(|e| e.to_string())?
                .ok_or("blocked get timed out")?;
            samples.push(woke.saturating_duration_since(published).as_secs_f64() * 1e6);
        }
        Ok(median(&samples))
    })
}

// ---- rp-rts ----------------------------------------------------------------

fn rts(seed: u64, out: &mut Readings) {
    const OPS: u64 = 64;
    let docs = OPS * BATCH as u64;
    let db = Db::open();
    let mut next = 0;
    out.put_all(
        [
            ("rts.db_insert_ns_per_doc", "ns"),
            ("rts.db_pull_ns_per_doc", "ns"),
            ("rts.db_update_ns_per_doc", "ns"),
        ],
        medians_of(5, || {
            let first = next;
            next += docs;
            let ns_per_doc = |t: Instant| secs(t) * 1e9 / docs as f64;
            let t = Instant::now();
            for op in 0..OPS {
                db.insert(first + op * BATCH as u64, BATCH as u64);
            }
            let insert = ns_per_doc(t);
            let t = Instant::now();
            let pulled: usize = (0..OPS).map(|_| db.pull(BATCH)).sum();
            let pull = ns_per_doc(t);
            ensure(pulled as u64 == docs, "pull came short")?;
            let t = Instant::now();
            for op in 0..OPS {
                db.update(first + op * BATCH as u64, BATCH as u64);
            }
            Ok([insert, pull, ns_per_doc(t)])
        }),
    );

    const UNITS: usize = 4096;
    out.put_all(
        [("rts.pilot_boot_ms", "ms"), ("rts.units_per_s", "1/s")],
        medians_of(3, || {
            let mut rts = Rts::start(seed);
            let t = Instant::now();
            let ready = rts.boot_pilot(TIMEOUT);
            let boot_ms = secs(t) * 1e3;
            ensure(ready, "pilot never became ready")?;
            let t = Instant::now();
            let done = rts.run_units(UNITS, 1.0, TIMEOUT);
            let rate = UNITS as f64 / secs(t);
            rts.teardown();
            ensure(done == UNITS, &format!("{done} of {UNITS} units done"))?;
            Ok([boot_ms, rate])
        }),
    );

    const LEASES: usize = 200;
    let pool = Pool::warm(seed);
    out.put(
        "rts.pool_lease_us",
        "us",
        median_of(5, || {
            let t = Instant::now();
            for _ in 0..LEASES {
                ensure(pool.lease_release(), "lease was cold")?;
            }
            Ok(secs(t) * 1e6 / LEASES as f64)
        }),
    );
    pool.drain();
}

// ---- hpc-sim ---------------------------------------------------------------

fn sim(seed: u64, out: &mut Readings) {
    const TASKS: usize = 32_768;
    out.put_all(
        [("sim.step_ms", "ms"), ("sim.events_per_s", "1/s")],
        Sim::start(seed, TIMEOUT)
            .ok_or("job never became ready".to_string())
            .and_then(|sim| {
                let step_ms = median_of(20, || {
                    let t = Instant::now();
                    ensure(sim.run_tasks(1, 1, TIMEOUT) == 1, "task did not complete")?;
                    Ok(secs(t) * 1e3)
                })?;
                // A start and an end event per task.
                let events_per_s = median_of(3, || {
                    let t = Instant::now();
                    let ok = sim.run_tasks(TASKS, 1, TIMEOUT);
                    let rate = (2 * TASKS) as f64 / secs(t);
                    ensure(ok == TASKS, &format!("{ok} of {TASKS} tasks completed"))?;
                    Ok(rate)
                })?;
                Ok([step_ms, events_per_s])
            }),
    );
}

// ---- entk-core -------------------------------------------------------------

/// Wall of one standalone run of `pipelines` × `stages` × `tasks`, seconds.
fn run_wall(shape: (usize, usize, usize), seed: u64) -> Probe {
    let (pipelines, stages, tasks) = shape;
    let workflow = surface::build_workflow(pipelines, stages, tasks, &|_, _| 1.0)?;
    let t = Instant::now();
    let run = surface::run_workflow(workflow, seed, TIMEOUT, None)?;
    let wall = secs(t);
    let total = (pipelines * stages * tasks) as u64;
    ensure(
        run.succeeded && run.tasks_done == total,
        "run settled wrongly",
    )?;
    Ok(wall)
}

fn core(seed: u64, out: &mut Readings) {
    const STAGES: usize = 256;
    const WIDE: usize = 32_768;
    out.put(
        "core.run_1task_ms",
        "ms",
        median_of(5, || Ok(run_wall((1, 1, 1), seed)? * 1e3)),
    );
    out.put(
        "core.stage_hop_ms",
        "ms",
        median_of(3, || {
            Ok(run_wall((1, STAGES, 1), seed)? * 1e3 / STAGES as f64)
        }),
    );
    out.put(
        "core.workflow_build_us_per_task",
        "us",
        median_of(3, || {
            let t = Instant::now();
            black_box(surface::build_workflow(1, 1, WIDE, &|_, _| 1.0)?);
            Ok(secs(t) * 1e6 / WIDE as f64)
        }),
    );
    // 2.0 is linear in the task count; one run each, the pair costs ~6 s.
    out.put(
        "core.wide_scaling_ratio",
        "ratio",
        run_wall((1, 1, WIDE), seed).and_then(|full| Ok(full / run_wall((1, 1, WIDE / 2), seed)?)),
    );
}

// ---- the wire, end to end, one request at a time ---------------------------

fn wire(seed: u64, dir: &Path, out: &mut Readings) {
    let spans = Spans::new(false);
    let journal_dir = dir.join("wire");
    let opts = |tracing| ServiceOptions {
        journal_dir: Some(&journal_dir),
        max_pending: None,
        tracing,
        seed,
    };
    let small = |i: u64, rng: &mut Rng| class_spec(&format!("wp{i}"), Class::Small, rng);

    // Untraced stack: in-process turnaround, then the bare HTTP round trips.
    let untraced = start_service(opts(None)).and_then(|service| {
        let client = service.client();
        let mut rng = Rng::new(seed, 9);
        let (mut submit_us, mut turnaround_ms, mut mgmt) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..WIRE_REQUESTS {
            let spec = small(i, &mut rng);
            let t = Instant::now();
            let id = client.submit("probe", spec)?;
            submit_us.push(secs(t) * 1e6);
            let settled = client.wait(id, TIMEOUT).filter(|s| s.success);
            turnaround_ms.push(secs(t) * 1e3);
            mgmt.extend(
                settled
                    .ok_or("in-process workflow did not complete")?
                    .mgmt_overhead_s,
            );
        }
        let gateway = service.gateway(false).map_err(|e| e.to_string())?;
        let rtt = |path: &str| -> Probe {
            median_of(20, || {
                let t = Instant::now();
                let (status, _) =
                    http::exchange(gateway.addr(), "GET", path, None, &spans, None, 0)
                        .map_err(|e| e.to_string())?;
                let ms = secs(t) * 1e3;
                ensure(status == 200, &format!("GET {path} answered {status}"))?;
                Ok(ms)
            })
        };
        // The first warm-up workflow: settled, its result already taken.
        let status_rtt = rtt("/v1/workflows/sub.00001");
        let health_rtt = rtt("/healthz");
        gateway.stop();
        service.shutdown();
        out.small_mgmt_overhead_s = Some(median(&mgmt));
        Ok([
            median(&submit_us),
            median(&turnaround_ms),
            status_rtt?,
            health_rtt?,
        ])
    });
    out.put_all(
        [
            ("service.submit_inproc_us", "us"),
            ("service.inproc_turnaround_ms", "ms"),
            ("gateway.status_rtt_ms", "ms"),
            ("observe.http_rtt_ms", "ms"),
        ],
        untraced,
    );

    // Traced stack: the same small workflow over the wire, for the hops the
    // in-process workloads never take.
    let tracing = Tracing::on();
    let traced = start_service(opts(Some(&tracing))).and_then(|service| {
        let gateway = service.gateway(true).map_err(|e| e.to_string())?;
        let mut rng = Rng::new(seed, 9);
        let sent = (0..WIRE_REQUESTS).try_for_each(|i| {
            let body = format!(
                "{{\"tenant\":\"probe\",\"workflow\":{}}}",
                surface::spec_to_json(&small(i, &mut rng))
            );
            wire_request(gateway.addr(), &body, Class::Small, None, i, &spans).map(|_| ())
        });
        gateway.stop();
        service.shutdown();
        sent
    });
    match traced {
        Ok(()) => out.wire_hops = tracing.hop_means(),
        Err(why) => out.failures.push(format!("wire hop probe: {why}")),
    }
}

// ---- kill and recover -------------------------------------------------------

fn recovery(seed: u64, dir: &Path, out: &mut Readings) {
    let journal_dir = dir.join("recovery");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let opts = ServiceOptions {
        journal_dir: Some(&journal_dir),
        max_pending: Some(2 * RECOVER_INFLIGHT),
        tracing: None,
        seed,
    };
    let timed = (|| -> Probe<[f64; 2]> {
        let service = Service::start(opts);
        let client = service.client();
        let mut rng = Rng::new(seed, 10);
        let ids: Result<Vec<u64>, String> = (0..RECOVER_INFLIGHT)
            .map(|i| {
                client.submit(
                    "probe",
                    class_spec(&format!("rp{i}"), Class::Small, &mut rng),
                )
            })
            .collect();
        let ids = ids?;
        drop(client);
        service.kill();
        let t = Instant::now();
        let recovered = Service::recover(opts)?;
        let recover_ms = secs(t) * 1e3;
        let client = recovered.client();
        let all_done = ids
            .iter()
            .all(|id| client.wait(*id, TIMEOUT).is_some_and(|s| s.success));
        let resettle_s = secs(t);
        drop(client);
        let totals = recovered.shutdown();
        ensure(all_done, "a workflow did not complete after recovery")?;
        ensure(
            totals.completed == RECOVER_INFLIGHT as u64 && totals.failed == 0,
            &format!("counters after recovery: {totals:?}"),
        )?;
        Ok([recover_ms, resettle_s])
    })();
    out.put_all(
        [("service.recover_ms", "ms"), ("service.resettle_s", "s")],
        timed,
    );
}
