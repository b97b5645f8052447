//! The local execution backend: units run as real Rust work on a thread
//! pool.
//!
//! Used for workloads whose *results* matter (the AnEn use case computes
//! actual analog ensembles via [`crate::Executable::Compute`] closures) and
//! for end-to-end integration tests. Sleep-style executables sleep in real
//! time scaled by `time_scale` so tests stay fast.

use crate::api::{
    PilotEnd, RtsDown, UnitCallback, UnitDescription, UnitId, UnitOutcome, UnitState,
};
use crate::executable::Executable;
use crate::profile::{UnitCounters, UnitRecord};
use crossbeam::channel::{unbounded, Receiver, Sender};
use entk_observe::{components, Recorder};
use hpc_sim::IdMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Local backend configuration.
#[derive(Debug, Clone)]
pub struct LocalRuntimeConfig {
    /// Worker threads (concurrent units).
    pub workers: usize,
    /// Real seconds slept per nominal second for time-based executables.
    /// 0.0 turns sleeps into no-ops.
    pub time_scale: f64,
    /// If set, unit submit/start/end events enter the trace.
    pub recorder: Option<Recorder>,
}

impl Default for LocalRuntimeConfig {
    fn default() -> Self {
        LocalRuntimeConfig {
            workers: 4,
            time_scale: 0.0,
            recorder: None,
        }
    }
}

struct State {
    records: IdMap<UnitId, UnitRecord>,
    next_unit: u64,
}

/// The local thread-pool runtime.
pub struct LocalRuntime {
    work_tx: Mutex<Option<Sender<(UnitId, UnitDescription)>>>,
    callbacks_rx: Receiver<UnitCallback>,
    /// The local "pilot" is the machine and never ends, so nothing is ever
    /// sent; dropping the sender on `kill`/`teardown` announces the death.
    pilot_end_tx: Mutex<Option<Sender<PilotEnd>>>,
    pilot_ends_rx: Receiver<PilotEnd>,
    state: Arc<Mutex<State>>,
    alive: Arc<AtomicBool>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    epoch: Instant,
    recorder: Recorder,
    counters: UnitCounters,
}

impl LocalRuntime {
    /// Start the pool.
    pub fn start(config: LocalRuntimeConfig) -> Self {
        let (work_tx, work_rx) = unbounded::<(UnitId, UnitDescription)>();
        let (cb_tx, cb_rx) = unbounded();
        let (end_tx, end_rx) = unbounded();
        let state = Arc::new(Mutex::new(State {
            records: IdMap::default(),
            next_unit: 1,
        }));
        let alive = Arc::new(AtomicBool::new(true));
        let epoch = Instant::now();
        let recorder = config.recorder.unwrap_or_else(Recorder::disabled);
        let counters = UnitCounters::new(&recorder);
        let mut handles = Vec::new();
        for w in 0..config.workers.max(1) {
            let work_rx = work_rx.clone();
            let cb_tx = cb_tx.clone();
            let state = Arc::clone(&state);
            let alive = Arc::clone(&alive);
            let time_scale = config.time_scale;
            let recorder = recorder.clone();
            let counters = counters.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("local-exec-{w}"))
                    .spawn(move || {
                        worker_loop(
                            work_rx, cb_tx, state, alive, time_scale, epoch, recorder, counters,
                        )
                    })
                    .expect("spawn local worker"),
            );
        }
        LocalRuntime {
            work_tx: Mutex::new(Some(work_tx)),
            callbacks_rx: cb_rx,
            pilot_end_tx: Mutex::new(Some(end_tx)),
            pilot_ends_rx: end_rx,
            state,
            alive,
            workers: Mutex::new(handles),
            epoch,
            recorder,
            counters,
        }
    }

    /// Whether the runtime is accepting and executing work.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Callback stream: one terminal callback per unit.
    pub fn callbacks(&self) -> &Receiver<UnitCallback> {
        &self.callbacks_rx
    }

    /// Pilot ends: none is ever sent, and the stream disconnects when the
    /// runtime is killed or torn down. The workers hold the callback
    /// senders, so the callback stream stays connected after a kill.
    pub fn pilot_ends(&self) -> &Receiver<PilotEnd> {
        &self.pilot_ends_rx
    }

    /// Seconds since the runtime started (the local timeline).
    pub fn now_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Submit units for execution; returns their ids.
    pub fn submit_units(&self, descs: Vec<UnitDescription>) -> Result<Vec<UnitId>, RtsDown> {
        if !self.is_alive() {
            return Err(RtsDown);
        }
        let now = self.now_secs();
        let mut ids = Vec::with_capacity(descs.len());
        // The span's histogram (span.rts.submit_units) is the agent spawn
        // throughput measure: batch size over batch duration.
        let span = self
            .recorder
            .span(components::RTS, "submit_units")
            .with_payload(descs.len());
        let tx_guard = self.work_tx.lock();
        let tx = tx_guard.as_ref().expect("alive runtime has sender");
        let mut st = self.state.lock();
        for desc in descs {
            let id = UnitId(st.next_unit);
            st.next_unit += 1;
            st.records
                .insert(id, UnitRecord::submitted(id, desc.tag.clone(), now));
            self.recorder
                .record(components::RTS, "unit_submitted", desc.tag.as_str(), "");
            self.counters.submitted.incr();
            ids.push(id);
            tx.send((id, desc)).expect("workers alive");
        }
        drop(st);
        drop(tx_guard);
        drop(span);
        Ok(ids)
    }

    /// Abrupt failure: workers stop picking up units; in-flight results are
    /// discarded.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        self.pilot_end_tx.lock().take();
    }

    /// Graceful teardown: close the queue, join workers. Returns wall time.
    pub fn teardown(&self) -> Duration {
        let t0 = Instant::now();
        self.work_tx.lock().take(); // close the channel so workers drain and exit
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
        self.alive.store(false, Ordering::Release);
        self.pilot_end_tx.lock().take();
        t0.elapsed()
    }

    /// Snapshot of all unit records.
    pub fn records(&self) -> Vec<UnitRecord> {
        self.state.lock().records.values().cloned().collect()
    }

    /// Every unit record, with the units that have ended forgotten (see
    /// `SimRuntime::take_records`).
    pub fn take_records(&self) -> Vec<UnitRecord> {
        let mut st = self.state.lock();
        let records = st.records.values().cloned().collect();
        st.records.retain(|_, r| r.outcome.is_none());
        records
    }

    /// Unit records this runtime holds.
    pub fn resident_units(&self) -> usize {
        self.state.lock().records.len()
    }
}

impl Drop for LocalRuntime {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    work_rx: Receiver<(UnitId, UnitDescription)>,
    cb_tx: Sender<UnitCallback>,
    state: Arc<Mutex<State>>,
    alive: Arc<AtomicBool>,
    time_scale: f64,
    epoch: Instant,
    recorder: Recorder,
    counters: UnitCounters,
) {
    while let Ok((id, mut desc)) = work_rx.recv() {
        if !alive.load(Ordering::Acquire) {
            continue; // killed: drain without executing
        }
        let started = epoch.elapsed().as_secs_f64();
        {
            let mut st = state.lock();
            if let Some(r) = st.records.get_mut(&id) {
                r.started_secs = Some(started);
            }
        }
        // agent_start/agent_end hops are stamped adjacent to the
        // unit_started/unit_ended events, on the recorder's clock, so the
        // aggregated hop timeline agrees with `OverheadReport::from_trace`.
        if let Some(trace) = desc.trace.as_mut() {
            trace.hop(
                components::RTS,
                entk_observe::hops::AGENT_START,
                recorder.now_ns(),
            );
        }
        recorder.record(components::RTS, "unit_started", desc.tag.as_str(), "");
        counters.started.incr();

        let result: Result<(), String> = match &desc.executable {
            Executable::Compute { func, .. } => func(),
            Executable::Noop => Ok(()),
            other => {
                let secs = other.nominal_secs() * time_scale;
                if secs > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(secs));
                }
                Ok(())
            }
        };

        if !alive.load(Ordering::Acquire) {
            continue; // killed mid-run: the result is lost
        }
        let ended = epoch.elapsed().as_secs_f64();
        let outcome = match result {
            Ok(()) => UnitOutcome::Done,
            Err(e) => UnitOutcome::Failed(e),
        };
        let term_state = match &outcome {
            UnitOutcome::Done => UnitState::Done,
            UnitOutcome::Failed(_) => UnitState::Failed,
            UnitOutcome::Canceled => UnitState::Canceled,
        };
        {
            let mut st = state.lock();
            if let Some(r) = st.records.get_mut(&id) {
                r.ended_secs = Some(ended);
                r.outcome = Some(outcome.clone());
            }
        }
        if let Some(trace) = desc.trace.as_mut() {
            trace.hop(
                components::RTS,
                entk_observe::hops::AGENT_END,
                recorder.now_ns(),
            );
        }
        if recorder.is_enabled() {
            recorder.record(
                components::RTS,
                "unit_ended",
                desc.tag.as_str(),
                format!("{term_state:?}"),
            );
        }
        counters.ended.incr();
        let _ = cb_tx.send(UnitCallback {
            unit: id,
            tag: desc.tag,
            state: term_state,
            outcome: Some(outcome),
            timestamp_secs: ended,
            trace: desc.trace,
            credit: Default::default(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;

    fn drain_terminal(rt: &LocalRuntime, n: usize) -> HashMap<String, UnitOutcome> {
        let mut out = HashMap::new();
        while out.len() < n {
            let cb = rt
                .callbacks()
                .recv_timeout(Duration::from_secs(10))
                .expect("callback");
            if let Some(o) = cb.outcome {
                out.insert(cb.tag, o);
            }
        }
        out
    }

    #[test]
    fn compute_units_actually_run() {
        let counter = Arc::new(AtomicUsize::new(0));
        let rt = LocalRuntime::start(LocalRuntimeConfig::default());
        let descs: Vec<UnitDescription> = (0..8)
            .map(|i| {
                let c = Arc::clone(&counter);
                UnitDescription::new(
                    format!("c{i}"),
                    Executable::compute(1.0, move || {
                        c.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }),
                )
            })
            .collect();
        rt.submit_units(descs).unwrap();
        let out = drain_terminal(&rt, 8);
        assert!(out.values().all(|o| *o == UnitOutcome::Done));
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn failing_compute_reports_failed() {
        let rt = LocalRuntime::start(LocalRuntimeConfig::default());
        rt.submit_units(vec![UnitDescription::new(
            "bad",
            Executable::compute(1.0, || Err("segfault".into())),
        )])
        .unwrap();
        let out = drain_terminal(&rt, 1);
        assert_eq!(out["bad"], UnitOutcome::Failed("segfault".into()));
    }

    #[test]
    fn sleep_scaled_down() {
        let rt = LocalRuntime::start(LocalRuntimeConfig {
            workers: 1,
            time_scale: 0.001, // 100 s nominal → 0.1 s real
            recorder: None,
        });
        let t0 = Instant::now();
        rt.submit_units(vec![UnitDescription::new(
            "s",
            Executable::Sleep { secs: 100.0 },
        )])
        .unwrap();
        drain_terminal(&rt, 1);
        let e = t0.elapsed();
        assert!(e >= Duration::from_millis(90) && e < Duration::from_secs(3));
    }

    #[test]
    fn records_have_timeline() {
        let rt = LocalRuntime::start(LocalRuntimeConfig::default());
        rt.submit_units(vec![UnitDescription::new("u", Executable::Noop)])
            .unwrap();
        drain_terminal(&rt, 1);
        let r = &rt.records()[0];
        assert!(r.started_secs.unwrap() >= r.submitted_secs);
        assert!(r.ended_secs.unwrap() >= r.started_secs.unwrap());
        assert_eq!(r.outcome, Some(UnitOutcome::Done));
    }

    #[test]
    fn recorder_sees_unit_lifecycle_in_order() {
        let rec = Recorder::new();
        let rt = LocalRuntime::start(LocalRuntimeConfig {
            workers: 1,
            time_scale: 0.0,
            recorder: Some(rec.clone()),
        });
        rt.submit_units(vec![UnitDescription::new("traced", Executable::Noop)])
            .unwrap();
        drain_terminal(&rt, 1);
        let events = rec.snapshot();
        let ts_of = |kind: &str| {
            events
                .iter()
                .find(|e| e.kind == kind && e.entity_uid == "traced")
                .unwrap_or_else(|| panic!("missing {kind}"))
                .ts_ns
        };
        assert!(ts_of("unit_submitted") <= ts_of("unit_started"));
        assert!(ts_of("unit_started") <= ts_of("unit_ended"));
        assert_eq!(rec.metrics().counter("rts.units_ended").get(), 1);
        // The submit span fed the spawn-throughput histogram.
        assert_eq!(rec.metrics().histogram("span.rts.submit_units").count(), 1);
    }

    #[test]
    fn kill_discards_pending_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        let rt = LocalRuntime::start(LocalRuntimeConfig {
            workers: 1,
            time_scale: 0.001,
            recorder: None,
        });
        let mut descs = vec![UnitDescription::new(
            "blocker",
            Executable::Sleep { secs: 200.0 }, // 0.2 s real
        )];
        for i in 0..5 {
            let c = Arc::clone(&counter);
            descs.push(UnitDescription::new(
                format!("after{i}"),
                Executable::compute(1.0, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            ));
        }
        rt.submit_units(descs).unwrap();
        std::thread::sleep(Duration::from_millis(50)); // blocker running
        rt.kill();
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(counter.load(Ordering::SeqCst), 0, "killed RTS ran work");
        assert!(!rt.is_alive());
    }

    #[test]
    fn teardown_waits_for_in_flight_units() {
        let rt = LocalRuntime::start(LocalRuntimeConfig {
            workers: 2,
            time_scale: 0.001,
            recorder: None,
        });
        rt.submit_units(vec![
            UnitDescription::new("a", Executable::Sleep { secs: 100.0 }),
            UnitDescription::new("b", Executable::Sleep { secs: 100.0 }),
        ])
        .unwrap();
        let d = rt.teardown();
        assert!(d >= Duration::from_millis(90));
        let recs = rt.records();
        assert!(recs.iter().all(|r| r.outcome == Some(UnitOutcome::Done)));
    }
}
