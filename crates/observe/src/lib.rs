//! # entk-observe — unified cross-layer tracing for EnTK
//!
//! RADICAL's production stack answers "where did the time go?" with
//! RADICAL-Analytics: every component appends timestamped rows to `.prof`
//! files, and the paper's Fig. 7 overhead decomposition (EnTK Setup /
//! Management / Tear-Down, RTS Overhead, RTS Tear-Down, Data Staging, Task
//! Execution) is derived offline from those traces. This crate is the Rust
//! port's equivalent: a dependency-free event/span/metrics subsystem shared
//! by every layer (entk-core, entk-mq, rp-rts, hpc-sim).
//!
//! Design points:
//!
//! * **Instance-based, not global.** A [`Recorder`] is a cheap cloneable
//!   handle threaded through component configs. Tests run many AppManagers
//!   concurrently in one process; a global collector would interleave their
//!   traces.
//! * **Sharded buffers.** [`Recorder::record`] appends to one of N
//!   mutex-sharded buffers picked by thread id, so concurrent components
//!   rarely contend; shards spill into a global sink in batches.
//! * **Events mirror `.prof` semantics.** An [`Event`] is
//!   `{ts, component, entity_uid, event_kind, payload}` plus a thread tag and
//!   an optional duration for closed spans.
//! * **Three exporters.** JSONL (`.prof`-style, one object per line),
//!   Chrome `chrome://tracing` JSON, and a human-readable text report. A
//!   small built-in JSON parser ([`json`]) lets tests validate exports
//!   without external crates.

pub mod event;
pub mod export;
pub mod http;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod recorder;
pub mod slo;
pub mod trace;
pub mod tracestore;

pub use event::Event;
pub use http::{
    Handler, HttpRequest, HttpResponse, HttpServer, HttpServerConfig, ObserveConfig, ObserveServer,
    Sampler, StatuszFn,
};
pub use metrics::{
    Counter, Exemplar, Gauge, Histogram, HistogramExport, HistogramSnapshot, Metrics,
};
pub use recorder::{Recorder, Span};
pub use slo::{
    Alert, AnomalyKind, Decision, DecisionRing, QueueSample, SloBurn, SloConfig, SloTracker,
    Watchdog, WatchdogConfig, WatchdogInput,
};
pub use trace::{
    format_traceparent, generate_trace_id, hops, parse_traceparent, CriticalPath, Hop,
    StageResidency, TraceCtx, TRACE_HEADER,
};
pub use tracestore::{StoredTrace, TraceStore, TraceStoreConfig};

/// Component names used across the workspace, centralized so traces from all
/// layers agree on spelling.
pub mod components {
    /// AppManager (master) in entk-core.
    pub const AMGR: &str = "amgr";
    /// Synchronizer in entk-core.
    pub const SYNC: &str = "sync";
    /// WFProcessor enqueue side.
    pub const ENQ: &str = "enq";
    /// WFProcessor dequeue side.
    pub const DEQ: &str = "deq";
    /// Execution manager loop.
    pub const EMGR: &str = "emgr";
    /// Heartbeat / failure detector.
    pub const HEARTBEAT: &str = "heartbeat";
    /// Message broker (entk-mq).
    pub const MQ: &str = "mq";
    /// Multi-tenant ensemble service (entk-service).
    pub const SERVICE: &str = "service";
    /// Wire-facing HTTP gateway (entk-gateway).
    pub const GATEWAY: &str = "gateway";
    /// Runtime system (rp-rts).
    pub const RTS: &str = "rts";
    /// Discrete-event simulator (hpc-sim).
    pub const SIM: &str = "sim";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn end_to_end_record_export_parse() {
        let rec = Recorder::new();
        rec.record(components::AMGR, "setup_start", "amgr.0000", "");
        {
            let _s = rec
                .span(components::SYNC, "transition")
                .with_uid("task.0001");
            std::thread::sleep(Duration::from_millis(1));
        }
        rec.metrics().counter("transitions").incr();
        rec.metrics().gauge("mq.depth.pending").set(3);
        rec.metrics()
            .histogram("mq.publish_to_deliver")
            .record(Duration::from_micros(250));

        let events = rec.snapshot();
        assert_eq!(events.len(), 2);
        assert!(
            events[0].ts_ns <= events[1].ts_ns,
            "snapshot is time-sorted"
        );
        let span_ev = events.iter().find(|e| e.kind == "transition").unwrap();
        assert!(span_ev.dur_ns.unwrap() >= 1_000_000);

        let mut prof = Vec::new();
        export::write_prof_jsonl(&rec, &mut prof).unwrap();
        let prof = String::from_utf8(prof).unwrap();
        assert_eq!(prof.lines().count(), 2);
        for line in prof.lines() {
            json::parse(line).expect("every JSONL line parses");
        }

        let mut chrome = Vec::new();
        export::write_chrome_trace(&rec, &mut chrome).unwrap();
        let chrome = String::from_utf8(chrome).unwrap();
        let doc = json::parse(&chrome).expect("chrome trace parses");
        let evs = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert!(evs.len() >= 2);

        let report = export::text_report(&rec);
        assert!(report.contains("transitions"));
        assert!(report.contains("mq.publish_to_deliver"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let rec = Recorder::new();
        let threads = 8;
        let per_thread = 2000;
        let mut handles = Vec::new();
        for t in 0..threads {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    rec.record(components::MQ, "publish", format!("m.{t}.{i}"), "");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.snapshot().len(), threads * per_thread);
    }

    #[test]
    fn disabled_recorder_drops_events_but_keeps_metrics() {
        let rec = Recorder::disabled();
        rec.record(components::AMGR, "x", "u", "");
        let _ = rec.span(components::AMGR, "y");
        rec.metrics().counter("c").incr();
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.metrics().counter("c").get(), 1);
    }

    #[test]
    fn finished_span_returns_the_duration_it_recorded_once() {
        let rec = Recorder::new();
        let d = rec.span(components::SYNC, "apply").finish();
        let events = rec.snapshot();
        assert_eq!(events.len(), 1, "finish closes the span; drop adds nothing");
        assert_eq!(events[0].dur_ns, Some(d.as_nanos() as u64));
        let off = Recorder::disabled().span(components::SYNC, "apply");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(off.finish() >= std::time::Duration::from_millis(1));
    }

    #[test]
    fn a_span_payload_is_formatted_only_when_traced() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counted<'a>(&'a AtomicUsize);
        impl std::fmt::Display for Counted<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.fetch_add(1, Ordering::Relaxed);
                write!(f, "42")
            }
        }
        let formatted = AtomicUsize::new(0);
        drop(
            Recorder::disabled()
                .span(components::SYNC, "apply")
                .with_payload(Counted(&formatted)),
        );
        assert_eq!(formatted.load(Ordering::Relaxed), 0, "untraced: no string");
        let rec = Recorder::new();
        drop(
            rec.span(components::SYNC, "apply")
                .with_payload(Counted(&formatted)),
        );
        assert_eq!(formatted.load(Ordering::Relaxed), 1);
        assert_eq!(rec.snapshot()[0].payload, "42");
    }

    #[test]
    fn untraced_span_closes_land_in_their_histograms() {
        let rec = Recorder::disabled();
        const N: u64 = 100;
        for _ in 0..N {
            drop(rec.span(components::SYNC, "apply"));
            let _ = rec.span(components::EMGR, "callback").finish();
        }
        let _ = rec.span(components::SYNC, "other").finish();
        assert!(rec.snapshot().is_empty(), "no event is built when disabled");
        let m = rec.metrics();
        assert_eq!(m.histogram("span.sync.apply").count(), N);
        assert_eq!(m.histogram("span.emgr.callback").count(), N);
        assert_eq!(m.histogram("span.sync.other").count(), 1);
    }

    #[test]
    fn recorder_clones_share_state() {
        let rec = Recorder::new();
        let rec2 = rec.clone();
        rec2.record(components::SIM, "tick", "", "");
        assert_eq!(rec.snapshot().len(), 1);
        assert!(Arc::ptr_eq(&rec.metrics_arc(), &rec2.metrics_arc()));
    }
}
