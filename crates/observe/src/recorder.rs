//! The event recorder: a cheap cloneable handle writing to sharded buffers
//! that spill into a global sink, plus guard-style spans.

use crate::event::Event;
use crate::metrics::{Histogram, Metrics};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Shard count; power of two so thread hashes map with a mask.
const SHARDS: usize = 16;

/// Events a shard accumulates before spilling into the global sink.
const SPILL_AT: usize = 1024;

/// Slots of the span-histogram cache; more span kinds than the workspace
/// has, so a lookup past a full table (a registry lookup) never happens in
/// practice.
const SPAN_KINDS: usize = 64;

/// The `span.<component>.<kind>` histogram of each static span kind,
/// resolved in the metrics registry once and then found without a lock or
/// an allocation: an open-addressed table whose slots fill once.
struct SpanHistograms {
    slots: [OnceLock<(&'static str, &'static str, Arc<Histogram>)>; SPAN_KINDS],
}

impl SpanHistograms {
    fn get(
        &self,
        metrics: &Metrics,
        component: &'static str,
        kind: &'static str,
    ) -> Arc<Histogram> {
        let resolve = || metrics.histogram(&format!("span.{component}.{kind}"));
        // FNV-1a over both names: the slot the probe starts from.
        let hash = component
            .bytes()
            .chain([b'.'])
            .chain(kind.bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        for probe in 0..SPAN_KINDS {
            let slot = &self.slots[(hash as usize).wrapping_add(probe) % SPAN_KINDS];
            let (c, k, hist) = slot.get_or_init(|| (component, kind, resolve()));
            if *c == component && *k == kind {
                return Arc::clone(hist);
            }
        }
        resolve()
    }
}

struct Shard {
    buf: Mutex<Vec<Event>>,
}

struct Inner {
    epoch: Instant,
    epoch_unix_ns: u64,
    enabled: AtomicBool,
    shards: Vec<Shard>,
    sink: Mutex<Vec<Event>>,
    metrics: Arc<Metrics>,
    span_histograms: SpanHistograms,
    recorded: AtomicU64,
}

/// Handle to a trace collector shared by every component of one application
/// run. Clones are cheap (one `Arc` bump) and all write to the same trace.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("events", &self.inner.recorded.load(Ordering::Relaxed))
            .finish()
    }
}

impl Recorder {
    /// A recorder that collects events.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A recorder whose `record`/`span` calls are no-ops; metrics still
    /// work. Used when tracing is off so call sites stay unconditional.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        let epoch_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        Recorder {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                epoch_unix_ns,
                enabled: AtomicBool::new(enabled),
                shards: (0..SHARDS)
                    .map(|_| Shard {
                        buf: Mutex::new(Vec::new()),
                    })
                    .collect(),
                sink: Mutex::new(Vec::new()),
                metrics: Arc::new(Metrics::default()),
                span_histograms: SpanHistograms {
                    slots: std::array::from_fn(|_| OnceLock::new()),
                },
                recorded: AtomicU64::new(0),
            }),
        }
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Wall-clock anchor: Unix nanoseconds at the recorder's epoch.
    pub fn epoch_unix_ns(&self) -> u64 {
        self.inner.epoch_unix_ns
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The metrics registry as a shareable handle.
    pub fn metrics_arc(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    fn thread_tag() -> u64 {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish()
    }

    /// Record an instant event (nothing is built when disabled).
    pub fn record(
        &self,
        component: &'static str,
        kind: &'static str,
        entity_uid: impl Into<String>,
        payload: impl Into<String>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            ts_ns: self.now_ns(),
            thread: Self::thread_tag(),
            component,
            kind,
            entity_uid: entity_uid.into(),
            payload: payload.into(),
            dur_ns: None,
        });
    }

    /// Record a fully formed event (used by [`Span`] and by layers that
    /// carry their own timestamps, e.g. virtual-clock checkpoints).
    pub fn push(&self, event: Event) {
        if !self.is_enabled() {
            return;
        }
        self.inner.recorded.fetch_add(1, Ordering::Relaxed);
        let shard = &self.inner.shards[(Self::thread_tag() as usize) & (SHARDS - 1)];
        let spill = {
            let mut buf = shard.buf.lock().unwrap_or_else(|e| e.into_inner());
            buf.push(event);
            if buf.len() >= SPILL_AT {
                Some(std::mem::take(&mut *buf))
            } else {
                None
            }
        };
        if let Some(batch) = spill {
            self.inner
                .sink
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(batch);
        }
    }

    /// Record an event covering an externally measured duration that ends
    /// now (e.g. wall time summed across phases, where a live [`Span`]
    /// cannot bracket the work). The timestamp is back-dated by `dur`.
    /// Nothing is built when disabled.
    pub fn record_duration(
        &self,
        component: &'static str,
        kind: &'static str,
        entity_uid: impl Into<String>,
        payload: impl Into<String>,
        dur: std::time::Duration,
    ) {
        if !self.is_enabled() {
            return;
        }
        let dur_ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        self.push(Event {
            ts_ns: self.now_ns().saturating_sub(dur_ns),
            thread: Self::thread_tag(),
            component,
            kind,
            entity_uid: entity_uid.into(),
            payload: payload.into(),
            dur_ns: Some(dur_ns),
        });
    }

    /// Open a timing span; the event (with duration) is recorded when the
    /// guard drops, and the duration feeds the histogram
    /// `span.<component>.<kind>`.
    pub fn span(&self, component: &'static str, kind: &'static str) -> Span {
        Span {
            recorder: self.clone(),
            component,
            kind,
            entity_uid: String::new(),
            payload: String::new(),
            start_ns: self.now_ns(),
            closed: false,
        }
    }

    /// Drain all shards and return the full trace, time-sorted.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut sink = self.inner.sink.lock().unwrap_or_else(|e| e.into_inner());
        for shard in &self.inner.shards {
            let mut buf = shard.buf.lock().unwrap_or_else(|e| e.into_inner());
            sink.append(&mut buf);
        }
        let mut out = sink.clone();
        drop(sink);
        out.sort_by_key(|e| e.ts_ns);
        out
    }

    /// Number of events recorded so far (including not-yet-spilled ones).
    pub fn event_count(&self) -> u64 {
        self.inner.recorded.load(Ordering::Relaxed)
    }
}

/// Guard returned by [`Recorder::span`]; records a duration event on drop
/// or on [`Span::finish`].
pub struct Span {
    recorder: Recorder,
    component: &'static str,
    kind: &'static str,
    entity_uid: String,
    payload: String,
    start_ns: u64,
    closed: bool,
}

impl Span {
    /// Attach the entity this span is about.
    pub fn with_uid(mut self, uid: impl Into<String>) -> Self {
        self.entity_uid = uid.into();
        self
    }

    /// Attach a free-form payload reported with the close event. It is
    /// formatted only when the recorder collects events, so an untraced
    /// span builds no string.
    pub fn with_payload(mut self, payload: impl std::fmt::Display) -> Self {
        if self.recorder.is_enabled() {
            self.payload = payload.to_string();
        }
        self
    }

    /// Elapsed nanoseconds so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.recorder.now_ns().saturating_sub(self.start_ns)
    }

    /// Close the span now, exactly as dropping it would, and return the
    /// duration it recorded. The span is a stopwatch whether or not the
    /// recorder collects events.
    pub fn finish(mut self) -> Duration {
        Duration::from_nanos(self.close())
    }

    fn close(&mut self) -> u64 {
        self.closed = true;
        let dur_ns = self.elapsed_ns();
        let inner = &self.recorder.inner;
        inner
            .span_histograms
            .get(&inner.metrics, self.component, self.kind)
            .record_ns(dur_ns);
        if !self.recorder.is_enabled() {
            return dur_ns;
        }
        self.recorder.push(Event {
            ts_ns: self.start_ns,
            thread: Recorder::thread_tag(),
            component: self.component,
            kind: self.kind,
            entity_uid: std::mem::take(&mut self.entity_uid),
            payload: std::mem::take(&mut self.payload),
            dur_ns: Some(dur_ns),
        });
        dur_ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.closed {
            self.close();
        }
    }
}
