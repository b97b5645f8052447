//! SLO plane: per-session service-level objectives, burn-rate tracking,
//! typed anomaly watchdogs, and a bounded decision/alert ring.
//!
//! PR 5 gave the service a live telemetry plane (`/metrics`, `/statusz`,
//! causal TraceCtx timelines); this module is the read-out side. An embedder
//! declares an [`SloConfig`] (p50/p99 turnaround targets plus a queue-wait
//! budget), feeds an [`SloTracker`] on every sampler tick with the current
//! turnaround histogram snapshot and CriticalPath queue-wait residency, and
//! gets back `slo.*` burn-rate gauges and breach counters on the shared
//! [`Metrics`] registry. A [`Watchdog`] folds the same periodic observations
//! into typed anomalies — stalled task, stuck queue, dead sampler, pool
//! starvation — counted as `slo.alert.<kind>` and appended to a
//! [`DecisionRing`]: a fixed-capacity flight recorder of alerts and
//! controller actuations, each carrying the evidence that triggered it, so
//! the system can explain every reaction it took (`/debug/decisions`).

use crate::export::json_escape;
use crate::metrics::{HistogramSnapshot, Metrics};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Burn-rate gauges are exported in permille of the target: 1000 means the
/// observed value sits exactly at the objective, 2000 means 2x over.
pub const BURN_SCALE: i64 = 1000;

/// Service-level objectives for one service instance. All objectives are
/// turnaround-shaped: wall time from admission to settled result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloConfig {
    /// Target median turnaround.
    pub p50_turnaround: Duration,
    /// Target 99th-percentile turnaround.
    pub p99_turnaround: Duration,
    /// Budget for mean queue-wait (the `enqueue->emgr_dequeue` stage of the
    /// critical path): time a ready task sits in the Pending queue before
    /// the execution manager picks it up.
    pub queue_wait_budget: Duration,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            p50_turnaround: Duration::from_secs(5),
            p99_turnaround: Duration::from_secs(30),
            queue_wait_budget: Duration::from_secs(2),
        }
    }
}

impl SloConfig {
    /// Set the median turnaround target.
    pub fn with_p50_turnaround(mut self, d: Duration) -> Self {
        self.p50_turnaround = d;
        self
    }

    /// Set the tail turnaround target.
    pub fn with_p99_turnaround(mut self, d: Duration) -> Self {
        self.p99_turnaround = d;
        self
    }

    /// Set the queue-wait budget.
    pub fn with_queue_wait_budget(mut self, d: Duration) -> Self {
        self.queue_wait_budget = d;
        self
    }
}

/// Point-in-time burn rates computed by [`SloTracker::tick`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloBurn {
    /// Observed p50 turnaround over target, permille.
    pub p50_permille: i64,
    /// Observed p99 turnaround over target, permille.
    pub p99_permille: i64,
    /// Observed mean queue-wait over budget, permille.
    pub queue_wait_permille: i64,
}

impl SloBurn {
    /// Whether any objective is currently burning past its target.
    pub fn any_breach(&self) -> bool {
        self.p50_permille > BURN_SCALE
            || self.p99_permille > BURN_SCALE
            || self.queue_wait_permille > BURN_SCALE
    }
}

fn permille(observed_ns: u64, target: Duration) -> i64 {
    let target_ns = target.as_nanos().max(1);
    ((observed_ns as u128 * BURN_SCALE as u128) / target_ns).min(i64::MAX as u128) as i64
}

/// Folds turnaround and queue-wait observations into `slo.*` series on the
/// shared registry:
///
/// * `slo.p50.burn` / `slo.p99.burn` / `slo.queue_wait.burn` — permille
///   burn-rate gauges ([`BURN_SCALE`] = at target).
/// * `slo.breach.<objective>` — counters of sampler ticks spent over target.
/// * `slo.target.p50_ms` / `.p99_ms` / `.queue_wait_ms` — the declared
///   objectives, so a scrape is self-describing.
#[derive(Debug)]
pub struct SloTracker {
    config: SloConfig,
    metrics: Arc<Metrics>,
    last: Mutex<SloBurn>,
}

impl SloTracker {
    /// Build a tracker exporting onto `metrics`.
    pub fn new(config: SloConfig, metrics: Arc<Metrics>) -> SloTracker {
        metrics
            .gauge("slo.target.p50_ms")
            .set(config.p50_turnaround.as_millis().min(i64::MAX as u128) as i64);
        metrics
            .gauge("slo.target.p99_ms")
            .set(config.p99_turnaround.as_millis().min(i64::MAX as u128) as i64);
        metrics
            .gauge("slo.target.queue_wait_ms")
            .set(config.queue_wait_budget.as_millis().min(i64::MAX as u128) as i64);
        // Pre-register the burn gauges so a scrape before the first tick
        // already exposes the full series set.
        metrics.gauge("slo.p50.burn").set(0);
        metrics.gauge("slo.p99.burn").set(0);
        metrics.gauge("slo.queue_wait.burn").set(0);
        SloTracker {
            config,
            metrics,
            last: Mutex::new(SloBurn::default()),
        }
    }

    /// The declared objectives.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Fold one observation: the current turnaround histogram snapshot and
    /// the mean queue-wait residency (ns) from the critical path. Returns
    /// the burn rates just published.
    pub fn tick(&self, turnaround: &HistogramSnapshot, queue_wait_mean_ns: u64) -> SloBurn {
        let burn = SloBurn {
            p50_permille: if turnaround.count == 0 {
                0
            } else {
                permille(turnaround.p50_ns, self.config.p50_turnaround)
            },
            p99_permille: if turnaround.count == 0 {
                0
            } else {
                permille(turnaround.p99_ns, self.config.p99_turnaround)
            },
            queue_wait_permille: permille(queue_wait_mean_ns, self.config.queue_wait_budget),
        };
        self.metrics.gauge("slo.p50.burn").set(burn.p50_permille);
        self.metrics.gauge("slo.p99.burn").set(burn.p99_permille);
        self.metrics
            .gauge("slo.queue_wait.burn")
            .set(burn.queue_wait_permille);
        if burn.p50_permille > BURN_SCALE {
            self.metrics.counter("slo.breach.p50").incr();
        }
        if burn.p99_permille > BURN_SCALE {
            self.metrics.counter("slo.breach.p99").incr();
        }
        if burn.queue_wait_permille > BURN_SCALE {
            self.metrics.counter("slo.breach.queue_wait").incr();
        }
        *self.last.lock().unwrap_or_else(|e| e.into_inner()) = burn;
        burn
    }

    /// Most recently published burn rates.
    pub fn last(&self) -> SloBurn {
        *self.last.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Typed anomaly classes the watchdog can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// An admitted submission has made no observable progress for longer
    /// than `stall_factor` x the observed p99 turnaround.
    StalledTask,
    /// A queue's depth is non-decreasing and positive while its delivery
    /// counter has not moved for several consecutive scans.
    StuckQueue,
    /// The background sampler stopped ticking (gauges are stale).
    DeadSampler,
    /// Work is queued but the warm pilot pool has been empty for several
    /// consecutive scans.
    PoolStarvation,
}

impl AnomalyKind {
    /// Stable label used in metric names and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AnomalyKind::StalledTask => "stalled_task",
            AnomalyKind::StuckQueue => "stuck_queue",
            AnomalyKind::DeadSampler => "dead_sampler",
            AnomalyKind::PoolStarvation => "pool_starvation",
        }
    }
}

/// One raised anomaly with the evidence that triggered it.
#[derive(Debug, Clone)]
pub struct Alert {
    /// Anomaly class.
    pub kind: AnomalyKind,
    /// What the anomaly is about (submission id, queue name, component).
    pub subject: String,
    /// Human-readable triggering evidence.
    pub evidence: String,
}

/// Watchdog thresholds.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// A submission is stalled after `stall_factor` x p99 turnaround with no
    /// progress (and at least `stall_floor`, so cold starts don't trip it).
    pub stall_factor: u32,
    /// Minimum no-progress age before a stall can be raised.
    pub stall_floor: Duration,
    /// Consecutive scans of zero deliveries on a backlogged queue before it
    /// is declared stuck.
    pub stuck_queue_scans: u32,
    /// Consecutive scans with queued work and an empty warm pool before
    /// starvation is declared.
    pub starvation_scans: u32,
    /// Consecutive scans without a sampler tick before the sampler is
    /// declared dead.
    pub sampler_scans: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_factor: 4,
            stall_floor: Duration::from_secs(10),
            stuck_queue_scans: 3,
            starvation_scans: 3,
            sampler_scans: 5,
        }
    }
}

/// One queue's state as seen at a watchdog scan.
#[derive(Debug, Clone)]
pub struct QueueSample {
    /// Fully-qualified queue name.
    pub name: String,
    /// Current depth (ready messages).
    pub depth: u64,
    /// Monotone count of messages ever delivered from this queue.
    pub delivered: u64,
}

/// Everything the watchdog looks at on one scan, assembled by the embedder
/// from live telemetry (queue stats, pool stats, per-submission progress).
#[derive(Debug, Clone, Default)]
pub struct WatchdogInput {
    /// Observed p99 turnaround, ns (0 when no samples yet).
    pub turnaround_p99_ns: u64,
    /// Active submissions as `(subject, no_progress_for)` — time since the
    /// submission last made observable progress (a trace hop, a task
    /// settling, or its own start).
    pub active: Vec<(String, Duration)>,
    /// Live queues.
    pub queues: Vec<QueueSample>,
    /// Monotone count of sampler ticks observed so far.
    pub sampler_ticks: u64,
    /// Warm pilots currently idle in the pool.
    pub warm_pilots: i64,
    /// Submissions waiting for a worker.
    pub queued: i64,
}

/// Periodic anomaly detector. Stateful: tracks per-queue delivery deltas and
/// consecutive-breach counters across scans, raising each anomaly once per
/// incident (re-armed when the condition clears).
#[derive(Debug)]
pub struct Watchdog {
    config: WatchdogConfig,
    metrics: Arc<Metrics>,
    ring: Arc<DecisionRing>,
    /// Per-queue `(delivered, consecutive stuck scans, already raised)`.
    queues: HashMap<String, (u64, u32, bool)>,
    /// Per-subject raised stall (cleared when the subject disappears).
    stalled: HashMap<String, bool>,
    sampler: (u64, u32, bool),
    starvation: (u32, bool),
}

impl Watchdog {
    /// Build a watchdog reporting to `metrics` and `ring`.
    pub fn new(config: WatchdogConfig, metrics: Arc<Metrics>, ring: Arc<DecisionRing>) -> Watchdog {
        Watchdog {
            config,
            metrics,
            ring,
            queues: HashMap::new(),
            stalled: HashMap::new(),
            sampler: (0, 0, false),
            starvation: (0, false),
        }
    }

    fn raise(&self, kind: AnomalyKind, subject: &str, evidence: String) -> Alert {
        self.metrics
            .counter(&format!("slo.alert.{}", kind.label()))
            .incr();
        self.ring
            .record("alert", kind.label(), subject, "raise", &evidence);
        Alert {
            kind,
            subject: subject.to_string(),
            evidence,
        }
    }

    /// Fold one scan; returns anomalies newly raised on this scan.
    pub fn scan(&mut self, input: &WatchdogInput) -> Vec<Alert> {
        let mut alerts = Vec::new();

        // Stalled task: no observable progress for stall_factor x p99.
        let p99 = Duration::from_nanos(input.turnaround_p99_ns);
        let stall_after = (p99 * self.config.stall_factor).max(self.config.stall_floor);
        self.stalled
            .retain(|subject, _| input.active.iter().any(|(s, _)| s == subject));
        for (subject, idle) in &input.active {
            let raised = self.stalled.entry(subject.clone()).or_insert(false);
            if *idle >= stall_after && !*raised {
                *raised = true;
                alerts.push(self.raise(
                    AnomalyKind::StalledTask,
                    subject,
                    format!(
                        "no progress for {:.1}s >= {:.1}s ({}x p99 {:.1}s)",
                        idle.as_secs_f64(),
                        stall_after.as_secs_f64(),
                        self.config.stall_factor,
                        p99.as_secs_f64()
                    ),
                ));
            } else if *idle < stall_after {
                *raised = false;
            }
        }

        // Stuck queue: backlog present, deliveries flat across scans.
        self.queues
            .retain(|name, _| input.queues.iter().any(|q| &q.name == name));
        for q in &input.queues {
            let is_new = !self.queues.contains_key(&q.name);
            let entry = self
                .queues
                .entry(q.name.clone())
                .or_insert((q.delivered, 0, false));
            // A freshly-seen queue counts as having moved: the first scan
            // only seeds the delivery baseline.
            let moved = is_new || q.delivered != entry.0;
            entry.0 = q.delivered;
            if q.depth > 0 && !moved {
                entry.1 += 1;
                if entry.1 >= self.config.stuck_queue_scans && !entry.2 {
                    entry.2 = true;
                    let (scans, depth) = (entry.1, q.depth);
                    alerts.push(self.raise(
                        AnomalyKind::StuckQueue,
                        &q.name,
                        format!("depth {depth} with zero deliveries for {scans} scans"),
                    ));
                }
            } else {
                entry.1 = 0;
                entry.2 = false;
            }
        }

        // Dead sampler: tick counter flat across scans.
        let ticked = input.sampler_ticks != self.sampler.0;
        self.sampler.0 = input.sampler_ticks;
        if ticked {
            self.sampler.1 = 0;
            self.sampler.2 = false;
        } else {
            self.sampler.1 += 1;
            if self.sampler.1 >= self.config.sampler_scans && !self.sampler.2 {
                self.sampler.2 = true;
                let scans = self.sampler.1;
                alerts.push(self.raise(
                    AnomalyKind::DeadSampler,
                    "sampler",
                    format!("no sampler tick for {scans} watchdog scans"),
                ));
            }
        }

        // Pool starvation: queued work, no warm pilots, repeatedly.
        if input.queued > 0 && input.warm_pilots == 0 {
            self.starvation.0 += 1;
            if self.starvation.0 >= self.config.starvation_scans && !self.starvation.1 {
                self.starvation.1 = true;
                let (scans, queued) = (self.starvation.0, input.queued);
                alerts.push(self.raise(
                    AnomalyKind::PoolStarvation,
                    "pilot_pool",
                    format!("{queued} queued with 0 warm pilots for {scans} scans"),
                ));
            }
        } else {
            self.starvation.0 = 0;
            self.starvation.1 = false;
        }

        alerts
    }
}

/// One entry in the flight recorder: an alert raised by the watchdog or an
/// actuation taken by a controller, with the evidence behind it.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Monotone sequence number (total decisions ever recorded).
    pub seq: u64,
    /// Milliseconds since the ring was created.
    pub at_ms: u64,
    /// `"alert"` or `"actuation"`.
    pub class: String,
    /// Anomaly label or controller name.
    pub kind: String,
    /// What the decision is about.
    pub subject: String,
    /// What was done (`"raise"`, `"capacity 2->4"`, ...).
    pub action: String,
    /// The triggering evidence.
    pub evidence: String,
}

impl Decision {
    fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"at_ms\":{},\"class\":\"{}\",\"kind\":\"{}\",\"subject\":\"{}\",\"action\":\"{}\",\"evidence\":\"{}\"}}",
            self.seq,
            self.at_ms,
            json_escape(&self.class),
            json_escape(&self.kind),
            json_escape(&self.subject),
            json_escape(&self.action),
            json_escape(&self.evidence)
        )
    }
}

/// Bounded in-memory ring of [`Decision`]s — the service's flight recorder,
/// exposed at `/debug/decisions`. Oldest entries are evicted at capacity;
/// `seq` stays monotone so a reader can detect eviction gaps.
#[derive(Debug)]
pub struct DecisionRing {
    capacity: usize,
    seq: AtomicU64,
    entries: Mutex<VecDeque<Decision>>,
    epoch: std::time::Instant,
}

impl DecisionRing {
    /// Ring holding at most `capacity` entries (floor 1).
    pub fn new(capacity: usize) -> DecisionRing {
        DecisionRing {
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            entries: Mutex::new(VecDeque::new()),
            epoch: std::time::Instant::now(),
        }
    }

    /// Append one decision; evicts the oldest entry at capacity.
    pub fn record(&self, class: &str, kind: &str, subject: &str, action: &str, evidence: &str) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let d = Decision {
            seq,
            at_ms: self.epoch.elapsed().as_millis().min(u64::MAX as u128) as u64,
            class: class.to_string(),
            kind: kind.to_string(),
            subject: subject.to_string(),
            action: action.to_string(),
            evidence: evidence.to_string(),
        };
        let mut e = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if e.len() == self.capacity {
            e.pop_front();
        }
        e.push_back(d);
    }

    /// Total decisions ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Current entries, oldest first.
    pub fn snapshot(&self) -> Vec<Decision> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Up to `n` most recent entries of `class`, oldest first.
    pub fn recent(&self, class: &str, n: usize) -> Vec<Decision> {
        let e = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<Decision> = e
            .iter()
            .rev()
            .filter(|d| d.class == class)
            .take(n)
            .cloned()
            .collect();
        out.reverse();
        out
    }

    /// The whole ring as a JSON document for `/debug/decisions`.
    pub fn to_json(&self) -> String {
        let entries = self.snapshot();
        let mut out = String::from("{\"total\":");
        out.push_str(&self.total().to_string());
        out.push_str(",\"capacity\":");
        out.push_str(&self.capacity.to_string());
        out.push_str(",\"decisions\":[");
        for (i, d) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str("]}");
        out
    }

    /// A JSON array of decisions for embedding into `/statusz` (e.g. the
    /// most recent alerts).
    pub fn json_array(decisions: &[Decision]) -> String {
        let mut out = String::from("[");
        for (i, d) in decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn snap(h: &Histogram) -> HistogramSnapshot {
        h.snapshot()
    }

    #[test]
    fn burn_rates_track_targets() {
        let metrics = Arc::new(Metrics::default());
        let cfg = SloConfig::default()
            .with_p50_turnaround(Duration::from_millis(100))
            .with_p99_turnaround(Duration::from_millis(400))
            .with_queue_wait_budget(Duration::from_millis(50));
        let tracker = SloTracker::new(cfg, Arc::clone(&metrics));
        assert_eq!(metrics.gauge("slo.target.p50_ms").get(), 100);

        let h = Histogram::default();
        for _ in 0..100 {
            h.record(Duration::from_millis(100));
        }
        let burn = tracker.tick(&snap(&h), Duration::from_millis(25).as_nanos() as u64);
        // p50 sits in the bucket containing 100ms; burn is within 2x of 1000
        // (log-bucket midpoint error), queue-wait is exactly half the budget.
        assert!(
            burn.p50_permille > 500 && burn.p50_permille < 2000,
            "{burn:?}"
        );
        assert_eq!(burn.queue_wait_permille, 500);
        assert!(!SloBurn::default().any_breach());

        // Blow the tail: p99 lands near 4s against a 400ms target.
        for _ in 0..10 {
            h.record(Duration::from_secs(4));
        }
        let burn = tracker.tick(&snap(&h), 0);
        assert!(burn.p99_permille > 5000, "{burn:?}");
        assert!(burn.any_breach());
        assert!(metrics.counter("slo.breach.p99").get() >= 1);
        assert_eq!(metrics.gauge("slo.p99.burn").get(), burn.p99_permille);
    }

    #[test]
    fn empty_histogram_burns_zero() {
        let metrics = Arc::new(Metrics::default());
        let tracker = SloTracker::new(SloConfig::default(), Arc::clone(&metrics));
        let h = Histogram::default();
        let burn = tracker.tick(&snap(&h), 0);
        assert_eq!(burn, SloBurn::default());
        assert_eq!(metrics.counter("slo.breach.p50").get(), 0);
    }

    fn watchdog() -> (Watchdog, Arc<Metrics>, Arc<DecisionRing>) {
        let metrics = Arc::new(Metrics::default());
        let ring = Arc::new(DecisionRing::new(32));
        let wd = Watchdog::new(
            WatchdogConfig {
                stall_factor: 2,
                stall_floor: Duration::from_millis(100),
                stuck_queue_scans: 2,
                starvation_scans: 2,
                sampler_scans: 2,
            },
            Arc::clone(&metrics),
            Arc::clone(&ring),
        );
        (wd, metrics, ring)
    }

    #[test]
    fn stalled_task_raises_once_per_incident() {
        let (mut wd, metrics, _ring) = watchdog();
        let mut input = WatchdogInput {
            turnaround_p99_ns: Duration::from_millis(100).as_nanos() as u64,
            active: vec![("sub-1".into(), Duration::from_millis(50))],
            sampler_ticks: 1,
            ..Default::default()
        };
        assert!(wd.scan(&input).is_empty());
        input.active[0].1 = Duration::from_millis(300);
        input.sampler_ticks = 2;
        let alerts = wd.scan(&input);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AnomalyKind::StalledTask);
        assert_eq!(alerts[0].subject, "sub-1");
        input.sampler_ticks = 3;
        assert!(wd.scan(&input).is_empty(), "raised once per incident");
        assert_eq!(metrics.counter("slo.alert.stalled_task").get(), 1);
    }

    #[test]
    fn stuck_queue_needs_flat_deliveries_and_backlog() {
        let (mut wd, metrics, ring) = watchdog();
        let mk = |delivered, ticks| WatchdogInput {
            queues: vec![QueueSample {
                name: "s00001.pending".into(),
                depth: 7,
                delivered,
            }],
            sampler_ticks: ticks,
            ..Default::default()
        };
        assert!(wd.scan(&mk(5, 1)).is_empty());
        assert!(wd.scan(&mk(5, 2)).is_empty(), "one flat scan is tolerated");
        let alerts = wd.scan(&mk(5, 3));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AnomalyKind::StuckQueue);
        // Progress clears the incident; a later flat spell re-raises.
        assert!(wd.scan(&mk(6, 4)).is_empty());
        assert!(wd.scan(&mk(6, 5)).is_empty());
        assert_eq!(wd.scan(&mk(6, 6)).len(), 1);
        assert_eq!(metrics.counter("slo.alert.stuck_queue").get(), 2);
        assert!(ring.snapshot().iter().all(|d| d.class == "alert"));
    }

    #[test]
    fn dead_sampler_and_pool_starvation() {
        let (mut wd, metrics, _ring) = watchdog();
        let input = WatchdogInput {
            sampler_ticks: 1,
            queued: 3,
            warm_pilots: 0,
            ..Default::default()
        };
        assert!(wd.scan(&input).is_empty(), "first scan seeds state");
        let mut kinds: Vec<_> = wd.scan(&input).iter().map(|a| a.kind).collect();
        kinds.extend(wd.scan(&input).iter().map(|a| a.kind));
        assert!(kinds.contains(&AnomalyKind::DeadSampler), "{kinds:?}");
        assert!(kinds.contains(&AnomalyKind::PoolStarvation), "{kinds:?}");
        assert_eq!(metrics.counter("slo.alert.dead_sampler").get(), 1);
        assert_eq!(metrics.counter("slo.alert.pool_starvation").get(), 1);
    }

    #[test]
    fn decision_ring_bounds_and_serializes() {
        let ring = DecisionRing::new(3);
        for i in 0..5 {
            ring.record(
                "actuation",
                "prescaler",
                "pool",
                &format!("grow {i}"),
                "q=9",
            );
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 3, "bounded");
        assert_eq!(ring.total(), 5);
        assert_eq!(entries[0].seq, 2, "oldest evicted");
        let doc = crate::json::parse(&ring.to_json()).expect("valid json");
        assert_eq!(doc.get("total").unwrap().as_f64(), Some(5.0));
        let ds = doc.get("decisions").unwrap().as_array().unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds[2].get("action").unwrap().as_str(), Some("grow 4"));
        let recent = ring.recent("actuation", 2);
        assert_eq!(recent.len(), 2);
        assert!(recent[0].seq < recent[1].seq, "oldest first");
        let arr = DecisionRing::json_array(&recent);
        assert!(crate::json::parse(&arr).is_ok());
    }
}
