//! The broker: a sharded registry of named queues plus optional durability.
//!
//! In EnTK, the AppManager "creates all the queues" at initialization and the
//! components communicate only through them (Fig. 2). A [`Broker`] is cheaply
//! cloneable (an `Arc` inside) so every component thread can hold a handle.
//!
//! Internally the broker is split into N shards. Each queue hashes by name
//! (FNV-1a) onto one shard, which owns that queue's registry slot and — when
//! durability is on — its own journal segment, so durable appends on
//! different shards never cross-serialize on a single journal mutex. With
//! `shards == 1` the layout and on-disk format are byte-identical to the old
//! single-broker behavior.

use crate::error::{MqError, MqResult};
use crate::journal::{Journal, JournalRecord, Replay};
use crate::message::{Delivery, Message};
use crate::queue::{QueueConfig, QueueHandle};
use crate::stats::{BrokerStats, QueueStats};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use entk_observe::{components, Recorder};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How often the depth sampler wakes when a recorder is configured and no
/// explicit interval is given.
const DEFAULT_DEPTH_SAMPLE_INTERVAL: Duration = Duration::from_millis(25);

/// Hard ceiling on the auto-selected shard count: past ~8 shards the queue
/// maps stop being contended and extra journal segments only cost fds.
const MAX_AUTO_SHARDS: usize = 8;

/// Broker-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct BrokerConfig {
    /// If set, durable queues journal persistent messages under this path and
    /// [`Broker::recover`] can rebuild them after a crash. With more than one
    /// shard, shard 0 appends to the path as given and shard `i` to a
    /// `<stem>-<i>.<ext>` sibling (`broker.journal`, `broker-1.journal`, …);
    /// recovery merges every segment found on disk, so the shard count may
    /// change freely between runs.
    pub journal_path: Option<PathBuf>,
    /// If set, queues record publish-to-deliver / deliver-to-ack latency
    /// histograms into the recorder's metrics registry, queue lifecycle
    /// events enter the trace, and a background sampler feeds
    /// `mq.queue.<queue>.depth` / `mq.queue.<queue>.unacked` gauges.
    pub recorder: Option<Recorder>,
    /// Sampling period for the queue-depth gauges; defaults to 25 ms. Only
    /// meaningful together with `recorder`.
    pub depth_sample_interval: Option<Duration>,
    /// Number of broker shards. `0` (the default) auto-selects
    /// `min(available cores, 8)`; `1` restores the old single-broker
    /// behavior exactly (one queue map, one journal file).
    pub shards: usize,
}

impl BrokerConfig {
    /// Set the shard count. `0` auto-selects `min(available cores, 8)`;
    /// `1` restores the old single-broker behavior exactly.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// Resolve a configured shard count to a concrete one.
fn resolve_shards(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(MAX_AUTO_SHARDS)
    }
}

/// FNV-1a over the queue name. Stable across runs (shard → journal-segment
/// assignment must be deterministic) and cheap enough for the publish path.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Journal segment path for shard `i`: shard 0 keeps the configured path
/// unchanged (legacy single-file layout), shard `i > 0` becomes a
/// `<stem>-<i>.<ext>` sibling.
fn segment_path(base: &Path, i: usize) -> PathBuf {
    if i == 0 {
        return base.to_path_buf();
    }
    let stem = base
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let name = match base.extension() {
        Some(ext) => format!("{stem}-{i}.{}", ext.to_string_lossy()),
        None => format!("{stem}-{i}"),
    };
    base.with_file_name(name)
}

/// Every journal segment present on disk for `base`: the base file itself
/// plus any `<stem>-<digits>.<ext>` sibling. Recovery scans them all, no
/// matter what shard count wrote them — a broker restarted with a different
/// shard count (or recovering a pre-shard single file) still sees every
/// record.
fn existing_segments(base: &Path) -> Vec<PathBuf> {
    let mut segments = Vec::new();
    if base.exists() {
        segments.push(base.to_path_buf());
    }
    let (Some(dir), Some(stem)) = (base.parent(), base.file_stem()) else {
        return segments;
    };
    let stem = stem.to_string_lossy();
    let ext = base.extension().map(|e| e.to_string_lossy().into_owned());
    let Ok(entries) = std::fs::read_dir(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }) else {
        return segments;
    };
    let mut numbered: Vec<(usize, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path == *base {
            continue;
        }
        match (&ext, path.extension()) {
            (Some(want), Some(have)) if have.to_string_lossy() == *want => {}
            (None, None) => {}
            _ => continue,
        }
        let Some(file_stem) = path.file_stem() else {
            continue;
        };
        let file_stem = file_stem.to_string_lossy();
        let Some(suffix) = file_stem.strip_prefix(&format!("{stem}-")) else {
            continue;
        };
        if let Ok(i) = suffix.parse::<usize>() {
            numbered.push((i, path));
        }
    }
    numbered.sort_by_key(|(i, _)| *i);
    segments.extend(numbered.into_iter().map(|(_, p)| p));
    segments
}

/// One broker shard: a slice of the queue registry plus (when durable) its
/// own journal segment. Queues hash onto shards by name, so everything a
/// single queue does — declare, publish, ack, journal append — stays inside
/// one shard and never serializes against the other shards.
struct Shard {
    queues: RwLock<HashMap<String, Arc<QueueHandle>>>,
    journal: Option<Journal>,
}

struct BrokerInner {
    shards: Vec<Shard>,
    closed: AtomicBool,
    recorder: Option<Recorder>,
    /// Depth-sampler thread, joined on `close` so repeated broker
    /// start/close in one process can never leave two samplers writing the
    /// same gauges (the thread itself only holds a `Weak` to this struct),
    /// with the only sender of its stop channel: nothing is ever sent,
    /// dropping the sender ends the sampler's wait at once.
    sampler: parking_lot::Mutex<Option<(Sender<()>, std::thread::JoinHandle<()>)>>,
}

impl BrokerInner {
    fn shard_of(&self, queue: &str) -> &Shard {
        let n = self.shards.len();
        if n == 1 {
            &self.shards[0]
        } else {
            &self.shards[(fnv1a(queue) % n as u64) as usize]
        }
    }
}

/// Handle to an in-process message broker. Clone freely; all clones share
/// the same queues.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

impl Broker {
    /// Create a broker with no durability.
    pub fn new() -> Self {
        Self::with_config(BrokerConfig::default()).expect("no journal: cannot fail")
    }

    /// Create a broker with the given configuration.
    pub fn with_config(config: BrokerConfig) -> MqResult<Self> {
        let n = resolve_shards(config.shards);
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let journal = match &config.journal_path {
                Some(p) => {
                    let mut j = Journal::open(segment_path(p, i))?;
                    // Per-shard fsync/lock-wait instrumentation: the shard
                    // index in the metric name is what makes a slow or
                    // contended segment attributable from /statusz alone.
                    if let Some(rec) = config.recorder.as_ref().filter(|r| r.is_enabled()) {
                        let m = rec.metrics();
                        j = j.with_metrics(crate::journal::JournalMetrics {
                            fsync: m.histogram(&format!("mq.shard.{i}.journal_fsync")),
                            lock_wait: m.counter(&format!("mq.shard.{i}.journal_lock_wait")),
                        });
                    }
                    Some(j)
                }
                None => None,
            };
            shards.push(Shard {
                queues: RwLock::new(HashMap::new()),
                journal,
            });
        }
        let inner = Arc::new(BrokerInner {
            shards,
            closed: AtomicBool::new(false),
            recorder: config.recorder.clone(),
            sampler: parking_lot::Mutex::new(None),
        });
        if let Some(recorder) = config.recorder {
            let (stop_tx, stop_rx) = bounded(0);
            let handle = spawn_depth_sampler(
                Arc::downgrade(&inner),
                recorder,
                config
                    .depth_sample_interval
                    .unwrap_or(DEFAULT_DEPTH_SAMPLE_INTERVAL),
                stop_rx,
            );
            *inner.sampler.lock() = Some((stop_tx, handle));
        }
        Ok(Broker { inner })
    }

    /// Recover a broker from its journal segments: durable queues are
    /// re-declared and unacknowledged persistent messages restored in publish
    /// order. New operations continue appending to the same segments (a torn
    /// trailing record from a crash mid-append is truncated away first). Each
    /// queue's tag allocator is advanced past the highest tag *any* segment
    /// has ever recorded — including fully-acked tags — so fresh publishes
    /// can never collide with journaled or tombstoned tags.
    ///
    /// Every segment found on disk is scanned and merged ([`Replay::merge`]),
    /// so recovery is correct even when the shard count changed since the
    /// crash: a publish journaled by the old shard layout is erased by an ack
    /// journaled through the new one, because the merge resolves acks against
    /// the union of segments. Stale segments are never deleted — they may
    /// still hold the only copy of a live publish.
    pub fn recover(journal_path: impl Into<PathBuf>) -> MqResult<Self> {
        Self::recover_with_config(BrokerConfig {
            journal_path: Some(journal_path.into()),
            ..Default::default()
        })
    }

    /// [`Broker::recover`] with full configuration control — the ensemble
    /// service recovers its shared broker with a live recorder attached so
    /// the depth sampler resumes publishing `mq.queue.*` gauges immediately.
    /// `config.journal_path` must be set.
    pub fn recover_with_config(config: BrokerConfig) -> MqResult<Self> {
        let path = config
            .journal_path
            .clone()
            .expect("recover_with_config requires a journal path");
        let mut scans = Vec::new();
        for segment in existing_segments(&path) {
            scans.push(Journal::scan(&segment)?);
        }
        let merged = Replay::merge(scans);
        // `with_config` → `Journal::open` repairs any torn tail on this
        // run's segments before they are reopened for append.
        let broker = Self::with_config(config)?;
        for q in merged.declared {
            // Redeclare without journaling again (records already on disk).
            broker.declare_internal(&q, QueueConfig::durable());
        }
        for (qname, msgs) in merged.live {
            let handle = match broker.get_queue(&qname) {
                Ok(h) => h,
                Err(_) => {
                    broker.declare_internal(&qname, QueueConfig::durable());
                    broker.get_queue(&qname)?
                }
            };
            for (tag, msg) in msgs {
                // Failpoint: die partway through restoring live messages. A
                // retried recover replays the same journal segments and must
                // converge on the identical state (replay is idempotent).
                if entk_fail::hit_sleep("mq.broker.recover_mid_replay").is_some() {
                    return Err(MqError::FaultInjected(
                        "mq.broker.recover_mid_replay".into(),
                    ));
                }
                handle.restore(tag, msg);
            }
        }
        for (qname, max_tag) in merged.max_tags {
            let handle = match broker.get_queue(&qname) {
                Ok(h) => h,
                Err(_) => {
                    broker.declare_internal(&qname, QueueConfig::durable());
                    broker.get_queue(&qname)?
                }
            };
            handle.bump_tag_floor(max_tag);
        }
        Ok(broker)
    }

    /// Number of shards this broker was built with.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    fn check_open(&self) -> MqResult<()> {
        if self.inner.closed.load(Ordering::Acquire) {
            Err(MqError::BrokerClosed)
        } else {
            Ok(())
        }
    }

    fn declare_internal(&self, name: &str, config: QueueConfig) -> bool {
        let shard = self.inner.shard_of(name);
        let mut queues = shard.queues.write();
        if queues.contains_key(name) {
            return false;
        }
        queues.insert(
            name.to_string(),
            Arc::new(QueueHandle::with_recorder(
                name.to_string(),
                config,
                self.inner.recorder.as_ref(),
            )),
        );
        drop(queues);
        if let Some(rec) = &self.inner.recorder {
            rec.record(components::MQ, "queue_declared", name.to_string(), "");
        }
        true
    }

    /// Declare a queue. Declaring an existing queue is a no-op (idempotent,
    /// as in AMQP); the existing configuration wins.
    pub fn declare_queue(&self, name: &str, config: QueueConfig) -> MqResult<()> {
        self.check_open()?;
        let durable = config.durable;
        let created = self.declare_internal(name, config);
        if created && durable {
            if let Some(j) = &self.inner.shard_of(name).journal {
                j.append(&JournalRecord::Declare {
                    queue: name.to_string(),
                })?;
            }
        }
        Ok(())
    }

    /// Delete a queue, waking any blocked consumers with `BrokerClosed`.
    pub fn delete_queue(&self, name: &str) -> MqResult<()> {
        self.check_open()?;
        let handle = self
            .inner
            .shard_of(name)
            .queues
            .write()
            .remove(name)
            .ok_or_else(|| MqError::QueueNotFound(name.to_string()))?;
        handle.close();
        if let Some(rec) = &self.inner.recorder {
            rec.record(components::MQ, "queue_deleted", name.to_string(), "");
            // Drop the queue's gauges with it — otherwise depth/unacked
            // series linger at their last sampled value on /metrics forever.
            rec.metrics()
                .remove_gauges_with_prefix(&format!("mq.queue.{name}."));
        }
        Ok(())
    }

    /// Delete every queue whose name starts with `prefix`, waking blocked
    /// consumers with `BrokerClosed`. Returns how many queues were deleted.
    /// Used to clean up a session's namespaced queues on a shared broker.
    pub fn delete_matching(&self, prefix: &str) -> MqResult<usize> {
        self.check_open()?;
        let mut handles = Vec::new();
        for shard in &self.inner.shards {
            let mut queues = shard.queues.write();
            let names: Vec<String> = queues
                .keys()
                .filter(|n| n.starts_with(prefix))
                .cloned()
                .collect();
            for name in names {
                if let Some(handle) = queues.remove(&name) {
                    handles.push((name, handle));
                }
            }
        }
        for (name, handle) in &handles {
            handle.close();
            if let Some(rec) = &self.inner.recorder {
                rec.record(components::MQ, "queue_deleted", name.clone(), "");
                rec.metrics()
                    .remove_gauges_with_prefix(&format!("mq.queue.{name}."));
            }
        }
        Ok(handles.len())
    }

    fn get_queue(&self, name: &str) -> MqResult<Arc<QueueHandle>> {
        self.inner
            .shard_of(name)
            .queues
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MqError::QueueNotFound(name.to_string()))
    }

    /// Look a queue up together with its shard's journal — the durable hot
    /// paths (publish/ack) need both, and hashing once keeps them on the
    /// same shard by construction.
    fn get_queue_and_journal(&self, name: &str) -> MqResult<(Arc<QueueHandle>, Option<&Journal>)> {
        let shard = self.inner.shard_of(name);
        let handle = shard
            .queues
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MqError::QueueNotFound(name.to_string()))?;
        Ok((handle, shard.journal.as_ref()))
    }

    /// Publish a message to a queue. Persistent messages on durable queues
    /// are journaled before being made visible, so a consumer can never ack
    /// a message the journal does not know about. The journal append goes to
    /// the queue's own shard segment, so publishes to queues on different
    /// shards never serialize on a journal mutex.
    pub fn publish(&self, queue: &str, message: Message) -> MqResult<()> {
        self.check_open()?;
        let (handle, journal) = self.get_queue_and_journal(queue)?;
        if handle.config.durable && message.persistent {
            if let Some(j) = journal {
                // Tag must match what the queue will assign; reserve it by
                // pushing first is wrong (visibility before journaling), so
                // journal with the message id and rely on push returning the
                // tag for the ack record instead. To keep publish/journal
                // atomicity simple we journal after push but before returning:
                // a crash between push and journal loses at most the messages
                // of in-flight publishes, identical to RabbitMQ without
                // publisher confirms.
                let tag = handle.push(message.clone())?;
                j.append(&JournalRecord::Publish {
                    queue: queue.to_string(),
                    tag,
                    headers: message.headers.clone(),
                    payload: message.payload.clone(),
                })?;
                return Ok(());
            }
        }
        handle.push(message)?;
        Ok(())
    }

    /// Publish a batch of messages to a queue: one queue-lock acquisition,
    /// one consumer wakeup (`notify_all`), and — for persistent messages on
    /// a durable queue — a single journal append (one lock, one flush) for
    /// the whole batch. Returns the assigned delivery tags in message order.
    /// All-or-nothing with respect to queue capacity.
    pub fn publish_batch(&self, queue: &str, messages: Vec<Message>) -> MqResult<Vec<u64>> {
        self.check_open()?;
        let (handle, journal) = self.get_queue_and_journal(queue)?;
        if let (true, Some(j)) = (handle.config.durable, journal) {
            // Same crash window as `publish`: journal after push, so a crash
            // between the two loses at most this in-flight batch (RabbitMQ
            // without publisher confirms). Message clones are O(1) (`Bytes`),
            // so snapshotting the batch for the journal records is cheap.
            let snapshot = messages.clone();
            let tags = handle.push_batch(messages)?;
            let records: Vec<JournalRecord> = snapshot
                .iter()
                .zip(&tags)
                .filter(|(m, _)| m.persistent)
                .map(|(m, tag)| JournalRecord::Publish {
                    queue: queue.to_string(),
                    tag: *tag,
                    headers: m.headers.clone(),
                    payload: m.payload.clone(),
                })
                .collect();
            j.append_all(&records)?;
            return Ok(tags);
        }
        handle.push_batch(messages)
    }

    /// Non-blocking fetch of the head message.
    pub fn get(&self, queue: &str) -> MqResult<Option<Delivery>> {
        self.check_open()?;
        self.get_queue(queue)?.try_pop()
    }

    /// Blocking fetch with timeout; `Ok(None)` on timeout.
    pub fn get_timeout(&self, queue: &str, timeout: Duration) -> MqResult<Option<Delivery>> {
        self.check_open()?;
        self.get_queue(queue)?.pop_timeout(timeout)
    }

    /// Blocking batch fetch: wait up to `timeout` for at least one ready
    /// message, then drain up to `max` messages in a single queue-lock hold.
    /// Returns an empty vector on timeout (so component loops can poll
    /// their shutdown flags, like [`Broker::get_timeout`]).
    pub fn get_batch(&self, queue: &str, max: usize, timeout: Duration) -> MqResult<Vec<Delivery>> {
        self.check_open()?;
        self.get_queue(queue)?.pop_batch_timeout(max, timeout)
    }

    /// RabbitMQ-style cumulative ack: acknowledge every unacked delivery on
    /// `queue` whose tag is `<= up_to_tag`, in one queue-lock hold and (for
    /// durable queues) one journal append. Returns how many deliveries were
    /// settled. Only safe when a single consumer drains the queue — with
    /// concurrent consumers a cumulative ack would settle foreign tags.
    pub fn ack_multiple(&self, queue: &str, up_to_tag: u64) -> MqResult<usize> {
        self.check_open()?;
        let (handle, journal) = self.get_queue_and_journal(queue)?;
        // The settled tags are only needed to journal durable queues; the
        // non-durable hot path skips collecting them entirely.
        let want_tags = handle.config.durable && journal.is_some();
        let (n, tags) = handle.ack_multiple(up_to_tag, want_tags)?;
        if want_tags {
            if let Some(j) = journal {
                let records: Vec<JournalRecord> = tags
                    .iter()
                    .map(|tag| JournalRecord::Ack {
                        queue: queue.to_string(),
                        tag: *tag,
                    })
                    .collect();
                j.append_all(&records)?;
            }
        }
        Ok(n)
    }

    /// Cumulative nack: requeue every unacked delivery on `queue` whose tag
    /// is `<= up_to_tag` at the front in original order, flagged
    /// redelivered. Returns how many were requeued.
    pub fn nack_multiple(&self, queue: &str, up_to_tag: u64) -> MqResult<usize> {
        self.check_open()?;
        self.get_queue(queue)?.nack_multiple(up_to_tag)
    }

    /// Acknowledge a delivery on a queue.
    pub fn ack(&self, queue: &str, tag: u64) -> MqResult<()> {
        self.check_open()?;
        let (handle, journal) = self.get_queue_and_journal(queue)?;
        handle.ack(tag)?;
        if handle.config.durable {
            if let Some(j) = journal {
                j.append(&JournalRecord::Ack {
                    queue: queue.to_string(),
                    tag,
                })?;
            }
        }
        Ok(())
    }

    /// Negative-acknowledge a delivery, requeueing it at the front.
    pub fn nack(&self, queue: &str, tag: u64) -> MqResult<()> {
        self.check_open()?;
        self.get_queue(queue)?.nack_requeue(tag)
    }

    /// Requeue all unacked messages of a queue (consumer recovery). Returns
    /// the number of requeued messages.
    pub fn recover_unacked(&self, queue: &str) -> MqResult<usize> {
        self.check_open()?;
        Ok(self.get_queue(queue)?.recover_unacked())
    }

    /// Drop all ready messages of a queue; returns how many were purged.
    pub fn purge(&self, queue: &str) -> MqResult<usize> {
        self.check_open()?;
        Ok(self.get_queue(queue)?.purge())
    }

    /// Ready depth of a queue.
    pub fn depth(&self, queue: &str) -> MqResult<usize> {
        Ok(self.get_queue(queue)?.depth())
    }

    /// Unacked count of a queue.
    pub fn unacked(&self, queue: &str) -> MqResult<usize> {
        Ok(self.get_queue(queue)?.unacked_count())
    }

    /// Names of all declared queues across every shard, sorted.
    pub fn queue_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for shard in &self.inner.shards {
            names.extend(shard.queues.read().keys().cloned());
        }
        names.sort();
        names
    }

    /// Whether a queue exists.
    pub fn has_queue(&self, name: &str) -> bool {
        self.inner.shard_of(name).queues.read().contains_key(name)
    }

    /// Statistics for one queue.
    pub fn queue_stats(&self, queue: &str) -> MqResult<QueueStats> {
        Ok(self.get_queue(queue)?.stats())
    }

    /// Aggregate statistics across all shards. Per-shard aggregates are
    /// combined with [`BrokerStats::merge`], which sums the per-queue
    /// counters but takes the max of `journal_bytes` — the journal-bytes
    /// gauge is stamped broker-wide on every shard aggregate, so summing it
    /// would count each segment once per shard.
    pub fn stats(&self) -> BrokerStats {
        let journal_bytes: u64 = self
            .inner
            .shards
            .iter()
            .filter_map(|s| s.journal.as_ref())
            .map(|j| j.bytes())
            .sum();
        let mut agg = BrokerStats::default();
        for shard in &self.inner.shards {
            // Snapshot the handles so per-queue stats locks are taken
            // without holding the shard's registry lock.
            let handles: Vec<Arc<QueueHandle>> = shard.queues.read().values().cloned().collect();
            let mut shard_stats = BrokerStats {
                journal_bytes,
                ..Default::default()
            };
            for handle in handles {
                shard_stats.absorb(&handle.stats());
            }
            agg.merge(&shard_stats);
        }
        agg
    }

    /// Shut the broker down: all queues close and every blocked consumer is
    /// woken with `BrokerClosed`. The depth sampler is woken and joined
    /// before returning, so no stale sampler can keep writing gauges after
    /// close. Idempotent.
    pub fn close(&self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        for shard in &self.inner.shards {
            for handle in shard.queues.read().values() {
                handle.close();
            }
        }
        if let Some((stop, h)) = self.inner.sampler.lock().take() {
            drop(stop);
            let _ = h.join();
        }
        if let Some(rec) = &self.inner.recorder {
            rec.record(components::MQ, "broker_closed", "", "");
        }
    }

    /// Whether `close` has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Create a consumer over `queue` with an AMQP-style prefetch window.
    pub fn consumer(&self, queue: &str, prefetch: usize) -> crate::consumer::Consumer {
        crate::consumer::Consumer::new(self.clone(), queue.to_string(), prefetch)
    }
}

impl Default for Broker {
    fn default() -> Self {
        Self::new()
    }
}

/// Background thread feeding `mq.queue.<queue>.depth`,
/// `mq.queue.<queue>.unacked`, and `mq.queue.<queue>.dequeue_rate`
/// (deliveries per second over the last interval) gauges. Holds only a
/// [`Weak`] to the broker so it never keeps it alive; it exits when the
/// broker closes or is dropped — either way `stop` disconnects, which ends
/// the wait for the next sample at once.
fn spawn_depth_sampler(
    inner: Weak<BrokerInner>,
    recorder: Recorder,
    interval: Duration,
    stop: Receiver<()>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("mq-depth-sampler".into())
        .spawn(move || {
            let interval = interval.max(Duration::from_millis(1));
            // Per-queue delivered counter at the previous sample, with the
            // sample instant, for the dequeue-rate derivative.
            let mut last: HashMap<String, (u64, std::time::Instant)> = HashMap::new();
            while stop.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                let Some(inner) = inner.upgrade() else {
                    break;
                };
                if inner.closed.load(Ordering::Acquire) {
                    break;
                }
                let now = std::time::Instant::now();
                // Snapshot the queue handles first, then sample with no
                // registry lock held. Sampling takes each queue's state
                // mutex; doing that under the shard `queues` read lock used
                // to stall `declare`/`delete_matching` (writers) for the
                // whole scrape. The snapshot is a brief read-lock per shard.
                let mut snapshot: Vec<(String, Arc<QueueHandle>)> = Vec::new();
                for shard in &inner.shards {
                    let queues = shard.queues.read();
                    snapshot.extend(queues.iter().map(|(n, h)| (n.clone(), h.clone())));
                }
                let metrics = recorder.metrics();
                for (name, handle) in &snapshot {
                    let stats = handle.stats();
                    let rate = match last.get(name) {
                        Some(&(prev, at)) => {
                            let dt = now.saturating_duration_since(at).as_secs_f64();
                            if dt > 0.0 {
                                (stats.delivered.saturating_sub(prev) as f64 / dt) as i64
                            } else {
                                0
                            }
                        }
                        None => 0,
                    };
                    // Publish only while the queue is registered, holding
                    // its shard's read lock: a delete takes the write lock
                    // to unregister the queue before it drops the gauges,
                    // so a sample of a deleted queue never reappears, not
                    // even for a moment. (A broker shutting down keeps its
                    // queues registered; their last samples stay.)
                    let queues = inner.shard_of(name).queues.read();
                    if queues.contains_key(name) {
                        metrics
                            .gauge(&format!("mq.queue.{name}.depth"))
                            .set(stats.depth as i64);
                        metrics
                            .gauge(&format!("mq.queue.{name}.unacked"))
                            .set(stats.unacked as i64);
                        metrics
                            .gauge(&format!("mq.queue.{name}.dequeue_rate"))
                            .set(rate);
                    }
                    drop(queues);
                    last.insert(name.clone(), (stats.delivered, now));
                }
                // Drop rate state for queues that no longer exist.
                let alive: std::collections::HashSet<&str> =
                    snapshot.iter().map(|(n, _)| n.as_str()).collect();
                last.retain(|name, _| alive.contains(name.as_str()));
            }
        })
        .expect("spawn mq-depth-sampler thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_publish_get_ack() {
        let b = Broker::new();
        b.declare_queue("pending", QueueConfig::default()).unwrap();
        b.publish("pending", Message::new("t1")).unwrap();
        let d = b.get("pending").unwrap().unwrap();
        assert_eq!(&d.message.payload[..], b"t1");
        b.ack("pending", d.tag).unwrap();
        assert_eq!(b.depth("pending").unwrap(), 0);
    }

    #[test]
    fn declare_is_idempotent() {
        let b = Broker::new();
        b.declare_queue("q", QueueConfig::default()).unwrap();
        b.publish("q", Message::new("keep")).unwrap();
        b.declare_queue("q", QueueConfig::default()).unwrap();
        assert_eq!(b.depth("q").unwrap(), 1, "redeclare must not drop messages");
    }

    #[test]
    fn publish_to_missing_queue_fails() {
        let b = Broker::new();
        assert!(matches!(
            b.publish("ghost", Message::new("x")),
            Err(MqError::QueueNotFound(_))
        ));
    }

    #[test]
    fn delete_wakes_consumers() {
        let b = Broker::new();
        b.declare_queue("q", QueueConfig::default()).unwrap();
        let b2 = b.clone();
        let t = std::thread::spawn(move || b2.get_timeout("q", Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        b.delete_queue("q").unwrap();
        assert!(matches!(t.join().unwrap(), Err(MqError::BrokerClosed)));
        assert!(!b.has_queue("q"));
    }

    #[test]
    fn close_is_global_and_idempotent() {
        let b = Broker::new();
        b.declare_queue("q", QueueConfig::default()).unwrap();
        b.close();
        b.close();
        assert!(b.is_closed());
        assert!(matches!(
            b.publish("q", Message::new("x")),
            Err(MqError::BrokerClosed)
        ));
    }

    #[test]
    fn clones_share_state() {
        let b = Broker::new();
        let c = b.clone();
        b.declare_queue("shared", QueueConfig::default()).unwrap();
        c.publish("shared", Message::new("via-clone")).unwrap();
        assert_eq!(b.depth("shared").unwrap(), 1);
    }

    #[test]
    fn stats_aggregate_over_queues() {
        let b = Broker::new();
        b.declare_queue("a", QueueConfig::default()).unwrap();
        b.declare_queue("b", QueueConfig::default()).unwrap();
        b.publish("a", Message::new("1")).unwrap();
        b.publish("b", Message::new("2")).unwrap();
        b.publish("b", Message::new("3")).unwrap();
        let s = b.stats();
        assert_eq!(s.queues, 2);
        assert_eq!(s.total_depth, 3);
        assert_eq!(s.total_enqueued, 3);
    }

    fn tmp_journal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "entk-mq-broker-{name}-{}-{:?}.journal",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn durable_messages_survive_recovery() {
        let path = tmp_journal("recover");
        {
            let b = Broker::with_config(BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            b.declare_queue("state", QueueConfig::durable()).unwrap();
            b.publish("state", Message::persistent("update-1")).unwrap();
            b.publish("state", Message::persistent("update-2")).unwrap();
            let d = b.get("state").unwrap().unwrap();
            b.ack("state", d.tag).unwrap();
            // Simulated crash: broker dropped without close/drain.
        }
        let b = Broker::recover(&path).unwrap();
        assert!(b.has_queue("state"));
        assert_eq!(b.depth("state").unwrap(), 1);
        let d = b.get("state").unwrap().unwrap();
        assert_eq!(&d.message.payload[..], b"update-2");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_headers_survive_crash_recovery_redelivery() {
        let path = tmp_journal("trace_recover");
        let ctx = entk_observe::TraceCtx::new("task.0007")
            .with_hop("enq", entk_observe::hops::ENQUEUE, 1_000)
            .with_hop("emgr", entk_observe::hops::EMGR_DEQUEUE, 2_500);
        {
            let b = Broker::with_config(BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            b.declare_queue("pending", QueueConfig::durable()).unwrap();
            b.publish("pending", Message::persistent("task.0007").with_trace(&ctx))
                .unwrap();
            // In-process redelivery (nack-requeue) keeps the trace.
            let d = b.get("pending").unwrap().unwrap();
            b.nack("pending", d.tag).unwrap();
            let d = b.get("pending").unwrap().unwrap();
            assert!(d.redelivered);
            assert_eq!(d.message.trace(), Some(ctx.clone()));
            // Crash with the delivery unacked.
        }
        let b = Broker::recover(&path).unwrap();
        let d = b.get("pending").unwrap().unwrap();
        assert_eq!(
            d.message.trace(),
            Some(ctx),
            "hop list survives journal replay byte-for-byte"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovery_of_empty_durable_queue() {
        let path = tmp_journal("empty");
        {
            let b = Broker::with_config(BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            b.declare_queue("sync", QueueConfig::durable()).unwrap();
        }
        let b = Broker::recover(&path).unwrap();
        assert!(b.has_queue("sync"));
        assert_eq!(b.depth("sync").unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_persistent_messages_not_recovered() {
        let path = tmp_journal("nonpersistent");
        {
            let b = Broker::with_config(BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            b.declare_queue("q", QueueConfig::durable()).unwrap();
            b.publish("q", Message::new("transient")).unwrap();
            b.publish("q", Message::persistent("durable")).unwrap();
        }
        let b = Broker::recover(&path).unwrap();
        assert_eq!(b.depth("q").unwrap(), 1);
        assert_eq!(
            &b.get("q").unwrap().unwrap().message.payload[..],
            b"durable"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recorder_collects_latency_histograms_and_depth_gauges() {
        let rec = Recorder::new();
        let b = Broker::with_config(BrokerConfig {
            recorder: Some(rec.clone()),
            depth_sample_interval: Some(Duration::from_millis(5)),
            ..Default::default()
        })
        .unwrap();
        b.declare_queue("obs", QueueConfig::default()).unwrap();
        for i in 0..10u8 {
            b.publish("obs", Message::new(vec![i])).unwrap();
        }
        // Leave some messages ready and one unacked so the sampler sees a
        // non-trivial state, then give it a few periods to run.
        let d = b.get("obs").unwrap().unwrap();
        let d2 = b.get("obs").unwrap().unwrap();
        b.ack("obs", d.tag).unwrap();
        std::thread::sleep(Duration::from_millis(40));

        let p2d = rec
            .metrics()
            .histogram(crate::queue::HIST_PUBLISH_TO_DELIVER)
            .snapshot();
        let d2a = rec
            .metrics()
            .histogram(crate::queue::HIST_DELIVER_TO_ACK)
            .snapshot();
        assert_eq!(p2d.count, 2);
        assert_eq!(d2a.count, 1);
        assert!(p2d.p50_ns > 0 && p2d.p99_ns >= p2d.p50_ns);

        let gauges = rec.metrics().gauges();
        let depth = gauges
            .iter()
            .find(|(n, _, _)| n == "mq.queue.obs.depth")
            .expect("sampler wrote depth gauge");
        assert_eq!(depth.1, 8, "8 messages still ready");
        let unacked = gauges
            .iter()
            .find(|(n, _, _)| n == "mq.queue.obs.unacked")
            .expect("sampler wrote unacked gauge");
        assert_eq!(unacked.1, 1, "one delivery not yet acked");

        // Lifecycle events entered the trace.
        let events = rec.snapshot();
        assert!(events
            .iter()
            .any(|e| e.kind == "queue_declared" && e.entity_uid == "obs"));
        b.ack("obs", d2.tag).unwrap();
        b.close();
    }

    /// Satellite regression: deleting a session's namespaced queues must
    /// unregister their gauges. Before the fix, `mq.queue.<name>.depth` /
    /// `.unacked` kept their last sampled value on /metrics forever after
    /// `delete_matching` removed the queues themselves.
    #[test]
    fn deleted_queues_drop_their_gauges() {
        let rec = Recorder::new();
        let b = Broker::with_config(BrokerConfig {
            recorder: Some(rec.clone()),
            depth_sample_interval: Some(Duration::from_millis(5)),
            ..Default::default()
        })
        .unwrap();
        b.declare_queue("s00001.pending", QueueConfig::default())
            .unwrap();
        b.declare_queue("s00001.done", QueueConfig::default())
            .unwrap();
        b.declare_queue("s00002.pending", QueueConfig::default())
            .unwrap();
        b.publish("s00001.pending", Message::new("x")).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline
            && !rec
                .metrics()
                .gauges()
                .iter()
                .any(|(n, _, _)| n == "mq.queue.s00001.pending.depth")
        {
            std::thread::sleep(Duration::from_millis(5));
        }

        assert_eq!(b.delete_matching("s00001.").unwrap(), 2);
        let names: Vec<String> = rec
            .metrics()
            .gauges()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert!(
            !names.iter().any(|n| n.starts_with("mq.queue.s00001.")),
            "stale session gauges survived deletion: {names:?}"
        );

        // delete_queue (singular) cleans up too, and close() joins the
        // sampler so no gauge can reappear afterwards.
        b.delete_queue("s00002.pending").unwrap();
        b.close();
        let names: Vec<String> = rec
            .metrics()
            .gauges()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert!(
            !names.iter().any(|n| n.starts_with("mq.queue.")),
            "queue gauges survived delete/close: {names:?}"
        );
    }

    /// The sampler derives a deliveries-per-second gauge from delivered
    /// counter deltas, giving watchdogs a stuck-queue signal (depth > 0
    /// while the dequeue rate sits at zero).
    #[test]
    fn sampler_publishes_dequeue_rate() {
        let rec = Recorder::new();
        let b = Broker::with_config(BrokerConfig {
            recorder: Some(rec.clone()),
            depth_sample_interval: Some(Duration::from_millis(5)),
            ..Default::default()
        })
        .unwrap();
        b.declare_queue("q", QueueConfig::default()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut seen_rate = false;
        while std::time::Instant::now() < deadline && !seen_rate {
            for i in 0..50u8 {
                b.publish("q", Message::new(vec![i])).unwrap();
            }
            while let Ok(Some(d)) = b.get("q") {
                b.ack("q", d.tag).unwrap();
            }
            seen_rate = rec
                .metrics()
                .gauges()
                .iter()
                .any(|(n, _, hw)| n == "mq.queue.q.dequeue_rate" && *hw > 0);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(seen_rate, "dequeue_rate gauge observed deliveries");
        b.close();
    }

    /// Satellite regression for the lost-wakeup inefficiency: a per-message
    /// `notify_one` wakes a single consumer for N simultaneous messages,
    /// leaving the other N-1 blocked until their full `get_timeout` deadline.
    /// `publish_batch` must `notify_all` so every blocked caller drains one
    /// message promptly.
    #[test]
    fn batch_publish_wakes_all_blocked_get_timeout_callers() {
        const WAITERS: usize = 4;
        let b = Broker::new();
        b.declare_queue("q", QueueConfig::default()).unwrap();
        let mut waiters = vec![];
        for _ in 0..WAITERS {
            let b = b.clone();
            waiters.push(std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                let d = b.get_timeout("q", Duration::from_secs(10)).unwrap();
                (d, t0.elapsed())
            }));
        }
        // Give all waiters time to block on the condvar, then publish one
        // batch carrying exactly one message per waiter.
        std::thread::sleep(Duration::from_millis(50));
        let msgs: Vec<Message> = (0..WAITERS).map(|i| Message::new(vec![i as u8])).collect();
        b.publish_batch("q", msgs).unwrap();
        for w in waiters {
            let (d, waited) = w.join().unwrap();
            assert!(d.is_some(), "every blocked caller must receive a message");
            assert!(
                waited < Duration::from_secs(5),
                "woken by notify_all, not by timeout expiry (waited {waited:?})"
            );
        }
        assert_eq!(b.depth("q").unwrap(), 0);
        assert_eq!(b.unacked("q").unwrap(), WAITERS);
    }

    #[test]
    fn get_batch_and_ack_multiple_roundtrip() {
        let b = Broker::new();
        b.declare_queue("q", QueueConfig::default()).unwrap();
        let tags = b
            .publish_batch("q", (0..6u8).map(|i| Message::new(vec![i])).collect())
            .unwrap();
        assert_eq!(tags.len(), 6);
        let batch = b.get_batch("q", 4, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(
            b.ack_multiple("q", batch.last().unwrap().tag).unwrap(),
            4,
            "cumulative ack settles the whole drained window"
        );
        assert_eq!(b.unacked("q").unwrap(), 0);
        assert_eq!(b.depth("q").unwrap(), 2);
        // nack_multiple puts a drained window back in order.
        let batch = b.get_batch("q", 4, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(b.nack_multiple("q", batch.last().unwrap().tag).unwrap(), 2);
        let redelivered = b.get_batch("q", 4, Duration::ZERO).unwrap();
        assert_eq!(redelivered[0].message.payload[0], 4);
        assert_eq!(redelivered[1].message.payload[0], 5);
        assert!(redelivered.iter().all(|d| d.redelivered));
    }

    /// Satellite: durable-queue journal recovery of a partially-acked batch.
    /// A batch published persistently, partially settled with a cumulative
    /// ack, must recover exactly the unacked remainder in publish order.
    #[test]
    fn durable_partially_acked_batch_recovers_remainder() {
        let path = tmp_journal("partial-batch");
        {
            let b = Broker::with_config(BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            b.declare_queue("state", QueueConfig::durable()).unwrap();
            b.publish_batch(
                "state",
                (0..5u8).map(|i| Message::persistent(vec![i])).collect(),
            )
            .unwrap();
            let batch = b.get_batch("state", 5, Duration::ZERO).unwrap();
            // Ack the first three cumulatively; crash with two unacked.
            b.ack_multiple("state", batch[2].tag).unwrap();
        }
        let b = Broker::recover(&path).unwrap();
        assert_eq!(b.depth("state").unwrap(), 2);
        let rest = b.get_batch("state", 5, Duration::ZERO).unwrap();
        assert_eq!(rest[0].message.payload[0], 3);
        assert_eq!(rest[1].message.payload[0], 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_publish_journals_only_persistent_messages() {
        let path = tmp_journal("mixed-batch");
        {
            let b = Broker::with_config(BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            b.declare_queue("q", QueueConfig::durable()).unwrap();
            b.publish_batch(
                "q",
                vec![
                    Message::new("transient-1"),
                    Message::persistent("durable-1"),
                    Message::new("transient-2"),
                    Message::persistent("durable-2"),
                ],
            )
            .unwrap();
        }
        let b = Broker::recover(&path).unwrap();
        assert_eq!(b.depth("q").unwrap(), 2);
        let batch = b.get_batch("q", 4, Duration::ZERO).unwrap();
        assert_eq!(&batch[0].message.payload[..], b"durable-1");
        assert_eq!(&batch[1].message.payload[..], b"durable-2");
        std::fs::remove_file(&path).unwrap();
    }

    /// Satellite regression: journal recovery must advance each queue's tag
    /// allocator past the highest *journaled* tag, not just the highest
    /// restored (live) tag. With every message acked before the crash,
    /// nothing is restored, and a fresh publish used to be assigned tag 1
    /// again — colliding with the journal's existing tag-1 records so a
    /// subsequent recovery dropped the new message (the old ack tombstones
    /// it) and tombstoned unacked entries could alias it.
    #[test]
    fn recovered_broker_does_not_reuse_journaled_tags() {
        let path = tmp_journal("tag-continuity");
        {
            let b = Broker::with_config(BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            b.declare_queue("q", QueueConfig::durable()).unwrap();
            b.publish_batch(
                "q",
                (0..3u8).map(|i| Message::persistent(vec![i])).collect(),
            )
            .unwrap();
            let batch = b.get_batch("q", 3, Duration::ZERO).unwrap();
            assert_eq!(batch.last().unwrap().tag, 3);
            b.ack_multiple("q", 3).unwrap();
            // Crash with everything acked: nothing live to restore.
        }
        let b = Broker::recover(&path).unwrap();
        assert_eq!(b.depth("q").unwrap(), 0);
        // recover → publish → ack: the fresh tag must be past every
        // journaled tag.
        b.publish("q", Message::persistent("fresh")).unwrap();
        let d = b.get("q").unwrap().unwrap();
        assert!(
            d.tag > 3,
            "fresh publish reused journaled tag {} (allocator not advanced)",
            d.tag
        );
        b.ack("q", d.tag).unwrap();
        drop(b);
        // A second recovery replays publish+ack of the fresh tag cleanly:
        // with a reused tag, the old ack record would tombstone the new
        // publish (or vice versa) and the state would diverge.
        let b = Broker::recover(&path).unwrap();
        assert_eq!(b.depth("q").unwrap(), 0);
        assert_eq!(b.unacked("q").unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Torn `append_all` tail through the full broker recovery path: the
    /// batch that tore is lost (publish never returned success), the prefix
    /// recovers exactly, and post-recovery publishes journal cleanly after
    /// the repaired tail.
    #[test]
    fn recover_after_torn_batch_append_keeps_exact_prefix() {
        let _g = entk_fail::scenario();
        let path = tmp_journal("torn-batch-recover");
        {
            let b = Broker::with_config(BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            b.declare_queue("q", QueueConfig::durable()).unwrap();
            b.publish("q", Message::persistent("before")).unwrap();
            entk_fail::arm_once(
                "mq.journal.torn_tail",
                entk_fail::InjectedAction::Partial(10),
            );
            let err = b
                .publish_batch(
                    "q",
                    vec![Message::persistent("torn-a"), Message::persistent("torn-b")],
                )
                .unwrap_err();
            assert!(matches!(err, MqError::FaultInjected(_)));
            // Crash: broker dropped with the torn record on disk.
        }
        let b = Broker::recover(&path).unwrap();
        assert_eq!(b.depth("q").unwrap(), 1, "only the pre-tear message");
        let d = b.get("q").unwrap().unwrap();
        assert_eq!(&d.message.payload[..], b"before");
        b.ack("q", d.tag).unwrap();
        b.publish("q", Message::persistent("after")).unwrap();
        drop(b);
        let b = Broker::recover(&path).unwrap();
        assert_eq!(b.depth("q").unwrap(), 1);
        assert_eq!(
            &b.get("q").unwrap().unwrap().message.payload[..],
            b"after",
            "journal stays parseable after the repaired tear"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// A crash mid-recovery (failpoint between message restores) must be
    /// retryable: the journal is untouched by replay, so a second recover
    /// converges on the exact same unacked set.
    #[test]
    fn recover_mid_replay_crash_is_retryable() {
        let _g = entk_fail::scenario();
        let path = tmp_journal("mid-replay");
        {
            let b = Broker::with_config(BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            b.declare_queue("q", QueueConfig::durable()).unwrap();
            b.publish_batch(
                "q",
                (0..4u8).map(|i| Message::persistent(vec![i])).collect(),
            )
            .unwrap();
            let batch = b.get_batch("q", 4, Duration::ZERO).unwrap();
            b.ack("q", batch[0].tag).unwrap();
        }
        // Die after restoring one of the three live messages.
        entk_fail::arm_nth(
            "mq.broker.recover_mid_replay",
            2,
            entk_fail::InjectedAction::Fail,
        );
        match Broker::recover(&path) {
            Err(MqError::FaultInjected(_)) => {}
            Err(e) => panic!("expected injected fault, got {e}"),
            Ok(_) => panic!("expected injected fault, recovery succeeded"),
        }
        let b = Broker::recover(&path).expect("retried recovery succeeds");
        assert_eq!(b.depth("q").unwrap(), 3, "exact unacked set recovered");
        let payloads: Vec<u8> = b
            .get_batch("q", 4, Duration::ZERO)
            .unwrap()
            .iter()
            .map(|d| d.message.payload[0])
            .collect();
        assert_eq!(payloads, vec![1, 2, 3]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Satellite: no-duplicate/no-loss delivery under concurrent `get_batch`
    /// consumers with prefetch windows. Each consumer drains batches through
    /// a [`crate::consumer::Consumer`] and acks per tag (cumulative acks are
    /// single-consumer-only by contract).
    #[test]
    fn concurrent_get_batch_consumers_no_loss_no_duplication() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 500;
        const BATCH: usize = 32;

        let b = Broker::new();
        b.declare_queue("work", QueueConfig::default()).unwrap();
        let seen = Arc::new(Mutex::new(HashSet::new()));

        let mut producers = vec![];
        for p in 0..PRODUCERS {
            let b = b.clone();
            producers.push(std::thread::spawn(move || {
                for chunk in 0..(PER_PRODUCER / BATCH + 1) {
                    let lo = chunk * BATCH;
                    let hi = (lo + BATCH).min(PER_PRODUCER);
                    let msgs: Vec<Message> = (lo..hi)
                        .map(|i| Message::new((p * PER_PRODUCER + i).to_string()))
                        .collect();
                    b.publish_batch("work", msgs).unwrap();
                }
            }));
        }
        let mut consumers = vec![];
        for _ in 0..CONSUMERS {
            let b = b.clone();
            let seen = Arc::clone(&seen);
            consumers.push(std::thread::spawn(move || {
                let mut c = b.consumer("work", BATCH);
                loop {
                    let batch = c.next_batch(Duration::from_millis(200)).unwrap();
                    if batch.is_empty() {
                        break;
                    }
                    for d in batch {
                        let id: usize = d.message.payload_str().parse().unwrap();
                        assert!(seen.lock().unwrap().insert(id), "duplicate {id}");
                        c.ack(d.tag).unwrap();
                    }
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(seen.lock().unwrap().len(), PRODUCERS * PER_PRODUCER);
        assert_eq!(b.depth("work").unwrap(), 0);
        assert_eq!(b.unacked("work").unwrap(), 0);
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 500;

        let b = Broker::new();
        b.declare_queue("work", QueueConfig::default()).unwrap();
        let seen = Arc::new(Mutex::new(HashSet::new()));

        let mut handles = vec![];
        for p in 0..PRODUCERS {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let id = p * PER_PRODUCER + i;
                    b.publish("work", Message::new(id.to_string())).unwrap();
                }
            }));
        }
        let mut consumers = vec![];
        for _ in 0..CONSUMERS {
            let b = b.clone();
            let seen = Arc::clone(&seen);
            consumers.push(std::thread::spawn(move || loop {
                match b.get_timeout("work", Duration::from_millis(200)) {
                    Ok(Some(d)) => {
                        let id: usize = d.message.payload_str().parse().unwrap();
                        assert!(seen.lock().unwrap().insert(id), "duplicate {id}");
                        b.ack("work", d.tag).unwrap();
                    }
                    Ok(None) => break,
                    Err(e) => panic!("consumer error: {e}"),
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(seen.lock().unwrap().len(), PRODUCERS * PER_PRODUCER);
        assert_eq!(b.depth("work").unwrap(), 0);
        assert_eq!(b.unacked("work").unwrap(), 0);
    }

    fn cleanup_segments(base: &Path) {
        for seg in existing_segments(base) {
            let _ = std::fs::remove_file(seg);
        }
    }

    #[test]
    fn segment_paths_follow_stem_dash_index_layout() {
        let base = Path::new("/tmp/x/broker.journal");
        assert_eq!(
            segment_path(base, 0),
            PathBuf::from("/tmp/x/broker.journal")
        );
        assert_eq!(
            segment_path(base, 1),
            PathBuf::from("/tmp/x/broker-1.journal")
        );
        assert_eq!(
            segment_path(base, 7),
            PathBuf::from("/tmp/x/broker-7.journal")
        );
        // Extensionless journals shard too.
        let bare = Path::new("/tmp/x/journal");
        assert_eq!(segment_path(bare, 2), PathBuf::from("/tmp/x/journal-2"));
    }

    #[test]
    fn existing_segments_finds_base_and_numbered_siblings() {
        let base = tmp_journal("segments");
        cleanup_segments(&base);
        // No files yet: nothing found.
        assert!(existing_segments(&base).is_empty());
        // Create base + shards 1 and 3, plus a decoy that must not match.
        for i in [0usize, 1, 3] {
            std::fs::write(segment_path(&base, i), b"").unwrap();
        }
        let decoy = base.with_file_name(format!(
            "{}-x.journal",
            base.file_stem().unwrap().to_string_lossy()
        ));
        std::fs::write(&decoy, b"").unwrap();
        let segs = existing_segments(&base);
        assert_eq!(
            segs,
            vec![
                segment_path(&base, 0),
                segment_path(&base, 1),
                segment_path(&base, 3)
            ]
        );
        std::fs::remove_file(&decoy).unwrap();
        cleanup_segments(&base);
    }

    #[test]
    fn sharded_broker_routes_all_operations_across_shards() {
        let b = Broker::with_config(BrokerConfig::default().with_shards(4)).unwrap();
        assert_eq!(b.shard_count(), 4);
        for i in 0..16 {
            b.declare_queue(&format!("s1.q{i}"), QueueConfig::default())
                .unwrap();
            b.publish(&format!("s1.q{i}"), Message::new(vec![i as u8]))
                .unwrap();
        }
        b.declare_queue("other", QueueConfig::default()).unwrap();
        assert_eq!(b.queue_names().len(), 17);
        let s = b.stats();
        assert_eq!(s.queues, 17);
        assert_eq!(s.total_depth, 16);
        // Prefix delete must sweep every shard, not just the prefix's hash.
        assert_eq!(b.delete_matching("s1.").unwrap(), 16);
        assert_eq!(b.queue_names(), vec!["other".to_string()]);
        for i in 0..16 {
            assert!(!b.has_queue(&format!("s1.q{i}")));
        }
    }

    #[test]
    fn sharded_durable_broker_records_per_shard_fsync_histograms() {
        let path = tmp_journal("shard-fsync-metrics");
        cleanup_segments(&path);
        let rec = Recorder::new();
        let b = Broker::with_config(
            BrokerConfig {
                journal_path: Some(path.clone()),
                recorder: Some(rec.clone()),
                ..Default::default()
            }
            .with_shards(2),
        )
        .unwrap();
        for i in 0..8 {
            let q = format!("q{i}");
            b.declare_queue(&q, QueueConfig::durable()).unwrap();
            b.publish(&q, Message::persistent("x")).unwrap();
        }
        b.close();
        let appends: u64 = (0..2)
            .map(|i| {
                rec.metrics()
                    .histogram(&format!("mq.shard.{i}.journal_fsync"))
                    .count()
            })
            .sum();
        // 8 declares + 8 publishes, each one journal append, split across
        // the two shards by queue-name hash.
        assert_eq!(appends, 16);
        for i in 0..2 {
            assert!(
                rec.metrics()
                    .histogram(&format!("mq.shard.{i}.journal_fsync"))
                    .count()
                    > 0,
                "shard {i} saw no appends: queue hash split is degenerate"
            );
        }
        cleanup_segments(&path);
    }

    #[test]
    fn with_shards_one_keeps_legacy_single_file_layout() {
        let path = tmp_journal("one-shard");
        cleanup_segments(&path);
        {
            let b = Broker::with_config(
                BrokerConfig {
                    journal_path: Some(path.clone()),
                    ..Default::default()
                }
                .with_shards(1),
            )
            .unwrap();
            assert_eq!(b.shard_count(), 1);
            b.declare_queue("q", QueueConfig::durable()).unwrap();
            b.publish("q", Message::persistent("x")).unwrap();
        }
        assert_eq!(
            existing_segments(&path),
            vec![path.clone()],
            "shards=1 must write exactly the configured file, no siblings"
        );
        let b = Broker::recover(&path).unwrap();
        assert_eq!(b.depth("q").unwrap(), 1);
        cleanup_segments(&path);
    }

    #[test]
    fn sharded_durable_recovery_merges_all_segments() {
        let path = tmp_journal("sharded-recover");
        cleanup_segments(&path);
        const QUEUES: usize = 8;
        {
            let b = Broker::with_config(
                BrokerConfig {
                    journal_path: Some(path.clone()),
                    ..Default::default()
                }
                .with_shards(4),
            )
            .unwrap();
            for q in 0..QUEUES {
                let name = format!("q{q}");
                b.declare_queue(&name, QueueConfig::durable()).unwrap();
                b.publish_batch(
                    &name,
                    (0..4u8).map(|i| Message::persistent(vec![i])).collect(),
                )
                .unwrap();
                // Settle the first two on every queue; crash with two live.
                let batch = b.get_batch(&name, 2, Duration::ZERO).unwrap();
                b.ack_multiple(&name, batch[1].tag).unwrap();
            }
        }
        assert!(
            existing_segments(&path).len() > 1,
            "4-shard durable broker must split the journal into segments"
        );
        // Recover with the same shard count: every queue sees exactly its
        // unacked remainder, in publish order.
        let b = Broker::recover_with_config(
            BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            }
            .with_shards(4),
        )
        .unwrap();
        for q in 0..QUEUES {
            let name = format!("q{q}");
            assert_eq!(b.depth(&name).unwrap(), 2, "{name}");
            let rest = b.get_batch(&name, 4, Duration::ZERO).unwrap();
            let payloads: Vec<u8> = rest.iter().map(|d| d.message.payload[0]).collect();
            assert_eq!(payloads, vec![2, 3], "{name}");
        }
        cleanup_segments(&path);
    }

    /// The shard count may change across restarts: publishes journaled under
    /// one layout are acked through another, and the merged replay must
    /// resolve those cross-segment pairs. Also covers legacy single-file →
    /// sharded upgrades (the 4→1 leg recovers a multi-segment layout into a
    /// single-shard broker whose new appends go to the base file only).
    #[test]
    fn recovery_survives_shard_count_changes() {
        let path = tmp_journal("reshard");
        cleanup_segments(&path);
        let cfg = |shards: usize| {
            BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            }
            .with_shards(shards)
        };
        {
            let b = Broker::with_config(cfg(4)).unwrap();
            for q in 0..6 {
                let name = format!("q{q}");
                b.declare_queue(&name, QueueConfig::durable()).unwrap();
                b.publish_batch(
                    &name,
                    (0..3u8).map(|i| Message::persistent(vec![i])).collect(),
                )
                .unwrap();
            }
        }
        // Recover into ONE shard and ack the head of every queue: these ack
        // records land in the base segment while the publishes live in the
        // old shard segments.
        {
            let b = Broker::recover_with_config(cfg(1)).unwrap();
            for q in 0..6 {
                let name = format!("q{q}");
                assert_eq!(b.depth(&name).unwrap(), 3);
                let d = b.get(&name).unwrap().unwrap();
                assert_eq!(d.message.payload[0], 0);
                b.ack(&name, d.tag).unwrap();
            }
        }
        // Recover into TWO shards: the cross-segment acks must erase the
        // head publishes, and fresh tags must clear every journaled tag.
        let b = Broker::recover_with_config(cfg(2)).unwrap();
        for q in 0..6 {
            let name = format!("q{q}");
            assert_eq!(b.depth(&name).unwrap(), 2, "{name}: head ack lost in merge");
            b.publish(&name, Message::persistent("fresh")).unwrap();
            let rest = b.get_batch(&name, 4, Duration::ZERO).unwrap();
            let payloads: Vec<Vec<u8>> = rest.iter().map(|d| d.message.payload.to_vec()).collect();
            assert_eq!(payloads, vec![vec![1], vec![2], b"fresh".to_vec()]);
            assert!(
                rest[2].tag > rest[1].tag,
                "{name}: fresh tag must extend the journaled tag sequence"
            );
            b.ack_multiple(&name, rest[2].tag).unwrap();
        }
        drop(b);
        // One more recovery replays the whole history cleanly: everything
        // acked, nothing live, no tag collisions.
        let b = Broker::recover_with_config(cfg(3)).unwrap();
        for q in 0..6 {
            let name = format!("q{q}");
            assert_eq!(b.depth(&name).unwrap(), 0, "{name}");
            assert_eq!(b.unacked(&name).unwrap(), 0, "{name}");
        }
        cleanup_segments(&path);
    }

    #[test]
    fn sharded_stats_report_journal_bytes_once() {
        let path = tmp_journal("stats-bytes");
        cleanup_segments(&path);
        let b = Broker::with_config(
            BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            }
            .with_shards(4),
        )
        .unwrap();
        for q in 0..8 {
            let name = format!("q{q}");
            b.declare_queue(&name, QueueConfig::durable()).unwrap();
            b.publish(&name, Message::persistent("payload")).unwrap();
        }
        let on_disk: u64 = existing_segments(&path)
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        assert!(on_disk > 0);
        let s = b.stats();
        assert_eq!(
            s.journal_bytes, on_disk,
            "journal_bytes must equal total segment bytes exactly once"
        );
        assert_eq!(s.queues, 8);
        b.close();
        cleanup_segments(&path);
    }
}
