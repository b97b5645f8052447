//! The queue data structure behind every named broker queue.
//!
//! Each queue is a FIFO of ready messages plus a table of delivered-but-
//! unacknowledged messages. Consumers receive [`Delivery`] values; until they
//! `ack`, the broker retains the message so it can be redelivered (`nack`,
//! consumer recovery). This is the mechanism EnTK builds its transactional
//! state-update protocol on (Fig. 2, arrows 6 and 7).

use crate::error::{MqError, MqResult};
use crate::message::{Delivery, Message};
use crate::stats::QueueStats;
use entk_observe::{Histogram, Recorder};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Broker-wide histogram of enqueue-to-delivery latency (ns). For requeued
/// messages the clock restarts at the requeue, so the histogram measures
/// per-delivery queue residency, not end-to-end message age.
pub const HIST_PUBLISH_TO_DELIVER: &str = "mq.publish_to_deliver";

/// Broker-wide histogram of delivery-to-acknowledge latency (ns): how long a
/// consumer sat on each message before acking it.
pub const HIST_DELIVER_TO_ACK: &str = "mq.deliver_to_ack";

/// Configuration of a queue at declaration time.
#[derive(Debug, Clone, Default)]
pub struct QueueConfig {
    /// Durable queues journal persistent messages so they survive a broker
    /// restart (see [`crate::journal`]).
    pub durable: bool,
    /// Maximum number of ready messages; `None` means unbounded. When full,
    /// publishes fail with [`MqError::QueueFull`].
    pub capacity: Option<usize>,
}

impl QueueConfig {
    /// A durable queue (journaled persistent messages).
    pub fn durable() -> Self {
        QueueConfig {
            durable: true,
            capacity: None,
        }
    }

    /// Bound the number of ready messages.
    pub fn with_capacity(mut self, cap: usize) -> Self {
        self.capacity = Some(cap);
        self
    }
}

/// A ready entry: delivery tag is assigned at publish time so that durable
/// replay and redelivery keep stable identities.
#[derive(Debug)]
struct ReadyEntry {
    tag: u64,
    redelivered: bool,
    message: Message,
    /// When this entry (re)entered the ready queue; drives the
    /// publish-to-deliver latency histogram.
    enqueued_at: Instant,
}

/// Latency histograms resolved once at queue creation so the hot paths never
/// touch the metrics registry. All queues of a broker share the same two
/// broker-wide histograms.
struct QueueInstruments {
    publish_to_deliver: Arc<Histogram>,
    deliver_to_ack: Arc<Histogram>,
}

impl QueueInstruments {
    fn new(recorder: &Recorder) -> Self {
        QueueInstruments {
            publish_to_deliver: recorder.metrics().histogram(HIST_PUBLISH_TO_DELIVER),
            deliver_to_ack: recorder.metrics().histogram(HIST_DELIVER_TO_ACK),
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    enqueued: u64,
    delivered: u64,
    acked: u64,
    requeued: u64,
    purged: u64,
    /// Batched operation calls (not messages): `push_batch`,
    /// multi-message `pop_batch_*` drains, and cumulative acks.
    batch_publishes: u64,
    batch_deliveries: u64,
    batch_acks: u64,
}

/// Mutable queue state, always accessed under the handle's mutex.
struct QueueState {
    ready: VecDeque<ReadyEntry>,
    /// Delivered-but-unacked messages in ascending tag order (deliveries
    /// hand out ascending tags, so pops append; the rare requeue-redeliver
    /// inserts in place). Ordering makes the hot cumulative ack a front
    /// drain instead of a full-table scan. Entries settled out of order
    /// become `None` tombstones so single-tag acks stay shift-free; they are
    /// reclaimed when a front drain or a front ack passes them.
    unacked: VecDeque<(u64, Option<(Message, Instant)>)>,
    /// Live (non-tombstone) entries in `unacked`.
    unacked_live: usize,
    counters: Counters,
    closed: bool,
}

impl QueueState {
    /// Index of `tag` in `unacked`, if present (live or tombstone).
    fn unacked_idx(&self, tag: u64) -> Option<usize> {
        let idx = self.unacked.partition_point(|(t, _)| *t < tag);
        (self.unacked.get(idx).map(|(t, _)| *t) == Some(tag)).then_some(idx)
    }

    /// Take the live payload for `tag`, leaving a tombstone. `None` when the
    /// tag is unknown or already settled.
    fn take_unacked(&mut self, tag: u64) -> Option<(Message, Instant)> {
        let idx = self.unacked_idx(tag)?;
        let taken = self.unacked[idx].1.take();
        if taken.is_some() {
            self.unacked_live -= 1;
        }
        // Reclaim any tombstone run now exposed at the front.
        while matches!(self.unacked.front(), Some((_, None))) {
            self.unacked.pop_front();
        }
        taken
    }

    /// Append a freshly delivered entry, preserving ascending tag order.
    /// Redeliveries of requeued messages carry old (smaller) tags and take
    /// the slow ordered insert; first deliveries always append. A redelivery
    /// may find its own tag still present as a tombstone (its previous
    /// delivery was settled out of order, so the entry was not reclaimed);
    /// it must be revived in place — inserting a duplicate would make
    /// `unacked_idx` resolve later settles to whichever entry sorts first
    /// and error on the tombstone.
    fn push_unacked(&mut self, tag: u64, payload: (Message, Instant)) {
        match self.unacked.back() {
            Some((t, _)) if *t >= tag => {
                let idx = self.unacked.partition_point(|(t, _)| *t < tag);
                match self.unacked.get_mut(idx) {
                    Some((t, slot)) if *t == tag => {
                        debug_assert!(slot.is_none(), "tag delivered while still live");
                        *slot = Some(payload);
                    }
                    _ => self.unacked.insert(idx, (tag, Some(payload))),
                }
            }
            _ => self.unacked.push_back((tag, Some(payload))),
        }
        self.unacked_live += 1;
    }
}

/// A named queue: lock-protected state plus a condvar for blocking consumers.
pub(crate) struct QueueHandle {
    pub(crate) name: String,
    pub(crate) config: QueueConfig,
    state: Mutex<QueueState>,
    ready_cond: Condvar,
    next_tag: AtomicU64,
    /// Incrementally maintained resident-size estimate (ready + unacked),
    /// read lock-free by the stats path.
    resident_bytes: AtomicUsize,
    /// Present when the owning broker carries a [`Recorder`].
    instruments: Option<QueueInstruments>,
}

impl QueueHandle {
    #[cfg(test)]
    pub(crate) fn new(name: String, config: QueueConfig) -> Self {
        Self::with_recorder(name, config, None)
    }

    pub(crate) fn with_recorder(
        name: String,
        config: QueueConfig,
        recorder: Option<&Recorder>,
    ) -> Self {
        QueueHandle {
            name,
            config,
            state: Mutex::new(QueueState {
                ready: VecDeque::new(),
                unacked: VecDeque::new(),
                unacked_live: 0,
                counters: Counters::default(),
                closed: false,
            }),
            ready_cond: Condvar::new(),
            next_tag: AtomicU64::new(1),
            resident_bytes: AtomicUsize::new(0),
            instruments: recorder.map(QueueInstruments::new),
        }
    }

    fn alloc_tag(&self) -> u64 {
        self.next_tag.fetch_add(1, Ordering::Relaxed)
    }

    /// Enqueue at the back (normal publish). Returns the assigned tag.
    pub(crate) fn push(&self, message: Message) -> MqResult<u64> {
        let sz = message.resident_bytes();
        let tag = self.alloc_tag();
        {
            let mut st = self.state.lock();
            if st.closed {
                return Err(MqError::BrokerClosed);
            }
            if let Some(cap) = self.config.capacity {
                if st.ready.len() >= cap {
                    return Err(MqError::QueueFull(self.name.clone()));
                }
            }
            st.ready.push_back(ReadyEntry {
                tag,
                redelivered: false,
                message,
                enqueued_at: Instant::now(),
            });
            st.counters.enqueued += 1;
        }
        self.resident_bytes.fetch_add(sz, Ordering::Relaxed);
        self.ready_cond.notify_one();
        Ok(tag)
    }

    /// Enqueue a batch of messages in one lock acquisition, returning the
    /// assigned tags in message order. All-or-nothing with respect to
    /// capacity: if the batch does not fit, nothing is enqueued. Wakes *all*
    /// blocked consumers — a per-message `notify_one` would wake a single
    /// consumer for N messages and leave the rest sleeping until their
    /// `pop_timeout` deadline (the lost-wakeup inefficiency).
    pub(crate) fn push_batch(&self, messages: Vec<Message>) -> MqResult<Vec<u64>> {
        if messages.is_empty() {
            return Ok(Vec::new());
        }
        let mut sz = 0usize;
        let tags = {
            let mut st = self.state.lock();
            if st.closed {
                return Err(MqError::BrokerClosed);
            }
            if let Some(cap) = self.config.capacity {
                if st.ready.len() + messages.len() > cap {
                    return Err(MqError::QueueFull(self.name.clone()));
                }
            }
            let now = Instant::now();
            // One contiguous tag block for the whole batch: a single atomic
            // bump instead of one per message. Concurrent publishers get
            // disjoint blocks, so tags stay unique and monotonic.
            let n = messages.len();
            let base = self.next_tag.fetch_add(n as u64, Ordering::Relaxed);
            st.ready.reserve(n);
            for (i, message) in messages.into_iter().enumerate() {
                sz += message.resident_bytes();
                st.ready.push_back(ReadyEntry {
                    tag: base + i as u64,
                    redelivered: false,
                    message,
                    enqueued_at: now,
                });
            }
            st.counters.enqueued += n as u64;
            st.counters.batch_publishes += 1;
            (base..base + n as u64).collect()
        };
        self.resident_bytes.fetch_add(sz, Ordering::Relaxed);
        self.ready_cond.notify_all();
        Ok(tags)
    }

    /// Non-blocking pop of the head message, moving it to the unacked table.
    pub(crate) fn try_pop(&self) -> MqResult<Option<Delivery>> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(MqError::BrokerClosed);
        }
        Ok(self.pop_locked(&mut st))
    }

    fn pop_locked(&self, st: &mut QueueState) -> Option<Delivery> {
        self.pop_locked_at(st, Instant::now())
    }

    /// `pop_locked` with the delivery timestamp supplied by the caller, so
    /// batch drains charge one clock read per batch instead of per message.
    fn pop_locked_at(&self, st: &mut QueueState, now: Instant) -> Option<Delivery> {
        let entry = st.ready.pop_front()?;
        st.counters.delivered += 1;
        if let Some(i) = &self.instruments {
            i.publish_to_deliver
                .record_ns(now.saturating_duration_since(entry.enqueued_at).as_nanos() as u64);
        }
        st.push_unacked(entry.tag, (entry.message.clone(), now));
        Some(Delivery {
            tag: entry.tag,
            redelivered: entry.redelivered,
            message: entry.message,
        })
    }

    /// Blocking pop with timeout. Returns `Ok(None)` on timeout so callers
    /// can poll their own shutdown flags (EnTK components all have heartbeat
    /// loops doing exactly this).
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> MqResult<Option<Delivery>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return Err(MqError::BrokerClosed);
            }
            if let Some(d) = self.pop_locked(&mut st) {
                return Ok(Some(d));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            if self.ready_cond.wait_until(&mut st, deadline).timed_out() {
                // Re-check once after timeout: a message may have raced in.
                if st.closed {
                    return Err(MqError::BrokerClosed);
                }
                return Ok(self.pop_locked(&mut st));
            }
        }
    }

    fn drain_locked(&self, st: &mut QueueState, max: usize) -> Vec<Delivery> {
        // One clock read and one counter update for the whole batch; the
        // loop itself only moves entries and maintains the unacked table.
        let now = Instant::now();
        let n = max.min(st.ready.len());
        let mut out = Vec::with_capacity(n);
        st.unacked.reserve(n);
        for _ in 0..n {
            let entry = st.ready.pop_front().expect("n bounded by ready.len()");
            if let Some(i) = &self.instruments {
                i.publish_to_deliver
                    .record_ns(now.saturating_duration_since(entry.enqueued_at).as_nanos() as u64);
            }
            st.push_unacked(entry.tag, (entry.message.clone(), now));
            out.push(Delivery {
                tag: entry.tag,
                redelivered: entry.redelivered,
                message: entry.message,
            });
        }
        st.counters.delivered += n as u64;
        if n > 1 {
            st.counters.batch_deliveries += 1;
        }
        out
    }

    /// Blocking batch pop: wait (up to `timeout`) for at least one ready
    /// message, then drain up to `max` in the same lock hold. Returns an
    /// empty vector on timeout so callers can poll shutdown flags.
    pub(crate) fn pop_batch_timeout(
        &self,
        max: usize,
        timeout: Duration,
    ) -> MqResult<Vec<Delivery>> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return Err(MqError::BrokerClosed);
            }
            if !st.ready.is_empty() {
                return Ok(self.drain_locked(&mut st, max));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(Vec::new());
            }
            if self.ready_cond.wait_until(&mut st, deadline).timed_out() {
                // Re-check once after timeout: messages may have raced in.
                if st.closed {
                    return Err(MqError::BrokerClosed);
                }
                return Ok(self.drain_locked(&mut st, max));
            }
        }
    }

    /// RabbitMQ-style cumulative ack (`multiple = true`): acknowledge every
    /// outstanding delivery whose tag is `<= up_to_tag` in one lock hold.
    /// Returns the acked tags in ascending order; errors when nothing
    /// matched (mirroring the single-tag unknown-tag error). Cumulative acks
    /// span the whole queue, so they are only safe when one consumer drains
    /// the queue (every EnTK component loop) — concurrent consumers must ack
    /// per tag.
    /// `want_tags` controls whether the settled tags are collected and
    /// returned — only the durable-queue journal path needs them; the hot
    /// non-durable path passes `false` and gets an empty vector back.
    pub(crate) fn ack_multiple(
        &self,
        up_to_tag: u64,
        want_tags: bool,
    ) -> MqResult<(usize, Vec<u64>)> {
        let (n, tags, bytes) = {
            let mut st = self.state.lock();
            if st.closed {
                return Err(MqError::BrokerClosed);
            }
            // `unacked` is tag-ordered, so the covered range is exactly the
            // front run — drain it, skipping tombstones.
            let now = Instant::now();
            let mut n = 0usize;
            let mut tags = Vec::new();
            let mut bytes = 0usize;
            while matches!(st.unacked.front(), Some((t, _)) if *t <= up_to_tag) {
                let (tag, payload) = st.unacked.pop_front().expect("front just matched");
                if let Some((msg, delivered_at)) = payload {
                    st.unacked_live -= 1;
                    n += 1;
                    bytes += msg.resident_bytes();
                    if let Some(i) = &self.instruments {
                        i.deliver_to_ack.record_ns(
                            now.saturating_duration_since(delivered_at).as_nanos() as u64,
                        );
                    }
                    if want_tags {
                        tags.push(tag);
                    }
                }
            }
            if n == 0 {
                return Err(MqError::UnknownDeliveryTag(up_to_tag));
            }
            st.counters.acked += n as u64;
            st.counters.batch_acks += 1;
            (n, tags, bytes)
        };
        self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
        Ok((n, tags))
    }

    /// Cumulative nack: requeue every outstanding delivery whose tag is
    /// `<= up_to_tag` at the front of the queue in original (tag) order,
    /// flagged redelivered. Returns how many were requeued.
    pub(crate) fn nack_multiple(&self, up_to_tag: u64) -> MqResult<usize> {
        let n = {
            let mut st = self.state.lock();
            if st.closed {
                return Err(MqError::BrokerClosed);
            }
            // The covered range is the tag-ordered front run; collect it in
            // ascending order, skipping tombstones.
            let mut entries = Vec::new();
            while matches!(st.unacked.front(), Some((t, _)) if *t <= up_to_tag) {
                let (tag, payload) = st.unacked.pop_front().expect("front just matched");
                if let Some((msg, _)) = payload {
                    st.unacked_live -= 1;
                    entries.push((tag, msg));
                }
            }
            if entries.is_empty() {
                return Err(MqError::UnknownDeliveryTag(up_to_tag));
            }
            // Requeue highest tag first so the front of the ready queue ends
            // up in ascending tag order, i.e. original delivery order.
            let now = Instant::now();
            let n = entries.len();
            for (tag, msg) in entries.into_iter().rev() {
                st.counters.requeued += 1;
                st.ready.push_front(ReadyEntry {
                    tag,
                    redelivered: true,
                    message: msg,
                    enqueued_at: now,
                });
            }
            n
        };
        self.ready_cond.notify_all();
        Ok(n)
    }

    /// Acknowledge a delivered message, dropping it for good.
    pub(crate) fn ack(&self, tag: u64) -> MqResult<()> {
        let msg = {
            let mut st = self.state.lock();
            if st.closed {
                return Err(MqError::BrokerClosed);
            }
            let (msg, delivered_at) = st
                .take_unacked(tag)
                .ok_or(MqError::UnknownDeliveryTag(tag))?;
            st.counters.acked += 1;
            if let Some(i) = &self.instruments {
                i.deliver_to_ack.record_ns(
                    Instant::now()
                        .saturating_duration_since(delivered_at)
                        .as_nanos() as u64,
                );
            }
            msg
        };
        self.resident_bytes
            .fetch_sub(msg.resident_bytes(), Ordering::Relaxed);
        Ok(())
    }

    /// Negative-acknowledge: return the message to the *front* of the queue
    /// (so redelivery order approximates original order), flagged as
    /// redelivered.
    pub(crate) fn nack_requeue(&self, tag: u64) -> MqResult<()> {
        {
            let mut st = self.state.lock();
            if st.closed {
                return Err(MqError::BrokerClosed);
            }
            let (msg, _) = st
                .take_unacked(tag)
                .ok_or(MqError::UnknownDeliveryTag(tag))?;
            st.counters.requeued += 1;
            st.ready.push_front(ReadyEntry {
                tag,
                redelivered: true,
                message: msg,
                enqueued_at: Instant::now(),
            });
        }
        self.ready_cond.notify_one();
        Ok(())
    }

    /// Requeue *all* unacked messages, e.g. after a consuming component
    /// crashed and is being restarted. Returns how many were requeued.
    pub(crate) fn recover_unacked(&self) -> usize {
        let n = {
            let mut st = self.state.lock();
            let entries: Vec<(u64, Message)> = st
                .unacked
                .drain(..)
                .filter_map(|(tag, payload)| payload.map(|(msg, _)| (tag, msg)))
                .collect();
            st.unacked_live = 0;
            // Highest tag first so the ready front ends up in ascending tag
            // order — the original delivery order.
            let now = Instant::now();
            let n = entries.len();
            for (tag, msg) in entries.into_iter().rev() {
                st.counters.requeued += 1;
                st.ready.push_front(ReadyEntry {
                    tag,
                    redelivered: true,
                    message: msg,
                    enqueued_at: now,
                });
            }
            n
        };
        if n > 0 {
            self.ready_cond.notify_all();
        }
        n
    }

    /// Drop all ready messages. Unacked messages are unaffected (they may
    /// still be nacked back). Returns the number purged.
    pub(crate) fn purge(&self) -> usize {
        let (n, bytes) = {
            let mut st = self.state.lock();
            let bytes: usize = st.ready.iter().map(|e| e.message.resident_bytes()).sum();
            let n = st.ready.len();
            st.counters.purged += n as u64;
            st.ready.clear();
            (n, bytes)
        };
        self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
        n
    }

    /// Close the queue: wake all blocked consumers with `BrokerClosed`.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.ready_cond.notify_all();
    }

    /// Number of ready (deliverable) messages.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().ready.len()
    }

    /// Number of delivered-but-unacked messages.
    pub(crate) fn unacked_count(&self) -> usize {
        self.state.lock().unacked_live
    }

    /// Snapshot statistics.
    pub(crate) fn stats(&self) -> QueueStats {
        let st = self.state.lock();
        QueueStats {
            name: self.name.clone(),
            depth: st.ready.len(),
            unacked: st.unacked_live,
            enqueued: st.counters.enqueued,
            delivered: st.counters.delivered,
            acked: st.counters.acked,
            requeued: st.counters.requeued,
            purged: st.counters.purged,
            batch_publishes: st.counters.batch_publishes,
            batch_deliveries: st.counters.batch_deliveries,
            batch_acks: st.counters.batch_acks,
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            durable: self.config.durable,
        }
    }

    /// Restore a message during journal replay: it goes to the back in
    /// journal order with a pre-assigned tag.
    pub(crate) fn restore(&self, tag: u64, message: Message) {
        let sz = message.resident_bytes();
        {
            let mut st = self.state.lock();
            st.ready.push_back(ReadyEntry {
                tag,
                redelivered: false,
                message,
                enqueued_at: Instant::now(),
            });
            st.counters.enqueued += 1;
        }
        // Keep the tag allocator ahead of every restored tag.
        self.next_tag.fetch_max(tag + 1, Ordering::Relaxed);
        self.resident_bytes.fetch_add(sz, Ordering::Relaxed);
        self.ready_cond.notify_one();
    }

    /// Advance the tag allocator past `max_tag`. Journal recovery calls this
    /// with the highest tag the journal has ever recorded for this queue —
    /// acked tags included, which `restore` never sees — so fresh publishes
    /// cannot reuse a journaled tag (a reused tag would both corrupt the
    /// journal's ack accounting and collide with same-tag tombstones in the
    /// unacked table).
    pub(crate) fn bump_tag_floor(&self, max_tag: u64) {
        self.next_tag.fetch_max(max_tag + 1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> QueueHandle {
        QueueHandle::new("t".into(), QueueConfig::default())
    }

    #[test]
    fn fifo_order() {
        let h = q();
        for i in 0..10u8 {
            h.push(Message::new(vec![i])).unwrap();
        }
        for i in 0..10u8 {
            let d = h.try_pop().unwrap().unwrap();
            assert_eq!(d.message.payload[0], i);
            h.ack(d.tag).unwrap();
        }
        assert!(h.try_pop().unwrap().is_none());
    }

    #[test]
    fn ack_removes_unacked() {
        let h = q();
        h.push(Message::new("a")).unwrap();
        let d = h.try_pop().unwrap().unwrap();
        assert_eq!(h.unacked_count(), 1);
        h.ack(d.tag).unwrap();
        assert_eq!(h.unacked_count(), 0);
    }

    #[test]
    fn double_ack_is_error() {
        let h = q();
        h.push(Message::new("a")).unwrap();
        let d = h.try_pop().unwrap().unwrap();
        h.ack(d.tag).unwrap();
        assert!(matches!(h.ack(d.tag), Err(MqError::UnknownDeliveryTag(_))));
    }

    #[test]
    fn nack_requeues_to_front_with_flag() {
        let h = q();
        h.push(Message::new("first")).unwrap();
        h.push(Message::new("second")).unwrap();
        let d = h.try_pop().unwrap().unwrap();
        assert!(!d.redelivered);
        h.nack_requeue(d.tag).unwrap();
        let d2 = h.try_pop().unwrap().unwrap();
        assert!(d2.redelivered);
        assert_eq!(&d2.message.payload[..], b"first");
    }

    #[test]
    fn recover_unacked_requeues_everything() {
        let h = q();
        for i in 0..5u8 {
            h.push(Message::new(vec![i])).unwrap();
        }
        let mut tags = vec![];
        for _ in 0..5 {
            tags.push(h.try_pop().unwrap().unwrap().tag);
        }
        assert_eq!(h.depth(), 0);
        assert_eq!(h.recover_unacked(), 5);
        assert_eq!(h.depth(), 5);
        assert_eq!(h.unacked_count(), 0);
    }

    #[test]
    fn capacity_enforced() {
        let h = QueueHandle::new("c".into(), QueueConfig::default().with_capacity(2));
        h.push(Message::new("1")).unwrap();
        h.push(Message::new("2")).unwrap();
        assert!(matches!(
            h.push(Message::new("3")),
            Err(MqError::QueueFull(_))
        ));
    }

    #[test]
    fn purge_drops_ready_only() {
        let h = q();
        h.push(Message::new("a")).unwrap();
        h.push(Message::new("b")).unwrap();
        let d = h.try_pop().unwrap().unwrap();
        assert_eq!(h.purge(), 1);
        assert_eq!(h.depth(), 0);
        assert_eq!(h.unacked_count(), 1);
        h.nack_requeue(d.tag).unwrap();
        assert_eq!(h.depth(), 1);
    }

    #[test]
    fn pop_timeout_returns_none_when_empty() {
        let h = q();
        let start = Instant::now();
        let r = h.pop_timeout(Duration::from_millis(20)).unwrap();
        assert!(r.is_none());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn pop_timeout_wakes_on_push() {
        use std::sync::Arc;
        let h = Arc::new(q());
        let h2 = Arc::clone(&h);
        let t = std::thread::spawn(move || h2.pop_timeout(Duration::from_secs(5)).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        h.push(Message::new("wake")).unwrap();
        let d = t.join().unwrap().unwrap();
        assert_eq!(&d.message.payload[..], b"wake");
    }

    #[test]
    fn close_unblocks_consumers() {
        use std::sync::Arc;
        let h = Arc::new(q());
        let h2 = Arc::clone(&h);
        let t = std::thread::spawn(move || h2.pop_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        h.close();
        assert!(matches!(t.join().unwrap(), Err(MqError::BrokerClosed)));
    }

    #[test]
    fn resident_bytes_track_lifecycle() {
        let h = q();
        assert_eq!(h.stats().resident_bytes, 0);
        h.push(Message::new(vec![0u8; 1000])).unwrap();
        let after_push = h.stats().resident_bytes;
        assert!(after_push >= 1000);
        let d = h.try_pop().unwrap().unwrap();
        // Still resident while unacked.
        assert_eq!(h.stats().resident_bytes, after_push);
        h.ack(d.tag).unwrap();
        assert_eq!(h.stats().resident_bytes, 0);
    }

    #[test]
    fn restore_preserves_tag_and_bumps_allocator() {
        let h = q();
        h.restore(100, Message::new("replayed"));
        let d = h.try_pop().unwrap().unwrap();
        assert_eq!(d.tag, 100);
        // New pushes must not collide with restored tags.
        let t = h.push(Message::new("new")).unwrap();
        assert!(t > 100);
    }

    #[test]
    fn latency_histograms_record_per_delivery() {
        let rec = Recorder::new();
        let h = QueueHandle::with_recorder("lat".into(), QueueConfig::default(), Some(&rec));
        const N: u64 = 32;
        for i in 0..N {
            h.push(Message::new(vec![i as u8])).unwrap();
        }
        let mut tags = vec![];
        for _ in 0..N {
            tags.push(h.try_pop().unwrap().unwrap().tag);
        }
        for tag in tags {
            h.ack(tag).unwrap();
        }
        let p2d = rec.metrics().histogram(HIST_PUBLISH_TO_DELIVER).snapshot();
        let d2a = rec.metrics().histogram(HIST_DELIVER_TO_ACK).snapshot();
        assert_eq!(p2d.count, N);
        assert_eq!(d2a.count, N);
        // Quantiles are monotone and non-zero: every sample took > 0 ns.
        assert!(p2d.p50_ns > 0 && p2d.p50_ns <= p2d.p95_ns && p2d.p95_ns <= p2d.p99_ns);
        assert!(d2a.p50_ns > 0 && d2a.p50_ns <= d2a.p95_ns && d2a.p95_ns <= d2a.p99_ns);
        // max_ns is exact; quantiles are bucket midpoints, so only compare
        // the exact stats with each other.
        assert!(p2d.max_ns >= 1 && p2d.mean_ns >= 1);
    }

    #[test]
    fn uninstrumented_queue_records_nothing() {
        let rec = Recorder::new();
        let h = q();
        h.push(Message::new("a")).unwrap();
        let d = h.try_pop().unwrap().unwrap();
        h.ack(d.tag).unwrap();
        assert_eq!(rec.metrics().histogram(HIST_PUBLISH_TO_DELIVER).count(), 0);
    }

    #[test]
    fn push_batch_preserves_order_with_sequential_tags() {
        let h = q();
        let msgs: Vec<Message> = (0..10u8).map(|i| Message::new(vec![i])).collect();
        let tags = h.push_batch(msgs).unwrap();
        assert_eq!(tags.len(), 10);
        assert!(tags.windows(2).all(|w| w[1] == w[0] + 1), "tags sequential");
        for i in 0..10u8 {
            let d = h.try_pop().unwrap().unwrap();
            assert_eq!(d.message.payload[0], i);
            assert_eq!(d.tag, tags[i as usize]);
        }
    }

    #[test]
    fn push_batch_capacity_is_all_or_nothing() {
        let h = QueueHandle::new("c".into(), QueueConfig::default().with_capacity(3));
        h.push(Message::new("one")).unwrap();
        let big: Vec<Message> = (0..3).map(|_| Message::new("x")).collect();
        assert!(matches!(h.push_batch(big), Err(MqError::QueueFull(_))));
        assert_eq!(h.depth(), 1, "failed batch must not partially enqueue");
        let fits: Vec<Message> = (0..2).map(|_| Message::new("y")).collect();
        assert_eq!(h.push_batch(fits).unwrap().len(), 2);
    }

    #[test]
    fn pop_batch_drains_up_to_max_in_one_call() {
        let h = q();
        h.push_batch((0..8u8).map(|i| Message::new(vec![i])).collect())
            .unwrap();
        let batch = h.pop_batch_timeout(5, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 5);
        assert!(batch
            .iter()
            .enumerate()
            .all(|(i, d)| d.message.payload[0] == i as u8));
        assert_eq!(h.depth(), 3);
        assert_eq!(h.unacked_count(), 5);
        // Empty queue: timeout returns an empty batch, not an error.
        let rest = h.pop_batch_timeout(10, Duration::ZERO).unwrap();
        assert_eq!(rest.len(), 3);
        assert!(h
            .pop_batch_timeout(10, Duration::from_millis(5))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn ack_multiple_settles_tags_up_to_boundary() {
        let h = q();
        h.push_batch((0..5u8).map(|i| Message::new(vec![i])).collect())
            .unwrap();
        let batch = h.pop_batch_timeout(5, Duration::ZERO).unwrap();
        // Cumulative ack up to the *middle* tag: 3 settled, 2 outstanding.
        let (n, acked) = h.ack_multiple(batch[2].tag, true).unwrap();
        assert_eq!(n, 3);
        assert_eq!(acked, vec![batch[0].tag, batch[1].tag, batch[2].tag]);
        assert_eq!(h.unacked_count(), 2);
        // Acking the same boundary again finds nothing: error, like a
        // double single-tag ack.
        assert!(matches!(
            h.ack_multiple(batch[2].tag, true),
            Err(MqError::UnknownDeliveryTag(_))
        ));
        // The rest settle with the last tag as boundary; without `want_tags`
        // the count is reported but no tag vector is built.
        let (n, tags) = h.ack_multiple(batch[4].tag, false).unwrap();
        assert_eq!(n, 2);
        assert!(tags.is_empty());
        assert_eq!(h.unacked_count(), 0);
    }

    #[test]
    fn nack_multiple_requeues_in_original_order() {
        let h = q();
        h.push_batch((0..4u8).map(|i| Message::new(vec![i])).collect())
            .unwrap();
        let batch = h.pop_batch_timeout(3, Duration::ZERO).unwrap();
        assert_eq!(h.nack_multiple(batch[2].tag).unwrap(), 3);
        // Redelivery order matches original order, ahead of the untouched
        // 4th message.
        for i in 0..4u8 {
            let d = h.try_pop().unwrap().unwrap();
            assert_eq!(d.message.payload[0], i);
            assert_eq!(d.redelivered, i < 3);
        }
    }

    #[test]
    fn redelivery_revives_equal_tag_tombstone() {
        // Tags [1, 2] unacked; nacking 2 leaves a (2, None) tombstone at the
        // BACK of the unacked deque (front tag 1 is live, so no reclaim).
        // Redelivering 2 must revive that tombstone in place, not append a
        // duplicate entry behind it — otherwise the settle resolves to the
        // tombstone and errors with UnknownDeliveryTag.
        let h = q();
        h.push(Message::new("one")).unwrap();
        h.push(Message::new("two")).unwrap();
        let d1 = h.try_pop().unwrap().unwrap();
        let d2 = h.try_pop().unwrap().unwrap();
        h.nack_requeue(d2.tag).unwrap();
        let d2b = h.try_pop().unwrap().unwrap();
        assert_eq!(d2b.tag, d2.tag);
        assert!(d2b.redelivered);
        assert_eq!(h.unacked_count(), 2);
        h.ack(d2b.tag).expect("redelivered tag must be ackable");
        assert_eq!(h.unacked_count(), 1);
        h.ack(d1.tag).unwrap();
        assert_eq!(h.unacked_count(), 0);
        // Same shape through the nack path: revived entry must be nackable.
        h.push(Message::new("three")).unwrap();
        h.push(Message::new("four")).unwrap();
        let d3 = h.try_pop().unwrap().unwrap();
        let d4 = h.try_pop().unwrap().unwrap();
        h.nack_requeue(d4.tag).unwrap();
        let d4b = h.try_pop().unwrap().unwrap();
        assert_eq!(d4b.tag, d4.tag);
        h.nack_requeue(d4b.tag)
            .expect("revived tag must be nackable");
        h.ack(d3.tag).unwrap();
        let d4c = h.try_pop().unwrap().unwrap();
        h.ack(d4c.tag).unwrap();
        assert_eq!(h.unacked_count(), 0);
        assert_eq!(h.depth(), 0);
    }

    #[test]
    fn ack_multiple_releases_resident_bytes() {
        let h = q();
        h.push_batch(vec![
            Message::new(vec![0u8; 512]),
            Message::new(vec![0u8; 512]),
        ])
        .unwrap();
        let batch = h.pop_batch_timeout(2, Duration::ZERO).unwrap();
        assert!(h.stats().resident_bytes >= 1024);
        h.ack_multiple(batch[1].tag, false).unwrap();
        assert_eq!(h.stats().resident_bytes, 0);
    }

    #[test]
    fn batch_counters_track_batched_calls() {
        let h = q();
        h.push_batch(vec![Message::new("a"), Message::new("b")])
            .unwrap();
        h.push(Message::new("c")).unwrap();
        let batch = h.pop_batch_timeout(8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 3);
        h.ack_multiple(batch[2].tag, false).unwrap();
        let s = h.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.batch_publishes, 1, "one push_batch call");
        assert_eq!(s.batch_deliveries, 1, "one multi-message drain");
        assert_eq!(s.batch_acks, 1, "one cumulative ack");
        assert_eq!(s.acked, 3);
    }

    #[test]
    fn stats_counters_accumulate() {
        let h = q();
        h.push(Message::new("a")).unwrap();
        h.push(Message::new("b")).unwrap();
        let d = h.try_pop().unwrap().unwrap();
        h.nack_requeue(d.tag).unwrap();
        let d = h.try_pop().unwrap().unwrap();
        h.ack(d.tag).unwrap();
        let s = h.stats();
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.acked, 1);
        assert_eq!(s.requeued, 1);
    }
}
