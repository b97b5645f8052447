//! Broker and queue statistics.
//!
//! The Fig. 6 prototype benchmark reports processing time and memory
//! consumption of the messaging core; these types expose the counters that
//! the harness samples.

/// Point-in-time statistics for one queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStats {
    /// Queue name.
    pub name: String,
    /// Ready (deliverable) messages.
    pub depth: usize,
    /// Delivered but not yet acknowledged messages.
    pub unacked: usize,
    /// Total messages ever enqueued (including requeues via `restore`, but
    /// not nack-requeues, which count in `requeued`).
    pub enqueued: u64,
    /// Total deliveries handed to consumers.
    pub delivered: u64,
    /// Total acknowledgements.
    pub acked: u64,
    /// Total nack/recovery requeues.
    pub requeued: u64,
    /// Messages dropped by `purge`.
    pub purged: u64,
    /// Batched publish calls (`publish_batch`), each covering many messages.
    pub batch_publishes: u64,
    /// Batched drains (`get_batch` calls that returned more than one
    /// message in a single lock hold).
    pub batch_deliveries: u64,
    /// Cumulative ack calls (`ack_multiple`), each settling many tags.
    pub batch_acks: u64,
    /// Approximate bytes resident in this queue (ready + unacked).
    pub resident_bytes: usize,
    /// Whether the queue is durable.
    pub durable: bool,
}

/// Aggregate statistics across all queues of a broker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Number of declared queues.
    pub queues: usize,
    /// Sum of ready depths.
    pub total_depth: usize,
    /// Sum of unacked counts.
    pub total_unacked: usize,
    /// Sum of enqueued counters.
    pub total_enqueued: u64,
    /// Sum of delivered counters.
    pub total_delivered: u64,
    /// Sum of acked counters.
    pub total_acked: u64,
    /// Sum of nack/recovery requeue counters.
    pub total_requeued: u64,
    /// Sum of purge counters.
    pub total_purged: u64,
    /// Sum of batched publish calls.
    pub total_batch_publishes: u64,
    /// Sum of batched (multi-message) drains.
    pub total_batch_deliveries: u64,
    /// Sum of cumulative ack calls.
    pub total_batch_acks: u64,
    /// Approximate bytes resident across all queues.
    pub resident_bytes: usize,
}

impl BrokerStats {
    /// Fold one queue's stats into the aggregate.
    pub fn absorb(&mut self, q: &QueueStats) {
        self.queues += 1;
        self.total_depth += q.depth;
        self.total_unacked += q.unacked;
        self.total_enqueued += q.enqueued;
        self.total_delivered += q.delivered;
        self.total_acked += q.acked;
        self.total_requeued += q.requeued;
        self.total_purged += q.purged;
        self.total_batch_publishes += q.batch_publishes;
        self.total_batch_deliveries += q.batch_deliveries;
        self.total_batch_acks += q.batch_acks;
        self.resident_bytes += q.resident_bytes;
    }
}

/// Read this process's resident set size (VmRSS) in bytes from
/// `/proc/self/status`. Returns `None` on platforms without procfs. Used by
/// the Fig. 6 harness to report base/peak memory like the paper does.
pub fn process_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut b = BrokerStats::default();
        let q = QueueStats {
            name: "a".into(),
            depth: 3,
            unacked: 1,
            enqueued: 10,
            delivered: 7,
            acked: 6,
            requeued: 2,
            purged: 1,
            batch_publishes: 4,
            batch_deliveries: 3,
            batch_acks: 2,
            resident_bytes: 100,
            durable: false,
        };
        b.absorb(&q);
        b.absorb(&q);
        assert_eq!(b.queues, 2);
        assert_eq!(b.total_depth, 6);
        assert_eq!(b.total_enqueued, 20);
        assert_eq!(b.resident_bytes, 200);
        assert_eq!(b.total_batch_publishes, 8);
        assert_eq!(b.total_batch_deliveries, 6);
        assert_eq!(b.total_batch_acks, 4);
    }

    #[test]
    fn absorb_keeps_delivered_requeued_purged() {
        // Regression: absorb used to drop these three counters, so broker
        // aggregates under-reported delivery traffic.
        let mut b = BrokerStats::default();
        let q = QueueStats {
            name: "a".into(),
            depth: 0,
            unacked: 0,
            enqueued: 10,
            delivered: 7,
            acked: 6,
            requeued: 2,
            purged: 1,
            batch_publishes: 0,
            batch_deliveries: 0,
            batch_acks: 0,
            resident_bytes: 0,
            durable: false,
        };
        b.absorb(&q);
        b.absorb(&q);
        assert_eq!(b.total_delivered, 14);
        assert_eq!(b.total_requeued, 4);
        assert_eq!(b.total_purged, 2);
    }

    #[test]
    fn rss_readable_on_linux() {
        // This repo's CI target is Linux; elsewhere the function returns None.
        if cfg!(target_os = "linux") {
            let rss = process_rss_bytes().expect("procfs available");
            assert!(rss > 1024 * 1024, "RSS should exceed 1 MiB, got {rss}");
        }
    }
}
