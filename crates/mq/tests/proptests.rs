//! Property-based tests for the broker invariants EnTK depends on:
//! per-queue FIFO and tag order under arbitrary single and cumulative
//! ack/nack interleavings, conservation of messages, and journal-replay
//! equivalence.

use entk_mq::{Broker, BrokerConfig, Delivery, Message, QueueConfig};
use proptest::prelude::*;
use std::collections::VecDeque;

/// An abstract operation applied to a single queue.
#[derive(Debug, Clone)]
enum Op {
    Publish(u16),
    PublishBatch(Vec<u16>),
    /// Pop the head; with `ack == true` acknowledge it, otherwise nack it
    /// back to the front.
    Pop {
        ack: bool,
    },
    /// Drain up to `n` ready messages into the unacked set.
    GetBatch(usize),
    /// Cumulative ack. `back == 0` acks up to the highest delivered tag;
    /// otherwise the boundary is the `back`-th unacked tag counted from the
    /// highest (modulo the unacked count), which settles a strict prefix.
    AckMultiple {
        back: usize,
    },
    /// Cumulative nack, with the boundary chosen as for `AckMultiple`.
    NackMultiple {
        back: usize,
    },
    /// Consumer recovery: requeue every unacked message.
    RecoverUnacked,
    Purge,
}

fn boundary_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![3 => Just(0usize), 1 => 1usize..8]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<u16>().prop_map(Op::Publish),
        2 => proptest::collection::vec(any::<u16>(), 0..6).prop_map(Op::PublishBatch),
        4 => any::<bool>().prop_map(|ack| Op::Pop { ack }),
        3 => (0usize..6).prop_map(Op::GetBatch),
        2 => boundary_strategy().prop_map(|back| Op::AckMultiple { back }),
        2 => boundary_strategy().prop_map(|back| Op::NackMultiple { back }),
        1 => Just(Op::RecoverUnacked),
        1 => Just(Op::Purge),
    ]
}

/// One message as the model tracks it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    tag: u64,
    value: u16,
    redelivered: bool,
}

/// Reference model: a deque of ready entries and a list of
/// delivered-but-unacked ones kept in original (publish, i.e. tag) order —
/// a partial cumulative nack lets a low tag be delivered again after higher
/// ones. Tags count up from 1 in publish order. A single nack returns the
/// popped entry to the front; a cumulative nack returns every covered
/// unacked entry to the front in its original order, and so does recovery
/// for every unacked entry. Acks drop entries; purge clears ready entries
/// only.
struct Model {
    next_tag: u64,
    ready: VecDeque<Entry>,
    unacked: Vec<Entry>,
    /// Highest tag ever delivered (0 before the first delivery).
    max_delivered: u64,
}

impl Model {
    fn new() -> Self {
        Model {
            next_tag: 1,
            ready: VecDeque::new(),
            unacked: Vec::new(),
            max_delivered: 0,
        }
    }

    fn publish(&mut self, value: u16) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.ready.push_back(Entry {
            tag,
            value,
            redelivered: false,
        });
        tag
    }

    /// The cumulative-op boundary for `back` (see [`Op::AckMultiple`]).
    fn boundary(&self, back: usize) -> u64 {
        if back == 0 || self.unacked.is_empty() {
            return self.max_delivered;
        }
        self.unacked[self.unacked.len() - 1 - back % self.unacked.len()].tag
    }

    /// Record a delivery in the unacked list at its original position.
    fn deliver(&mut self, e: Entry) {
        self.max_delivered = self.max_delivered.max(e.tag);
        let at = self.unacked.partition_point(|u| u.tag < e.tag);
        self.unacked.insert(at, e);
    }

    /// Remove and return the unacked entries covered by `boundary`, in
    /// original order.
    fn take_covered(&mut self, boundary: u64) -> Vec<Entry> {
        let (covered, rest) = self.unacked.iter().partition(|e| e.tag <= boundary);
        self.unacked = rest;
        covered
    }
}

fn as_entry(d: &Delivery) -> Entry {
    Entry {
        tag: d.tag,
        value: u16::from_le_bytes([d.message.payload[0], d.message.payload[1]]),
        redelivered: d.redelivered,
    }
}

/// The broker's answer to a cumulative op against the model's count: `Err`
/// exactly when the boundary covers nothing.
fn same_count(got: Result<usize, entk_mq::MqError>, want: usize) -> Result<(), String> {
    match got {
        Ok(n) => prop_assert_eq!(n, want),
        Err(e) => prop_assert_eq!(want, 0, "broker refused: {}", e),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The broker behaves exactly like the reference model under any
    /// sequence of publish / publish_batch / pop+ack / pop+nack / get_batch
    /// / ack_multiple / nack_multiple / recover_unacked / purge: every
    /// delivery carries the model's tag, value and redelivered flag, and
    /// after every step the ready depth and the unacked count match.
    #[test]
    fn broker_matches_deque_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let broker = Broker::new();
        broker.declare_queue("q", QueueConfig::default()).unwrap();
        let mut model = Model::new();

        for op in ops {
            match op {
                Op::Publish(v) => {
                    broker.publish("q", Message::new(v.to_le_bytes().to_vec())).unwrap();
                    model.publish(v);
                }
                Op::PublishBatch(vs) => {
                    let msgs = vs.iter().map(|v| Message::new(v.to_le_bytes().to_vec())).collect();
                    let tags = broker.publish_batch("q", msgs).unwrap();
                    let want: Vec<u64> = vs.iter().map(|v| model.publish(*v)).collect();
                    prop_assert_eq!(tags, want);
                }
                Op::Pop { ack } => {
                    let got = broker.get("q").unwrap();
                    let expected = model.ready.front().copied();
                    match (got, expected) {
                        (None, None) => {}
                        (Some(d), Some(e)) => {
                            prop_assert_eq!(as_entry(&d), e);
                            model.max_delivered = model.max_delivered.max(d.tag);
                            if ack {
                                broker.ack("q", d.tag).unwrap();
                                model.ready.pop_front();
                            } else {
                                broker.nack("q", d.tag).unwrap();
                                model.ready[0].redelivered = true;
                            }
                        }
                        (g, e) => prop_assert!(false, "divergence: broker={g:?} model={e:?}"),
                    }
                }
                Op::GetBatch(n) => {
                    let got = broker.get_batch("q", n, std::time::Duration::ZERO).unwrap();
                    let take = n.min(model.ready.len());
                    let want: Vec<Entry> = model.ready.drain(..take).collect();
                    prop_assert_eq!(got.iter().map(as_entry).collect::<Vec<_>>(), want.clone());
                    for e in want {
                        model.deliver(e);
                    }
                }
                Op::AckMultiple { back } => {
                    let boundary = model.boundary(back);
                    let covered = model.take_covered(boundary);
                    same_count(broker.ack_multiple("q", boundary), covered.len())?;
                }
                Op::NackMultiple { back } => {
                    let boundary = model.boundary(back);
                    let covered = model.take_covered(boundary);
                    same_count(broker.nack_multiple("q", boundary), covered.len())?;
                    for mut e in covered.into_iter().rev() {
                        e.redelivered = true;
                        model.ready.push_front(e);
                    }
                }
                Op::RecoverUnacked => {
                    let want = model.unacked.len();
                    prop_assert_eq!(broker.recover_unacked("q").unwrap(), want);
                    for mut e in model.take_covered(u64::MAX).into_iter().rev() {
                        e.redelivered = true;
                        model.ready.push_front(e);
                    }
                }
                Op::Purge => {
                    broker.purge("q").unwrap();
                    model.ready.clear();
                }
            }
            prop_assert_eq!(broker.depth("q").unwrap(), model.ready.len());
            prop_assert_eq!(broker.unacked("q").unwrap(), model.unacked.len());
        }
    }

    /// Conservation: however publishes and acks interleave across threads,
    /// every message is consumed exactly once.
    #[test]
    fn concurrent_conservation(
        producers in 1usize..4,
        consumers in 1usize..4,
        per_producer in 1usize..100,
    ) {
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        use std::time::Duration;

        let broker = Broker::new();
        broker.declare_queue("w", QueueConfig::default()).unwrap();
        let seen = Arc::new(Mutex::new(HashSet::new()));

        let mut ph = vec![];
        for p in 0..producers {
            let b = broker.clone();
            ph.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    b.publish("w", Message::new(format!("{p}:{i}"))).unwrap();
                }
            }));
        }
        let mut ch = vec![];
        for _ in 0..consumers {
            let b = broker.clone();
            let seen = Arc::clone(&seen);
            ch.push(std::thread::spawn(move || {
                loop {
                    match b.get_timeout("w", Duration::from_millis(50)) {
                        Ok(Some(d)) => {
                            let key = d.message.payload_str().to_string();
                            assert!(seen.lock().unwrap().insert(key));
                            b.ack("w", d.tag).unwrap();
                        }
                        Ok(None) => break,
                        Err(e) => panic!("{e}"),
                    }
                }
            }));
        }
        for h in ph { h.join().unwrap(); }
        for h in ch { h.join().unwrap(); }
        // A consumer may time out between producer finish and drain; drain rest.
        while let Some(d) = broker.get("w").unwrap() {
            let key = d.message.payload_str().to_string();
            assert!(seen.lock().unwrap().insert(key));
            broker.ack("w", d.tag).unwrap();
        }
        prop_assert_eq!(seen.lock().unwrap().len(), producers * per_producer);
    }

    /// Journal replay reconstructs exactly the unacked suffix, in order.
    #[test]
    fn journal_replay_equivalence(
        values in proptest::collection::vec(any::<u16>(), 1..50),
        ack_prefix in 0usize..50,
    ) {
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "entk-mq-prop-{}-{:?}-{}.journal",
                std::process::id(),
                std::thread::current().id(),
                values.len(),
            ));
            let _ = std::fs::remove_file(&p);
            p
        };
        let ack_n = ack_prefix.min(values.len());
        {
            let b = Broker::with_config(BrokerConfig { journal_path: Some(path.clone()), ..Default::default() }).unwrap();
            b.declare_queue("d", QueueConfig::durable()).unwrap();
            for v in &values {
                b.publish("d", Message::persistent(v.to_le_bytes().to_vec())).unwrap();
            }
            for _ in 0..ack_n {
                let d = b.get("d").unwrap().unwrap();
                b.ack("d", d.tag).unwrap();
            }
            // drop without close: simulated crash
        }
        let b = Broker::recover(&path).unwrap();
        let mut recovered = vec![];
        while let Some(d) = b.get("d").unwrap() {
            recovered.push(u16::from_le_bytes([d.message.payload[0], d.message.payload[1]]));
            b.ack("d", d.tag).unwrap();
        }
        prop_assert_eq!(&recovered[..], &values[ack_n..]);
        let _ = std::fs::remove_file(&path);
    }
}
