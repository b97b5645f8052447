//! Append-only durability journal.
//!
//! RabbitMQ offers "methods to increase the durability of messages in transit
//! and of the queues" (paper §II-C); EnTK uses this so that "messages are
//! stored in the server and can be recovered upon failure of EnTK
//! components". This journal provides the same guarantee for our in-process
//! broker: every persistent publish to a durable queue appends a record, and
//! every ack appends a tombstone. Replaying the journal reconstructs the set
//! of messages that were published but never acknowledged.
//!
//! The on-disk format is a sequence of length-delimited binary records:
//!
//! ```text
//! record   := kind:u8 body
//! publish  := 0x01 qlen:u32 queue tag:u64 hlen:u32 headers plen:u32 payload
//! ack      := 0x02 qlen:u32 queue tag:u64
//! declare  := 0x03 qlen:u32 queue
//! headers  := (klen:u32 key vlen:u32 value)*   // count prefixed
//! ```
//!
//! All integers are little-endian. A truncated trailing record (crash during
//! write) is tolerated and ignored on replay; corruption elsewhere is an
//! error.

use crate::error::{MqError, MqResult};
use crate::message::Message;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Replay result: declared durable queues plus, per queue, the unacked
/// messages keyed by their original delivery tag (tag order is publish
/// order).
pub type ReplayState = (Vec<String>, BTreeMap<String, BTreeMap<u64, Message>>);

/// Full scan result: everything [`ReplayState`] carries, plus the byte
/// offset after the last complete record (for torn-tail repair) and the
/// highest tag journaled per queue across publishes *and* acks (so a
/// recovered broker's tag allocators can advance past every tag the journal
/// has ever seen — fully-acked tags included).
#[derive(Debug, Default)]
pub struct Replay {
    /// Durable queues declared in the journal, in first-declaration order.
    pub declared: Vec<String>,
    /// Per queue: published-but-unacked messages by tag (publish order).
    /// An ack removes its one entry, so a scan is linear in the records.
    pub live: BTreeMap<String, BTreeMap<u64, Message>>,
    /// Per queue: highest delivery tag seen in any record.
    pub max_tags: BTreeMap<String, u64>,
    /// Per queue: ack tags whose matching publish was *not* found in this
    /// journal. A sharded broker splits its journal into per-shard segments;
    /// when the shard count changes between runs (or a legacy single-file
    /// journal is recovered into a sharded broker), a message restored from
    /// one segment is acked through another shard's segment. These orphan
    /// acks are the cross-segment half of that pair — [`Replay::merge`]
    /// applies them against the union of live messages.
    pub acked: BTreeMap<String, Vec<u64>>,
    /// Byte offset just past the last complete record.
    pub safe_len: u64,
    /// Whether a partial trailing record (crash mid-append) was found after
    /// `safe_len`.
    pub torn_tail: bool,
}

impl Replay {
    /// Merge per-segment scans into one broker-wide replay, preserving the
    /// recovery invariants of a single-file scan:
    ///
    /// * `declared` is the union, in first-appearance order across segments;
    /// * `live` is the union of published-but-unacked messages minus every
    ///   ack seen in *any* segment (cross-segment acks resolve here), each
    ///   queue in tag (= publish) order;
    /// * `max_tags` takes the per-queue maximum across segments, so the
    ///   tag-floor bump covers every tag any segment has ever journaled.
    ///
    /// `safe_len`/`torn_tail` are per-file properties and stay at their
    /// defaults (recovery repairs each segment's tail from its own scan).
    pub fn merge(scans: impl IntoIterator<Item = Replay>) -> Replay {
        let mut out = Replay::default();
        let mut orphans: BTreeMap<String, std::collections::BTreeSet<u64>> = BTreeMap::new();
        for scan in scans {
            for q in scan.declared {
                if !out.declared.contains(&q) {
                    out.declared.push(q);
                }
            }
            for (q, msgs) in scan.live {
                out.live.entry(q).or_default().extend(msgs);
            }
            for (q, tag) in scan.max_tags {
                let mt = out.max_tags.entry(q).or_insert(0);
                *mt = (*mt).max(tag);
            }
            for (q, tags) in scan.acked {
                orphans.entry(q).or_default().extend(tags);
            }
        }
        for (q, dead) in &orphans {
            if let Some(msgs) = out.live.get_mut(q) {
                for tag in dead {
                    msgs.remove(tag);
                }
            }
        }
        out.live.retain(|_, msgs| !msgs.is_empty());
        out.acked = orphans
            .into_iter()
            .map(|(q, tags)| (q, tags.into_iter().collect()))
            .collect();
        out
    }
}

const KIND_PUBLISH: u8 = 0x01;
const KIND_ACK: u8 = 0x02;
const KIND_DECLARE: u8 = 0x03;

/// Reusable length-delimited binary framing shared by every journal in the
/// tree. The broker journal above and the service-level workflow journal
/// (`entk-service`) both write `kind:u8` records whose bodies are built from
/// these primitives, and both get identical torn-tail semantics from
/// [`FrameReader`]: a clean EOF at a record boundary ends replay, a partial
/// trailing record is reported as truncation (crash mid-append), and
/// corruption anywhere else is an error.
pub mod frame {
    use crate::error::{MqError, MqResult};
    use std::io::{Read, Write};

    /// Write a little-endian u32.
    pub fn write_u32(w: &mut impl Write, v: u32) -> std::io::Result<()> {
        w.write_all(&v.to_le_bytes())
    }

    /// Write a little-endian u64.
    pub fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
        w.write_all(&v.to_le_bytes())
    }

    /// Write a u32-length-prefixed byte string.
    pub fn write_bytes(w: &mut impl Write, b: &[u8]) -> std::io::Result<()> {
        write_u32(w, b.len() as u32)?;
        w.write_all(b)
    }

    /// Whether an error is the in-record truncation marker produced by
    /// [`FrameReader`] (crash mid-append), as opposed to real corruption.
    pub fn is_truncation(err: &MqError) -> bool {
        matches!(err, MqError::CorruptJournal(m) if m.contains("unexpected EOF"))
    }

    /// Incremental reader that distinguishes clean EOF, truncated tail, and
    /// corruption. Tracks the byte offset consumed so far so replay can
    /// report where the last complete record ends.
    pub struct FrameReader<R: Read> {
        inner: R,
        pos: u64,
    }

    impl<R: Read> FrameReader<R> {
        /// Wrap a byte stream positioned at a record boundary.
        pub fn new(inner: R) -> Self {
            FrameReader { inner, pos: 0 }
        }

        /// Bytes consumed so far.
        pub fn pos(&self) -> u64 {
            self.pos
        }

        /// Read exactly `buf.len()` bytes. `first` marks the first read of a
        /// record: EOF before any byte then signals a clean record boundary
        /// (`Ok(None)`); EOF anywhere else is the truncation marker.
        pub fn read_exact_or_eof(&mut self, buf: &mut [u8], first: bool) -> MqResult<Option<()>> {
            let mut filled = 0;
            while filled < buf.len() {
                let n = self.inner.read(&mut buf[filled..])?;
                self.pos += n as u64;
                if n == 0 {
                    if filled == 0 && first {
                        return Ok(None); // clean EOF at a record boundary
                    }
                    return Err(MqError::CorruptJournal(
                        "unexpected EOF inside record".into(),
                    ));
                }
                filled += n;
            }
            Ok(Some(()))
        }

        /// Read the record-kind byte, or `None` on clean EOF.
        pub fn read_kind(&mut self) -> MqResult<Option<u8>> {
            let mut kind = [0u8; 1];
            Ok(self.read_exact_or_eof(&mut kind, true)?.map(|()| kind[0]))
        }

        /// Read a little-endian u32.
        pub fn read_u32(&mut self) -> MqResult<u32> {
            let mut b = [0u8; 4];
            self.read_exact_or_eof(&mut b, false)?;
            Ok(u32::from_le_bytes(b))
        }

        /// Read a little-endian u64.
        pub fn read_u64(&mut self) -> MqResult<u64> {
            let mut b = [0u8; 8];
            self.read_exact_or_eof(&mut b, false)?;
            Ok(u64::from_le_bytes(b))
        }

        /// Read a u32-length-prefixed byte string.
        pub fn read_vec(&mut self) -> MqResult<Vec<u8>> {
            let len = self.read_u32()? as usize;
            if len > 1 << 30 {
                return Err(MqError::CorruptJournal(format!("implausible length {len}")));
            }
            let mut v = vec![0u8; len];
            self.read_exact_or_eof(&mut v, false)?;
            Ok(v)
        }

        /// Read a length-prefixed UTF-8 string.
        pub fn read_string(&mut self) -> MqResult<String> {
            String::from_utf8(self.read_vec()?)
                .map_err(|_| MqError::CorruptJournal("non-UTF-8 string".into()))
        }
    }
}

/// A single journal record, as written or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A persistent message published to a durable queue.
    Publish {
        /// Target queue name.
        queue: String,
        /// Delivery tag assigned by the queue.
        tag: u64,
        /// Message headers.
        headers: BTreeMap<String, String>,
        /// Message payload.
        payload: Bytes,
    },
    /// Acknowledgement of a previously journaled message.
    Ack {
        /// Queue name.
        queue: String,
        /// Acked delivery tag.
        tag: u64,
    },
    /// Durable queue declaration (so empty durable queues survive restart).
    Declare {
        /// Queue name.
        queue: String,
    },
}

/// Append-only journal bound to a file path.
pub struct Journal {
    writer: Mutex<BufWriter<File>>,
}

use frame::{write_bytes, write_u32, write_u64, FrameReader};

/// Broker-journal record decoder on top of the shared [`frame`] reader.
struct RecordReader<R: Read> {
    inner: FrameReader<R>,
}

enum ReadOutcome {
    Record(JournalRecord),
    CleanEof,
    TruncatedTail,
}

impl<R: Read> RecordReader<R> {
    fn read_u64(&mut self) -> MqResult<u64> {
        self.inner.read_u64()
    }

    fn read_u32(&mut self) -> MqResult<u32> {
        self.inner.read_u32()
    }

    fn read_vec(&mut self) -> MqResult<Vec<u8>> {
        self.inner.read_vec()
    }

    fn read_string(&mut self) -> MqResult<String> {
        self.inner.read_string()
    }

    fn next(&mut self) -> MqResult<ReadOutcome> {
        let Some(kind) = self.inner.read_kind()? else {
            return Ok(ReadOutcome::CleanEof);
        };
        let res = (|| -> MqResult<JournalRecord> {
            match kind {
                KIND_PUBLISH => {
                    let queue = self.read_string()?;
                    let tag = self.read_u64()?;
                    let nheaders = self.read_u32()?;
                    let mut headers = BTreeMap::new();
                    for _ in 0..nheaders {
                        let k = self.read_string()?;
                        let v = self.read_string()?;
                        headers.insert(k, v);
                    }
                    let payload = Bytes::from(self.read_vec()?);
                    Ok(JournalRecord::Publish {
                        queue,
                        tag,
                        headers,
                        payload,
                    })
                }
                KIND_ACK => {
                    let queue = self.read_string()?;
                    let tag = self.read_u64()?;
                    Ok(JournalRecord::Ack { queue, tag })
                }
                KIND_DECLARE => {
                    let queue = self.read_string()?;
                    Ok(JournalRecord::Declare { queue })
                }
                k => Err(MqError::CorruptJournal(format!("unknown record kind {k}"))),
            }
        })();
        match res {
            Ok(r) => Ok(ReadOutcome::Record(r)),
            // A truncated *tail* (crash mid-append) is tolerated; we signal it
            // so the caller can stop replay at the last complete record.
            Err(ref e) if frame::is_truncation(e) => Ok(ReadOutcome::TruncatedTail),
            Err(e) => Err(e),
        }
    }
}

impl Journal {
    /// Open (or create) a journal at `path` for appending.
    ///
    /// If the file ends in a partial record (crash mid-append), the tail is
    /// truncated back to the last complete record before the file is opened
    /// for append. Replay alone tolerates a torn tail, but appending after
    /// one would leave the partial record glued to the front of the new
    /// record, corrupting every subsequent replay.
    pub fn open(path: impl AsRef<Path>) -> MqResult<Self> {
        let path = path.as_ref();
        let scan = Self::scan(path)?;
        Self::reopen(path, scan.torn_tail.then_some(scan.safe_len))
    }

    /// [`Journal::open`] for a file already scanned: `torn` is the length
    /// to cut a torn tail back to (the scan's `safe_len`), `None` if the
    /// scan found none.
    pub(crate) fn reopen(path: &Path, torn: Option<u64>) -> MqResult<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        if let Some(safe_len) = torn {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(safe_len)?;
            f.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    fn write_record(w: &mut impl Write, rec: &JournalRecord) -> MqResult<()> {
        match rec {
            JournalRecord::Publish {
                queue,
                tag,
                headers,
                payload,
            } => {
                w.write_all(&[KIND_PUBLISH])?;
                write_bytes(&mut *w, queue.as_bytes())?;
                write_u64(&mut *w, *tag)?;
                write_u32(&mut *w, headers.len() as u32)?;
                for (k, v) in headers {
                    write_bytes(&mut *w, k.as_bytes())?;
                    write_bytes(&mut *w, v.as_bytes())?;
                }
                write_bytes(&mut *w, payload)?;
            }
            JournalRecord::Ack { queue, tag } => {
                w.write_all(&[KIND_ACK])?;
                write_bytes(&mut *w, queue.as_bytes())?;
                write_u64(&mut *w, *tag)?;
            }
            JournalRecord::Declare { queue } => {
                w.write_all(&[KIND_DECLARE])?;
                write_bytes(&mut *w, queue.as_bytes())?;
            }
        }
        Ok(())
    }

    /// Append a record and flush it to the OS.
    pub fn append(&self, rec: &JournalRecord) -> MqResult<()> {
        let mut w = self.writer.lock();
        Self::write_record(&mut *w, rec)?;
        w.flush()?;
        // Failpoint: crash after the flush — the record is durable but the
        // caller sees a failure, modeling a process killed post-write.
        if entk_fail::hit_sleep("mq.journal.flush_crash").is_some() {
            return Err(MqError::FaultInjected("mq.journal.flush_crash".into()));
        }
        Ok(())
    }

    /// Append a batch of records under one writer-lock acquisition with a
    /// single flush at the end. The on-disk format is unchanged (a batch is
    /// just consecutive records), so replay needs no special handling; this
    /// exists to amortize the per-record lock + flush cost on the batched
    /// publish/ack paths.
    pub fn append_all(&self, recs: &[JournalRecord]) -> MqResult<()> {
        if recs.is_empty() {
            return Ok(());
        }
        // Failpoint: tear the batch mid-record — persist only a byte prefix
        // of the serialized batch, exactly what a power loss mid-write leaves
        // on disk. `Partial(n)` keeps the first n bytes (clamped so at least
        // the final record is torn); other actions cut at the midpoint.
        if let Some(action) = entk_fail::hit_sleep("mq.journal.torn_tail") {
            let mut buf = Vec::new();
            for rec in recs {
                Self::write_record(&mut buf, rec)?;
            }
            let cut = match action {
                entk_fail::InjectedAction::Partial(n) => {
                    (n as usize).min(buf.len().saturating_sub(1))
                }
                _ => buf.len() / 2,
            };
            let mut w = self.writer.lock();
            w.write_all(&buf[..cut])?;
            w.flush()?;
            return Err(MqError::FaultInjected("mq.journal.torn_tail".into()));
        }
        let mut w = self.writer.lock();
        for rec in recs {
            Self::write_record(&mut *w, rec)?;
        }
        w.flush()?;
        if entk_fail::hit_sleep("mq.journal.flush_crash").is_some() {
            return Err(MqError::FaultInjected("mq.journal.flush_crash".into()));
        }
        Ok(())
    }

    /// Replay a journal file, returning for each durable queue the messages
    /// that were published but never acknowledged, in publish order, plus
    /// the set of declared durable queues.
    pub fn replay(path: impl AsRef<Path>) -> MqResult<ReplayState> {
        let scan = Self::scan(path)?;
        Ok((scan.declared, scan.live))
    }

    /// Full journal scan: everything [`Journal::replay`] computes plus the
    /// per-queue maximum journaled tag and the byte offset of the last
    /// complete record (see [`Replay`]). A missing file scans as empty.
    pub fn scan(path: impl AsRef<Path>) -> MqResult<Replay> {
        let file = match File::open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(e.into()),
        };
        let mut reader = RecordReader {
            inner: FrameReader::new(BufReader::new(file)),
        };
        let mut out = Replay::default();
        loop {
            let rec = match reader.next()? {
                ReadOutcome::CleanEof => break,
                ReadOutcome::TruncatedTail => {
                    out.torn_tail = true;
                    break;
                }
                ReadOutcome::Record(rec) => rec,
            };
            out.safe_len = reader.inner.pos();
            match rec {
                JournalRecord::Declare { queue } => {
                    if !out.declared.contains(&queue) {
                        out.declared.push(queue);
                    }
                }
                JournalRecord::Publish {
                    queue,
                    tag,
                    headers,
                    payload,
                } => {
                    let mut msg = Message::persistent(payload);
                    msg.headers = headers;
                    let mt = out.max_tags.entry(queue.clone()).or_insert(0);
                    *mt = (*mt).max(tag);
                    out.live.entry(queue).or_default().insert(tag, msg);
                }
                JournalRecord::Ack { queue, tag } => {
                    let mt = out.max_tags.entry(queue.clone()).or_insert(0);
                    *mt = (*mt).max(tag);
                    let live = out.live.get_mut(&queue);
                    if live.and_then(|m| m.remove(&tag)).is_none() {
                        // The publish half lives in another journal segment
                        // (or a pre-shard legacy file); keep the ack so a
                        // merged replay can apply it cross-segment.
                        out.acked.entry(queue).or_default().push(tag);
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "entk-mq-journal-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn publish_rec(queue: &str, tag: u64, payload: &str) -> JournalRecord {
        JournalRecord::Publish {
            queue: queue.into(),
            tag,
            headers: BTreeMap::new(),
            payload: Bytes::copy_from_slice(payload.as_bytes()),
        }
    }

    #[test]
    fn roundtrip_publish_ack() {
        let p = tmp("roundtrip");
        let j = Journal::open(&p).unwrap();
        j.append(&JournalRecord::Declare {
            queue: "pending".into(),
        })
        .unwrap();
        j.append(&publish_rec("pending", 1, "task-1")).unwrap();
        j.append(&publish_rec("pending", 2, "task-2")).unwrap();
        j.append(&JournalRecord::Ack {
            queue: "pending".into(),
            tag: 1,
        })
        .unwrap();
        drop(j);

        let (declared, live) = Journal::replay(&p).unwrap();
        assert_eq!(declared, vec!["pending".to_string()]);
        let msgs = &live["pending"];
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[&2].payload[..], b"task-2");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let (declared, live) = Journal::replay("/nonexistent/journal.bin").unwrap();
        assert!(declared.is_empty());
        assert!(live.is_empty());
    }

    #[test]
    fn headers_survive_replay() {
        let p = tmp("headers");
        let j = Journal::open(&p).unwrap();
        let mut headers = BTreeMap::new();
        headers.insert("kind".to_string(), "task".to_string());
        headers.insert("uid".to_string(), "task.0001".to_string());
        j.append(&JournalRecord::Publish {
            queue: "q".into(),
            tag: 7,
            headers: headers.clone(),
            payload: Bytes::from_static(b"x"),
        })
        .unwrap();
        drop(j);
        let (_, live) = Journal::replay(&p).unwrap();
        assert_eq!(live["q"][&7].headers, headers);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let p = tmp("trunc");
        let j = Journal::open(&p).unwrap();
        j.append(&publish_rec("q", 1, "complete")).unwrap();
        j.append(&publish_rec("q", 2, "will-be-truncated")).unwrap();
        drop(j);
        // Chop off the last few bytes to simulate a crash mid-append.
        let data = std::fs::read(&p).unwrap();
        std::fs::write(&p, &data[..data.len() - 5]).unwrap();

        let (_, live) = Journal::replay(&p).unwrap();
        let msgs = &live["q"];
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[&1].payload[..], b"complete");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn unknown_kind_is_corruption() {
        let p = tmp("corrupt");
        std::fs::write(&p, [0xFFu8, 0, 0, 0, 0]).unwrap();
        assert!(matches!(
            Journal::replay(&p),
            Err(MqError::CorruptJournal(_))
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn acks_for_unknown_queue_ignored() {
        let p = tmp("ackq");
        let j = Journal::open(&p).unwrap();
        j.append(&JournalRecord::Ack {
            queue: "ghost".into(),
            tag: 9,
        })
        .unwrap();
        drop(j);
        let (_, live) = Journal::replay(&p).unwrap();
        assert!(live.is_empty());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn append_all_replays_like_individual_appends() {
        let p = tmp("batch");
        let j = Journal::open(&p).unwrap();
        j.append_all(&[
            JournalRecord::Declare { queue: "q".into() },
            publish_rec("q", 1, "a"),
            publish_rec("q", 2, "b"),
            JournalRecord::Ack {
                queue: "q".into(),
                tag: 1,
            },
        ])
        .unwrap();
        j.append_all(&[]).unwrap(); // empty batch is a no-op
        drop(j);
        let (declared, live) = Journal::replay(&p).unwrap();
        assert_eq!(declared, vec!["q".to_string()]);
        let msgs = &live["q"];
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[&2].payload[..], b"b");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn scan_reports_max_tags_including_acked() {
        let p = tmp("maxtags");
        let j = Journal::open(&p).unwrap();
        j.append_all(&[
            publish_rec("q", 1, "a"),
            publish_rec("q", 2, "b"),
            publish_rec("r", 10, "c"),
            JournalRecord::Ack {
                queue: "q".into(),
                tag: 2,
            },
            JournalRecord::Ack {
                queue: "r".into(),
                tag: 10,
            },
        ])
        .unwrap();
        drop(j);
        let scan = Journal::scan(&p).unwrap();
        // Max tags cover acked records too: queue r is fully acked but its
        // allocator floor must still advance past tag 10 on recovery.
        assert_eq!(scan.max_tags["q"], 2);
        assert_eq!(scan.max_tags["r"], 10);
        assert_eq!(scan.live["q"].len(), 1);
        assert!(scan.live.get("r").is_none_or(|v| v.is_empty()));
        assert!(!scan.torn_tail);
        assert_eq!(scan.safe_len, std::fs::metadata(&p).unwrap().len());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn scan_records_orphan_acks_for_cross_segment_publishes() {
        let p = tmp("orphan-acks");
        let j = Journal::open(&p).unwrap();
        j.append_all(&[
            publish_rec("q", 5, "local"),
            // Acks whose publishes live in some other segment.
            JournalRecord::Ack {
                queue: "q".into(),
                tag: 3,
            },
            JournalRecord::Ack {
                queue: "other".into(),
                tag: 7,
            },
            // A matched ack must NOT show up as an orphan.
            JournalRecord::Ack {
                queue: "q".into(),
                tag: 5,
            },
        ])
        .unwrap();
        drop(j);
        let scan = Journal::scan(&p).unwrap();
        assert_eq!(scan.acked["q"], vec![3]);
        assert_eq!(scan.acked["other"], vec![7]);
        assert!(scan.live.get("q").is_none_or(|v| v.is_empty()));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn merge_applies_cross_segment_acks_and_unions_floors() {
        let pa = tmp("merge-a");
        let pb = tmp("merge-b");
        let ja = Journal::open(&pa).unwrap();
        let jb = Journal::open(&pb).unwrap();
        // Segment A holds the publishes; segment B holds acks for two of
        // them (as happens when the shard count changes across restarts).
        ja.append_all(&[
            JournalRecord::Declare { queue: "q".into() },
            publish_rec("q", 1, "a"),
            publish_rec("q", 2, "b"),
            publish_rec("q", 3, "c"),
        ])
        .unwrap();
        jb.append_all(&[
            JournalRecord::Declare { queue: "q".into() },
            JournalRecord::Declare { queue: "r".into() },
            JournalRecord::Ack {
                queue: "q".into(),
                tag: 1,
            },
            JournalRecord::Ack {
                queue: "q".into(),
                tag: 3,
            },
            publish_rec("r", 40, "d"),
        ])
        .unwrap();
        drop(ja);
        drop(jb);
        let merged = Replay::merge(vec![
            Journal::scan(&pa).unwrap(),
            Journal::scan(&pb).unwrap(),
        ]);
        // Duplicate declares collapse; acks from B erase A's publishes.
        assert_eq!(merged.declared, vec!["q".to_string(), "r".to_string()]);
        let tags: Vec<u64> = merged.live["q"].keys().copied().collect();
        assert_eq!(tags, vec![2]);
        let tags: Vec<u64> = merged.live["r"].keys().copied().collect();
        assert_eq!(tags, vec![40]);
        // Tag floors cover the union: q saw up to 3, r up to 40.
        assert_eq!(merged.max_tags["q"], 3);
        assert_eq!(merged.max_tags["r"], 40);
        std::fs::remove_file(&pa).unwrap();
        std::fs::remove_file(&pb).unwrap();
    }

    #[test]
    fn merge_sorts_live_messages_by_tag_within_queue() {
        // Two segments interleave tags for the same queue (legacy file plus
        // a new shard segment); the merged replay must restore in tag
        // (= publish) order so FIFO redelivery is preserved.
        let pa = tmp("merge-sort-a");
        let pb = tmp("merge-sort-b");
        let ja = Journal::open(&pa).unwrap();
        let jb = Journal::open(&pb).unwrap();
        ja.append_all(&[publish_rec("q", 2, "b"), publish_rec("q", 4, "d")])
            .unwrap();
        jb.append_all(&[publish_rec("q", 1, "a"), publish_rec("q", 3, "c")])
            .unwrap();
        drop(ja);
        drop(jb);
        let merged = Replay::merge(vec![
            Journal::scan(&pa).unwrap(),
            Journal::scan(&pb).unwrap(),
        ]);
        let tags: Vec<u64> = merged.live["q"].keys().copied().collect();
        assert_eq!(tags, vec![1, 2, 3, 4]);
        std::fs::remove_file(&pa).unwrap();
        std::fs::remove_file(&pb).unwrap();
    }

    #[test]
    fn torn_tail_truncated_at_every_offset_of_last_record() {
        let p = tmp("torn-every-offset");
        let j = Journal::open(&p).unwrap();
        j.append(&publish_rec("q", 1, "first")).unwrap();
        j.append(&publish_rec("q", 2, "second")).unwrap();
        let boundary = std::fs::metadata(&p).unwrap().len();
        j.append(&publish_rec("q", 3, "tail-record")).unwrap();
        drop(j);
        let full = std::fs::read(&p).unwrap();
        assert!(full.len() as u64 > boundary);

        // Tear the last record at every byte offset inside it. Replay must
        // yield exactly the two-record prefix, and re-opening must repair
        // the file so subsequent appends replay cleanly.
        for cut in (boundary as usize + 1)..full.len() {
            std::fs::write(&p, &full[..cut]).unwrap();
            let scan = Journal::scan(&p).unwrap();
            assert!(scan.torn_tail, "cut at {cut}");
            assert_eq!(scan.safe_len, boundary, "cut at {cut}");
            let tags: Vec<u64> = scan.live["q"].keys().copied().collect();
            assert_eq!(tags, vec![1, 2], "cut at {cut}");

            // Regression: appending after a torn tail used to glue the new
            // record onto the partial one, corrupting replay. open() now
            // truncates the tear first.
            let j = Journal::open(&p).unwrap();
            assert_eq!(
                std::fs::metadata(&p).unwrap().len(),
                boundary,
                "cut at {cut}: open did not repair the torn tail"
            );
            j.append(&publish_rec("q", 4, "after-repair")).unwrap();
            drop(j);
            let scan2 = Journal::scan(&p).unwrap();
            assert!(!scan2.torn_tail, "cut at {cut}");
            let tags: Vec<u64> = scan2.live["q"].keys().copied().collect();
            assert_eq!(tags, vec![1, 2, 4], "cut at {cut}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn failpoint_torn_tail_tears_batch_mid_record() {
        let _g = entk_fail::scenario();
        let p = tmp("fp-torn");
        let j = Journal::open(&p).unwrap();
        j.append(&publish_rec("q", 1, "keep")).unwrap();
        entk_fail::arm_once(
            "mq.journal.torn_tail",
            entk_fail::InjectedAction::Partial(7),
        );
        let err = j
            .append_all(&[publish_rec("q", 2, "lost"), publish_rec("q", 3, "lost")])
            .unwrap_err();
        assert!(matches!(err, MqError::FaultInjected(_)));
        drop(j);
        let scan = Journal::scan(&p).unwrap();
        assert!(scan.torn_tail);
        let tags: Vec<u64> = scan.live["q"].keys().copied().collect();
        assert_eq!(tags, vec![1]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn failpoint_flush_crash_is_durable_but_reported_failed() {
        let _g = entk_fail::scenario();
        let p = tmp("fp-flush");
        let j = Journal::open(&p).unwrap();
        entk_fail::arm_once("mq.journal.flush_crash", entk_fail::InjectedAction::Fail);
        let err = j.append(&publish_rec("q", 1, "made-it")).unwrap_err();
        assert!(matches!(err, MqError::FaultInjected(_)));
        drop(j);
        // The crash happens after the flush: the record is on disk even
        // though the caller saw a failure.
        let scan = Journal::scan(&p).unwrap();
        assert_eq!(scan.live["q"].len(), 1);
        assert_eq!(&scan.live["q"][&1].payload[..], b"made-it");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn concurrent_appends_do_not_interleave() {
        use std::sync::Arc;
        // Serialize with the failpoint tests: an armed append failpoint
        // from a sibling would fail these appends.
        let _g = entk_fail::scenario();
        let p = tmp("concurrent");
        let j = Arc::new(Journal::open(&p).unwrap());
        let mut handles = vec![];
        for t in 0..4u64 {
            let j = Arc::clone(&j);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    j.append(&publish_rec("q", t * 1000 + i, "payload"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(j);
        let (_, live) = Journal::replay(&p).unwrap();
        assert_eq!(live["q"].len(), 400);
        std::fs::remove_file(&p).unwrap();
    }
}
