//! Service-level workflow journal: the durability layer behind
//! [`EnsembleService::recover`](crate::service::EnsembleService::recover).
//!
//! The service's durable state is this journal plus one task-level state
//! journal per durable submission; the shared broker keeps none, because
//! run queues are not durable. Built on the reusable length-delimited
//! framing from [`entk_mq::journal::frame`] — the mq journal and this one
//! share the same binary grammar primitives, torn-tail semantics, and
//! repair-on-open behaviour. Where the mq journal records *messages*
//! (publish/ack), this one records *submissions*:
//!
//! ```text
//! record    := kind:u8 body
//! submitted := 0x01 id:u64 weight:u32 tlen:u32 tenant slen:u32 spec_json
//! settled   := 0x03 id:u64 state:u8 done:u64 failed:u64 turnaround_ms:u64
//! ```
//!
//! All integers are little-endian; strings are u32-length-prefixed UTF-8.
//! Kind `0x02` (`started := 0x02 id:u64 slen:u32 session`) is no longer
//! written; replay still reads its body and drops it, so an older journal
//! recovers to the same submissions.
//! `spec_json` is the [`WorkflowSpec`](crate::spec::WorkflowSpec) wire
//! encoding, so replay can re-materialize the exact workflow. Replay folds
//! records into per-submission lifecycles: a `submitted` with no `settled`
//! is in-flight and must be re-driven after a crash; a `settled` one is
//! terminal and must NOT re-run (exactly-once). Task-level dedup inside a
//! re-driven submission comes from the per-submission AppManager state
//! journal (`sub-NNNNN.tasks.log` in the same directory), which survives the
//! crash and skips tasks journaled Done.
//!
//! Failpoints: `gateway.journal.submitted` / `.settled` fire
//! *before* the corresponding append — tripping one models a process killed
//! just before the record reached disk, the adversarial window for
//! exactly-once reasoning.

use crate::spec::WorkflowSpec;
use entk_mq::journal::frame::{self, write_bytes, write_u32, write_u64, FrameReader};
use entk_mq::{MqError, MqResult};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

const KIND_SUBMITTED: u8 = 0x01;
const KIND_STARTED: u8 = 0x02;
const KIND_SETTLED: u8 = 0x03;

/// Terminal state of a settled submission, as journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettledState {
    /// Every pipeline finished Done.
    Done,
    /// Finished with failures or an execution error.
    Failed,
    /// Canceled before or during execution.
    Canceled,
}

impl SettledState {
    fn to_u8(self) -> u8 {
        match self {
            SettledState::Done => 0,
            SettledState::Failed => 1,
            SettledState::Canceled => 2,
        }
    }

    fn from_u8(v: u8) -> MqResult<Self> {
        match v {
            0 => Ok(SettledState::Done),
            1 => Ok(SettledState::Failed),
            2 => Ok(SettledState::Canceled),
            other => Err(MqError::CorruptJournal(format!(
                "unknown settled state {other}"
            ))),
        }
    }
}

/// One record in the service journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceRecord {
    /// A submission was accepted by admission control.
    Submitted {
        /// Submission id (stable across restarts).
        id: u64,
        /// Submitting tenant.
        tenant: String,
        /// Wire-carried fair-share weight (0 = service default).
        weight: u32,
        /// The workflow spec's JSON encoding.
        spec_json: String,
    },
    /// The submission reached a terminal state.
    Settled {
        /// Submission id.
        id: u64,
        /// How it ended.
        state: SettledState,
        /// Tasks that finished Done.
        tasks_done: u64,
        /// Tasks that finished Failed.
        tasks_failed: u64,
        /// Submit-to-settle wall time in milliseconds.
        turnaround_ms: u64,
    },
}

/// Terminal summary replayed for a settled submission (the full
/// [`RunReport`](entk_core::RunReport) dies with the crashed process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettledInfo {
    /// How it ended.
    pub state: SettledState,
    /// Tasks that finished Done.
    pub tasks_done: u64,
    /// Tasks that finished Failed.
    pub tasks_failed: u64,
    /// Submit-to-settle wall time in milliseconds.
    pub turnaround_ms: u64,
}

/// One submission's journaled lifecycle, folded from its records.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledSub {
    /// Submission id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Wire-carried fair-share weight (0 = service default).
    pub weight: u32,
    /// The workflow spec's JSON encoding.
    pub spec_json: String,
    /// Terminal summary, if the submission settled before the crash.
    pub settled: Option<SettledInfo>,
}

/// Full replay of a service journal.
#[derive(Debug, Default)]
pub struct ServiceReplay {
    /// Submissions in id order.
    pub subs: Vec<JournaledSub>,
    /// Smallest id a fresh submission may take (max journaled id + 1).
    pub next_id: u64,
    /// Byte offset just past the last complete record.
    pub safe_len: u64,
    /// Whether a partial trailing record (crash mid-append) was found.
    pub torn_tail: bool,
}

impl ServiceReplay {
    /// Submissions that were accepted but never settled — the set recovery
    /// must re-drive.
    pub fn unsettled(&self) -> impl Iterator<Item = &JournaledSub> {
        self.subs.iter().filter(|s| s.settled.is_none())
    }
}

/// Append-only service journal bound to a file path.
#[derive(Debug)]
pub struct ServiceJournal {
    writer: Mutex<BufWriter<File>>,
}

impl ServiceJournal {
    /// Open (or create) a journal for appending, truncating a torn tail back
    /// to the last complete record first (same repair-on-open contract as
    /// the broker journal).
    pub fn open(path: impl AsRef<Path>) -> MqResult<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let scan = Self::scan(&path)?;
        if scan.torn_tail {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(scan.safe_len)?;
            f.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(ServiceJournal {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Append one record and flush it to the OS. The per-kind
    /// `gateway.journal.*` failpoint fires *before* the write: a trip means
    /// the record never reaches disk (crash-before-append).
    pub fn append(&self, rec: &ServiceRecord) -> MqResult<()> {
        let point = match rec {
            ServiceRecord::Submitted { .. } => "gateway.journal.submitted",
            ServiceRecord::Settled { .. } => "gateway.journal.settled",
        };
        if entk_fail::hit_sleep(point).is_some() {
            return Err(MqError::FaultInjected(point.into()));
        }
        let mut w = self.writer.lock();
        Self::write_record(&mut *w, rec)?;
        w.flush()?;
        Ok(())
    }

    fn write_record(w: &mut impl Write, rec: &ServiceRecord) -> MqResult<()> {
        match rec {
            ServiceRecord::Submitted {
                id,
                tenant,
                weight,
                spec_json,
            } => {
                w.write_all(&[KIND_SUBMITTED])?;
                write_u64(&mut *w, *id)?;
                write_u32(&mut *w, *weight)?;
                write_bytes(&mut *w, tenant.as_bytes())?;
                write_bytes(&mut *w, spec_json.as_bytes())?;
            }
            ServiceRecord::Settled {
                id,
                state,
                tasks_done,
                tasks_failed,
                turnaround_ms,
            } => {
                w.write_all(&[KIND_SETTLED])?;
                write_u64(&mut *w, *id)?;
                w.write_all(&[state.to_u8()])?;
                write_u64(&mut *w, *tasks_done)?;
                write_u64(&mut *w, *tasks_failed)?;
                write_u64(&mut *w, *turnaround_ms)?;
            }
        }
        Ok(())
    }

    /// Replay a journal into per-submission lifecycles. A missing file is an
    /// empty replay; a torn trailing record is tolerated and reported;
    /// corruption elsewhere is an error. The `service.recover.scan`
    /// failpoint injects a scan failure (recovery must be retryable).
    pub fn scan(path: impl AsRef<Path>) -> MqResult<ServiceReplay> {
        if entk_fail::hit_sleep("service.recover.scan").is_some() {
            return Err(MqError::FaultInjected("service.recover.scan".into()));
        }
        let file = match File::open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(ServiceReplay {
                    next_id: 1,
                    ..Default::default()
                })
            }
            Err(e) => return Err(e.into()),
        };
        let mut reader = FrameReader::new(BufReader::new(file));
        let mut subs: BTreeMap<u64, JournaledSub> = BTreeMap::new();
        let mut replay = ServiceReplay::default();
        loop {
            let at = reader.pos();
            let rec = match Self::read_record(&mut reader) {
                Ok(Some(Some(rec))) => rec,
                Ok(Some(None)) => continue,
                Ok(None) => {
                    replay.safe_len = at;
                    break;
                }
                Err(e) if frame::is_truncation(&e) => {
                    replay.safe_len = at;
                    replay.torn_tail = true;
                    break;
                }
                Err(e) => return Err(e),
            };
            match rec {
                ServiceRecord::Submitted {
                    id,
                    tenant,
                    weight,
                    spec_json,
                } => {
                    subs.insert(
                        id,
                        JournaledSub {
                            id,
                            tenant,
                            weight,
                            spec_json,
                            settled: None,
                        },
                    );
                }
                ServiceRecord::Settled {
                    id,
                    state,
                    tasks_done,
                    tasks_failed,
                    turnaround_ms,
                } => {
                    if let Some(sub) = subs.get_mut(&id) {
                        sub.settled = Some(SettledInfo {
                            state,
                            tasks_done,
                            tasks_failed,
                            turnaround_ms,
                        });
                    }
                }
            }
        }
        replay.next_id = subs.keys().next_back().map_or(1, |max| max + 1);
        replay.subs = subs.into_values().collect();
        Ok(replay)
    }

    /// Read one record: `None` at a clean end of file, `Some(None)` for a
    /// complete record of a kind replay drops (`started`).
    fn read_record(
        reader: &mut FrameReader<BufReader<File>>,
    ) -> MqResult<Option<Option<ServiceRecord>>> {
        let Some(kind) = reader.read_kind()? else {
            return Ok(None);
        };
        let rec = match kind {
            KIND_SUBMITTED => {
                let id = reader.read_u64()?;
                let weight = reader.read_u32()?;
                let tenant = reader.read_string()?;
                let spec_json = reader.read_string()?;
                ServiceRecord::Submitted {
                    id,
                    tenant,
                    weight,
                    spec_json,
                }
            }
            KIND_STARTED => {
                reader.read_u64()?;
                reader.read_vec()?;
                return Ok(Some(None));
            }
            KIND_SETTLED => {
                let id = reader.read_u64()?;
                let mut state = [0u8; 1];
                reader.read_exact_or_eof(&mut state, false)?;
                let state = SettledState::from_u8(state[0])?;
                let tasks_done = reader.read_u64()?;
                let tasks_failed = reader.read_u64()?;
                let turnaround_ms = reader.read_u64()?;
                ServiceRecord::Settled {
                    id,
                    state,
                    tasks_done,
                    tasks_failed,
                    turnaround_ms,
                }
            }
            other => {
                return Err(MqError::CorruptJournal(format!(
                    "unknown service record kind 0x{other:02x}"
                )))
            }
        };
        Ok(Some(Some(rec)))
    }
}

/// Validate that `spec_json` in a replayed submission still parses (the
/// `service.recover.replay` failpoint injects a per-submission failure here
/// so chaos tests can exercise partial-recovery retries).
pub fn replay_spec(sub: &JournaledSub) -> MqResult<WorkflowSpec> {
    if entk_fail::hit_sleep("service.recover.replay").is_some() {
        return Err(MqError::FaultInjected("service.recover.replay".into()));
    }
    WorkflowSpec::from_json(&sub.spec_json)
        .map_err(|e| MqError::CorruptJournal(format!("sub {}: {e}", sub.id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExecSpec, PipelineSpec, StageSpec, TaskSpec};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("entk-service-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{name}-{}-{:?}.journal",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn spec_json() -> String {
        WorkflowSpec::new()
            .with_pipeline(
                PipelineSpec::new("p")
                    .with_stage(StageSpec::new("s").with_task(TaskSpec::new("t", ExecSpec::Noop))),
            )
            .to_json()
    }

    #[test]
    fn round_trip_lifecycles() {
        let path = tmp("round-trip");
        let _ = std::fs::remove_file(&path);
        let j = ServiceJournal::open(&path).unwrap();
        j.append(&ServiceRecord::Submitted {
            id: 1,
            tenant: "alice".into(),
            weight: 0,
            spec_json: spec_json(),
        })
        .unwrap();
        j.append(&ServiceRecord::Submitted {
            id: 2,
            tenant: "bob".into(),
            weight: 4,
            spec_json: spec_json(),
        })
        .unwrap();
        j.append(&ServiceRecord::Settled {
            id: 1,
            state: SettledState::Done,
            tasks_done: 3,
            tasks_failed: 0,
            turnaround_ms: 1234,
        })
        .unwrap();
        drop(j);

        let replay = ServiceJournal::scan(&path).unwrap();
        assert_eq!(replay.subs.len(), 2);
        assert_eq!(replay.next_id, 3);
        assert!(!replay.torn_tail);
        let settled = replay.subs[0].settled.unwrap();
        assert_eq!(settled.state, SettledState::Done);
        assert_eq!(settled.tasks_done, 3);
        assert_eq!(settled.turnaround_ms, 1234);
        let unsettled: Vec<u64> = replay.unsettled().map(|s| s.id).collect();
        assert_eq!(unsettled, vec![2]);
        assert!(replay_spec(&replay.subs[1]).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_empty_replay() {
        let replay = ServiceJournal::scan("/nonexistent/service.journal").unwrap();
        assert!(replay.subs.is_empty());
        assert_eq!(replay.next_id, 1);
    }

    #[test]
    fn torn_tail_is_tolerated_and_repaired_on_open() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let j = ServiceJournal::open(&path).unwrap();
        j.append(&submitted(1)).unwrap();
        drop(j);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Glue a partial record on the end (crash mid-append).
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[KIND_SETTLED, 9, 9]).unwrap();
        }
        let replay = ServiceJournal::scan(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.safe_len, clean_len);
        assert_eq!(replay.subs.len(), 1);
        // Re-open repairs, and a fresh append replays cleanly.
        let j = ServiceJournal::open(&path).unwrap();
        j.append(&settled(1)).unwrap();
        drop(j);
        let replay = ServiceJournal::scan(&path).unwrap();
        assert!(!replay.torn_tail);
        assert!(replay.subs[0].settled.is_some());
        let _ = std::fs::remove_file(&path);
    }

    fn submitted(id: u64) -> ServiceRecord {
        ServiceRecord::Submitted {
            id,
            tenant: "t".into(),
            weight: 0,
            spec_json: spec_json(),
        }
    }

    fn settled(id: u64) -> ServiceRecord {
        ServiceRecord::Settled {
            id,
            state: SettledState::Done,
            tasks_done: 1,
            tasks_failed: 0,
            turnaround_ms: 5,
        }
    }

    #[test]
    fn journal_with_started_records_replays_to_the_same_submissions() {
        let (plain, old) = (tmp("plain-format"), tmp("started-format"));
        // The `started` record older journals wrote when a worker took a
        // submission.
        let started = |b: &mut Vec<u8>, id: u64| {
            b.push(KIND_STARTED);
            write_u64(b, id).unwrap();
            write_bytes(b, format!("s{id:05}").as_bytes()).unwrap();
        };
        let (mut plain_bytes, mut old_bytes) = (Vec::new(), Vec::new());
        for rec in [submitted(1), submitted(2), settled(1), submitted(3)] {
            ServiceJournal::write_record(&mut plain_bytes, &rec).unwrap();
            ServiceJournal::write_record(&mut old_bytes, &rec).unwrap();
            if let ServiceRecord::Submitted { id, .. } = rec {
                started(&mut old_bytes, id);
            }
        }
        std::fs::write(&plain, &plain_bytes).unwrap();
        std::fs::write(&old, &old_bytes).unwrap();
        let want = ServiceJournal::scan(&plain).unwrap();
        let got = ServiceJournal::scan(&old).unwrap();
        assert_eq!(got.subs, want.subs);
        assert_eq!((got.next_id, got.torn_tail), (4, false));
        // The safe length ends after the last complete record, a `started`
        // one included; a torn one is cut back to the record before it.
        assert_eq!(got.safe_len, old_bytes.len() as u64);
        let mut last = Vec::new();
        started(&mut last, 3);
        std::fs::write(&old, &old_bytes[..old_bytes.len() - 3]).unwrap();
        let torn = ServiceJournal::scan(&old).unwrap();
        assert_eq!(torn.subs, want.subs);
        assert!(torn.torn_tail);
        assert_eq!(torn.safe_len, (old_bytes.len() - last.len()) as u64);
        let _ = std::fs::remove_file(&plain);
        let _ = std::fs::remove_file(&old);
    }

    #[test]
    fn corruption_mid_file_is_an_error() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, [0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        assert!(matches!(
            ServiceJournal::scan(&path),
            Err(MqError::CorruptJournal(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_failpoints_fire_before_the_write() {
        let _guard = entk_fail::scenario();
        let path = tmp("failpoint");
        let _ = std::fs::remove_file(&path);
        let j = ServiceJournal::open(&path).unwrap();
        entk_fail::arm_once("gateway.journal.submitted", entk_fail::InjectedAction::Fail);
        let rec = submitted(1);
        assert!(matches!(j.append(&rec), Err(MqError::FaultInjected(_))));
        // Crash-before-append: nothing reached disk.
        let replay = ServiceJournal::scan(&path).unwrap();
        assert!(replay.subs.is_empty());
        // Disarmed, the same append succeeds.
        j.append(&rec).unwrap();
        assert_eq!(ServiceJournal::scan(&path).unwrap().subs.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
