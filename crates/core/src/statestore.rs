//! The transactional state journal.
//!
//! "All state updates in EnTK are transactional ... In case of full failure,
//! EnTK can reacquire upon restarting information about the state of the
//! execution up to the latest successful transaction before the failure.
//! Information is synced on disk" (§II-B4). The Synchronizer appends one
//! line per applied transition; on a re-run, tasks whose *name* was recorded
//! Done are marked complete without re-execution ("applications can be
//! executed on multiple attempts, without restarting completed tasks").
//!
//! Format: one record per line, `kind<TAB>uid<TAB>name<TAB>state`. Names
//! are the cross-run recovery key because uids are regenerated each run. A
//! torn last line (crash mid-append) is cut off when the journal is opened
//! again, so the next record starts on a line of its own.

use crate::EntkResult;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Append-only journal of applied state transitions.
pub struct StateStore {
    writer: Mutex<BufWriter<File>>,
}

impl StateStore {
    /// Open (or create) the journal at `path`, truncating a torn last line
    /// back to the last complete one first.
    pub fn open(path: impl AsRef<Path>) -> EntkResult<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(crate::EntkError::Journal)?;
            }
        }
        repair_torn_tail(&path).map_err(crate::EntkError::Journal)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(crate::EntkError::Journal)?;
        Ok(StateStore {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Record one applied transition. Tab characters in fields are replaced
    /// to keep the line format parseable.
    pub fn record(&self, kind: &str, uid: &str, name: &str, state: &str) -> EntkResult<()> {
        let clean = |s: &str| s.replace(['\t', '\n'], " ");
        let mut w = self.writer.lock();
        writeln!(
            w,
            "{}\t{}\t{}\t{}",
            clean(kind),
            clean(uid),
            clean(name),
            clean(state)
        )
        .map_err(crate::EntkError::Journal)?;
        w.flush().map_err(crate::EntkError::Journal)?;
        Ok(())
    }

    /// Names of tasks recorded as Done in a journal file. Missing file ⇒
    /// empty set. Malformed lines (crash mid-write) are skipped.
    pub fn completed_task_names(path: impl AsRef<Path>) -> EntkResult<HashSet<String>> {
        let file = match File::open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashSet::new()),
            Err(e) => return Err(crate::EntkError::Journal(e)),
        };
        let mut done = HashSet::new();
        for line in BufReader::new(file).lines() {
            let line = line.map_err(crate::EntkError::Journal)?;
            let mut fields = line.split('\t');
            let (Some(kind), Some(_uid), Some(name), Some(state)) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                continue;
            };
            if kind == "task" {
                // A later transition supersedes an earlier one; only the
                // final recorded state matters, and Done is absorbing.
                if state == "done" {
                    done.insert(name.to_string());
                }
            }
        }
        Ok(done)
    }
}

/// Cut a partial last line off the file at `path`: appending after it would
/// glue the next record onto it, and replay would lose that record too.
fn repair_torn_tail(path: &Path) -> std::io::Result<()> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if data.last().is_some_and(|&b| b != b'\n') {
        let keep = data.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(keep as u64)?;
        f.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "entk-statestore-{name}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn records_and_recovers_done_tasks() {
        let p = tmp("basic");
        {
            let store = StateStore::open(&p).unwrap();
            store
                .record("task", "task.1", "sim-a", "submitted")
                .unwrap();
            store.record("task", "task.1", "sim-a", "done").unwrap();
            store.record("task", "task.2", "sim-b", "failed").unwrap();
            store.record("stage", "stage.1", "s0", "done").unwrap();
        }
        let done = StateStore::completed_task_names(&p).unwrap();
        assert!(done.contains("sim-a"));
        assert!(!done.contains("sim-b"));
        assert!(!done.contains("s0"), "stage records are not tasks");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let done = StateStore::completed_task_names("/nonexistent/journal.log").unwrap();
        assert!(done.is_empty());
    }

    #[test]
    fn malformed_lines_skipped() {
        let p = tmp("malformed");
        std::fs::write(&p, "task\ttask.1\tok-task\tdone\ngarbage line\n").unwrap();
        let done = StateStore::completed_task_names(&p).unwrap();
        assert_eq!(done.len(), 1);
        assert!(done.contains("ok-task"));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn tabs_in_names_sanitized() {
        let p = tmp("tabs");
        {
            let store = StateStore::open(&p).unwrap();
            store
                .record("task", "task.1", "evil\tname", "done")
                .unwrap();
        }
        let done = StateStore::completed_task_names(&p).unwrap();
        assert!(done.contains("evil name"));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn torn_last_line_is_cut_before_the_next_record() {
        let p = tmp("torn");
        std::fs::write(&p, "task\ttask.1\tsim-a\tdone\ntask\ttask.2\tsim-b\tsubmi").unwrap();
        {
            let store = StateStore::open(&p).unwrap();
            store.record("task", "task.2", "sim-b", "done").unwrap();
        }
        let done = StateStore::completed_task_names(&p).unwrap();
        assert_eq!(
            done,
            HashSet::from(["sim-a".to_string(), "sim-b".to_string()])
        );
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "task\ttask.1\tsim-a\tdone\ntask\ttask.2\tsim-b\tdone\n"
        );
        // A file holding only a partial line is cut to empty.
        std::fs::write(&p, "task\ttas").unwrap();
        drop(StateStore::open(&p).unwrap());
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 0);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn journal_appends_across_reopens() {
        let p = tmp("reopen");
        {
            let store = StateStore::open(&p).unwrap();
            store.record("task", "task.1", "first", "done").unwrap();
        }
        {
            let store = StateStore::open(&p).unwrap();
            store.record("task", "task.2", "second", "done").unwrap();
        }
        let done = StateStore::completed_task_names(&p).unwrap();
        assert_eq!(done.len(), 2);
        std::fs::remove_file(&p).unwrap();
    }
}
