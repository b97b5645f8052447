//! The values that cross the boundary between service clients and the
//! [`EnsembleService`].
//!
//! Clients hold a cloneable [`ServiceClient`](crate::service::ServiceClient)
//! whose methods run on the caller's thread against the service's state.
//! Everything crossing the boundary is owned data — ids, statuses, results,
//! counters — which is what lets the gateway front the same state machine
//! with a real socket transport.
//!
//! [`EnsembleService`]: crate::service::EnsembleService

use crate::journal::SettledInfo;
use entk_core::{EntkError, RunReport};
use rp_rts::PoolStats;
use std::fmt;
use std::time::Duration;

/// Service-wide handle for one submitted workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubmissionId(pub u64);

impl fmt::Display for SubmissionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub.{:05}", self.0)
    }
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the pending queue is full. Retry after the hinted
    /// backoff, estimated from the observed turnaround of recent runs.
    Saturated {
        /// Suggested client backoff before resubmitting.
        retry_after: Duration,
    },
    /// The service is draining for shutdown and accepts no new work.
    Draining,
    /// The submitted workflow spec was structurally invalid.
    Invalid(String),
    /// The durability journal refused the submission record; the submission
    /// was NOT accepted (crash-before-append semantics: the client must
    /// retry, and no duplicate can exist on recovery).
    Journal(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated { retry_after } => {
                write!(f, "service saturated; retry after {retry_after:?}")
            }
            SubmitError::Draining => write!(f, "service draining; no new submissions"),
            SubmitError::Invalid(detail) => write!(f, "invalid workflow spec: {detail}"),
            SubmitError::Journal(detail) => write!(f, "journal refused submission: {detail}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Observable lifecycle of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionStatus {
    /// Waiting for a worker; `ahead` submissions from the same tenant are
    /// queued in front of it.
    Queued {
        /// Same-tenant submissions ahead in the FIFO.
        ahead: usize,
    },
    /// A worker is executing it on a leased pilot.
    Running,
    /// Finished with every pipeline Done.
    Done,
    /// Finished with failures (or an execution error).
    Failed,
    /// Canceled before or during execution.
    Canceled,
}

impl SubmissionStatus {
    /// Whether the submission has settled.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SubmissionStatus::Done | SubmissionStatus::Failed | SubmissionStatus::Canceled
        )
    }
}

/// How a submission ended.
#[derive(Debug)]
pub enum SubmissionOutcome {
    /// Run finished and every pipeline is Done.
    Completed(Box<RunReport>),
    /// Run finished but some task/stage/pipeline failed.
    Failed(Box<RunReport>),
    /// Canceled: `None` if it never started, `Some` if it was canceled
    /// mid-run (the report holds the settled Canceled states).
    Canceled(Option<Box<RunReport>>),
    /// The run aborted with an error before producing a report.
    Error(EntkError),
    /// The submission settled before a crash, and this summary was replayed
    /// from the service journal on [`EnsembleService::recover`] — the full
    /// [`RunReport`] died with the crashed process.
    ///
    /// [`EnsembleService::recover`]: crate::service::EnsembleService::recover
    Recovered(SettledInfo),
}

impl SubmissionOutcome {
    /// The run report, when one exists.
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            SubmissionOutcome::Completed(r) | SubmissionOutcome::Failed(r) => Some(r),
            SubmissionOutcome::Canceled(r) => r.as_deref(),
            SubmissionOutcome::Error(_) | SubmissionOutcome::Recovered(_) => None,
        }
    }

    /// Whether every pipeline completed successfully.
    pub fn is_success(&self) -> bool {
        match self {
            SubmissionOutcome::Completed(_) => true,
            SubmissionOutcome::Recovered(info) => info.state == crate::journal::SettledState::Done,
            _ => false,
        }
    }
}

/// Terminal record handed to the client exactly once via `take_result`.
#[derive(Debug)]
pub struct SubmissionResult {
    /// The submission this result belongs to.
    pub id: SubmissionId,
    /// Submitting tenant.
    pub tenant: String,
    /// How it ended.
    pub outcome: SubmissionOutcome,
    /// Submit-to-settle wall time (includes queueing).
    pub turnaround: Duration,
    /// Whether the run reused a warm pilot from the pool (`None` if it was
    /// canceled before a pilot was leased).
    pub warm_pilot: Option<bool>,
}

/// Aggregate service counters, sampled at request time.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Submissions waiting for a worker.
    pub pending: usize,
    /// Submissions currently executing.
    pub active: usize,
    /// Total accepted submissions.
    pub submitted: u64,
    /// Total refused by admission control.
    pub rejected: u64,
    /// Total finished fully Done.
    pub completed: u64,
    /// Total finished with failures or errors.
    pub failed: u64,
    /// Total canceled.
    pub canceled: u64,
    /// Idle warm pilots in the pool right now.
    pub warm_pilots: usize,
    /// Pilot-pool lifetime counters (cold boots, warm hits, …).
    pub pool: PoolStats,
    /// Per-unit entries (unit records, DB documents, simulator tasks) the
    /// idle warm pilots' runtimes still hold. A finished session takes its
    /// units with it, so this is 0 unless a canceled run's units are still
    /// executing.
    pub resident_units: usize,
}

/// One row of the session listing (`GET /v1/sessions` on the gateway).
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Submission handle.
    pub id: SubmissionId,
    /// Submitting tenant.
    pub tenant: String,
    /// Current lifecycle state.
    pub status: SubmissionStatus,
    /// Seconds since submission.
    pub age_secs: f64,
    /// Whether the submission is durable (journaled via a wire spec and
    /// re-driven by [`EnsembleService::recover`]).
    ///
    /// [`EnsembleService::recover`]: crate::service::EnsembleService::recover
    pub durable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_id_display() {
        assert_eq!(SubmissionId(7).to_string(), "sub.00007");
    }

    #[test]
    fn terminal_statuses() {
        assert!(!SubmissionStatus::Queued { ahead: 0 }.is_terminal());
        assert!(!SubmissionStatus::Running.is_terminal());
        assert!(SubmissionStatus::Done.is_terminal());
        assert!(SubmissionStatus::Failed.is_terminal());
        assert!(SubmissionStatus::Canceled.is_terminal());
    }
}
