//! RTS-side profiling: per-unit records and aggregate measures.
//!
//! The paper decomposes total runtime into EnTK overheads, RTS overheads,
//! data staging and task execution (§IV-A2). The RTS contributes the unit
//! timeline: submission, staging, execution start, execution end — all on
//! the backend's timeline (virtual seconds for the simulated backend).

use crate::api::{UnitId, UnitOutcome};
use entk_observe::{Counter, Recorder};
use std::sync::Arc;

/// The `rts.units_{submitted,started,ended}` counters, looked up in the
/// metrics registry once per runtime instead of once per unit and event.
#[derive(Clone)]
pub(crate) struct UnitCounters {
    pub(crate) submitted: Arc<Counter>,
    pub(crate) started: Arc<Counter>,
    pub(crate) ended: Arc<Counter>,
}

impl UnitCounters {
    pub(crate) fn new(recorder: &Recorder) -> Self {
        let m = recorder.metrics();
        UnitCounters {
            submitted: m.counter("rts.units_submitted"),
            started: m.counter("rts.units_started"),
            ended: m.counter("rts.units_ended"),
        }
    }
}

/// Timeline of one unit, in backend seconds.
#[derive(Debug, Clone)]
pub struct UnitRecord {
    /// Unit id.
    pub unit: UnitId,
    /// Client tag.
    pub tag: String,
    /// When the UnitManager accepted the unit.
    pub submitted_secs: f64,
    /// When input staging finished (None: no staging or not reached).
    pub stage_in_done_secs: Option<f64>,
    /// Input staging duration (0 when no staging).
    pub stage_in_duration_secs: f64,
    /// When the executable started.
    pub started_secs: Option<f64>,
    /// When the unit reached a terminal state.
    pub ended_secs: Option<f64>,
    /// Terminal outcome, if reached.
    pub outcome: Option<UnitOutcome>,
}

impl UnitRecord {
    /// New record at submission time.
    pub fn submitted(unit: UnitId, tag: String, at_secs: f64) -> Self {
        UnitRecord {
            unit,
            tag,
            submitted_secs: at_secs,
            stage_in_done_secs: None,
            stage_in_duration_secs: 0.0,
            started_secs: None,
            ended_secs: None,
            outcome: None,
        }
    }

    /// Executable runtime (end − start), if both known.
    pub fn exec_secs(&self) -> Option<f64> {
        Some(self.ended_secs? - self.started_secs?)
    }
}

/// Aggregate profile over a set of unit records.
#[derive(Debug, Clone, Default)]
pub struct RtsProfile {
    /// Total units.
    pub units: usize,
    /// Units that completed successfully.
    pub completed: usize,
    /// Units that failed.
    pub failed: usize,
    /// Units canceled/lost.
    pub canceled: usize,
    /// Earliest submission timestamp.
    pub first_submit_secs: Option<f64>,
    /// Earliest execution start.
    pub first_start_secs: Option<f64>,
    /// Latest execution start.
    pub last_start_secs: Option<f64>,
    /// Latest termination.
    pub last_end_secs: Option<f64>,
    /// Makespan of the execution phase: last end − first start. This is the
    /// paper's "Task Execution Time".
    pub exec_makespan_secs: f64,
    /// Sum of input-staging durations (with one stager this equals the
    /// staging makespan — the paper's "Data Staging Time").
    pub staging_total_secs: f64,
    /// Staging makespan: latest stage-in completion − earliest submission.
    /// With parallel stagers this shrinks while the total stays constant.
    pub staging_makespan_secs: f64,
    /// Time from first submission to first execution start, minus staging:
    /// the RTS's own submission/launch overhead contribution.
    pub submit_to_first_start_secs: f64,
}

impl RtsProfile {
    /// Build the aggregate from unit records.
    pub fn from_records(records: &[UnitRecord]) -> Self {
        let mut p = RtsProfile {
            units: records.len(),
            ..Default::default()
        };
        let first_submit = records
            .iter()
            .map(|r| r.submitted_secs)
            .fold(f64::INFINITY, f64::min);
        for r in records {
            match &r.outcome {
                Some(UnitOutcome::Done) => p.completed += 1,
                Some(UnitOutcome::Failed(_)) => p.failed += 1,
                Some(UnitOutcome::Canceled) => p.canceled += 1,
                None => {}
            }
            p.first_submit_secs = min_opt(p.first_submit_secs, Some(r.submitted_secs));
            p.first_start_secs = min_opt(p.first_start_secs, r.started_secs);
            p.last_start_secs = max_opt(p.last_start_secs, r.started_secs);
            p.last_end_secs = max_opt(p.last_end_secs, r.ended_secs);
            p.staging_total_secs += r.stage_in_duration_secs;
            if let Some(done) = r.stage_in_done_secs {
                p.staging_makespan_secs = p.staging_makespan_secs.max(done - first_submit);
            }
        }
        if let (Some(fs), Some(le)) = (p.first_start_secs, p.last_end_secs) {
            p.exec_makespan_secs = (le - fs).max(0.0);
        }
        if let (Some(sub), Some(fs)) = (p.first_submit_secs, p.first_start_secs) {
            // Staging happens between submit and start; don't double count.
            let first_stage = records
                .iter()
                .filter(|r| r.started_secs.is_some())
                .map(|r| r.stage_in_duration_secs)
                .fold(f64::INFINITY, f64::min);
            let stage = if first_stage.is_finite() {
                first_stage
            } else {
                0.0
            };
            p.submit_to_first_start_secs = (fs - sub - stage).max(0.0);
        }
        p
    }
}

fn min_opt(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

fn max_opt(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        id: u64,
        submit: f64,
        start: Option<f64>,
        end: Option<f64>,
        outcome: Option<UnitOutcome>,
    ) -> UnitRecord {
        UnitRecord {
            unit: UnitId(id),
            tag: format!("t{id}"),
            submitted_secs: submit,
            stage_in_done_secs: None,
            stage_in_duration_secs: 0.0,
            started_secs: start,
            ended_secs: end,
            outcome,
        }
    }

    #[test]
    fn empty_profile() {
        let p = RtsProfile::from_records(&[]);
        assert_eq!(p.units, 0);
        assert_eq!(p.exec_makespan_secs, 0.0);
        assert!(p.first_submit_secs.is_none());
    }

    #[test]
    fn counts_by_outcome() {
        let recs = vec![
            record(1, 0.0, Some(1.0), Some(2.0), Some(UnitOutcome::Done)),
            record(
                2,
                0.0,
                Some(1.0),
                Some(1.5),
                Some(UnitOutcome::Failed("x".into())),
            ),
            record(3, 0.0, None, Some(1.0), Some(UnitOutcome::Canceled)),
            record(4, 0.0, Some(1.0), None, None),
        ];
        let p = RtsProfile::from_records(&recs);
        assert_eq!((p.units, p.completed, p.failed, p.canceled), (4, 1, 1, 1));
    }

    #[test]
    fn makespan_spans_first_start_to_last_end() {
        let recs = vec![
            record(1, 0.0, Some(5.0), Some(105.0), Some(UnitOutcome::Done)),
            record(2, 0.0, Some(7.0), Some(300.0), Some(UnitOutcome::Done)),
        ];
        let p = RtsProfile::from_records(&recs);
        assert_eq!(p.exec_makespan_secs, 295.0);
        assert_eq!(p.first_start_secs, Some(5.0));
        assert_eq!(p.last_start_secs, Some(7.0));
    }

    #[test]
    fn submit_to_first_start_subtracts_staging() {
        let mut r = record(1, 10.0, Some(20.0), Some(30.0), Some(UnitOutcome::Done));
        r.stage_in_duration_secs = 4.0;
        let p = RtsProfile::from_records(&[r]);
        assert!((p.submit_to_first_start_secs - 6.0).abs() < 1e-9);
    }

    #[test]
    fn staging_total_accumulates() {
        let mut r1 = record(1, 0.0, Some(1.0), Some(2.0), Some(UnitOutcome::Done));
        let mut r2 = record(2, 0.0, Some(1.0), Some(2.0), Some(UnitOutcome::Done));
        r1.stage_in_duration_secs = 0.02;
        r2.stage_in_duration_secs = 0.03;
        let p = RtsProfile::from_records(&[r1, r2]);
        assert!((p.staging_total_secs - 0.05).abs() < 1e-12);
    }

    #[test]
    fn exec_secs_requires_both_ends() {
        let r = record(1, 0.0, Some(1.0), None, None);
        assert!(r.exec_secs().is_none());
        let r = record(1, 0.0, Some(1.0), Some(3.5), None);
        assert_eq!(r.exec_secs(), Some(2.5));
    }
}
