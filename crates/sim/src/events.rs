//! Events emitted by the simulation to its (real-time) subscribers.

use crate::engine::Credit;
use crate::spec::{JobEndReason, JobId, StageId, TaskId, TaskOutcome};
use crate::time::SimTime;

/// An observable simulation event, stamped with virtual time. Each carries
/// the engine's [`Credit`]: the virtual clock stays at the event's instant
/// until the event, or whatever its credit was moved into, is dropped. A
/// subscriber that keeps events takes their credits out first
/// ([`SimEvent::credit_mut`]); a clone clones the credit.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A job left the batch queue and its nodes are allocated (pilot
    /// becoming active; bootstrap still pending if configured).
    JobActive {
        /// Job id.
        job: JobId,
        /// Virtual time of activation.
        time: SimTime,
        /// Holds the clock at this instant while alive.
        credit: Credit,
    },
    /// The pilot agent finished bootstrapping and can accept tasks.
    JobReady {
        /// Job id.
        job: JobId,
        /// Virtual time.
        time: SimTime,
        /// Holds the clock at this instant while alive.
        credit: Credit,
    },
    /// A job ended; all its running tasks were lost.
    JobEnded {
        /// Job id.
        job: JobId,
        /// Virtual time.
        time: SimTime,
        /// Why it ended.
        reason: JobEndReason,
        /// Tasks that were still running or queued and are now lost.
        lost_tasks: Vec<TaskId>,
        /// Holds the clock at this instant while alive.
        credit: Credit,
    },
    /// A task began executing (after placement, spawn and env setup).
    TaskStarted {
        /// Task id.
        task: TaskId,
        /// Virtual time execution began.
        time: SimTime,
        /// Holds the clock at this instant while alive.
        credit: Credit,
    },
    /// A task reached a terminal state.
    TaskEnded {
        /// Task id.
        task: TaskId,
        /// Virtual time of the terminal transition.
        time: SimTime,
        /// Outcome of this attempt.
        outcome: TaskOutcome,
        /// When the task was submitted to the job's runtime.
        submitted_at: SimTime,
        /// When the executable actually started (None if it never started).
        started_at: Option<SimTime>,
        /// Holds the clock at this instant while alive.
        credit: Credit,
    },
    /// A staging operation completed.
    StageEnded {
        /// Stage id.
        stage: StageId,
        /// Virtual time of completion.
        time: SimTime,
        /// When the operation was accepted.
        submitted_at: SimTime,
        /// Holds the clock at this instant while alive.
        credit: Credit,
    },
}

impl SimEvent {
    /// The virtual timestamp of the event.
    pub fn time(&self) -> SimTime {
        match self {
            SimEvent::JobActive { time, .. }
            | SimEvent::JobReady { time, .. }
            | SimEvent::JobEnded { time, .. }
            | SimEvent::TaskStarted { time, .. }
            | SimEvent::TaskEnded { time, .. }
            | SimEvent::StageEnded { time, .. } => *time,
        }
    }

    /// The event's credit, e.g. to move it on to whoever reacts.
    pub fn credit_mut(&mut self) -> &mut Credit {
        match self {
            SimEvent::JobActive { credit, .. }
            | SimEvent::JobReady { credit, .. }
            | SimEvent::JobEnded { credit, .. }
            | SimEvent::TaskStarted { credit, .. }
            | SimEvent::TaskEnded { credit, .. }
            | SimEvent::StageEnded { credit, .. } => credit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accessor_covers_all_variants() {
        let t = SimTime::from_secs_f64(1.0);
        let events = vec![
            SimEvent::JobActive {
                job: JobId(1),
                time: t,
                credit: Credit::default(),
            },
            SimEvent::JobReady {
                job: JobId(1),
                time: t,
                credit: Credit::default(),
            },
            SimEvent::JobEnded {
                job: JobId(1),
                time: t,
                reason: JobEndReason::Canceled,
                lost_tasks: vec![],
                credit: Credit::default(),
            },
            SimEvent::TaskStarted {
                task: TaskId(1),
                time: t,
                credit: Credit::default(),
            },
            SimEvent::TaskEnded {
                task: TaskId(1),
                time: t,
                outcome: TaskOutcome::Completed,
                submitted_at: SimTime::ZERO,
                started_at: Some(SimTime::ZERO),
                credit: Credit::default(),
            },
            SimEvent::StageEnded {
                stage: StageId(1),
                time: t,
                submitted_at: SimTime::ZERO,
                credit: Credit::default(),
            },
        ];
        for e in events {
            assert_eq!(e.time(), t);
        }
    }
}
