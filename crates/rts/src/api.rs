//! The Pilot API: descriptions, identifiers, states and callbacks.
//!
//! Mirrors RP's Pilot API (paper Fig. 3, arrow 1): "workloads and pilots are
//! described via the Pilot API and passed to the RP runtime system".

use crate::executable::Executable;
use hpc_sim::{PlatformId, StageUnit};

/// Error returned when the runtime system is no longer responsive (killed
/// or torn down). EnTK's Heartbeat reacts by restarting the RTS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtsDown;

impl std::fmt::Display for RtsDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("runtime system is down")
    }
}

impl std::error::Error for RtsDown {}

/// Identifier of a pilot within one [`crate::RuntimeSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PilotId(pub u64);

/// Identifier of a unit (task) within one [`crate::RuntimeSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(pub u64);

/// A pilot: a placeholder job that acquires resources on a CI.
#[derive(Debug, Clone)]
pub struct PilotDescription {
    /// Target computing infrastructure.
    pub platform: PlatformId,
    /// Nodes requested.
    pub nodes: u32,
    /// Walltime requested, seconds. The CI kills the pilot when it expires.
    pub walltime_secs: u64,
    /// Agent bootstrap time once nodes are allocated, seconds.
    pub bootstrap_secs: f64,
}

impl PilotDescription {
    /// A pilot on the test rig platform: 4 nodes, 2 h walltime, no bootstrap.
    pub fn test_rig() -> Self {
        PilotDescription {
            platform: PlatformId::TestRig,
            nodes: 4,
            walltime_secs: 7200,
            bootstrap_secs: 0.0,
        }
    }
}

/// Pilot lifecycle, as observed by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PilotState {
    /// Submitted, waiting in the CI batch queue.
    Queued,
    /// Nodes allocated, agent bootstrapping.
    Active,
    /// Agent ready: units can execute.
    Ready,
    /// Terminal: canceled, walltime-expired or failed.
    Done,
}

/// Data staging directives of a unit.
#[derive(Debug, Clone, Default)]
pub struct StagingSpec {
    /// Input staging performed before the unit may start.
    pub stage_in: Option<StageUnit>,
    /// Output staging performed after the unit completes successfully.
    pub stage_out: Option<StageUnit>,
}

impl StagingSpec {
    /// No staging at all.
    pub fn none() -> Self {
        StagingSpec::default()
    }

    /// Input-only staging.
    pub fn input(unit: StageUnit) -> Self {
        StagingSpec {
            stage_in: Some(unit),
            stage_out: None,
        }
    }
}

/// A unit: the task the RTS executes on a pilot.
#[derive(Debug, Clone)]
pub struct UnitDescription {
    /// Opaque tag the client uses to correlate callbacks with its own task
    /// objects (EnTK stores the task uid here).
    pub tag: String,
    /// What to run.
    pub executable: Executable,
    /// Cores required.
    pub cores: u32,
    /// GPUs required.
    pub gpus: u32,
    /// Data staging directives.
    pub staging: StagingSpec,
    /// Causal trace carried through the RTS: hops accumulated upstream
    /// (EnTK enqueue/emgr) ride on the unit document, the agent appends its
    /// execute hops, and the terminal callback hands the whole timeline
    /// back.
    pub trace: Option<entk_observe::TraceCtx>,
}

impl UnitDescription {
    /// A 1-core unit with the given executable and no staging.
    pub fn new(tag: impl Into<String>, executable: Executable) -> Self {
        UnitDescription {
            tag: tag.into(),
            executable,
            cores: 1,
            gpus: 0,
            staging: StagingSpec::none(),
            trace: None,
        }
    }

    /// Builder: attach a causal trace.
    pub fn with_trace(mut self, trace: entk_observe::TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Builder: set cores.
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Builder: set gpus.
    pub fn with_gpus(mut self, gpus: u32) -> Self {
        self.gpus = gpus;
        self
    }

    /// Builder: set staging.
    pub fn with_staging(mut self, staging: StagingSpec) -> Self {
        self.staging = staging;
        self
    }
}

/// Unit lifecycle. Forward-only; terminal states are `Done`, `Failed`,
/// `Canceled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitState {
    /// Accepted by the UnitManager, written to the DB.
    New,
    /// Input staging in progress (or queued for a stager worker).
    StagingInput,
    /// Submitted to the agent; queued for cores or launching.
    AgentQueued,
    /// Executable running.
    Executing,
    /// Output staging in progress.
    StagingOutput,
    /// Completed successfully.
    Done,
    /// Crashed (executable or infrastructure failure).
    Failed,
    /// Canceled by the client or lost with its pilot.
    Canceled,
}

impl UnitState {
    /// Whether this is a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            UnitState::Done | UnitState::Failed | UnitState::Canceled
        )
    }
}

/// Terminal outcome reported in the final callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitOutcome {
    /// Ran to completion (exit code 0).
    Done,
    /// Crashed, with a diagnostic.
    Failed(String),
    /// Canceled / lost.
    Canceled,
}

/// A unit's terminal state-change notification, pushed to the client
/// (EnTK's "RTS Callback" subcomponent consumes these and feeds the Done
/// queue). Non-terminal transitions are recorded in the unit's document
/// and trace, and are not called back.
#[derive(Debug, Clone)]
pub struct UnitCallback {
    /// The unit.
    pub unit: UnitId,
    /// Client correlation tag (EnTK task uid).
    pub tag: String,
    /// The terminal state.
    pub state: UnitState,
    /// Terminal outcome, matching `state`.
    pub outcome: Option<UnitOutcome>,
    /// Timestamp of the transition, in seconds on the backend's timeline
    /// (virtual seconds for the simulated backend, wall seconds since RTS
    /// start for the local backend).
    pub timestamp_secs: f64,
    /// Causal trace handed back with terminal callbacks: the unit's
    /// upstream hops plus the agent's `agent_start`/`agent_end` hops.
    /// `None` for untraced units.
    pub trace: Option<entk_observe::TraceCtx>,
    /// The simulator's reaction credit of the event behind a terminal
    /// callback: the virtual clock stays at its instant until whoever
    /// reacts to the callback lets it go (DESIGN.md, hpc-sim). Inert on
    /// the local backend.
    pub credit: hpc_sim::Credit,
}

/// A pilot's end (walltime expiry, CI failure, cancellation), announced to
/// the client once, after the terminal callbacks of the units that ended
/// with it. RP reports pilot state changes to its client as it does unit
/// ones; EnTK's Heartbeat re-acquires a pilot when it receives this.
#[derive(Debug, Clone)]
pub struct PilotEnd {
    /// The pilot that ended.
    pub pilot: PilotId,
    /// The simulator's reaction credit of the `JobEnded` event: the virtual
    /// clock stays at the end's instant until the receiver lets it go.
    /// Inert on the local backend.
    pub credit: hpc_sim::Credit,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states() {
        assert!(UnitState::Done.is_terminal());
        assert!(UnitState::Failed.is_terminal());
        assert!(UnitState::Canceled.is_terminal());
        assert!(!UnitState::Executing.is_terminal());
        assert!(!UnitState::New.is_terminal());
    }

    #[test]
    fn unit_builders() {
        let u = UnitDescription::new("task.0001", Executable::Noop)
            .with_cores(16)
            .with_gpus(1)
            .with_staging(StagingSpec::input(StageUnit::single_file(1024)));
        assert_eq!(u.tag, "task.0001");
        assert_eq!(u.cores, 16);
        assert_eq!(u.gpus, 1);
        assert!(u.staging.stage_in.is_some());
        assert!(u.staging.stage_out.is_none());
    }

    #[test]
    fn staging_spec_constructors() {
        assert!(StagingSpec::none().stage_in.is_none());
        let s = StagingSpec::input(StageUnit::weak_scaling_unit());
        assert_eq!(s.stage_in.unwrap().metadata_ops, 4);
    }
}
