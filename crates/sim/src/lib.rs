//! # hpc-sim — discrete-event simulator for HPC computing infrastructures
//!
//! The EnTK paper evaluates on four production machines (XSEDE SuperMIC,
//! Stampede, Comet and ORNL Titan). We cannot access that hardware, so this
//! crate implements the closest synthetic equivalent: a discrete-event
//! simulation (DES) of a computing infrastructure (CI) that exercises the
//! same code paths in the runtime system and toolkit above it:
//!
//! * a **cluster** of nodes with cores/GPUs and a **batch scheduler** that
//!   queues *jobs* (pilots), starts them when nodes are free, and kills them
//!   at walltime — the multi-stage pilot mechanism of §II-D;
//! * an in-pilot **task runtime**: core placement with a scheduler-search
//!   cost that grows with pilot size, and a launcher with serialized spawns
//!   and per-spawn overhead — the paper's explanation (ORTE + Agent
//!   scheduler) for non-ideal weak scaling in Fig. 8;
//! * a **shared parallel filesystem** (Lustre-like): per-file metadata cost
//!   plus bandwidth shared among concurrent streams; data-staging times grow
//!   linearly with the number of tasks as in Fig. 8, and aggregate I/O
//!   overload induces task failures as observed in Fig. 10;
//! * **platform profiles** for the four CIs of Table I.
//!
//! Virtual time advances in jumps (no real sleeping), so experiments with
//! thousands of 600-second tasks complete in milliseconds of wall time while
//! the middleware above still does its real work in real threads. Commands
//! are injected from real threads through a channel and applied at the
//! current virtual instant. The clock advances on quiescence: every event
//! carries a reaction [`Credit`], and the engine steps only when no credit
//! is alive and no command is queued — so a reaction sent under its event's
//! credit lands at the event's instant, however loaded the host — and no
//! faster than 10 000 virtual seconds per real second. A burst of launches
//! is one command ([`SimCommander::launch_tasks`]), and reading the clock
//! ([`SimCommander::now`]) is a load of a value the engine publishes, not a
//! command.

#![warn(missing_docs)]

pub mod cluster;
pub mod engine;
pub mod events;
pub mod fs;
pub mod ids;
pub mod platform;
pub mod spec;
pub mod time;

pub use engine::{Credit, SimCommander, SimConfig, SimHandle, Simulation};
pub use events::SimEvent;
pub use fs::{FsModel, StageUnit};
pub use ids::{IdHasher, IdMap};
pub use platform::{FsProfile, HostProfile, LauncherProfile, Platform, PlatformId};
pub use spec::{
    DurationModel, FailureModel, JobDescription, JobEndReason, JobId, JobState, StageId, TaskDesc,
    TaskId, TaskOutcome,
};
pub use time::{SimDuration, SimTime};
