//! # rp-rts — a pilot-based runtime system (RADICAL-Pilot substitute)
//!
//! EnTK executes tasks through a runtime system (RTS) it treats as a black
//! box. The paper uses RADICAL-Pilot (RP, §II-D): a distributed system with
//! four modules — PilotManager, UnitManager, Agent and DB — that acquires
//! resources via *pilots* (placeholder batch jobs) and executes *units*
//! (tasks) on them.
//!
//! This crate reimplements that contract in Rust:
//!
//! * [`RuntimeSystem`] is the client-side facade: submit pilots, submit
//!   units, receive completion callbacks and pilot ends, tear down. It is
//!   deliberately opaque to the toolkit above (EnTK's black-box
//!   assumption), and can be killed abruptly to exercise EnTK's RTS-restart
//!   fault tolerance.
//! * The **DB module** ([`db`]) is a small document store standing in for
//!   RP's MongoDB instance: the UnitManager schedules each unit to an agent
//!   via a queue held in the store, and a configurable per-operation latency
//!   models the remote-database round trips that dominate RP's runtime
//!   overheads on real machines.
//! * The **Agent** (inside [`sim_runtime`]) pulls units from the DB queue,
//!   stages their input data through a configurable number of stager workers
//!   (RP defaults to one, which serializes staging — Fig. 8), and spawns
//!   them through the simulated CI's launcher.
//! * Two execution backends: [`sim_runtime::SimRuntime`] runs units in
//!   virtual time on an [`hpc_sim`] infrastructure (all timing experiments),
//!   and [`local_runtime::LocalRuntime`] runs real Rust compute on a thread
//!   pool (the AnEn use case and end-to-end integration tests).

#![warn(missing_docs)]

pub mod api;
pub mod db;
pub mod executable;
pub mod local_runtime;
pub mod pool;
pub mod profile;
pub mod rts;
pub mod sim_runtime;

pub use api::{
    PilotDescription, PilotEnd, PilotId, PilotState, RtsDown, StagingSpec, UnitCallback,
    UnitDescription, UnitId, UnitOutcome, UnitState,
};
pub use executable::Executable;
pub use hpc_sim::Credit;
pub use pool::{PilotLease, PilotPool, PilotPoolConfig, PoolStats};
pub use profile::{RtsProfile, UnitRecord};
pub use rts::{BackendConfig, LocalConfig, RtsConfig, RuntimeSystem};
