//! # entk-core — the Ensemble Toolkit
//!
//! Rust reimplementation of EnTK (Balasubramanian et al., IPDPS 2018):
//! a toolkit that promotes *ensembles* to a high-level programming
//! abstraction and executes them at scale on high-performance computing
//! infrastructures through a pilot-based runtime system.
//!
//! ## The PST application model (§II-B1)
//!
//! * [`Task`] — a stand-alone process with an executable, resource
//!   requirements and data dependences;
//! * [`Stage`] — a set of tasks without mutual dependences, executed
//!   concurrently;
//! * [`Pipeline`] — a list of stages executed sequentially.
//!
//! A [`Workflow`] is a set of pipelines, all free to execute concurrently.
//! Branching is expressed with `post_exec` hooks that edit the pipeline when
//! a stage completes (the paper's "branching events" — e.g. the adaptive
//! analog algorithm appends iterations until its error threshold is met).
//!
//! ## Architecture (§II-B2, Fig. 2)
//!
//! [`AppManager`] is the master component and the only stateful one. It owns
//! the message broker ([`entk_mq`]), the transactional [`statestore`] and
//! the **Synchronizer**, the only code that changes PST state: a component
//! applies its batch of task transitions through it under the workflow lock,
//! on its own thread, where the paper's processes push updates through
//! dedicated queues. AppManager spawns:
//!
//! * the **WFProcessor** with its *Enqueue* (tags ready tasks, pushes them
//!   to the Pending queue) and *Dequeue* (settles an attempt: advances
//!   stages/pipelines, fires `post_exec`, resubmits failed tasks)
//!   subcomponents;
//! * the **ExecManager** with its *Rmgr* (acquires resources via the RTS),
//!   *Emgr* (pulls Pending, translates tasks to RTS units, submits), *RTS
//!   Callback* (receives completed units and applies Dequeue's verdicts on
//!   them, with no Done queue between the two) and *Heartbeat* (re-acquires
//!   a pilot the CI ended, tears a dead RTS down and restarts it; it runs on
//!   the RTS Callback thread, which receives both events) subcomponents.
//!
//! The runtime system ([`rp_rts`]) is a black box behind the ExecManager;
//! EnTK survives its failure by restarting it and re-executing only the
//! tasks that were in flight (§II-B4).

#![warn(missing_docs)]

pub mod appmanager;
pub mod cancel;
pub mod errors;
pub mod execmanager;
pub mod messages;
pub mod overheads;
pub mod pipeline;
pub mod stage;
pub mod states;
pub mod statestore;
pub mod synchronizer;
pub mod task;
pub mod uid;
pub mod wfprocessor;
pub mod workflow;

pub use appmanager::{
    AppManager, AppManagerConfig, ExecutionStrategy, ResourceDescription, RunReport,
    SessionAttachment,
};
pub use cancel::CancelToken;
pub use errors::{EntkError, EntkResult};
pub use execmanager::ExecManagerConfig;
pub use messages::QueueNamespace;
pub use overheads::{OverheadReport, PythonEmulation};
pub use pipeline::Pipeline;
pub use stage::Stage;
pub use states::{PipelineState, StageState, TaskState};
pub use task::Task;
pub use workflow::Workflow;

// Re-export the pieces users need to describe tasks.
pub use rp_rts::{Executable, StagingSpec};

// Re-export the trace recorder: `AppManagerConfig::with_recorder` takes one,
// so callers should not need a direct entk-observe dependency to use it.
pub use entk_observe::Recorder;
