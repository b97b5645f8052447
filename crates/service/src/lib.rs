//! # entk-service — multi-tenant ensemble service
//!
//! The paper positions EnTK as a library an application instantiates, runs,
//! and tears down. This crate grows it into a *service*: a long-lived
//! [`EnsembleService`] owning one shared message broker and a warm pilot
//! pool, accepting concurrent workflow submissions from many tenants through
//! cloneable client handles (submit / status / result / cancel).
//!
//! What the service adds over one-shot [`entk_core::AppManager`] runs:
//!
//! * **Warm pilot reuse** — pilot bootstrap and RTS setup dominate EnTK
//!   overhead (paper Fig. 7); a [`rp_rts::PilotPool`] pays that cost once
//!   and leases bootstrapped runtimes across workflows.
//! * **Session isolation** — every submission runs under its own
//!   [`entk_core::QueueNamespace`] on the shared broker, so concurrent
//!   sessions never see each other's messages.
//! * **Admission control** — a bounded pending queue; past it, submissions
//!   are rejected with a retry-after hint derived from observed turnaround
//!   ([`admission::AdmissionPolicy`]).
//! * **Weighted fair-share dispatch** — stride scheduling across tenants
//!   ([`fairshare::FairShare`]): no tenant starves under another's flood,
//!   and per-tenant submission order is preserved.
//! * **Cooperative cancellation and graceful drain** — queued or running
//!   submissions settle to Canceled; shutdown runs the queue dry before
//!   tearing down the pool and broker.

#![warn(missing_docs)]

pub mod admission;
pub mod fairshare;
pub mod journal;
pub mod protocol;
pub mod service;
pub mod spec;

pub use admission::AdmissionPolicy;
pub use fairshare::FairShare;
pub use journal::{
    JournaledSub, ServiceJournal, ServiceRecord, ServiceReplay, SettledInfo, SettledState,
};
pub use protocol::{
    ServiceStats, SessionInfo, SubmissionId, SubmissionOutcome, SubmissionResult, SubmissionStatus,
    SubmitError,
};
pub use service::{EnsembleService, ServiceClient, ServiceConfig};
pub use spec::{ExecSpec, PipelineSpec, SpecError, StageSpec, TaskSpec, WorkflowSpec};

// Re-exported so embedders can declare SLOs and tune the watchdog without
// naming entk-observe directly.
pub use entk_observe::{SloConfig, WatchdogConfig};
