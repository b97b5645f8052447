//! # entk-control — demand-driven pilot-pool sizing
//!
//! The read-out-and-react half of the telemetry loop: the observability
//! plane measures, this crate decides. One policy ships here,
//! [`PoolPrescaler`]: the service's sampler calls it on every tick with a
//! [`ControlObservation`] of the submission queue and the warm pilot pool,
//! and it answers with a new pool capacity and the evidence that justified
//! it, which the service applies and records to its decision ring so every
//! pool move is explainable after the fact.
//!
//! The prescaler grows the warm pool ahead of demand when submissions queue
//! up with no warm pilot left, and shrinks it back one pilot at a time once
//! the pool has sat idle, trading pilot-seconds for queue wait. Growing is
//! fast and shrinking slow, because a cold pilot boot costs far more than an
//! idle warm pilot.
//!
//! The batch limit is not a control target: it is the constant
//! `ExecManagerConfig::max_batch`. Admission refusals come only from the
//! service's bounded-queue admission policy.

#![warn(missing_docs)]

pub mod controllers;

pub use controllers::{PoolPrescaler, PrescalerConfig};

/// One sampler-tick snapshot of what the prescaler reacts to.
#[derive(Debug, Clone, Default)]
pub struct ControlObservation {
    /// Submissions waiting for a worker.
    pub queued: i64,
    /// Submissions currently running.
    pub active: i64,
    /// Worker-slot budget (max concurrent sessions).
    pub max_active: i64,
    /// Idle warm pilots in the pool.
    pub warm_pilots: i64,
    /// Current pool capacity target.
    pub pool_capacity: i64,
}
