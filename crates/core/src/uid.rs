//! Uid generation for pipelines, stages and tasks.
//!
//! EnTK assigns each object a uid of the form `<kind>.<counter>` (e.g.
//! `task.0042`). Counters are process-global so uids never collide across
//! workflows in one session.

use std::sync::atomic::{AtomicU64, Ordering};

static PIPELINE_COUNTER: AtomicU64 = AtomicU64::new(0);
static STAGE_COUNTER: AtomicU64 = AtomicU64::new(0);
static TASK_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The kind of PST object a uid belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A pipeline.
    Pipeline,
    /// A stage.
    Stage,
    /// A task.
    Task,
}

impl Kind {
    /// Lowercase name used as uid prefix.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Pipeline => "pipeline",
            Kind::Stage => "stage",
            Kind::Task => "task",
        }
    }
}

/// Allocate the next uid for `kind`, e.g. `task.0007`.
pub fn next_uid(kind: Kind) -> String {
    let counter = match kind {
        Kind::Pipeline => &PIPELINE_COUNTER,
        Kind::Stage => &STAGE_COUNTER,
        Kind::Task => &TASK_COUNTER,
    };
    let n = counter.fetch_add(1, Ordering::Relaxed);
    format!("{}.{:04}", kind.name(), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uids_are_unique_and_prefixed() {
        let a = next_uid(Kind::Task);
        let b = next_uid(Kind::Task);
        assert_ne!(a, b);
        assert!(a.starts_with("task."));
        assert!(next_uid(Kind::Pipeline).starts_with("pipeline."));
        assert!(next_uid(Kind::Stage).starts_with("stage."));
    }
}
