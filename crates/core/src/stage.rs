//! The Stage construct: "a set of tasks without mutual dependences and that
//! can be executed concurrently" (§II-B1).

use crate::pipeline::Pipeline;
use crate::states::{StageState, TaskState};
use crate::task::Task;
use crate::uid::{next_uid, Kind};
use std::fmt;
use std::sync::Arc;

/// Hook fired by WFProcessor's Dequeue when the stage completes. It may
/// mutate the owning pipeline — typically appending stages — which is how
/// branching and iteration are expressed without changing PST semantics
/// (§II-B1: "branching events can be specified as tasks where a decision is
/// made about the runtime flow").
pub type PostExecHook = Arc<dyn Fn(&mut Pipeline) + Send + Sync>;

/// Per-stage task counts the Synchronizer derives stage transitions from,
/// so settling one task costs O(1) instead of a rescan of the stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StageTally {
    /// Tasks in `Described`: waiting for Enqueue to tag them.
    pub described: usize,
    /// Tasks in `Scheduling`: tagged, not yet handed to the Emgr.
    pub in_scheduling: usize,
    /// Tasks in a terminal state (`Done`, `Failed` or `Canceled`).
    pub terminal: usize,
    /// Tasks in `Failed`.
    pub failed: usize,
    /// Tasks in `Canceled`.
    pub canceled: usize,
}

impl StageTally {
    /// Brute-force count over a stage's tasks.
    fn count(tasks: &[Task]) -> Self {
        let mut tally = StageTally::default();
        for t in tasks {
            tally.bump(t.state(), 1);
        }
        tally
    }

    /// Move one task from `from` to `to`.
    fn shift(&mut self, from: TaskState, to: TaskState) {
        self.bump(from, -1);
        self.bump(to, 1);
    }

    fn bump(&mut self, state: TaskState, by: isize) {
        let add = |n: &mut usize| *n = n.wrapping_add_signed(by);
        match state {
            TaskState::Described => add(&mut self.described),
            TaskState::Scheduling => add(&mut self.in_scheduling),
            TaskState::Failed => add(&mut self.failed),
            TaskState::Canceled => add(&mut self.canceled),
            _ => {}
        }
        if state.is_terminal() {
            add(&mut self.terminal);
        }
    }

    /// No task still waits to be tagged or handed on: the stage is pushed.
    pub(crate) fn all_pushed(&self) -> bool {
        self.described == 0 && self.in_scheduling == 0
    }
}

/// A set of concurrent tasks.
#[derive(Clone)]
pub struct Stage {
    uid: String,
    /// User-facing name.
    pub name: String,
    tasks: Vec<Task>,
    state: StageState,
    post_exec: Option<PostExecHook>,
    /// Counts over `tasks`, computed on first use and then kept current by
    /// [`Stage::advance_task`]; `None` until then and after any change that
    /// bypasses it ([`Stage::tasks_mut`]).
    tally: Option<StageTally>,
}

impl Stage {
    /// A new, empty stage in `Described` state.
    pub fn new(name: impl Into<String>) -> Self {
        Stage {
            uid: next_uid(Kind::Stage),
            name: name.into(),
            tasks: Vec::new(),
            state: StageState::Described,
            post_exec: None,
            tally: None,
        }
    }

    /// Add a task.
    pub fn add_task(&mut self, task: Task) {
        self.tally = None;
        self.tasks.push(task);
    }

    /// Builder-style task addition.
    pub fn with_task(mut self, task: Task) -> Self {
        self.add_task(task);
        self
    }

    /// Builder-style bulk addition.
    pub fn with_tasks(mut self, tasks: impl IntoIterator<Item = Task>) -> Self {
        self.tally = None;
        self.tasks.extend(tasks);
        self
    }

    /// Install the post-execution hook.
    pub fn set_post_exec(&mut self, hook: impl Fn(&mut Pipeline) + Send + Sync + 'static) {
        self.post_exec = Some(Arc::new(hook));
    }

    /// Builder-style hook installation.
    pub fn with_post_exec(mut self, hook: impl Fn(&mut Pipeline) + Send + Sync + 'static) -> Self {
        self.set_post_exec(hook);
        self
    }

    /// The stage uid.
    pub fn uid(&self) -> &str {
        &self.uid
    }

    /// Current state.
    pub fn state(&self) -> StageState {
        self.state
    }

    /// The tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Mutable access to the tasks for paths that force states (recovery,
    /// dependency cascades); drops the tally, which the next
    /// [`Stage::tally`] recounts.
    pub(crate) fn tasks_mut(&mut self) -> &mut [Task] {
        self.tally = None;
        &mut self.tasks
    }

    /// Validated transition of task `i`, keeping the tally current.
    pub(crate) fn advance_task(&mut self, i: usize, next: TaskState) -> crate::EntkResult<()> {
        let task = &mut self.tasks[i];
        let from = task.state();
        task.advance(next)?;
        if let Some(tally) = &mut self.tally {
            tally.shift(from, next);
        }
        Ok(())
    }

    /// Record a failed attempt's diagnostic on task `i` (no state change).
    pub(crate) fn set_last_error(&mut self, i: usize, reason: String) -> &Task {
        let task = &mut self.tasks[i];
        task.last_error = Some(reason);
        task
    }

    /// The task counts, counted once and maintained from then on.
    pub(crate) fn tally(&mut self) -> StageTally {
        *self
            .tally
            .get_or_insert_with(|| StageTally::count(&self.tasks))
    }

    /// The tally if it is already current, without counting.
    pub(crate) fn cached_tally(&self) -> Option<StageTally> {
        self.tally
    }

    /// The hook, if any.
    pub(crate) fn post_exec(&self) -> Option<PostExecHook> {
        self.post_exec.clone()
    }

    /// Validated state transition.
    pub fn advance(&mut self, next: StageState) -> Result<(), crate::EntkError> {
        if !self.state.can_transition_to(next) {
            return Err(crate::EntkError::BadStageTransition {
                uid: self.uid.clone(),
                from: self.state,
                to: next,
            });
        }
        self.state = next;
        Ok(())
    }

    /// Force a state without validation (recovery only).
    pub(crate) fn force_state(&mut self, state: StageState) {
        self.state = state;
    }
}

impl fmt::Debug for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stage")
            .field("uid", &self.uid)
            .field("name", &self.name)
            .field("tasks", &self.tasks.len())
            .field("state", &self.state)
            .field("post_exec", &self.post_exec.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_rts::Executable;

    #[test]
    fn stage_holds_tasks() {
        let s = Stage::new("sim")
            .with_task(Task::new("a", Executable::Noop))
            .with_task(Task::new("b", Executable::Noop));
        assert_eq!(s.tasks().len(), 2);
        assert_eq!(s.state(), StageState::Described);
        assert!(s.uid().starts_with("stage."));
    }

    #[test]
    fn advance_validates() {
        let mut s = Stage::new("x");
        assert!(s.advance(StageState::Done).is_err());
        s.advance(StageState::Scheduling).unwrap();
        s.advance(StageState::Scheduled).unwrap();
        s.advance(StageState::Done).unwrap();
        assert!(s.advance(StageState::Scheduling).is_err());
    }

    #[test]
    fn post_exec_hook_stored() {
        let mut s = Stage::new("branch");
        assert!(s.post_exec().is_none());
        s.set_post_exec(|_p| {});
        assert!(s.post_exec().is_some());
        // Debug does not try to print the closure.
        assert!(format!("{s:?}").contains("post_exec: true"));
    }

    #[test]
    fn with_tasks_bulk() {
        let tasks: Vec<Task> = (0..5)
            .map(|i| Task::new(format!("t{i}"), Executable::Noop))
            .collect();
        let s = Stage::new("bulk").with_tasks(tasks);
        assert_eq!(s.tasks().len(), 5);
    }
}
