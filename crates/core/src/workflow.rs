//! The Workflow: a set of pipelines plus the uid index the runtime
//! components use to find and mutate PST objects.
//!
//! During execution the workflow lives in the AppManager behind a lock —
//! AppManager "holds the global state of the application during execution"
//! and is the only stateful component. Other components reference objects by
//! uid through messages.

use crate::pipeline::Pipeline;
use crate::stage::Stage;
use crate::states::{PipelineState, StageState, TaskState};
use crate::task::Task;
use crate::EntkResult;
use std::collections::HashMap;

/// Location of a task inside the PST tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskLoc {
    /// Pipeline index.
    pub pipeline: usize,
    /// Stage index within the pipeline.
    pub stage: usize,
    /// Task index within the stage.
    pub task: usize,
}

/// An ensemble application: a set of pipelines.
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    pipelines: Vec<Pipeline>,
    index: HashMap<String, TaskLoc>,
}

impl Workflow {
    /// An empty workflow.
    pub fn new() -> Self {
        Workflow::default()
    }

    /// Add a pipeline.
    pub fn add_pipeline(&mut self, pipeline: Pipeline) {
        self.pipelines.push(pipeline);
        self.reindex_pipeline(self.pipelines.len() - 1);
    }

    /// Builder-style pipeline addition.
    pub fn with_pipeline(mut self, pipeline: Pipeline) -> Self {
        self.add_pipeline(pipeline);
        self
    }

    /// The pipelines.
    pub fn pipelines(&self) -> &[Pipeline] {
        &self.pipelines
    }

    /// Mutable pipeline access (runtime components only).
    pub(crate) fn pipelines_mut(&mut self) -> &mut [Pipeline] {
        &mut self.pipelines
    }

    /// Rebuild the uid index for one pipeline (called after `post_exec`
    /// hooks, which may append stages).
    pub(crate) fn reindex_pipeline(&mut self, p: usize) {
        let pipeline = &self.pipelines[p];
        let mut entries = Vec::new();
        for (s, stage) in pipeline.stages().iter().enumerate() {
            for (t, task) in stage.tasks().iter().enumerate() {
                entries.push((
                    task.uid().to_string(),
                    TaskLoc {
                        pipeline: p,
                        stage: s,
                        task: t,
                    },
                ));
            }
        }
        for (uid, loc) in entries {
            self.index.insert(uid, loc);
        }
    }

    /// Validate the application description: at least one pipeline, no empty
    /// pipelines, no empty stages, unique task names (recovery keys).
    pub fn validate(&self) -> EntkResult<()> {
        use crate::EntkError::InvalidWorkflow;
        if self.pipelines.is_empty() {
            return Err(InvalidWorkflow("workflow has no pipelines".into()));
        }
        let mut names: HashMap<&str, &str> = HashMap::with_capacity(self.index.len());
        for p in &self.pipelines {
            if p.stages().is_empty() {
                return Err(InvalidWorkflow(format!(
                    "pipeline {} has no stages",
                    p.uid()
                )));
            }
            for s in p.stages() {
                if s.tasks().is_empty() {
                    return Err(InvalidWorkflow(format!("stage {} has no tasks", s.uid())));
                }
                for t in s.tasks() {
                    if let Some(prev) = names.insert(&t.name, t.uid()) {
                        return Err(InvalidWorkflow(format!(
                            "duplicate task name '{}' ({} and {})",
                            t.name,
                            prev,
                            t.uid()
                        )));
                    }
                }
            }
        }
        self.validate_dependencies()?;
        Ok(())
    }

    /// Dependency uids must reference pipelines in this workflow and form no
    /// cycle.
    fn validate_dependencies(&self) -> EntkResult<()> {
        use crate::EntkError::InvalidWorkflow;
        let ids: HashMap<&str, usize> = self
            .pipelines
            .iter()
            .enumerate()
            .map(|(i, p)| (p.uid(), i))
            .collect();
        for p in &self.pipelines {
            for dep in p.dependencies() {
                if !ids.contains_key(dep.as_str()) {
                    return Err(InvalidWorkflow(format!(
                        "pipeline {} depends on unknown pipeline {dep}",
                        p.uid()
                    )));
                }
            }
        }
        // Kahn's algorithm over dependency edges detects cycles.
        let n = self.pipelines.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, p) in self.pipelines.iter().enumerate() {
            for dep in p.dependencies() {
                let j = ids[dep.as_str()];
                indegree[i] += 1;
                dependents[j].push(i);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push(d);
                }
            }
        }
        if seen != n {
            return Err(InvalidWorkflow("pipeline dependencies form a cycle".into()));
        }
        Ok(())
    }

    /// Cancel every non-terminal pipeline whose (transitive) dependencies
    /// can no longer complete; returns the canceled pipeline uids. Called by
    /// the Synchronizer when a pipeline fails or is canceled.
    pub(crate) fn cancel_broken_dependents(&mut self) -> Vec<String> {
        let mut canceled = Vec::new();
        loop {
            let mut changed = false;
            for i in 0..self.pipelines.len() {
                let p = &self.pipelines[i];
                if p.state().is_terminal() {
                    continue;
                }
                let broken = p.dependencies().iter().any(|dep| {
                    self.pipelines
                        .iter()
                        .find(|q| q.uid() == dep)
                        .is_some_and(|q| {
                            matches!(q.state(), PipelineState::Failed | PipelineState::Canceled)
                        })
                });
                if broken {
                    let p = &mut self.pipelines[i];
                    let uid = p.uid().to_string();
                    p.force_state(PipelineState::Canceled);
                    for s in p.stages_mut() {
                        if !s.state().is_terminal() {
                            s.force_state(crate::states::StageState::Canceled);
                        }
                        for t in s.tasks_mut() {
                            if !t.state().is_terminal() {
                                t.force_state(TaskState::Canceled);
                            }
                        }
                    }
                    canceled.push(uid);
                    changed = true;
                }
            }
            if !changed {
                return canceled;
            }
        }
    }

    /// Total tasks currently described (grows if hooks append stages).
    pub fn task_count(&self) -> usize {
        self.pipelines.iter().map(Pipeline::task_count).sum()
    }

    /// Find a task by uid.
    pub fn task(&self, uid: &str) -> Option<&Task> {
        let loc = self.index.get(uid)?;
        self.pipelines
            .get(loc.pipeline)?
            .stages()
            .get(loc.stage)?
            .tasks()
            .get(loc.task)
    }

    /// Where a task lives, by uid.
    pub(crate) fn locate(&self, uid: &str) -> Option<TaskLoc> {
        self.index.get(uid).copied()
    }

    /// The stage holding the task at `loc`. Task states change only through
    /// [`Stage::advance_task`], which keeps the stage's tally current.
    pub(crate) fn stage_mut(&mut self, loc: TaskLoc) -> &mut Stage {
        &mut self.pipelines[loc.pipeline].stages_mut()[loc.stage]
    }

    /// Whether every dependency of a pipeline finished Done.
    pub(crate) fn dependencies_met(&self, p: &Pipeline) -> bool {
        p.dependencies().iter().all(|dep| {
            self.pipelines
                .iter()
                .find(|q| q.uid() == dep)
                .is_none_or(|q| q.state() == PipelineState::Done)
        })
    }

    /// Tasks currently eligible for scheduling: `Described` tasks in the
    /// current stage of every non-terminal pipeline whose inter-pipeline
    /// dependencies are satisfied.
    pub fn schedulable_tasks(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.pipelines {
            if p.state().is_terminal() {
                continue;
            }
            if !self.dependencies_met(p) {
                continue;
            }
            let Some(stage) = p.stages().get(p.current_stage()) else {
                continue;
            };
            // A counted stage with nothing `Described` has nothing to tag.
            if stage.state().is_terminal() || stage.cached_tally().is_some_and(|t| t.described == 0)
            {
                continue;
            }
            for t in stage.tasks() {
                if t.state() == TaskState::Described {
                    out.push(t.uid().to_string());
                }
            }
        }
        out
    }

    /// Whether every pipeline reached a terminal state.
    pub fn is_complete(&self) -> bool {
        !self.pipelines.is_empty() && self.pipelines.iter().all(|p| p.state().is_terminal())
    }

    /// Count tasks by state (progress reporting, tests).
    pub fn task_state_counts(&self) -> HashMap<TaskState, usize> {
        let mut counts = HashMap::new();
        for p in &self.pipelines {
            for s in p.stages() {
                for t in s.tasks() {
                    *counts.entry(t.state()).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    /// Count of tasks in a given state.
    pub fn count_in(&self, state: TaskState) -> usize {
        self.task_state_counts().get(&state).copied().unwrap_or(0)
    }

    /// Summary of pipeline states.
    pub fn pipeline_state_counts(&self) -> HashMap<PipelineState, usize> {
        let mut counts = HashMap::new();
        for p in &self.pipelines {
            *counts.entry(p.state()).or_insert(0) += 1;
        }
        counts
    }

    /// All stages of all pipelines with their states (diagnostics).
    pub fn stage_states(&self) -> Vec<(String, StageState)> {
        self.pipelines
            .iter()
            .flat_map(|p| p.stages().iter().map(|s| (s.uid().to_string(), s.state())))
            .collect()
    }
}

/// Convenience: build a workflow of `pipelines × stages × tasks` uniform
/// shape — the structure dimension of Table I (Experiment 4).
pub fn uniform_workflow(
    pipelines: usize,
    stages: usize,
    tasks: usize,
    make_task: impl Fn(usize, usize, usize) -> Task,
) -> Workflow {
    let mut wf = Workflow::new();
    for p in 0..pipelines {
        let mut pipeline = Pipeline::new(format!("p{p}"));
        for s in 0..stages {
            let mut stage = Stage::new(format!("p{p}.s{s}"));
            for t in 0..tasks {
                stage.add_task(make_task(p, s, t));
            }
            pipeline.add_stage(stage);
        }
        wf.add_pipeline(pipeline);
    }
    wf
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_rts::Executable;

    fn noop(name: &str) -> Task {
        Task::new(name, Executable::Noop)
    }

    fn small() -> Workflow {
        Workflow::new().with_pipeline(
            Pipeline::new("p")
                .with_stage(Stage::new("s0").with_task(noop("a")).with_task(noop("b")))
                .with_stage(Stage::new("s1").with_task(noop("c"))),
        )
    }

    #[test]
    fn validation_catches_empty_structures() {
        assert!(Workflow::new().validate().is_err());
        let wf = Workflow::new().with_pipeline(Pipeline::new("p"));
        assert!(wf.validate().is_err());
        let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(Stage::new("s")));
        assert!(wf.validate().is_err());
        assert!(small().validate().is_ok());
    }

    #[test]
    fn validation_rejects_duplicate_names() {
        let wf = Workflow::new().with_pipeline(
            Pipeline::new("p").with_stage(
                Stage::new("s")
                    .with_task(noop("same"))
                    .with_task(noop("same")),
            ),
        );
        assert!(wf.validate().is_err());
    }

    #[test]
    fn index_finds_every_task() {
        let wf = small();
        for p in wf.pipelines() {
            for s in p.stages() {
                for t in s.tasks() {
                    assert_eq!(wf.task(t.uid()).unwrap().name, t.name);
                }
            }
        }
        assert!(wf.task("task.9999999").is_none());
    }

    #[test]
    fn schedulable_only_from_current_stage() {
        let wf = small();
        let sched = wf.schedulable_tasks();
        assert_eq!(sched.len(), 2, "only stage 0 tasks are eligible");
        let names: Vec<&str> = sched
            .iter()
            .map(|uid| wf.task(uid).unwrap().name.as_str())
            .collect();
        assert!(names.contains(&"a") && names.contains(&"b"));
    }

    #[test]
    fn uniform_builder_shapes() {
        let wf = uniform_workflow(16, 1, 1, |p, s, t| noop(&format!("{p}.{s}.{t}")));
        assert_eq!(wf.pipelines().len(), 16);
        assert_eq!(wf.task_count(), 16);
        let wf = uniform_workflow(1, 16, 1, |p, s, t| noop(&format!("{p}.{s}.{t}")));
        assert_eq!(wf.pipelines()[0].stages().len(), 16);
        assert_eq!(wf.task_count(), 16);
    }

    #[test]
    fn completion_requires_all_pipelines_terminal() {
        let mut wf = small();
        assert!(!wf.is_complete());
        wf.pipelines_mut()[0]
            .advance(PipelineState::Scheduling)
            .unwrap();
        wf.pipelines_mut()[0].advance(PipelineState::Done).unwrap();
        assert!(wf.is_complete());
        assert!(
            !Workflow::new().is_complete(),
            "empty workflow never completes"
        );
    }

    #[test]
    fn state_counts() {
        let wf = small();
        assert_eq!(wf.count_in(TaskState::Described), 3);
        assert_eq!(wf.count_in(TaskState::Done), 0);
    }

    #[test]
    fn reindex_after_appending_stage() {
        let mut wf = small();
        let new_task = noop("d");
        let new_uid = new_task.uid().to_string();
        wf.pipelines_mut()[0].add_stage(Stage::new("s2").with_task(new_task));
        assert!(wf.task(&new_uid).is_none(), "not indexed yet");
        wf.reindex_pipeline(0);
        assert_eq!(wf.task(&new_uid).unwrap().name, "d");
    }
}
