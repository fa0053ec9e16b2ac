//! The experiment design and control framework's workflow engine (§7.2).
//!
//! An experiment is a sequence of steps (create a B-instance, drop a
//! subset of indexes, run a phase, collect statistics, revert, …)
//! executed against a context. The engine runs steps in order, records
//! their status, and on failure runs the **cleanup** of every completed
//! step in reverse order — experiments must never leave debris on the
//! clone fleet.

use std::fmt;

/// Status of one step within a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepStatus {
    Pending,
    Done,
    Failed(String),
    /// Ran and was subsequently cleaned up due to a later failure.
    CleanedUp,
}

type RunFn<C> = Box<dyn FnMut(&mut C) -> Result<(), String>>;
type CleanupFn<C> = Box<dyn FnMut(&mut C)>;

/// One workflow step over context `C`, built from closures: what it
/// does, and what undoes it.
pub struct FnStep<C> {
    name: String,
    run: RunFn<C>,
    cleanup: Option<CleanupFn<C>>,
}

impl<C> FnStep<C> {
    pub fn new(
        name: impl Into<String>,
        run: impl FnMut(&mut C) -> Result<(), String> + 'static,
    ) -> FnStep<C> {
        FnStep {
            name: name.into(),
            run: Box::new(run),
            cleanup: None,
        }
    }

    pub fn with_cleanup(mut self, cleanup: impl FnMut(&mut C) + 'static) -> FnStep<C> {
        self.cleanup = Some(Box::new(cleanup));
        self
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Execute the step.
    fn run(&mut self, ctx: &mut C) -> Result<(), String> {
        (self.run)(ctx)
    }

    /// Undo side effects (called in reverse order after a later failure).
    fn cleanup(&mut self, ctx: &mut C) {
        if let Some(c) = &mut self.cleanup {
            c(ctx);
        }
    }
}

/// Result of executing a workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowRun {
    pub statuses: Vec<(String, StepStatus)>,
    /// The first error, if any.
    pub error: Option<String>,
}

impl WorkflowRun {
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }
}

impl fmt::Display for WorkflowRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, status) in &self.statuses {
            writeln!(f, "  {name}: {status:?}")?;
        }
        Ok(())
    }
}

/// A workflow: steps over a context.
pub struct Workflow<C> {
    steps: Vec<FnStep<C>>,
}

impl<C> Default for Workflow<C> {
    fn default() -> Workflow<C> {
        Workflow { steps: Vec::new() }
    }
}

impl<C> Workflow<C> {
    pub fn step(mut self, step: FnStep<C>) -> Workflow<C> {
        self.steps.push(step);
        self
    }

    /// Execute all steps; on failure, clean up completed steps in reverse.
    pub fn execute(&mut self, ctx: &mut C) -> WorkflowRun {
        let mut statuses: Vec<(String, StepStatus)> = self
            .steps
            .iter()
            .map(|s| (s.name().to_string(), StepStatus::Pending))
            .collect();
        let mut error = None;
        let mut completed = 0usize;
        for (i, step) in self.steps.iter_mut().enumerate() {
            match step.run(ctx) {
                Ok(()) => {
                    statuses[i].1 = StepStatus::Done;
                    completed = i + 1;
                }
                Err(e) => {
                    statuses[i].1 = StepStatus::Failed(e.clone());
                    error = Some(format!("{}: {e}", step.name()));
                    break;
                }
            }
        }
        if error.is_some() {
            for i in (0..completed).rev() {
                self.steps[i].cleanup(ctx);
                statuses[i].1 = StepStatus::CleanedUp;
            }
        }
        WorkflowRun { statuses, error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Ctx {
        log: Vec<String>,
    }

    fn step(name: &str, fail: bool) -> FnStep<Ctx> {
        let n = name.to_string();
        let n2 = name.to_string();
        FnStep::new(name, move |ctx: &mut Ctx| {
            ctx.log.push(format!("run:{n}"));
            if fail {
                Err("boom".into())
            } else {
                Ok(())
            }
        })
        .with_cleanup(move |ctx: &mut Ctx| ctx.log.push(format!("cleanup:{n2}")))
    }

    #[test]
    fn happy_path_runs_all_steps() {
        let mut wf = Workflow::default()
            .step(step("a", false))
            .step(step("b", false))
            .step(step("c", false));
        let mut ctx = Ctx::default();
        let run = wf.execute(&mut ctx);
        assert!(run.succeeded());
        assert_eq!(ctx.log, vec!["run:a", "run:b", "run:c"]);
        assert!(run.statuses.iter().all(|(_, s)| *s == StepStatus::Done));
    }

    #[test]
    fn failure_triggers_reverse_cleanup() {
        let mut wf = Workflow::default()
            .step(step("a", false))
            .step(step("b", false))
            .step(step("c", true))
            .step(step("d", false));
        let mut ctx = Ctx::default();
        let run = wf.execute(&mut ctx);
        assert!(!run.succeeded());
        assert_eq!(
            ctx.log,
            vec!["run:a", "run:b", "run:c", "cleanup:b", "cleanup:a"],
            "completed steps cleaned in reverse; failed step not cleaned"
        );
        assert_eq!(run.statuses[2].1, StepStatus::Failed("boom".into()));
        assert_eq!(run.statuses[3].1, StepStatus::Pending);
        assert_eq!(run.statuses[0].1, StepStatus::CleanedUp);
        assert!(run.error.as_deref().unwrap().starts_with("c:"));
    }

    #[test]
    fn empty_workflow_succeeds() {
        let mut wf: Workflow<Ctx> = Workflow::default();
        assert!(wf.execute(&mut Ctx::default()).succeeded());
    }

    #[test]
    fn context_mutations_visible_across_steps() {
        let mut wf = Workflow::default()
            .step(FnStep::new("write", |ctx: &mut Ctx| {
                ctx.log.push("x".into());
                Ok(())
            }))
            .step(FnStep::new("check", |ctx: &mut Ctx| {
                if ctx.log == vec!["x".to_string()] {
                    Ok(())
                } else {
                    Err("missing".into())
                }
            }));
        assert!(wf.execute(&mut Ctx::default()).succeeded());
    }
}
