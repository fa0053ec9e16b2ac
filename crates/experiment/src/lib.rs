//! `experiment` — experimentation at production scale (§7).
//!
//! Reproduces the paper's experimentation framework: [`binstance`]
//! forks best-effort clones of a primary and measures how far they
//! diverge; [`workflow`] is the
//! experiment design-and-control engine with reverse cleanup;
//! [`user_emulation`] implements the §7.3 human-tuning heuristic;
//! [`design`] is the phased Figure-6 experiment; and [`analysis`] holds
//! the fixed-execution-count cost comparison and winner determination.

pub mod analysis;
pub mod binstance;
pub mod design;
pub mod user_emulation;
pub mod workflow;

pub use analysis::{
    compare_costs, determine_winner, pool_samples, workload_cost_fixed_counts, CostSample, Winner,
    WinnerAnalysis,
};
pub use binstance::{create_b_instance, divergence_between, DivergenceReport};
pub use design::{run_phased_experiment, ExperimentConfig, ExperimentOutcome};
pub use user_emulation::select_user_tuning;
pub use workflow::{FnStep, StepStatus, Workflow, WorkflowRun};
