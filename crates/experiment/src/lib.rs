//! `experiment` — experimentation at production scale (§7).
//!
//! Reproduces the paper's experimentation framework: [`binstance`]
//! forks best-effort clones of a primary and measures how far they
//! diverge; [`workflow`] is the
//! experiment design-and-control engine with reverse cleanup;
//! `user_emulation` implements the §7.3 human-tuning heuristic;
//! `design` is the phased Figure-6 experiment; and [`analysis`] holds
//! the fixed-execution-count cost comparison and winner determination.

pub mod analysis;
pub mod binstance;
mod design;
mod user_emulation;
pub mod workflow;

pub use analysis::{pool_samples, CostSample, Winner};
pub use binstance::create_b_instance;
pub use design::{run_phased_experiment, ExperimentConfig};
