//! `autoindex` — the paper's primary contribution: closed-loop automatic
//! index management for relational databases.
//!
//! Reproduction of *"Automatically Indexing Millions of Databases in
//! Microsoft Azure SQL Database"* (Das et al., SIGMOD 2019) over the
//! [`sqlmini`] engine substrate. The crate provides:
//!
//! * [`mi`] — the Missing-Indexes-based recommender (§5.2): DMV
//!   snapshots, slope hypothesis testing, index merging, and a
//!   low-impact classifier.
//! * [`dta`] — the Database-Engine-Tuning-Advisor-style recommender
//!   (§5.3): automatic workload selection from Query Store, what-if
//!   candidate search, workload-level greedy enumeration under
//!   constraints, resource budgets, and coverage reporting.
//! * [`drops`] — conservative drop-candidate analysis (§5.4): unused and
//!   duplicate indexes, with hinted/constraint exclusions.
//! * [`validator`] — statistical validation of implemented changes (§6):
//!   plan-change detection plus Welch t-tests on logical metrics, with
//!   per-statement or aggregate revert policies.
//! * [`stats`] — Welch t-test and slope-test machinery.
//! * [`classifier`], [`merging`], `candidate`, [`coverage`],
//!   `whatif_cache` — shared building blocks.

mod candidate;
pub mod classifier;
pub mod coverage;
pub mod drops;
pub mod dta;
pub mod merging;
pub mod mi;
pub mod stats;
pub mod validator;
mod whatif_cache;

pub use candidate::{IndexCandidate, RecoAction, RecoSource, Recommendation};
pub use classifier::{CandidateFeatures, ImpactClassifier};
