//! `workload` — multi-tenant workload substrate.
//!
//! The paper's service tunes millions of wildly diverse tenant databases.
//! This crate generates that diversity deterministically: schemas with
//! skewed and correlated data (`gen`), parameterized query-template
//! workloads with drift and diurnal load curves ([`model`]), tenants and
//! fleets across service tiers with pre-existing user indexes ([`fleet`]),
//! and a trace recorder/replayer that stands in for the TDS fork feeding
//! B-instances ([`runner`]).

pub mod fleet;
mod gen;
pub mod model;
pub mod runner;

pub use fleet::{generate_tenant, Tenant, TenantConfig};

pub use model::WorkloadModel;
pub use runner::{replay, ReplayFidelity, WorkloadRunner};
