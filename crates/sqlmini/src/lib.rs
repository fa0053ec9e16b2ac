//! `sqlmini` — the single-node relational engine substrate for the
//! auto-indexing reproduction.
//!
//! This crate plays the role SQL Server plays in the paper: it stores data
//! (heap tables + secondary B+ tree indexes), optimizes and executes
//! queries with a cost model over histogram statistics, exposes the
//! optimizer's **what-if** API for hypothetical index configurations,
//! surfaces **missing-index** candidates in DMVs, tracks execution history
//! in a **Query Store**, and models the FIFO lock scheduler whose convoy
//! behaviour shaped the production service's drop-index protocol.
//!
//! The crate is deliberately deterministic: all randomness is seeded, all
//! time flows through [`clock::SimClock`].

pub mod btree;
pub mod catalog;
pub mod clock;
pub mod column;
pub mod dmv;
pub mod engine;
pub mod exec;
pub mod heap;
pub mod index;
pub mod lock;
mod optimizer;
pub mod parser;
pub mod plan;
pub mod query;
pub mod querystore;
pub mod schema;
pub mod stats;
pub mod types;
