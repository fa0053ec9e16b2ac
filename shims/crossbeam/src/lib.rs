//! Offline shim for `crossbeam` (see `shims/README.md`): scoped threads
//! only, which is all `controlplane::pool` imports.

pub mod thread {
    //! Scoped threads. std's stabilized scope API (Rust 1.63+) covers
    //! everything this workspace needs; deviation from crossbeam: the
    //! closure result is returned directly, not wrapped in a Result.
    pub use std::thread::{scope, Scope, ScopedJoinHandle};
}
