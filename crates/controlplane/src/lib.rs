//! `controlplane` — the fault-tolerant orchestration backbone (§4).
//!
//! A per-region control plane drives the auto-indexing lifecycle of every
//! managed database: it invokes the recommenders, implements
//! recommendations when the user's settings permit, validates them with
//! the statistical validator, auto-reverts regressions, retries transient
//! failures, expires stale recommendations, and raises incidents for
//! conditions needing a human. State lives in a journaled store that
//! survives crashes; health flows through anonymized telemetry.

mod api;
mod coordinator;
pub mod dashboard;
pub mod faults;
mod fleet_driver;
mod flight;
mod hash;
pub mod lock_protocol;
mod metrics;
pub mod plane;
mod scheduler;
mod shard;
mod stages;
pub mod state;
pub mod store;
pub mod telemetry;
mod trace;

pub use api::ManagementApi;
pub use coordinator::{RegionConfig, RegionCoordinator, RegionReport, ShardConcurrency};
pub use dashboard::DashboardSnapshot;
pub use faults::{FaultInjector, FaultKind, FaultPoint};
pub use fleet_driver::{
    counters_line, index_hash_bits, FleetDriver, FleetDriverConfig, FleetReport, SchedulingMode,
    TenantScript,
};
pub use flight::{
    region_decision, tenant_verdict, FlightConfig, FlightDecision, FlightDriver, TenantVerdict,
};
pub use metrics::{Histogram, MetricsRegistry};
pub use plane::{ControlPlane, ManagedDb, PlanePolicy, RecommenderPolicy, RetryPolicy};
pub use shard::{HydrationMode, ShardAssignment, ASSIGNMENT_SLOTS};
pub use stages::{NextDue, WakeSchedule};
pub use state::{DbSettings, RecoId, RecoState, ServerSettings, Setting, TrackedReco};
pub use store::{CompactionPolicy, FrameFault, RecoveryReport, StateStore};
pub use telemetry::{EventKind, Telemetry};
pub use trace::Tracer;

/// The crate's one thread pool.
mod pool {
    use std::sync::Mutex;

    /// Apply `f(position, item)` to every item on up to `threads` OS
    /// threads and return the results in input order. Workers claim items
    /// from one shared cursor, so a slow item pins one worker while the
    /// rest drain everything else, and completion order never shows in
    /// the output. Never more workers than items; with one worker (or
    /// none asked for) `f` runs on the caller's thread and nothing is
    /// spawned. A panic inside `f` resurfaces on the caller with its
    /// original payload once the other workers have drained the queue.
    pub(crate) fn map_ordered<T: Send, R: Send>(
        items: Vec<T>,
        threads: usize,
        f: impl Fn(usize, T) -> R + Sync,
    ) -> Vec<R> {
        let workers = threads.min(items.len());
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(k, item)| f(k, item))
                .collect();
        }
        let cursor = Mutex::new(items.into_iter().enumerate());
        // The guard lives for this one statement: `f` never runs under
        // the lock, so a panicking `f` cannot poison it.
        let claim = || cursor.lock().expect("only `next` runs locked").next();
        let mut done: Vec<(usize, R)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        while let Some((k, item)) = claim() {
                            out.push((k, f(k, item)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        done.sort_unstable_by_key(|&(k, _)| k);
        done.into_iter().map(|(_, r)| r).collect()
    }

    #[cfg(test)]
    mod tests {
        use super::map_ordered;
        use std::cell::Cell;
        use std::sync::mpsc::{channel, Receiver, Sender};
        use std::sync::Barrier;
        use std::thread;

        #[test]
        fn empty_input_maps_to_empty_output() {
            for threads in [0, 1, 4] {
                let out: Vec<u32> = map_ordered(Vec::<u32>::new(), threads, |_, x| x);
                assert!(out.is_empty());
            }
        }

        #[test]
        fn any_thread_count_gives_input_order() {
            let n = 5usize;
            let want: Vec<(usize, usize)> = (0..n).map(|k| (k, k * 10)).collect();
            for threads in [0, 1, 2, n + 3] {
                let items: Vec<usize> = (0..n).map(|k| k * 10).collect();
                assert_eq!(
                    map_ordered(items, threads, |k, x| (k, x)),
                    want,
                    "{threads}"
                );
            }
        }

        #[test]
        fn one_worker_runs_on_the_callers_thread() {
            let me = thread::current().id();
            for (items, threads) in [(vec![1, 2, 3], 0), (vec![1, 2, 3], 1), (vec![7], 8)] {
                let ids = map_ordered(items, threads, |_, _| thread::current().id());
                assert!(ids.iter().all(|&id| id == me));
            }
        }

        #[test]
        fn surplus_threads_still_run_every_item_concurrently() {
            // Every item waits for all the others: passes only if `n`
            // workers run at once when more than `n` were asked for.
            let n = 3;
            let all_in_flight = Barrier::new(n);
            let out = map_ordered(vec![(); n], n + 3, |k, ()| {
                all_in_flight.wait();
                k
            });
            assert_eq!(out, vec![0, 1, 2]);
        }

        /// Owned, `Send` but not `Sync`: what a `Tenant` is to the pool.
        enum Item {
            FinishAfter(Receiver<()>, Cell<u32>),
            FinishFirst(Sender<()>, Cell<u32>),
        }

        #[test]
        fn later_item_finishing_first_keeps_its_place() {
            let (tx, rx) = channel();
            let items = vec![
                Item::FinishAfter(rx, Cell::new(10)),
                Item::FinishFirst(tx, Cell::new(20)),
            ];
            let out = map_ordered(items, 2, |_, item| match item {
                Item::FinishAfter(rx, tag) => {
                    rx.recv().expect("the later item signals before it returns");
                    tag.get()
                }
                Item::FinishFirst(tx, tag) => {
                    tx.send(()).expect("the earlier item is waiting");
                    tag.get()
                }
            });
            assert_eq!(out, vec![10, 20]);
        }

        #[test]
        fn worker_panic_surfaces_with_its_own_message() {
            for threads in [1, 2] {
                let caught = std::panic::catch_unwind(|| {
                    map_ordered(vec![0, 1, 2, 3], threads, |_, x| {
                        if x == 1 {
                            panic!("hydrate exploded");
                        }
                        x
                    })
                });
                let payload = caught.expect_err("the panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<&str>().copied(),
                    Some("hydrate exploded"),
                    "{threads} threads"
                );
            }
        }
    }
}
