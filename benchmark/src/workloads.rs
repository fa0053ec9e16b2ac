//! The four workloads: what each drives, at what size, and how.

use crate::adapter::{self, Hydrated, Outcome, Policy, Recommender};
use crate::presets::{Fleet, Mix};

/// Which driver runs the workload end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `RegionCoordinator::run`: lazy hydration, sequential shards.
    Region {
        shards: usize,
        retain_outcomes: bool,
    },
    /// `FleetDriver::run` over a resident fleet.
    ResidentFleet {
        parallel: bool,
        crash_every_tick: bool,
    },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// How the timed region is delimited, for the result file.
    pub timed_region: &'static str,
    pub tenants: usize,
    pub mix: Mix,
    pub ticks: u32,
    pub policy: Policy,
    pub driver: Driver,
    /// Tenants hydrated (and checked for purity) during set-up when the
    /// driver hydrates lazily and so needs no resident fleet.
    pub setup_sample: usize,
}

pub const NAMES: [&str; 4] = [
    "idle_region",
    "active_fleet",
    "write_churn",
    "crash_recovery",
];

/// Residency bound `idle_region` must respect.
pub const PEAK_HYDRATED_CAP: usize = 8;

/// The workload of that name; `quick` divides tenant counts by ten.
pub fn by_name(name: &str, quick: bool) -> Option<Workload> {
    let scale = |n: usize| if quick { (n / 10).max(4) } else { n };
    let w = match name {
        "idle_region" => Workload {
            name: "idle_region",
            why: "the paper's million-database shape: 95% provably idle tenants, so hydration \
                  and per-tenant driver bookkeeping do most of the work",
            timed_region: "RegionCoordinator::run(spec, ticks), hydration included",
            tenants: scale(16_000),
            mix: Mix::MostlyIdle { one_in: 20 },
            ticks: 2,
            policy: Policy {
                recommender: Recommender::ByTier,
                analysis_hours: 24,
                validation_min_wait_hours: None,
            },
            driver: Driver::Region {
                shards: 16,
                retain_outcomes: false,
            },
            setup_sample: scale(2_000),
        },
        "active_fleet" => Workload {
            name: "active_fleet",
            why: "a resident, all-active, read-mostly fleet: statement execution does nearly \
                  all the work, and it is the only workload on the parallel pool",
            timed_region: "FleetDriver::run(fleet, ticks, threads); materialization is set-up",
            tenants: scale(84),
            mix: Mix::Tiered,
            ticks: 24,
            policy: Policy {
                recommender: Recommender::ByTier,
                analysis_hours: 6,
                validation_min_wait_hours: None,
            },
            driver: Driver::ResidentFleet {
                parallel: true,
                crash_every_tick: false,
            },
            setup_sample: 0,
        },
        "write_churn" => Workload {
            name: "write_churn",
            why: "half the statements are writes and DTA runs hourly: what-if costing, index \
                  builds, validation and reverts beside index maintenance on writes",
            timed_region: "RegionCoordinator::run(spec, ticks), hydration included",
            tenants: scale(32),
            mix: Mix::WriteHeavy,
            ticks: 24,
            policy: Policy {
                recommender: Recommender::DtaOnly,
                analysis_hours: 1,
                validation_min_wait_hours: Some(1),
            },
            driver: Driver::Region {
                shards: 4,
                retain_outcomes: true,
            },
            setup_sample: scale(16),
        },
        "crash_recovery" => Workload {
            name: "crash_recovery",
            why: "every tenant's store crashes and recovers from its journal at every tick: the \
                  journal's read path beside its write path",
            timed_region: "FleetDriver::run(fleet, ticks, 1) with crash_every_ticks = Some(1)",
            tenants: scale(64),
            mix: Mix::SlowBasic,
            ticks: 80,
            policy: Policy {
                recommender: Recommender::ByTier,
                analysis_hours: 2,
                validation_min_wait_hours: Some(1),
            },
            driver: Driver::ResidentFleet {
                parallel: false,
                crash_every_tick: true,
            },
            setup_sample: 0,
        },
        _ => return None,
    };
    Some(w)
}

/// Cores the process may use, as the standard library reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    pub fn fleet(&self, seed: u64) -> Fleet {
        Fleet {
            n: self.tenants,
            mix: self.mix,
            seed,
        }
    }

    /// Threads the end-to-end drive uses: never more than
    /// `min(nproc, 4)`, and one everywhere but on the parallel pool.
    pub fn threads(&self) -> usize {
        match self.driver {
            Driver::ResidentFleet { parallel: true, .. } => nproc().min(4),
            _ => 1,
        }
    }

    /// Build the drive's inputs: the tenants it needs resident. A
    /// resident fleet is materialized; a lazily hydrated one has nothing
    /// to build (the result is empty), so set-up hydrates a sample out of
    /// order and checks it against an in-order hydration (the purity the
    /// lazy drive relies on).
    pub fn setup(&self, fleet: &Fleet) -> Result<Vec<Hydrated>, String> {
        match self.driver {
            Driver::ResidentFleet { .. } => Ok(adapter::materialize(fleet)),
            Driver::Region { .. } => {
                let sample = self.setup_sample.min(fleet.n);
                let forward: Vec<_> = (0..sample)
                    .map(|i| adapter::hydrate(fleet, i).fingerprint())
                    .collect();
                for i in (0..sample).rev().step_by(97) {
                    if adapter::hydrate(fleet, i).fingerprint() != forward[i] {
                        return Err(format!("tenant {i} is not pure in (seed, index)"));
                    }
                }
                Ok(Vec::new())
            }
        }
    }

    /// The end-to-end drive over what [`setup`](Self::setup) built, at
    /// `threads` threads where the driver has a pool.
    pub fn drive(&self, fleet: &Fleet, resident: Vec<Hydrated>, threads: usize) -> Outcome {
        match self.driver {
            Driver::ResidentFleet {
                crash_every_tick, ..
            } => adapter::drive_fleet(
                resident,
                &self.policy,
                self.ticks,
                threads,
                crash_every_tick,
            ),
            Driver::Region {
                shards,
                retain_outcomes,
            } => adapter::drive_region(fleet, &self.policy, self.ticks, shards, retain_outcomes),
        }
    }

    /// The un-crashed oracle of a crashing workload.
    pub fn oracle(&self, fleet: &Fleet) -> Option<Outcome> {
        match self.driver {
            Driver::ResidentFleet {
                crash_every_tick: true,
                ..
            } => Some(adapter::drive_fleet(
                adapter::materialize(fleet),
                &self.policy,
                self.ticks,
                1,
                false,
            )),
            _ => None,
        }
    }
}
