//! Sharded-region equivalence oracle: the tentpole contract for the
//! coordinator / shard-worker decomposition.
//!
//! Decomposing the monolithic fleet loop into a coordinator plus N
//! shard workers is a pure execution-shape change. For **any** shard
//! count, shard concurrency, and per-shard thread count, the merged
//! region report must be byte-identical to the
//! unsharded `FleetDriver` run over the same fleet: canonical string,
//! canonical digest, merged metrics registry, and rendered dashboard.
//! Flight cohorts must likewise be invariant under resharding — a
//! tenant's flight membership hashes its global index, never its shard.

use controlplane::{
    FleetDriver, FleetDriverConfig, FlightConfig, PlanePolicy, RegionConfig, RegionCoordinator,
    RegionReport, SchedulingMode, ShardAssignment, ShardConcurrency,
};
use proptest::prelude::*;
use sqlmini::clock::Duration;
use sqlmini::engine::ServiceTier;
use workload::fleet::{FleetSpec, Tenant, TenantConfig};

/// A small deterministic spec with per-tenant workload, hydrated by
/// global index — the integration-test stand-in for a real region.
#[derive(Clone)]
struct TestSpec {
    n: usize,
    seed: u64,
    /// Each tenant engine's plan cache; off is the recompile oracle.
    plan_cache: bool,
}

impl FleetSpec for TestSpec {
    fn len(&self) -> usize {
        self.n
    }

    fn hydrate(&self, index: usize) -> Tenant {
        let s = self
            .seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(index as u64 + 1);
        let mut cfg = TenantConfig::new(format!("shr{index:03}"), s, ServiceTier::Basic);
        cfg.schema.min_tables = 1;
        cfg.schema.max_tables = 2;
        cfg.schema.min_rows = 500;
        cfg.schema.max_rows = 1_500;
        cfg.workload.base_rate_per_hour = 60.0;
        cfg.db.plan_cache = self.plan_cache;
        workload::fleet::generate_tenant(&cfg)
    }
}

fn driver_config(scheduling: SchedulingMode) -> FleetDriverConfig {
    FleetDriverConfig {
        policy: PlanePolicy {
            analysis_interval: Duration::from_hours(2),
            validation_min_wait: Duration::from_hours(1),
            ..PlanePolicy::default()
        },
        fault_seed: Some(99),
        fault_transient_prob: 0.05,
        scheduling,
        ..FleetDriverConfig::default()
    }
}

/// One point of the execution-shape matrix — every axis the sharded
/// region must be invisible across.
#[derive(Clone, Copy, Debug)]
struct Shape {
    shards: usize,
    concurrency: ShardConcurrency,
    threads_per_shard: usize,
    scheduling: SchedulingMode,
    plan_cache: bool,
}

fn region_run(spec: &TestSpec, ticks: u32, shape: Shape) -> RegionReport {
    let spec = TestSpec {
        plan_cache: shape.plan_cache,
        ..spec.clone()
    };
    RegionCoordinator::new(RegionConfig {
        driver: driver_config(shape.scheduling),
        shards: shape.shards,
        threads_per_shard: shape.threads_per_shard,
        shard_concurrency: shape.concurrency,
        ..RegionConfig::default()
    })
    .run(&spec, ticks)
}

// ---------------------------------------------------------------------
// Seeded acceptance: the full execution-shape matrix on one fleet.
// ---------------------------------------------------------------------

/// {1, 4, 16 shards} x {sequential, parallel} x {dense, sparse} x
/// {cache on, off}: every shape reproduces the unsharded oracle byte
/// for byte.
#[test]
fn region_matrix_matches_unsharded_oracle() {
    let spec = TestSpec {
        n: 12,
        seed: 42,
        plan_cache: true,
    };
    let ticks = 4;
    let oracle =
        FleetDriver::new(driver_config(SchedulingMode::Sparse)).run(spec.materialize(), ticks, 1);
    let canon = oracle.canonical_string();
    let digest = oracle.canonical_digest();
    let dash = oracle.dashboard().render();

    for shards in [1usize, 4, 16] {
        for concurrency in [ShardConcurrency::Sequential, ShardConcurrency::Parallel] {
            for scheduling in [SchedulingMode::Dense, SchedulingMode::Sparse] {
                for plan_cache in [true, false] {
                    let r = region_run(
                        &spec,
                        ticks,
                        Shape {
                            shards,
                            concurrency,
                            threads_per_shard: 2,
                            scheduling,
                            plan_cache,
                        },
                    );
                    let shape = format!(
                        "shards={shards} {concurrency:?} {scheduling:?} cache={plan_cache}"
                    );
                    assert_eq!(r.digest, digest, "digest diverged at {shape}");
                    assert_eq!(
                        r.canonical.as_deref(),
                        Some(canon.as_str()),
                        "canonical string diverged at {shape}"
                    );
                    assert_eq!(
                        r.dashboard().render(),
                        dash,
                        "dashboard diverged at {shape}"
                    );
                    assert_eq!(r.metrics, oracle.metrics, "registry diverged at {shape}");
                }
            }
        }
    }
}

/// Lazy hydration's residency bound is a static function of worker
/// count, never of fleet size: sequential shards with one thread hold
/// exactly one resident tenant; parallel shards hold at most
/// `shards * threads_per_shard`.
#[test]
fn lazy_hydration_residency_is_bounded_by_workers() {
    let spec = TestSpec {
        n: 48,
        seed: 7,
        plan_cache: true,
    };
    let seq = region_run(
        &spec,
        2,
        Shape {
            shards: 16,
            concurrency: ShardConcurrency::Sequential,
            threads_per_shard: 1,
            scheduling: SchedulingMode::Sparse,
            plan_cache: true,
        },
    );
    assert_eq!(seq.peak_hydrated, 1, "serial lazy run holds one tenant");

    let par = region_run(
        &spec,
        2,
        Shape {
            shards: 4,
            concurrency: ShardConcurrency::Parallel,
            threads_per_shard: 2,
            scheduling: SchedulingMode::Sparse,
            plan_cache: true,
        },
    );
    assert!(
        par.peak_hydrated <= 8,
        "parallel lazy run must stay under shards*threads = 8, got {}",
        par.peak_hydrated
    );
    assert_eq!(
        seq.digest, par.digest,
        "residency mode must not leak into state"
    );
}

// ---------------------------------------------------------------------
// Flight cohorts under resharding.
// ---------------------------------------------------------------------

/// Cohort sampling hashes the global tenant index: the union of
/// per-shard cohort filters over any partition equals the unsharded
/// cohort, so resharding can never move a tenant in or out of a flight.
#[test]
fn flight_cohort_is_stable_under_resharding() {
    let cfg = FlightConfig {
        id: "shard-flt-002a".to_string(),
        seed: 42,
        cohort_fraction: 0.5,
        ..FlightConfig::default()
    };
    let fleet_size = 500;
    let unsharded = cfg.cohort(fleet_size);
    assert!(!unsharded.is_empty() && unsharded.len() < fleet_size);

    for shards in [1usize, 4, 16] {
        let assignment = ShardAssignment::new(shards);
        let mut union: Vec<usize> = Vec::new();
        for shard in 0..shards {
            union.extend(cfg.cohort_of(assignment.members(shard, fleet_size)));
        }
        union.sort_unstable();
        assert_eq!(
            union, unsharded,
            "cohort must be identical for {shards} shards vs unsharded"
        );
    }
}

// ---------------------------------------------------------------------
// Property sweep: the shard-merge algebra over random fleets.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Per-shard reports merged in shard order reproduce the unsharded
    /// run: canonical string, digest, merged registry, dashboard.
    #[test]
    fn shard_merge_equals_unsharded(
        n in 1usize..=10,
        seed in any::<u16>(),
        shards in 1usize..=8,
        ticks in 1u32..=4,
        threads in 1usize..=3,
    ) {
        let spec = TestSpec { n, seed: seed as u64, plan_cache: true };
        let oracle = FleetDriver::new(driver_config(SchedulingMode::Sparse))
            .run(spec.materialize(), ticks, 1);
        let region = region_run(
            &spec,
            ticks,
            Shape {
                shards,
                concurrency: ShardConcurrency::Parallel,
                threads_per_shard: threads,
                scheduling: SchedulingMode::Sparse,
                plan_cache: true,
            },
        );
        prop_assert_eq!(region.tenants, n);
        prop_assert_eq!(region.digest, oracle.canonical_digest());
        prop_assert_eq!(region.canonical.as_deref(), Some(oracle.canonical_string().as_str()));
        prop_assert_eq!(&region.metrics, &oracle.metrics);
        prop_assert_eq!(region.dashboard().render(), oracle.dashboard().render());
        prop_assert_eq!(region.statements, oracle.statements);
        prop_assert_eq!(region.errors, oracle.errors);
        prop_assert_eq!(region.by_state.clone(), oracle.by_state.clone());
        // The coordinator's assignment partitions the fleet exactly.
        let assigned: usize = ShardAssignment::new(shards).partition(n).iter().map(Vec::len).sum();
        prop_assert_eq!(assigned, n);
    }

    /// Dividing shard counts nest: every tenant keeps its coordinator
    /// assignment relationship when the region grows from `a` to `b`
    /// shards with `a | b`, and the slot ring itself never moves.
    #[test]
    fn reshard_assignments_nest(index in 0usize..100_000) {
        let a4 = ShardAssignment::new(4);
        let a8 = ShardAssignment::new(8);
        let a16 = ShardAssignment::new(16);
        prop_assert_eq!(a4.shard_of(index), a8.shard_of(index) * 4 / 8);
        prop_assert_eq!(a8.shard_of(index), a16.shard_of(index) * 8 / 16);
        prop_assert_eq!(ShardAssignment::new(1).shard_of(index), 0);
        // The slot is shard-count independent by construction.
        prop_assert!(ShardAssignment::slot_of(index) < controlplane::ASSIGNMENT_SLOTS);
    }
}
