//! The region coordinator: the top tier of the sharded region driver.
//!
//! Decomposes the monolithic fleet loop into
//! coordinator → `ShardDriver` workers → tenants. The coordinator
//! owns the tenant→shard [`ShardAssignment`], has each shard drive its
//! members, and merges the per-shard `ShardReport`s into a
//! [`RegionReport`] whose canonical surfaces — digest, optional
//! canonical string, merged counters/metrics, dashboards — are
//! byte-identical to an unsharded
//! [`FleetDriver::run`](crate::fleet_driver::FleetDriver::run) over the
//! same fleet. That is the refactor's contract: sharding (any count),
//! shard concurrency, scheduling mode, thread count, and plan-cache
//! setting are all *invisible* in canonical output.
//!
//! The merge algebra: every shard returns its members' canonical-line
//! digests keyed by **global** index; the region sorts the union by
//! index and folds exactly the way
//! [`FleetReport::canonical_digest`](crate::fleet_driver::FleetReport::canonical_digest)
//! does. Counters and metrics merge as commutative monoids, so shard
//! boundaries cannot leak into them by construction.

use crate::dashboard::DashboardSnapshot;
use crate::fleet_driver::{
    counters_line, FleetDriver, FleetDriverConfig, FleetTotals, TenantOutcome,
};
use crate::hash::{fnv1a64_extend, FNV_OFFSET};
use crate::metrics::MetricsRegistry;
use crate::pool;
use crate::shard::{
    HydrationGauge, HydrationMode, ShardAssignment, ShardDriver, ShardReport, HYDRATION_WAVE,
    REGION_RAW_EVENTS,
};
use crate::telemetry::Telemetry;
use sqlmini::clock::Duration;
use std::collections::BTreeMap;
use std::sync::Arc;
use workload::fleet::FleetSpec;

/// Whether shard workers run one at a time or concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardConcurrency {
    /// Shards execute in shard order on the caller's thread — the
    /// replay oracle, and the bounded-memory configuration (peak
    /// residency is one shard's worth).
    Sequential,
    /// All shards execute concurrently, one OS thread each. Canonical
    /// output is identical by contract; only wall clock and peak
    /// residency change.
    Parallel,
}

/// Knobs for a sharded region run.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// The per-shard fleet-driver config (identical across shards —
    /// a tenant's behavior must not depend on its shard).
    pub driver: FleetDriverConfig,
    pub shards: usize,
    /// Worker threads within each shard.
    pub threads_per_shard: usize,
    pub shard_concurrency: ShardConcurrency,
    /// Single-valued, and read by nothing: kept only because the frozen
    /// benchmark adapter sets it (see [`HydrationMode`]).
    pub hydration: HydrationMode,
    /// Keep every tenant's outcome until the merge, to build the region
    /// canonical string. Affordable for test-scale fleets; off at the
    /// million scale, where the digest is the comparison surface.
    pub retain_outcomes: bool,
}

impl Default for RegionConfig {
    fn default() -> RegionConfig {
        RegionConfig {
            driver: FleetDriverConfig::default(),
            shards: 4,
            threads_per_shard: 1,
            shard_concurrency: ShardConcurrency::Sequential,
            hydration: HydrationMode::Lazy,
            retain_outcomes: true,
        }
    }
}

/// Merged end-of-run state of a sharded region run.
#[derive(Debug)]
pub struct RegionReport {
    pub tenants: usize,
    pub shards: usize,
    pub ticks: u32,
    sim_time: Duration,
    /// Streaming canonical digest — byte-equality surface vs the
    /// unsharded oracle's
    /// [`canonical_digest`](crate::fleet_driver::FleetReport::canonical_digest).
    pub digest: u64,
    /// Full canonical string, present iff `retain_outcomes` was on.
    pub canonical: Option<String>,
    /// All shards' telemetry merged in shard order (counters exact;
    /// events capped).
    telemetry: Telemetry,
    /// All shards' canonical metrics merged.
    pub metrics: MetricsRegistry,
    /// Driver bookkeeping merged across shards.
    pub scheduler_metrics: MetricsRegistry,
    pub by_state: BTreeMap<String, usize>,
    pub statements: u64,
    pub errors: u64,
    pub poisoned: usize,
    /// High-water mark of simultaneously hydrated tenants — the number
    /// the million-tenant smoke run bounds with a static cap.
    pub peak_hydrated: usize,
}

impl RegionReport {
    /// The §8.1 ops table from the merged canonical sinks — identical
    /// to the unsharded report's `dashboard()`.
    pub fn dashboard(&self) -> DashboardSnapshot {
        DashboardSnapshot::new(&self.telemetry, &self.metrics, self.sim_time)
    }

    /// Control-plane passes that actually ran, region-wide.
    pub fn control_ticks_executed(&self) -> u64 {
        self.scheduler_metrics.counter("scheduler.ticks_executed")
    }

    /// Control-plane passes the sparse scheduler proved unnecessary.
    pub fn control_ticks_skipped(&self) -> u64 {
        self.scheduler_metrics.counter("scheduler.ticks_skipped")
    }
}

/// The coordinator: owns assignment, dispatches shard commands, merges.
#[derive(Debug, Clone)]
pub struct RegionCoordinator {
    config: RegionConfig,
}

impl RegionCoordinator {
    pub fn new(config: RegionConfig) -> RegionCoordinator {
        RegionCoordinator { config }
    }

    /// The coordinator's tenant→shard mapping.
    fn assignment(&self) -> ShardAssignment {
        ShardAssignment::new(self.config.shards)
    }

    /// Drive the whole fleet for `ticks` passes through the shard tier.
    pub fn run(&self, spec: &dyn FleetSpec, ticks: u32) -> RegionReport {
        let cfg = &self.config;
        let assignment = self.assignment();
        let gauge = Arc::new(HydrationGauge::new());
        let drivers: Vec<ShardDriver> = assignment
            .partition(spec.len())
            .into_iter()
            .map(|members| ShardDriver {
                members,
                driver: FleetDriver::new(cfg.driver.clone()),
                threads: cfg.threads_per_shard,
                retain_outcomes: cfg.retain_outcomes,
                gauge: gauge.clone(),
            })
            .collect();

        let shard_threads = match cfg.shard_concurrency {
            ShardConcurrency::Sequential => 1,
            ShardConcurrency::Parallel => cfg.shards,
        };
        let reports: Vec<ShardReport> = pool::map_ordered(drivers, shard_threads, |_, d| {
            d.drive(spec, ticks, HYDRATION_WAVE)
        });

        let sim_time = Duration::from_millis(cfg.driver.tick_interval.millis() * ticks as u64);
        self.merge(spec.len(), ticks, sim_time, reports, gauge.peak())
    }

    /// Fold shard reports (in shard order) into the region report. The
    /// per-tenant surfaces re-sort by global index, so the result is
    /// independent of how tenants were scattered across shards.
    fn merge(
        &self,
        tenants: usize,
        ticks: u32,
        sim_time: Duration,
        reports: Vec<ShardReport>,
        peak_hydrated: usize,
    ) -> RegionReport {
        let cfg = &self.config;
        let mut digests: Vec<(usize, u64)> = Vec::with_capacity(tenants);
        let mut outcomes: Option<Vec<(usize, TenantOutcome)>> =
            cfg.retain_outcomes.then(|| Vec::with_capacity(tenants));
        let mut totals = FleetTotals::new();
        for report in reports {
            digests.extend(report.digests);
            if let (Some(acc), Some(part)) = (&mut outcomes, report.outcomes) {
                acc.extend(part);
            }
            totals.absorb(report.totals, REGION_RAW_EVENTS);
        }
        let FleetTotals {
            telemetry,
            metrics,
            scheduler_metrics,
            by_state,
            statements,
            errors,
            poisoned,
            ..
        } = totals;

        // Canonical digest: per-tenant line hashes folded in *global*
        // fleet order, then the merged counters line — exactly
        // `FleetReport::canonical_digest`'s construction.
        digests.sort_unstable_by_key(|&(i, _)| i);
        let mut h = FNV_OFFSET;
        for &(_, line) in &digests {
            h = fnv1a64_extend(h, &line.to_le_bytes());
        }
        let digest = fnv1a64_extend(h, counters_line(&telemetry).as_bytes());

        let canonical = outcomes.map(|mut pairs| {
            pairs.sort_unstable_by_key(|&(i, _)| i);
            let mut out = String::new();
            for (_, o) in &pairs {
                out.push_str(&crate::fleet_driver::canonical_line(o));
            }
            out.push_str(&counters_line(&telemetry));
            out
        });

        RegionReport {
            tenants,
            shards: cfg.shards,
            ticks,
            sim_time,
            digest,
            canonical,
            telemetry,
            metrics,
            scheduler_metrics,
            by_state,
            statements,
            errors,
            poisoned,
            peak_hydrated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::PlanePolicy;
    use workload::fleet::{MixedFleetSpec, TierMix};

    fn small_config(shards: usize) -> RegionConfig {
        RegionConfig {
            driver: FleetDriverConfig {
                policy: PlanePolicy {
                    analysis_interval: Duration::from_hours(2),
                    validation_min_wait: Duration::from_hours(1),
                    ..PlanePolicy::default()
                },
                ..FleetDriverConfig::default()
            },
            shards,
            ..RegionConfig::default()
        }
    }

    fn spec(n: usize, seed: u64) -> MixedFleetSpec {
        MixedFleetSpec::new(
            n,
            TierMix {
                basic: 1.0,
                standard: 0.0,
                premium: 0.0,
            },
            seed,
        )
    }

    #[test]
    fn sharded_matches_unsharded_oracle() {
        let spec = spec(6, 33);
        let oracle = FleetDriver::new(small_config(1).driver).run(spec.materialize(), 4, 1);
        for shards in [1usize, 3, 4] {
            let region = RegionCoordinator::new(small_config(shards)).run(&spec, 4);
            assert_eq!(region.digest, oracle.canonical_digest(), "{shards} shards");
            assert_eq!(
                region.canonical.as_deref(),
                Some(oracle.canonical_string().as_str()),
                "{shards} shards"
            );
            assert_eq!(region.dashboard().render(), oracle.dashboard().render());
        }
    }

    #[test]
    fn lazy_hydration_bounds_residency_and_matches_eager() {
        // Eager here is the unsharded run over the materialized fleet,
        // every tenant resident before the first tick.
        let spec = spec(6, 91);
        let eager = FleetDriver::new(small_config(3).driver).run(spec.materialize(), 3, 1);
        let lazy = RegionCoordinator::new(small_config(3)).run(&spec, 3);
        assert_eq!(lazy.digest, eager.canonical_digest());
        assert_eq!(lazy.canonical, Some(eager.canonical_string()));
        assert_eq!(
            lazy.peak_hydrated, 1,
            "sequential lazy single-thread hydrates one tenant at a time"
        );
    }

    #[test]
    fn parallel_shards_match_sequential() {
        let spec = spec(5, 12);
        let seq = RegionCoordinator::new(small_config(4)).run(&spec, 3);
        let par = RegionCoordinator::new(RegionConfig {
            shard_concurrency: ShardConcurrency::Parallel,
            ..small_config(4)
        })
        .run(&spec, 3);
        assert_eq!(seq.digest, par.digest);
        assert_eq!(seq.canonical, par.canonical);
        let dashboard = |r: &RegionReport| r.dashboard().with_driver(&r.scheduler_metrics).render();
        assert_eq!(dashboard(&seq), dashboard(&par));
    }
}
