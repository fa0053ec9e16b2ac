//! The shard tier of the region driver: tenant→shard assignment and the
//! per-shard worker that drives its slice of the fleet.
//!
//! The paper's service manages hundreds of thousands of databases per
//! region with *one logical* control plane that is physically many
//! workers; no tenant's tuning outcome may depend on which worker ran
//! it, or on how many workers there are. This module supplies the two
//! pieces under the [`crate::coordinator::RegionCoordinator`]:
//!
//! * [`ShardAssignment`] — a pure, *shard-count-stable* mapping from
//!   global fleet index to shard. Tenants hash (splitmix64) onto a fixed
//!   ring of [`ASSIGNMENT_SLOTS`] slots; a shard owns a contiguous slot
//!   range. Because the slot of a tenant never depends on the shard
//!   count, resharding from `a` to `b = k·a` shards splits each shard
//!   into exactly `k` successors (`shard_a(i) == shard_b(i) / k`) and
//!   never shuffles a tenant between unrelated shards.
//! * `ShardDriver` — maps the fleet driver's one kernel
//!   ([`FleetDriver`]'s `run_tenant`) over one shard's members. Each
//!   member is driven under its **global** fleet index, so every
//!   per-tenant random stream (faults, auto-fraction, flight cohorts,
//!   RecoId blocks) is identical to what an unsharded run would draw —
//!   the byte-identical determinism contract.
//!
//! # Lazy hydration
//!
//! A million-tenant fleet cannot be resident at once, so a shard never
//! materializes its slice: members are hydrated from the [`FleetSpec`]
//! one wave of `HYDRATION_WAVE` at a time, each tenant is constructed,
//! driven for *all* its ticks, folded into the shard report, and
//! dropped — so peak resident tenants is bounded by the worker thread
//! count, independent of fleet size (the `HydrationGauge` proves it).
//! The fold keeps only a per-tenant canonical-line digest (plus merged
//! counters/metrics), which is exactly enough for the region to
//! reconstruct
//! [`FleetReport::canonical_digest`](crate::fleet_driver::FleetReport::canonical_digest)
//! byte-for-byte.

use crate::fleet_driver::{
    canonical_line, index_hash_bits, FleetDriver, FleetTotals, TenantOutcome, TenantResult,
};
use crate::hash::{fnv1a64_extend, FNV_OFFSET};
use crate::pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use workload::fleet::FleetSpec;

/// Size of the consistent-assignment slot ring. Shards own contiguous
/// slot ranges, so any shard count up to this many is supported and
/// dividing shard counts nest (see [`ShardAssignment`]).
pub const ASSIGNMENT_SLOTS: usize = 4096;

/// Salt for the tenant→slot hash stream — distinct from the
/// auto-fraction and flight-cohort salts, so shard placement is
/// independent of both.
const SHARD_SLOT_SALT: u64 = 0x5348_4152_4453;

/// Pure, shard-count-stable tenant→shard mapping.
///
/// `slot_of` depends only on the global index; `shard_of` maps the
/// slot ring onto `shards` contiguous ranges. Membership in a flight
/// cohort, the auto fraction, and every other per-tenant stream is keyed
/// by the global index, never by the shard — so resharding changes
/// *where* a tenant runs and nothing about *what* it computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAssignment {
    shards: usize,
}

impl ShardAssignment {
    /// A mapping onto `shards` shards (1 ≤ shards ≤ [`ASSIGNMENT_SLOTS`]).
    pub fn new(shards: usize) -> ShardAssignment {
        assert!(
            (1..=ASSIGNMENT_SLOTS).contains(&shards),
            "shard count {shards} out of range 1..={ASSIGNMENT_SLOTS}"
        );
        ShardAssignment { shards }
    }

    /// The tenant's slot on the ring — a pure splitmix hash of the
    /// global index, independent of the shard count.
    pub fn slot_of(index: usize) -> usize {
        (index_hash_bits(index, SHARD_SLOT_SALT) % ASSIGNMENT_SLOTS as u64) as usize
    }

    /// Which shard owns a slot: slot `s` belongs to shard
    /// `s·shards / SLOTS`, i.e. shards own contiguous slot ranges. For
    /// shard counts `a | b`, `shard_a(s) == shard_b(s)·a / b` — the
    /// nesting property resharding tests pin down.
    fn shard_of_slot(&self, slot: usize) -> usize {
        slot * self.shards / ASSIGNMENT_SLOTS
    }

    /// Which shard owns a tenant.
    pub fn shard_of(&self, index: usize) -> usize {
        self.shard_of_slot(Self::slot_of(index))
    }

    /// The global indices shard `shard` owns, ascending.
    pub fn members(&self, shard: usize, fleet_len: usize) -> Vec<usize> {
        (0..fleet_len)
            .filter(|&i| self.shard_of(i) == shard)
            .collect()
    }

    /// All shards' member lists (`partition(n)[s] == members(s, n)`).
    pub fn partition(&self, fleet_len: usize) -> Vec<Vec<usize>> {
        let mut parts = vec![Vec::new(); self.shards];
        for i in 0..fleet_len {
            parts[self.shard_of(i)].push(i);
        }
        parts
    }
}

/// Region-wide gauge of simultaneously hydrated tenants. Shared by all
/// shard drivers; `peak()` is the number the million-tenant smoke run
/// asserts a static bound on.
#[derive(Debug, Default)]
pub(crate) struct HydrationGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl HydrationGauge {
    pub(crate) fn new() -> HydrationGauge {
        HydrationGauge::default()
    }

    /// One tenant is about to hydrate.
    fn enter(&self) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    /// One tenant finished all its ticks and dropped.
    fn exit(&self) {
        self.current.fetch_sub(1, Ordering::SeqCst);
    }

    /// High-water mark of simultaneously resident tenants.
    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

/// Members hydrated per dispatch wave. A wave is the unit the pool maps
/// over and the fold consumes, so it bounds the un-folded results a
/// shard holds; results fold in member order across waves whatever
/// order the wave's tenants finished in.
pub(crate) const HYDRATION_WAVE: usize = 64;

/// Raw telemetry events (and incidents) kept while folding a region's
/// tenants, shards and shard reports: counters stay exact, only the raw
/// log is cut, so a fold over a million tenants stays bounded.
pub(crate) const REGION_RAW_EVENTS: usize = 10_000;

/// How a shard hydrates its members. Streaming is the only way left —
/// the enum, and [`RegionConfig::hydration`](crate::coordinator::RegionConfig::hydration)
/// with it, survive only because the frozen benchmark adapter names
/// `HydrationMode::Lazy`; remove both at the next `benchmark` issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HydrationMode {
    /// Hydrate tenant-major in waves: construct a tenant, run all its
    /// ticks, fold, drop. Peak resident tenants ≤ worker threads,
    /// independent of fleet size.
    Lazy,
}

/// What one shard hands back to the coordinator: per-tenant canonical
/// digests keyed by global index (always), full outcomes when retained,
/// and the shard's folded totals. Merging shard reports in global-index
/// order reconstructs the unsharded [`FleetReport`](crate::fleet_driver::FleetReport)
/// surfaces exactly — the algebra the `sharded_region` proptests pin
/// down. Doubles as its own streaming accumulator: one tenant's result
/// folds in and the tenant drops.
#[derive(Debug)]
pub(crate) struct ShardReport {
    /// `(global index, FNV-1a of the tenant's canonical line)`, one per
    /// member, in ascending index order.
    pub(crate) digests: Vec<(usize, u64)>,
    /// Full outcomes, retained only when the coordinator asked (small
    /// fleets / oracle comparisons) — `None` keeps memory O(1) per
    /// tenant at the million scale.
    pub(crate) outcomes: Option<Vec<(usize, TenantOutcome)>>,
    /// Members' sinks and tallies folded in member order (raw events
    /// capped at `REGION_RAW_EVENTS`; counters always exact).
    pub(crate) totals: FleetTotals,
}

impl ShardReport {
    fn new(retain_outcomes: bool) -> ShardReport {
        ShardReport {
            digests: Vec::new(),
            outcomes: retain_outcomes.then(Vec::new),
            totals: FleetTotals::new(),
        }
    }

    fn push(&mut self, index: usize, result: TenantResult) {
        let (outcome, totals) = result;
        let line = fnv1a64_extend(FNV_OFFSET, canonical_line(&outcome).as_bytes());
        self.digests.push((index, line));
        self.totals.absorb(totals, REGION_RAW_EVENTS);
        if let Some(out) = &mut self.outcomes {
            out.push((index, outcome));
        }
    }
}

/// One shard's worker: a [`FleetDriver`] configured like the region's,
/// driving the shard's members with every tenant keyed by its global
/// index. Thin by design — all tuning semantics live in the fleet
/// driver; the shard only decides hydration and accounting.
pub(crate) struct ShardDriver {
    /// Global fleet indices this shard owns, ascending.
    pub(crate) members: Vec<usize>,
    /// The shard's driver (same config as every other shard's).
    pub(crate) driver: FleetDriver,
    /// Worker threads *within* the shard.
    pub(crate) threads: usize,
    /// Retain full [`TenantOutcome`]s (small fleets only).
    pub(crate) retain_outcomes: bool,
    /// Region-shared residency gauge.
    pub(crate) gauge: Arc<HydrationGauge>,
}

impl ShardDriver {
    /// Tenant-major streaming, `wave` members at a time: hydrate → run
    /// *all* ticks → fold → drop. Tenant-major (not tick-major) is what
    /// bounds residency: a tenant finishes completely before the next
    /// hydrates, so at most `threads` tenants are ever live.
    pub(crate) fn drive(&self, spec: &dyn FleetSpec, ticks: u32, wave: usize) -> ShardReport {
        let mut report = ShardReport::new(self.retain_outcomes);
        for members in self.members.chunks(wave) {
            let results = pool::map_ordered(members.to_vec(), self.threads, |_, index| {
                self.gauge.enter();
                let result = self.driver.run_tenant(index, spec.hydrate(index), ticks);
                self.gauge.exit();
                result
            });
            for (&index, result) in members.iter().zip(results) {
                report.push(index, result);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_stable_and_cover_the_ring() {
        // Pure function of the index: same slot every call.
        for i in [0usize, 1, 17, 999_999] {
            assert_eq!(ShardAssignment::slot_of(i), ShardAssignment::slot_of(i));
            assert!(ShardAssignment::slot_of(i) < ASSIGNMENT_SLOTS);
        }
        // A large fleet spreads over many slots (hash sanity).
        let distinct: std::collections::BTreeSet<usize> =
            (0..10_000).map(ShardAssignment::slot_of).collect();
        assert!(distinct.len() > ASSIGNMENT_SLOTS / 2, "{}", distinct.len());
    }

    #[test]
    fn partition_is_exact_and_balanced_enough() {
        let a = ShardAssignment::new(8);
        let parts = a.partition(4_000);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 4_000);
        let mut seen = vec![false; 4_000];
        for (s, part) in parts.iter().enumerate() {
            for &i in part {
                assert!(!seen[i], "tenant {i} owned twice");
                seen[i] = true;
                assert_eq!(a.shard_of(i), s);
            }
        }
        assert!(seen.iter().all(|&b| b));
        // Hash balance: no shard more than 2x the even share.
        for part in &parts {
            assert!(part.len() < 2 * 4_000 / 8, "{}", part.len());
        }
    }

    #[test]
    fn dividing_shard_counts_nest() {
        // shard_4(i) == shard_8(i) / 2 and shard_1 == 0: a reshard from
        // a to k·a shards splits shards, never shuffles tenants across
        // unrelated ones.
        let a1 = ShardAssignment::new(1);
        let a4 = ShardAssignment::new(4);
        let a8 = ShardAssignment::new(8);
        let a16 = ShardAssignment::new(16);
        for i in 0..5_000 {
            assert_eq!(a1.shard_of(i), 0);
            assert_eq!(a4.shard_of(i), a8.shard_of(i) / 2);
            assert_eq!(a4.shard_of(i), a16.shard_of(i) / 4);
            assert_eq!(a8.shard_of(i), a16.shard_of(i) / 2);
        }
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = HydrationGauge::new();
        g.enter();
        g.enter();
        assert_eq!(g.current.load(Ordering::SeqCst), 2);
        g.exit();
        assert_eq!(g.current.load(Ordering::SeqCst), 1);
        g.enter();
        g.enter();
        assert_eq!(g.peak(), 3);
        for _ in 0..3 {
            g.exit();
        }
        assert_eq!(g.current.load(Ordering::SeqCst), 0);
        assert_eq!(g.peak(), 3, "peak is a high-water mark");
    }

    /// Five members in waves of two, on two threads: the shard report
    /// lists them in member order across the wave boundaries and equals,
    /// tenant for tenant, what the unsharded run computes.
    #[test]
    fn results_fold_in_member_order_across_waves() {
        use crate::fleet_driver::FleetDriverConfig;
        use workload::fleet::{MixedFleetSpec, TierMix};
        let basic = TierMix {
            basic: 1.0,
            standard: 0.0,
            premium: 0.0,
        };
        let spec = MixedFleetSpec::new(5, basic, 17);
        let driver = FleetDriver::new(FleetDriverConfig::default());
        let oracle = driver.run(spec.materialize(), 2, 1);
        let shard = ShardDriver {
            members: (0..5).collect(),
            driver,
            threads: 2,
            retain_outcomes: true,
            gauge: Arc::new(HydrationGauge::new()),
        };
        let report = shard.drive(&spec, 2, 2);
        let indices: Vec<usize> = report.digests.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, [0, 1, 2, 3, 4]);
        let outcomes: Vec<TenantOutcome> = report
            .outcomes
            .expect("outcomes were retained")
            .into_iter()
            .map(|(_, o)| o)
            .collect();
        assert_eq!(outcomes, oracle.tenants);
        assert_eq!(
            report.totals.telemetry.counters(),
            oracle.telemetry.counters()
        );
        assert_eq!(report.totals.metrics, oracle.metrics);
        assert!(shard.gauge.peak() <= 2 && shard.gauge.current.load(Ordering::SeqCst) == 0);
    }
}
